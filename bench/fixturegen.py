"""Seeded interchange-format fixtures for the ``fixture-compose`` workload.

The generator is self-contained: it does not import ``bicat``.  Each claim's
expected verdict is decided here, by comparing the claimed entity against
this module's own reference construction, so the benchmark can grade the
checker's verdicts independently of the checker.

A span is held as ``(source, target, triples)``: carrier names plus the
apex in order, one ``(apex label, left image, right image)`` triple per apex
element.  Labels are atoms (strings) or pairs of labels, as in the
interchange format.

Three claim kinds are emitted, about a quarter of each false:

* ``check compose R T = H``: R and T are fresh spans, so no two composites
  share inputs; H is the reference pullback, perturbed when false.
* ``check equal A B``: B re-declares A, perturbed when false.
* ``check map M``: M's left leg is a bijection onto the source when true.

``check cell`` records are not generated: deciding a cell between spans with
apexes this large goes through ``hom_cells`` enumeration, which exceeds its
budget (a known defect, tracked separately), so it would measure an error
path rather than a verdict.

Apex labels never coincide with carrier labels, and neither carriers nor
the apexes of generated inputs are empty, so no span in the document is an
identity or a canonical graph span: every composite goes through the
general pullback.
"""

from __future__ import annotations

import random

#: Records per generated document at full size.
RECORDS = 3000
#: Carrier sizes are fixed, not drawn: composite sizes depend most on the
#: size of the middle carrier, and six draws would make the work of one
#: seed differ widely from the next.
CARRIER_SIZES = (3, 4, 4, 5, 5, 6)
APEX_SIZES = (8, 40)
FALSE_SHARE = 0.25


def render(label) -> str:
    if isinstance(label, str):
        return label
    a, b = label
    return "(%s,%s)" % (render(a), render(b))


def pullback(R, T):
    """The canonical composite "R then T": the pairs ``(r, t)`` with
    ``right(r) == left(t)``, listed row-major in R's then T's apex order."""
    r_src, r_tgt, r_triples = R
    t_src, t_tgt, t_triples = T
    if r_tgt != t_src:
        raise ValueError("spans are not composable")
    triples = tuple(((r, t), rx, tz)
                    for r, rx, ry in r_triples
                    for t, ty, tz in t_triples
                    if ry == ty)
    return (r_src, t_tgt, triples)


def is_map(span, carriers) -> bool:
    """True when the left leg is a bijection from the apex onto the source."""
    source, _, triples = span
    lefts = [x for _, x, _ in triples]
    return len(set(lefts)) == len(lefts) == len(carriers[source])


def _random_span(rng, carriers, prefix, source, target):
    n = rng.randint(*APEX_SIZES)
    X, A = carriers[source], carriers[target]
    return (source, target,
            tuple(("%s_%d" % (prefix, i), rng.choice(X), rng.choice(A))
                  for i in range(n)))


def _perturb(rng, span, carriers):
    """A span differing from ``span``: one image moved, one element
    dropped, or two neighbours swapped in apex order."""
    source, target, triples = span
    triples = list(triples)
    choice = rng.randrange(3) if len(triples) >= 2 else 0
    if not triples:
        triples.append(("extra", carriers[source][0], carriers[target][0]))
    elif choice == 0:
        i = rng.randrange(len(triples))
        s, x, a = triples[i]
        others = [b for b in carriers[target] if b != a]
        triples[i] = (s, x, rng.choice(others))
    elif choice == 1:
        del triples[rng.randrange(len(triples))]
    else:
        i = rng.randrange(len(triples) - 1)
        triples[i], triples[i + 1] = triples[i + 1], triples[i]
    return (source, target, tuple(triples))


def generate(seed: int, records: int = RECORDS):
    """Return ``(text, claims)`` for one fixture document.

    ``claims`` lists ``(kind, expected_verdict)`` in check-record order, so
    the checker's row ``fixture-<i>-<kind>`` must read ``pass`` exactly when
    ``claims[i][1]`` is true.
    """
    rng = random.Random("fixture-compose:%d" % seed)
    carriers = {}
    lines = []
    for c, size in enumerate(CARRIER_SIZES):
        name = "X%d" % c
        carriers[name] = tuple("x%d_%d" % (c, j) for j in range(size))
        lines.append("set %s = %s" % (name, " ".join(carriers[name])))
    names = sorted(carriers)
    claims = []

    def span_line(name, span):
        source, target, triples = span
        body = " ".join("%s:%s:%s" % (render(s), x, a) for s, x, a in triples)
        return ("span %s : %s -> %s = %s" % (name, source, target, body)).rstrip()

    k = 0
    while len(lines) < records:
        false = rng.random() < FALSE_SHARE
        kind = rng.choices(("compose", "equal", "map"), weights=(2, 1, 1))[0]
        X, Y, Z = (rng.choice(names) for _ in range(3))
        if kind == "compose":
            R = _random_span(rng, carriers, "r%d" % k, X, Y)
            T = _random_span(rng, carriers, "t%d" % k, Y, Z)
            H = pullback(R, T)
            if false:
                H = _perturb(rng, H, carriers)
            lines += [span_line("R%d" % k, R), span_line("T%d" % k, T),
                      span_line("H%d" % k, H),
                      "check compose R%d T%d = H%d" % (k, k, k)]
            claims.append(("compose", H == pullback(R, T)))
        elif kind == "equal":
            A = _random_span(rng, carriers, "e%d" % k, X, Y)
            B = _perturb(rng, A, carriers) if false else A
            lines += [span_line("A%d" % k, A), span_line("B%d" % k, B),
                      "check equal A%d B%d" % (k, k)]
            claims.append(("equal", A == B))
        else:
            src = carriers[X]
            lefts = list(src)
            rng.shuffle(lefts)
            if false:
                i, j = rng.sample(range(len(lefts)), 2)
                lefts[i] = lefts[j]
            M = (X, Y, tuple(("m%d_%d" % (k, i), x, rng.choice(carriers[Y]))
                              for i, x in enumerate(lefts)))
            lines += [span_line("M%d" % k, M), "check map M%d" % k]
            claims.append(("map", is_map(M, carriers)))
        k += 1
    return "\n".join(lines) + "\n", claims
