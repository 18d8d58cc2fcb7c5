"""Seeded, reproducible generation of carriers, functions, spans, relations.

Every random draw is keyed by the 64-bit config seed plus a textual tag, so
any single check (and any single trial inside it) can be replayed without
running what came before it.  Carrier sizes are uniform on [0, max]; spans
are uniform over apex sizes and leg assignments given the carriers;
relations are uniform over subsets of the pair set.
"""

from __future__ import annotations

import random
from collections import namedtuple

try:  # a builtin digest: ``hashlib`` loads OpenSSL, megabytes of memory
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .fin import FinSet, SetFn, memoised
from .rels import Rel, RelCell
from .spans import Span, SpanCell, relabel_apex

SUITES = ("kernel", "homprod", "mapprod", "groth", "lax", "cartesian", "monoidal")
INSTANCES = ("span", "rel")


class InvalidConfig(ValueError):
    pass


class GenConfig(namedtuple("GenConfig",
                           "seed max_carrier trials instance suites")):
    """A run's settings, checked when built."""
    __slots__ = ()

    def __new__(cls, seed, max_carrier, trials, instance, suites):
        if not 0 <= seed < 2 ** 64:
            raise InvalidConfig("seed must fit in 64 bits")
        if max_carrier < 0:
            raise InvalidConfig("max-carrier must be nonnegative")
        if trials <= 0:
            raise InvalidConfig("trials must be positive")
        if instance not in INSTANCES:
            raise InvalidConfig("unknown instance %r" % (instance,))
        if not suites:
            raise InvalidConfig("empty suite selection")
        for s in suites:
            if s not in SUITES:
                raise InvalidConfig("unknown suite %r" % (s,))
        return super().__new__(cls, seed, max_carrier, trials, instance,
                               suites)

    @classmethod
    def _make(cls, fields):
        """Through :meth:`__new__`, so ``_replace`` validates too."""
        return cls(*fields)


def derive_seed(seed: int, tag: str) -> int:
    digest = sha256(("%d:%s" % (seed, tag)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(derive_seed(seed, tag))


@memoised
def canonical_carrier(prefix: str, size: int) -> FinSet:
    """The carrier ``prefix0 .. prefix{size-1}``: the laws are invariant
    under relabelling, so one carrier per size stands for all of them."""
    return FinSet("%s%d" % (prefix, i) for i in range(size))


def carrier(rng: random.Random, prefix: str, max_size: int) -> FinSet:
    return canonical_carrier(prefix, rng.randint(0, max_size))


def set_fn(rng: random.Random, A: FinSet, C: FinSet):
    """A uniform function, or None when none exists."""
    if len(A) == 0:
        return SetFn(A, C, ())
    if len(C) == 0:
        return None
    elems = tuple(C)
    return SetFn(A, C, (rng.choice(elems) for _ in A))


def span(rng: random.Random, X: FinSet, A: FinSet, max_apex: int):
    apex = carrier(rng, "s", max_apex)
    if len(apex) > 0 and (len(X) == 0 or len(A) == 0):
        apex = FinSet(())
    left = set_fn(rng, apex, X)
    right = set_fn(rng, apex, A)
    return Span(X, A, apex, left, right)


def rel(rng: random.Random, X: FinSet, A: FinSet) -> Rel:
    pairs = [(x, a) for x in X for a in A if rng.random() < 0.5]
    return Rel(X, A, pairs)


def one_cell(B, rng: random.Random, X: FinSet, A: FinSet, max_size: int):
    """A random 1-cell of the instance between the given carriers."""
    if B.name == "rel":
        return rel(rng, X, A)
    return span(rng, X, A, max_size)


def map_cell(B, rng: random.Random, X: FinSet, A: FinSet, scramble=True):
    """A random map ``X -> A`` of the instance, or None when there is none.

    For spans the apex is optionally relabeled away from canonical graph
    form, so map-handling code paths see non-normalized inputs too.
    """
    fn = set_fn(rng, X, A)
    if fn is None:
        return None
    m = B.graph(fn)
    if B.name == "span" and scramble and len(X) > 0 and rng.random() < 0.5:
        names = canonical_carrier("q", len(X))
        values = list(names)
        rng.shuffle(values)
        m = relabel_apex(m, SetFn(m.apex, names, values))
    return m


def thicken(B, rng: random.Random, R, extra: int):
    """A 1-cell containing ``R`` together with the inclusion 2-cell into it.

    The cheap way to sample a valid 2-cell with a prescribed domain.
    """
    if B.name == "rel":
        bigger = Rel(R.source, R.target,
                     R.pairset.union((x, a) for x in R.source for a in R.target
                                     if rng.random() < 0.3))
        return bigger, RelCell(R, bigger)
    fresh, i = [], 0
    while len(fresh) < extra:
        cand = "e%d" % i
        i += 1
        if cand not in R.apex:
            fresh.append(cand)
    if len(R.source) == 0 or len(R.target) == 0:
        fresh = []
    apex = FinSet(tuple(R.apex) + tuple(fresh))
    lvals = tuple(R.left.values) + tuple(
        rng.choice(tuple(R.source)) for _ in fresh)
    rvals = tuple(R.right.values) + tuple(
        rng.choice(tuple(R.target)) for _ in fresh)
    bigger = Span(R.source, R.target, apex,
                  SetFn(apex, R.source, lvals), SetFn(apex, R.target, rvals))
    return bigger, SpanCell(R, bigger, SetFn(R.apex, apex, R.apex.elements))


def thin(B, rng: random.Random, R):
    """A 1-cell contained in ``R`` with the inclusion 2-cell out of it."""
    if B.name == "rel":
        smaller = Rel(R.source, R.target,
                      (p for p in R.pairs if rng.random() < 0.7))
        return smaller, RelCell(smaller, R)
    keep = tuple(s for s in R.apex if rng.random() < 0.7)
    apex = FinSet(keep)
    smaller = Span(R.source, R.target, apex,
                   SetFn(apex, R.source, (R.left(s) for s in keep)),
                   SetFn(apex, R.target, (R.right(s) for s in keep)))
    return smaller, SpanCell(smaller, R, SetFn(apex, R.apex, keep))

