"""Seeded, reproducible generation of a run's settings, carriers and maps.

Every random draw is keyed by the 64-bit config seed plus a textual tag, so
any single check (and any single trial inside it) can be replayed without
running what came before it.  Carrier sizes are uniform on [0, max].  Each
instance draws its own values from the ``rng`` it is given (``one_cell``,
``thicken``, ``thin``, ``scramble``, next to its exhaustive ``one_cells``),
so nothing here asks which instance it runs on.  Every map drawn here has
been through ``scramble``, so no check sees only canonical graphs.
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

from .fin import FinSet, canonical_carrier, set_fn

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


def carrier(rng: random.Random, prefix: str, max_size: int) -> FinSet:
    return canonical_carrier(prefix, rng.randint(0, max_size))


def map_cell(B, rng: random.Random, X: FinSet, A: FinSet):
    """A random map ``X -> A`` of the instance, or None when there is none:
    the graph of a uniform function passed through the instance's
    ``scramble``, so every map-handling code path sees non-normalized
    inputs too."""
    fn = set_fn(rng, X, A)
    return None if fn is None else B.scramble(rng, B.graph(fn))
