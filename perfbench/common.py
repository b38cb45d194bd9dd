"""Pieces shared by the workloads: operations, digests and size counting."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from finstream import circulation, models, spaces

# Open lattices are counted outside the timed region, up to this many opens;
# a larger lattice is recorded as null with the cap next to it.
OPEN_COUNT_CAP = 30_000


@dataclass
class Op:
    """One timed operation.

    ``prepare`` runs untimed and returns the zero-argument call that is
    timed. ``answer`` turns the call's result into the string compared with
    ``expected`` (the golden answer the seed code produced). A malformed
    operation has no golden answer: the CLI contract says it exits 2.
    """

    kind: str
    key: str
    prepare: Callable[[], Callable[[], Any]]
    answer: Callable[[Any], str] | None = None
    expected: str | None = None
    points: int | None = None
    opens: int | None = None
    malformed: bool = False


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def preorder_digest(p) -> str:
    """A preorder is its sorted carrier plus one successor bitmask per point."""
    return digest(repr((tuple(p.carrier), tuple(p.rows))))


def open_masks(space, cap: int = OPEN_COUNT_CAP) -> tuple[int, ...] | None:
    """The open lattice ascending, or None past cap. Uses the library's
    enumeration without its cache, so counting never fills the cache or
    passes through a tracer's wrapper."""
    try:
        return _ALL_OPENS(space, cap)
    except ValueError:
        return None


def count_opens(space, cap: int = OPEN_COUNT_CAP) -> int | None:
    opens = open_masks(space, cap)
    return None if opens is None else len(opens)


def clear_library_caches() -> None:
    """Empty the library's lru_caches, as a new process would start.

    The cached functions are taken when this module is imported, before any
    tracer replaces the module attributes with wrappers."""
    for fn in _CACHES:
        fn.cache_clear()


_CACHES = (spaces.all_opens, spaces.count_opens, circulation.enumerate_circulations)
_ALL_OPENS = spaces.all_opens.__wrapped__


def fresh_stream(stream):
    """The same stream with an empty value memo."""
    return circulation.Stream(stream.space, circulation.Circulation(stream.space, stream.circ.gen))


def endpoint_projection(n: int) -> dict[str, str]:
    """The quotient map from directed_interval(n) onto directed_circle(n)."""
    return {p: ("v0" if p == f"v{n}" else p) for p in models.directed_interval(n).space.points}


def draw_round(slots, rng) -> list:
    """One round: for each slot of (count, variants), count draws from its
    variants as evenly as the count allows (every variant count // len
    times, the rest without replacement), all shuffled together. Even draws
    keep the mix of sizes within a slot the same from seed to seed."""
    chosen = []
    for count, variants in slots:
        whole, rest = divmod(count, len(variants))
        chosen += variants * whole + rng.sample(variants, rest)
    rng.shuffle(chosen)
    return chosen
