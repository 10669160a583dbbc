"""Exhaustive generators: the brute-force side of every identity check.

Overpartitions are generated by building plain size-multiplicity profiles
first and then expanding every subset of distinct sizes as the overlined
ones, so each overpartition of n appears exactly once.  Public generators
yield in a fixed order (lexicographic on the canonical text) so golden
outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Convention, Overpartition, Partition


@dataclass(frozen=True)
class ClassTag:
    """Membership parameters: all overpartitions, or one of the two
    overline-position classes with modulus k."""

    family: str  # "all", "L" or "F"
    k: int = 0

    def __post_init__(self):
        if self.family not in ("all", "L", "F"):
            raise ValueError(f"unknown class family {self.family!r}")
        if self.family != "all" and self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def convention(self) -> Convention:
        return Convention.FIRST if self.family == "F" else Convention.LAST


@lru_cache(maxsize=None)
def _profiles(n: int, max_size: int):
    """Plain partitions of n with parts <= max_size, as ((size, mult), ...)
    tuples with sizes descending."""
    if n == 0:
        return ((),)
    out = []
    for size in range(min(n, max_size), 0, -1):
        for mult in range(1, n // size + 1):
            head = ((size, mult),)
            for rest in _profiles(n - size * mult, size - 1):
                out.append(head + rest)
    return tuple(out)


def iter_overpartitions(n: int, convention: Convention = Convention.LAST):
    """All overpartitions of n, in no particular order (fast path)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    convention = Convention(convention)
    make = Overpartition._make
    for profile in _profiles(n, n):
        d = len(profile)
        for mask in range(1 << d):
            entries = tuple(
                (size, mult, bool(mask >> i & 1))
                for i, (size, mult) in enumerate(profile)
            )
            yield make(entries, convention)


def overpartitions_of(n: int, convention: Convention = Convention.LAST):
    """All overpartitions of n, ordered lexicographically by canonical text."""
    items = [(pi.text(), pi) for pi in iter_overpartitions(n, convention)]
    items.sort(key=lambda pair: pair[0])
    for _, pi in items:
        yield pi


def enumerate_class(n: int, tag: ClassTag):
    """Overpartitions of n belonging to the tagged class, in text order.

    The L family uses the last-occurrence convention, F the first-occurrence
    one; "all" defaults to last-occurrence.
    """
    from .separable import is_member

    for pi in overpartitions_of(n, tag.convention):
        if is_member(pi, tag):
            yield pi


def basis_elements(family: str, k: int, m: int, max_weight=None):
    """All basis elements with exactly m parts, in canonical text order.

    Elements grow from the bottom part upward: at each step the next size is
    forced by the part below, and an overline (bumping the size for BL, or
    decorating the forced size for BF) is allowed only at part positions
    compatible with the class modulus k.  ``max_weight`` prunes branches
    whose weight already exceeds it.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if family == "BL":
        convention = Convention.LAST
        allowed = lambda length: length % k == 0
    elif family == "BF":
        convention = Convention.FIRST
        allowed = lambda length: (length + 1) % k == 0
    else:
        raise ValueError(f"unknown basis family {family!r}")

    results = []
    # Stack holds (parts bottom-first, weight); parts are (size, overlined).
    # The bottom part has size 1 and takes an overline where position 0 may.
    stack = [
        ([(1, over)], 1)
        for over in ((False, True) if allowed(0) else (False,))
        if max_weight is None or max_weight >= 1
    ]
    while stack:
        parts, weight = stack.pop()
        length = len(parts)
        if length == m:
            results.append(Overpartition.from_written(reversed(parts), convention))
            continue
        top_size, top_over = parts[-1]
        if family == "BL":
            plain_size = top_size
            over_size = top_size + 1
        else:
            plain_size = top_size + 1 if top_over else top_size
            over_size = plain_size
        for size, over in (
            ((plain_size, False), (over_size, True))
            if allowed(length)
            else ((plain_size, False),)
        ):
            w = weight + size
            if max_weight is not None and w > max_weight:
                continue
            stack.append((parts + [(size, over)], w))
    results.sort(key=Overpartition.text)
    return results


def iter_basis_elements(family: str, k: int, max_weight: int):
    """Basis elements of every part count with weight <= max_weight."""
    m = 1
    while m <= max_weight:  # the all-ones element realizes weight m
        yield from basis_elements(family, k, m, max_weight=max_weight)
        m += 1


def distinct_congruent_partitions(n: int, j: int, k: int, s: int):
    """Partitions of n into exactly j distinct parts congruent to s mod k.

    For s = k this means parts divisible by k.  Yields in descending
    lexicographic order of the part tuples.
    """
    if not 1 <= s <= k:
        raise ValueError("s must satisfy 1 <= s <= k")
    if n < 1 or j < 1:
        return

    def rec(remaining, count, cap):
        # Parts chosen descending; cap is the exclusive upper bound.
        if count == 0:
            if remaining == 0:
                yield ()
            return
        # Smallest possible tail: s, s+k, ..., s+(count-1)k.
        min_tail = count * s + k * (count * (count - 1) // 2)
        if remaining < min_tail:
            return
        top = cap - 1
        top -= (top - s) % k
        for part in range(top, s - 1, -k):
            rest_needed = remaining - part
            if rest_needed < 0:
                continue
            # Largest sum count-1 distinct congruent parts below `part` reach.
            max_rest = (count - 1) * part - k * (count * (count - 1) // 2)
            if rest_needed > max_rest:
                break
            for rest in rec(rest_needed, count - 1, part):
                yield (part,) + rest

    for parts in rec(n, j, n + 1):
        yield Partition(parts)
