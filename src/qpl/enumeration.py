"""Exhaustive generators: the brute-force side of every identity check.

Overpartitions are generated by building plain size-multiplicity profiles
first and then expanding every subset of distinct sizes as the overlined
ones, so each overpartition of n appears exactly once.  Public generators
yield in a fixed order (lexicographic on the canonical text) so golden
outputs are stable.

The sweeps behind the identity checks count instead of building objects.
A profile with d distinct sizes carries 2^d overpartitions, and an overline
on one size does not constrain the overlines on the others, so
:func:`weighted_profiles` visits each profile once with its weight.  Every
prefix of a basis element is itself a basis element, so :func:`basis_nodes`
visits each basis element once as a node of one depth-first walk, carrying
only the counts the checks read.  The object generators stay as the public
API and as the reference the tests compare the sweeps with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


def weighted_profiles(n: int):
    """Each plain profile of n once, as ``(pi, count)``: ``pi`` is the
    overpartition with that profile and no overline (last-occurrence
    convention), and ``count`` = 2^d is the number of overpartitions that
    share the profile, d being its number of distinct sizes.  A statistic
    that ignores overlines sums over this walk as over
    :func:`iter_overpartitions`, with 2^d times fewer objects."""
    if n < 0:
        raise ValueError("n must be >= 0")
    make = Overpartition._make
    for profile in _profiles(n, n):
        plain = tuple((size, mult, False) for size, mult in profile)
        yield make(plain, Convention.LAST), 1 << len(profile)


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


def _basis_family(family: str, k: int):
    """The convention of a basis family and its overline-position test: may
    the part at 0-based position ``length`` from the bottom be overlined."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if family == "BL":
        return Convention.LAST, lambda length: length % k == 0
    if family == "BF":
        return Convention.FIRST, lambda length: (length + 1) % k == 0
    raise ValueError(f"unknown basis family {family!r}")


def _basis_children(family: str, allowed, length: int, size: int, over: bool):
    """The ``(size, overlined)`` choices for the part at position ``length``
    above the part ``(size, over)``.  The size is forced by the part below:
    the bottom part has size 1; in BL an overline bumps the size; in BF the
    size bumps after an overlined part, and an overline decorates it."""
    if length == 0:
        plain = lifted = 1
    elif family == "BL":
        plain, lifted = size, size + 1
    else:
        plain = lifted = size + 1 if over else size
    return ((plain, False), (lifted, True)) if allowed(length) else ((plain, False),)


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
    convention, allowed = _basis_family(family, k)
    results = []
    # Stack holds (parts bottom-first, weight); parts are (size, overlined).
    stack = [([], 0)]
    while stack:
        parts, weight = stack.pop()
        length = len(parts)
        if length == m:
            results.append(Overpartition.from_written(reversed(parts), convention))
            continue
        below = parts[-1] if parts else (0, False)
        for size, over in _basis_children(family, allowed, length, *below):
            w = weight + size
            if max_weight is not None and w > max_weight:
                continue
            stack.append((parts + [(size, over)], w))
    results.sort(key=Overpartition.text)
    return results


class BasisNode(NamedTuple):
    """One basis element as :func:`basis_nodes` sees it: no parts, only the
    counts and flags the identity checks read."""

    weight: int
    overlined: int  # overlined parts, one per overlined size
    length: int  # number of parts
    top_size: int  # the largest size
    top_overlined: bool  # the first written part is overlined
    smallest_overlined: bool  # size 1 carries an overline
    # The largest size carries an overline.  Under BL the overline sits on
    # the bottom part of its block, so "2,2~,1" has a plain first part but
    # an overlined largest size.
    largest_overlined: bool


def basis_nodes(family: str, k: int, max_weight=None, max_length=None):
    """Every basis element with weight <= ``max_weight`` and at most
    ``max_length`` parts, once each and in no particular order, as a
    :class:`BasisNode`.  One depth-first walk emits every prefix, since each
    prefix is itself a basis element; nothing is built or sorted.  At least
    one bound must be given."""
    _, allowed = _basis_family(family, k)
    if max_weight is None and max_length is None:
        raise ValueError("give max_weight or max_length")
    stack = [BasisNode(0, 0, 0, 0, False, False, False)]  # the empty prefix
    while stack:
        node = stack.pop()
        if node.length:
            yield node
        if node.length == max_length:
            continue
        for size, over in _basis_children(
            family, allowed, node.length, node.top_size, node.top_overlined
        ):
            weight = node.weight + size
            if max_weight is not None and weight > max_weight:
                continue
            stack.append(BasisNode(
                weight,
                node.overlined + over,
                node.length + 1,
                size,
                over,
                node.smallest_overlined or (over and size == 1),
                over or (node.largest_overlined and size == node.top_size),
            ))


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
