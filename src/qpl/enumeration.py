"""Exhaustive generators: the brute-force side of every identity check.

Overpartitions are generated by one depth-first walk over written parts,
largest first, that tries the next part in canonical text order, so every
overpartition of n appears exactly once and already in text order: nothing
is formatted or sorted.  Corteel and Lovejoy's rule (at most one overline
per size) is kept by the blocks of equal sizes: under the last-occurrence
convention an overlined part closes its block, under the first-occurrence
one it may only open one.  The same walk streams the classes L_k and F_k:
it counts the parts it places and visits members only, and the stream of
all overpartitions is its k = 1 case.  What can follow a prefix depends on
a small state, not on the prefix, so near the leaves the walk stops
branching: a node of small remaining weight joins its prefix to each entry
of a list of completions built once for its state and shared by every
call.  Public generators yield in a fixed order (lexicographic on the
canonical text) so golden outputs are stable.

The sweeps behind the identity checks count instead of building objects.
A profile with d distinct sizes carries 2^d overpartitions, and an overline
on one size does not constrain the overlines on the others, so
:func:`weighted_profiles` visits each profile once with its weight.  Every
prefix of a basis element is itself a basis element, so
``separable._basis_histograms`` visits each basis element once as a node
of one depth-first walk, by the child rule of :func:`_basis_children`,
carrying only the counts the checks read.  ``identities._profile_histograms``
walks the profiles in the same way, smallest size first, each node carrying
its records down instead of building a profile tuple to scan.  The object
generators stay as the public API and as the reference the tests compare
the sweeps with.  :func:`_basis_family` is the one statement of a basis
family: its class tag, which carries the convention, and where it allows
an overline.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Convention, Overpartition, Partition, _Record
from .series import _check_ints


class ClassTag(_Record):
    """Membership parameters: all overpartitions, or one of the two
    overline-position classes with modulus k.  ``convention`` is the one
    the family's positions are read in."""

    _fields = ("family", "k")  # family: "all", "L" or "F"
    __slots__ = (*_fields, "convention")

    def __init__(self, family: str, k: int = 0):
        if family not in ("all", "L", "F"):
            raise ValueError(f"unknown class family {family!r}")
        if type(k) is not int:
            raise ValueError(f"k must be an int, got {k!r}")
        if family != "all" and k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "convention",
                           Convention.FIRST if family == "F" else Convention.LAST)


def _profiles(n: int, max_size: int):
    """Plain partitions of n with parts <= max_size, as ((size, mult), ...)
    tuples with sizes descending."""
    if n == 0:
        yield ()
        return
    for size in range(min(n, max_size), 0, -1):
        for mult in range(1, n // size + 1):
            head = ((size, mult),)
            for rest in _profiles(n - size * mult, size - 1):
                yield head + rest


def _token_tables(n: int, convention: Convention):
    """For each cap c = 0..n, the written parts ``(size, overlined)`` with
    size <= c in reverse text order, so a stack pops them in text order:
    "1" < "10" < "1~" < "2".  Comparing texts token by token is comparing
    the whole texts, because "," sorts below every digit and "~".  Under
    LAST a second table drops "1~", which closes its block and so ends the
    walk while weight remains; under FIRST it drops "c~", which cannot
    extend a block of size c."""
    tokens = sorted(
        ((size, over) for size in range(1, n + 1) for over in (False, True)),
        key=lambda tok: f"{tok[0]}~" if tok[1] else str(tok[0]),
        reverse=True,
    )
    full = [tuple(tok for tok in tokens if tok[0] <= c) for c in range(n + 1)]
    if convention is Convention.LAST:
        pruned = [tuple(tok for tok in row if tok != (1, True)) for row in full]
    else:
        pruned = [tuple(tok for tok in row if tok != (c, True)) for c, row in enumerate(full)]
    return full, pruned


def iter_overpartitions(n: int, convention: Convention = Convention.LAST):
    """All overpartitions of n, in canonical text order.

    The k = 1 case of the class walk (see :func:`_class_walk`), in which
    every overline is allowed.
    """
    return _class_walk(n, Convention(convention), 1)


# A node of the class walk whose remaining weight is at most this finishes
# from a shared suffix list instead of pushing children.  Most of a walk's
# nodes lie this close to the leaves.  Smaller values share less; with 8
# or 10 the enumerate benchmark's wall time was the same within its noise,
# and a small walk builds more lists that it uses about once.
_SUFFIX_WEIGHT = 6


def _class_walk(n: int, convention: Convention, k: int):
    """The members of L_k (LAST) or F_k (FIRST) of weight n, in canonical
    text order; every overpartition of n when k = 1.

    A depth-first walk over written parts with an explicit stack.  A stack
    entry is a prefix ``(closed blocks, open block, remaining weight,
    phase)``, the open block being the last ``(size, mult, overlined)``
    entry, or None for the empty prefix.  Its children are the next written
    parts in text order, so each overpartition is yielded once, and nothing
    is formatted or sorted.  A part of the open block's size extends that
    block, and only the block is rebuilt; a smaller size opens a new one,
    and all such children of a node share one tuple of closed blocks.
    Under LAST an overlined part closes its block, under FIRST it may only
    open one.

    Membership asks that the total part count be congruent mod k to the
    parts placed up to an overline: including it under LAST, where it
    closes its block, and before it under FIRST, where it opens one.  The
    first overline fixes that residue.  The phase is the parts placed
    minus the residue, mod k, or -1 while no overline is placed; a later
    overline is allowed only where it would fix the same residue, and a
    leaf is a member when its phase is -1 or 0.

    What can follow a node depends only on its state: the remaining weight,
    the open block's size capped at remaining weight + 1 (past which it
    stops mattering), whether that block is overlined, and the phase.  So a
    node with remaining weight at most ``_SUFFIX_WEIGHT`` pushes no
    children: it joins its prefix to each entry of its state's suffix list,
    in text order.  An entry is ``(parts added to the open block, overline
    added to it, new blocks)``; the leaf is ``closed + (extended open
    block,) + new blocks`` when the entry adds parts to the open block,
    and ``closed + (open block,) + new blocks`` otherwise.  The lists are built on first
    use, recursively over a node's children in text order, by the child
    rule the stack uses.  A state's remaining weight is at most
    ``_SUFFIX_WEIGHT``, and the token rows up to that weight are the same
    for every n, so the lists depend only on (convention, k): they live in
    the sweep cache, shared by every call, and their block tuples are
    shared by every object that ends in them.
    """
    _check_ints(n=n)
    if n < 0:
        raise ValueError("n must be >= 0")
    make = Overpartition._make
    if not n:
        yield make((), convention)
        return
    last = convention is Convention.LAST
    full, pruned = _token_tables(n, convention)
    if k > 1:  # the rows for a phase that forbids an overline
        plain = [tuple(tok for tok in row if not tok[1]) for row in full]
    # the phase an overline gives when it fixes the residue
    fixed = 0 if last else 1 % k

    def children(prev, block_over, rem, phase):
        """The written parts a node may add next, in reverse text order, and
        the phase of a plain and of an overlined child."""
        if last:  # an overlined block is closed, so block_over is the last part's
            cap = min(prev - 1 if block_over else prev, rem)
            row = (full if rem == 1 else pruned)[cap]
        else:
            cap = min(prev, rem)
            row = (pruned if prev <= rem else full)[cap]
        if k == 1:  # every overline is allowed; the phase stays -1
            return row, (-1, -1)
        if phase < 0:
            return row, (-1, fixed)
        step = (phase + 1) % k
        if (step if last else phase) != 0:  # an overline here would fix another residue
            row = plain[cap]
        return row, (step, step)

    suffixes = _swept(("suffixes", convention, k), (), dict)

    def suffix_list(rem, prev, block_over, phase):
        """Build and store the suffix list of a state not in ``suffixes``
        yet, ``prev`` being already capped at rem + 1."""
        entries = []
        if not rem:
            if phase <= 0:
                entries.append((0, False, ()))
        else:
            row, after = children(prev, block_over, rem, phase)
            for size, over in reversed(row):
                left = rem - size
                if size == prev:
                    key = (left, prev if prev <= left else left + 1, block_over or over,
                           after[over])
                else:
                    key = (left, size if size <= left else left + 1, over, after[over])
                sub = suffixes.get(key)
                if sub is None:
                    sub = suffix_list(*key)
                if size == prev:
                    entries += [(dm + 1, over or dov, blocks) for dm, dov, blocks in sub]
                else:
                    entries += [(0, False, ((size, dm + 1, over or dov),) + blocks)
                                for dm, dov, blocks in sub]
        suffixes[rem, prev, block_over, phase] = entries
        return entries

    stack = [((), None, n, -1)]
    pop, push, limit = stack.pop, stack.append, _SUFFIX_WEIGHT
    while stack:
        closed, block, rem, phase = pop()
        if block is None:  # the empty prefix
            prev, mult, block_over = n + 1, 0, False
            opened = closed
        else:
            prev, mult, block_over = block
            opened = closed + (block,)
        if rem <= limit:
            key = (rem, prev if prev <= rem else rem + 1, block_over, phase)
            entries = suffixes.get(key)
            if entries is None:
                entries = suffix_list(*key)
            for dm, dov, blocks in entries:
                if dm:
                    yield make(closed + ((prev, mult + dm, block_over or dov),) + blocks,
                               convention)
                else:
                    yield make(opened + blocks, convention)
            continue
        row, after = children(prev, block_over, rem, phase)
        for size, over in row:
            if size == prev:
                push((closed, (size, mult + 1, block_over or over), rem - size, after[over]))
            else:
                push((opened, (size, 1, over), rem - size, after[over]))


def weighted_profiles(n: int):
    """Each plain profile of n once, as ``(pi, count)``: ``pi`` is the
    overpartition with that profile and no overline (last-occurrence
    convention), and ``count`` = 2^d is the number of overpartitions that
    share the profile, d being its number of distinct sizes.  A statistic
    that ignores overlines sums over this walk as over
    :func:`iter_overpartitions`, with 2^d times fewer objects."""
    _check_ints(n=n)
    if n < 0:
        raise ValueError("n must be >= 0")
    make = Overpartition._make
    for profile in _profiles(n, n):
        plain = tuple((size, mult, False) for size, mult in profile)
        yield make(plain, Convention.LAST), 1 << len(profile)


def overpartitions_of(n: int, convention: Convention = Convention.LAST):
    """All overpartitions of n, ordered lexicographically by canonical text.

    The stream of :func:`iter_overpartitions`, which walks in that order."""
    return iter_overpartitions(n, convention)


def enumerate_class(n: int, tag: ClassTag):
    """Overpartitions of n belonging to the tagged class, in text order.

    The L family uses the last-occurrence convention, F the first-occurrence
    one; "all" defaults to last-occurrence.  The class walk visits members
    only, so nothing is filtered afterwards.
    """
    return _class_walk(n, tag.convention, 1 if tag.family == "all" else tag.k)


@lru_cache(maxsize=64, typed=True)  # untyped, 1, True and 1.0 would share a key
def _basis_family(family: str, k: int):
    """The class tag of a basis family, BL in L_k and BF in F_k, which
    validates k and carries the family's convention, and its overline
    test: may the part at 0-based position ``length`` from the bottom be
    overlined."""
    if family == "BL":
        return ClassTag("L", k), lambda length: length % k == 0
    if family == "BF":
        return ClassTag("F", k), lambda length: (length + 1) % k == 0
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
    _check_ints(k=k, m=m)
    if max_weight is not None:
        _check_ints(max_weight=max_weight)
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    tag, allowed = _basis_family(family, k)
    results = []
    # Stack holds (parts bottom-first, weight); parts are (size, overlined).
    stack = [([], 0)]
    while stack:
        parts, weight = stack.pop()
        length = len(parts)
        if length == m:
            results.append(Overpartition.from_written(reversed(parts), tag.convention))
            continue
        below = parts[-1] if parts else (0, False)
        for size, over in _basis_children(family, allowed, length, *below):
            w = weight + size
            if max_weight is not None and w > max_weight:
                continue
            stack.append((parts + [(size, over)], w))
    results.sort(key=Overpartition.text)
    return results


# The sweep cache: key -> (bounds, data).  A key names what is counted:
# ("profiles",) the one profile walk, ("excludant", r) its read at chain
# length r, ("basis", family, k) one basis walk, ("suffixes", convention, k)
# the class walk's suffix lists, filled as walks reach their states.  The
# bounds are the walk's, a tuple in which None means unbounded (the suffix
# lists have none); _swept reads and fills it.
_SWEEPS: dict = {}


def _swept(key, bounds, build):
    """The data at ``key`` if each stored bound covers the one in ``bounds``
    (is None, or no smaller); else ``build()``, stored with ``bounds`` in place
    of the old entry, neither merged nor widened (one more basis part can cost
    far more).  Every histogram keeps the weight, and a basis histogram the
    length, in its keys, so a reader filters out what lies past its bounds."""
    cached = _SWEEPS.get(key)
    if cached is None or cached[0] != bounds and not all(
            old is None or new is not None and old >= new for old, new in zip(cached[0], bounds)):
        cached = _SWEEPS[key] = (bounds, build())
    return cached[1]


def distinct_congruent_partitions(n: int, j: int, k: int, s: int):
    """Partitions of n into exactly j distinct parts congruent to s mod k.

    For s = k this means parts divisible by k.  Yields in descending
    lexicographic order of the part tuples.
    """
    _check_ints(n=n, j=j, k=k, s=s)
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
