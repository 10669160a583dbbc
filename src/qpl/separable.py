"""Separable-class machinery: membership, basis tests, the unique
basis-plus-padding decomposition, basis generating polynomials, and the
staircase bijections onto distinct congruent partitions.

Class membership constrains where overlines may sit.  Writing ell for the
number of parts and i for the 1-based written position of an overlined
part, the L family requires ell - i == 0 (mod k) and the F family requires
ell - i == -1 (mod k).  Under the respective conventions these reduce to
counting conditions: L_k holds iff every overlined size t has the number of
parts smaller than t divisible by k; F_k holds iff every overlined size t
has the number of parts of size <= t divisible by k.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from math import inf
from operator import itemgetter, lt

from .core import Convention, Overpartition, Partition, _not_an_overpartition
from .enumeration import ClassTag, _basis_children, _basis_family, _swept
from .series import ZQPoly, _check_ints


def _convention_mismatch(pi: Overpartition, convention: Convention, what: str):
    return ValueError(
        f"{what} expects the {convention.value}-occurrence convention, "
        f"got {pi.convention.value}"
    )


def is_member(pi: Overpartition, tag: ClassTag) -> bool:
    """Class membership via the counting reduction (O(distinct sizes))."""
    try:
        convention = pi.convention
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    if tag.family == "all":
        return True
    if convention is not tag.convention:
        raise _convention_mismatch(pi, tag.convention, f"{tag.family}_k membership")
    k = tag.k
    if k == 1:  # every count is a multiple of 1
        return True
    first = tag.family == "F"
    below = 0
    for _, mult, overlined in reversed(pi.entries):
        if overlined and (below + mult if first else below) % k:
            return False
        below += mult
    return True


def _overlinable_sizes(mults, tag: ClassTag) -> int:
    """Number of sizes of a plain profile, given by its multiplicities from
    the bottom size up, that may carry an overline in the tagged L_k or F_k
    class.

    The counting rule of :func:`is_member` tests each size on its own, so
    the members with this profile are exactly its overline choices on these
    sizes: C(a, z) of them carry z overlines.
    """
    k = tag.k
    first = tag.family == "F"
    below = allowed = 0
    for mult in mults:
        if (below + mult if first else below) % k == 0:
            allowed += 1
        below += mult
    return allowed


_multiplicity = itemgetter(1)
_overlined = itemgetter(2)


def is_basis_element(lam: Overpartition, family: str, k: int) -> bool:
    """Basis test: class membership, smallest-part rule, and the bounded
    adjacent-difference rule with family-specific strictness.

    Read on the blocks of equal sizes: the bottom size is 1 and adjacent
    blocks step by exactly 1 (so the top size is the number of blocks).  A
    step needs an overline on one of the two parts that meet there: under
    BL the bottom part of the upper block, so every block above the bottom
    is overlined; under BF the top part of the lower block, so every block
    below the top is.  A BF element with k >= 2 may not end in a single 1~;
    membership already rejects that, as F_k then needs the parts of size 1
    to number a multiple of k.
    """
    tag, _ = _basis_family(family, k)
    try:
        convention = lam.convention
    except AttributeError:
        raise _not_an_overpartition("lam", lam) from None
    if convention is not tag.convention:
        raise _convention_mismatch(lam, tag.convention, f"{family} basis test")
    return _is_basis(lam, family, tag)


def _is_basis(lam: Overpartition, family: str, tag: ClassTag) -> bool:
    """:func:`is_basis_element` past the lookup of the family's tag and the
    convention test, for callers that hold the tag."""
    entries = lam.entries
    if not entries or not is_member(lam, tag):
        return False
    if entries[-1][0] != 1 or entries[0][0] != len(entries):
        return False
    return all(map(_overlined, entries[:-1] if family == "BL" else entries[1:]))


@dataclass(frozen=True, slots=True)
class DecompositionWitness:
    """A basis element plus a non-increasing nonnegative padding of the same
    length; adding them partwise (overlines carried) recovers the member."""

    basis: Overpartition
    padding: tuple

    def __post_init__(self):
        if not isinstance(self.basis, Overpartition):
            raise ValueError(f"basis must be an Overpartition, got {self.basis!r}")
        padding = tuple(self.padding)
        if not set(map(type, padding)) <= {int}:
            raise ValueError(f"padding entries must be ints, got {padding!r}")
        _set_padding(self, padding)


_set_padding = DecompositionWitness.__dict__["padding"].__set__


def _make_witness(basis, padding, new=object.__new__, cls=DecompositionWitness,
                  set_basis=DecompositionWitness.__dict__["basis"].__set__,
                  set_padding=_set_padding):
    """Internal fast constructor, one frame as ``core._make_overpartition``;
    ``padding`` is a tuple of ints."""
    self = new(cls)
    set_basis(self, basis)
    set_padding(self, padding)
    return self


DecompositionWitness._make = staticmethod(_make_witness)


def compose(witness: DecompositionWitness) -> Overpartition:
    """Partwise sum of basis and padding; inverse of :func:`decompose`.

    Works block by block, never on written parts: the padding under one
    basis block splits into runs of equal values, each run a block of the
    sum, and the basis block's overline goes on the run that holds the
    block's first position (FIRST) or its last (LAST).  A canonical basis
    gives strictly decreasing sizes; a basis built past validation may
    repeat or raise one, and is merged or refused as
    :meth:`Overpartition.from_written` would.  A short padding is filled
    with zeros, and its order is checked in one pass over adjacent entries.
    """
    lam = witness.basis
    return Overpartition._make(_composed_entries(lam, witness.padding), lam.convention)


def _composed_entries(lam: Overpartition, mu: tuple) -> tuple:
    """The entries of :func:`compose`'s sum, for callers that compare them.

    The padding is non-increasing, so each run of equal values is
    contiguous and ends at ``mu.index(pad) + mu.count(pad)``.  A block
    whose first and last padding agree is one run, the common case, and
    needs no search."""
    entries = lam.entries
    short = sum(map(_multiplicity, entries)) - len(mu)
    if short < 0:
        raise ValueError("padding longer than basis")
    if short:
        mu += (0,) * short
    if any(map(lt, mu, mu[1:])):
        raise ValueError("padding must be non-increasing")
    if mu and mu[-1] < 0:  # the least entry of a non-increasing padding
        raise ValueError("padding must be nonnegative")
    first = lam.convention is Convention.FIRST
    out = []
    append = out.append
    prev = inf  # the size of the last block of the sum
    end = 0
    for size, mult, over in entries:
        start, end = end, end + mult
        mark = start if first else end - 1  # the position the overline marks
        at = start
        while at < end:
            pad = mu[at]
            stop = end if pad == mu[end - 1] else mu.index(pad) + mu.count(pad)
            part = size + pad
            run_over = over and at <= mark < stop
            if part < prev:
                append((part, stop - at, run_over))
                prev = part
            elif part == prev:
                _, above_mult, above_over = out[-1]
                if above_over and run_over:
                    raise ValueError(f"size {part} overlined twice")
                out[-1] = (part, above_mult + stop - at, above_over or run_over)
            else:
                raise ValueError("part sizes must be non-increasing")
            at = stop
    if out and prev <= 0:
        raise ValueError(f"part size must be positive, got {prev}")
    return tuple(out)


def decompose(pi: Overpartition, family: str, k: int) -> DecompositionWitness:
    """Unique witness for a class member, built block by block from the
    bottom.

    The overlines of the member pin down the basis element (composition
    preserves overline positions), so the basis is forced: the bottom part
    has size 1, and each part repeats the basis size of the part below it
    except that BL bumps it at an overlined part and BF just above one.
    Within a block of equal sizes only the block's first (BL) or last (BF)
    part can bump, so the basis and the padding are fixed per block.  The
    result is verified before returning (membership, the basis test and
    ``compose(witness) == pi``, all in block form); a verification failure
    means an internal bug, since every class member decomposes uniquely.
    """
    tag, _ = _basis_family(family, k)
    if not is_member(pi, tag):
        raise ValueError(f"overpartition is not a {tag.family}_{k} member")
    if not pi.entries:
        raise ValueError("the empty overpartition has no m-part decomposition")
    bl = family == "BL"
    blocks = []  # basis entries, bottom block first
    padding = []  # bottom part first
    size = 0  # the basis size of the current block
    below_over = False
    for part, mult, over in reversed(pi.entries):
        if not size or (over if bl else below_over):
            size += 1
            blocks.append((size, mult, over))
        else:  # blocks of pi that share a basis size merge
            _, below_mult, block_over = blocks[-1]
            blocks[-1] = (size, below_mult + mult, block_over or over)
        padding += (part - size,) * mult
        below_over = over
    blocks.reverse()
    padding.reverse()
    basis = Overpartition._make(tuple(blocks), tag.convention)
    padding = tuple(padding)
    try:  # the sum rejects a negative or increasing padding
        # membership fixed pi's convention to the basis's, so the entries
        # decide compose(witness) == pi
        ok = _is_basis(basis, family, tag) and _composed_entries(basis, padding) == pi.entries
    except ValueError:
        ok = False
    if not ok:
        raise AssertionError(
            f"decomposition of {pi.text()!r} failed verification"
        )
    return DecompositionWitness._make(basis, padding)


def _basis_histograms(family: str, k: int, trunc, parts: int) -> tuple:
    """One walk of the basis elements of (family, k) with weight <= trunc
    and at most ``parts`` parts, read through enumeration._swept, as
    {(weight, overlines): count} by (length, top size, top overline) for
    basis_gf, and by (length mod k, end overline) for the I18/I19 sides
    when ``parts`` >= trunc: no element of weight <= trunc has more parts,
    so that walk is stored with no part bound.

    Every prefix of an element is one, so a depth-first walk over the
    choices of enumeration._basis_children counts each element as it pops
    its node ``(weight, overlines, length, top size, top overline, size 1
    overlined)``; nothing is built or sorted."""
    cap = parts if trunc is None or parts < trunc else None

    def walk():
        _, allowed = _basis_family(family, k)
        bl = family == "BL"
        by_top, by_end = defaultdict(Counter), defaultdict(Counter)
        stack = [(0, 0, 0, 0, False, False)]  # the empty prefix
        pop, push = stack.pop, stack.append
        while stack:
            weight, overlines, length, top, top_over, low_over = pop()
            if length:
                by_top[length, top, top_over][weight, overlines] += 1
                if cap is None:
                    by_end[length % k, low_over if bl else top_over][weight, overlines] += 1
            if length == parts:
                continue
            for size, over in _basis_children(family, allowed, length, top, top_over):
                if trunc is None or weight + size <= trunc:
                    push((weight + size, overlines + over, length + 1, size, over,
                          low_over or over and size == 1))
        return by_top, by_end

    return _swept(("basis", family, k), (trunc, cap), walk)


def basis_gf(family: str, k: int, parts: int, j: int, overlined: bool, trunc=None) -> ZQPoly:
    """Sum of z^(overline count) q^weight over basis elements with the given
    part count whose largest part is j (overlined or plain as requested).

    With no truncation given, the polynomial is computed exactly at the
    largest weight that occurs (0 if the set is empty).  The counts come
    from the shared histograms of :func:`_basis_histograms`.
    """
    _check_ints(k=k, parts=parts, j=j)
    if trunc is not None:
        _check_ints(trunc=trunc)
    if type(overlined) is not bool:
        raise ValueError(f"overlined must be a bool, got {overlined!r}")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    counts = _basis_histograms(family, k, trunc, parts)[0].get((parts, j, overlined), {})
    if trunc is None:
        trunc = max((weight for weight, _ in counts), default=0)
    return ZQPoly.from_counts(counts, trunc)


def toggle_extreme_overline(lam: Overpartition, family: str) -> Overpartition:
    """Flip the overline on the smallest part (BL) or the largest part (BF).

    An involution exchanging the basis subsets with and without that
    extreme overline; weight is unchanged and the overline count moves by 1.
    """
    try:
        entries = lam.entries
    except AttributeError:
        raise _not_an_overpartition("lam", lam) from None
    if not entries:
        raise ValueError("cannot toggle an empty overpartition")
    if family == "BL":
        size, mult, over = entries[-1]
        if size != 1:
            raise ValueError("smallest part must have size 1")
        entries = entries[:-1] + ((size, mult, not over),)
    elif family == "BF":
        size, mult, over = entries[0]
        entries = ((size, mult, not over),) + entries[1:]
    else:
        raise ValueError(f"unknown basis family {family!r}")
    return Overpartition._make(entries, lam.convention)


def _bijection_to_distinct(lam: Overpartition, family: str, k: int, s: int) -> Partition:
    """Part i of the image (0-based, largest first) counts the parts of lam
    of size > i: one suffix sum of the multiplicities m_t, top block first.
    With L_t = m_t - k below the top size j and L_j = m_j - s, that is the
    staircase k(j-1-i) + s plus the sum of L_t over t > i.

    No count needs checking past the basis, residue and extreme-overline
    tests: L_k or F_k membership with sizes 1..j-1 overlined makes each m_t
    below j a multiple of k, and the residue makes m_j = s (mod k) with
    1 <= s <= k, so every L_t is a nonnegative multiple of k."""
    if not isinstance(lam, Overpartition):
        raise ValueError(f"lam must be an Overpartition, got {lam!r}")
    _check_ints(s=s)
    if not is_basis_element(lam, family, k):
        raise ValueError(f"not a {family} basis element")
    if (lam.num_parts - 1) % k + 1 != s:
        raise ValueError("part count does not match s mod k")
    bl = family == "BL"
    if lam.entries[-1 if bl else 0][2] != bl:
        raise ValueError("smallest part must be overlined" if bl else "largest part must be plain")
    return Partition(reversed(tuple(accumulate(map(_multiplicity, lam.entries)))))


def _bijection_from_distinct(nu: Partition, family: str, k: int, s: int) -> Overpartition:
    """Inverse of :func:`_bijection_to_distinct`, read from the smallest part
    up: size i+1 gets nu_i - nu_(i+1) copies, with nu_j = 0.  That is the
    step c_i - c_(i+1) of c_i = nu_i - k(j-1-i) - s, plus k, or s at the
    top; nu fits only if every step is >= 0 and a multiple of k.  Sizes
    below j are overlined, and j only under BL."""
    if not isinstance(nu, Partition):
        raise ValueError(f"nu must be a Partition, got {nu!r}")
    tag, _ = _basis_family(family, k)
    _check_ints(s=s)
    if not 1 <= s <= k:
        raise ValueError("s must satisfy 1 <= s <= k")
    j = len(nu)
    if j < 1:
        raise ValueError("need at least one part")
    entries = []
    smaller = 0  # the part read before this one
    for size in range(j, 0, -1):
        part = nu.parts[size - 1]
        step = part - smaller - (s if size == j else k)
        if step < 0 or step % k:
            raise ValueError("partition does not fit the staircase")
        entries.append((size, part - smaller, size < j or family == "BL"))
        smaller = part
    lam = Overpartition._make(tuple(entries), tag.convention)
    if not _is_basis(lam, family, tag):
        raise AssertionError("inverse image failed the basis check")
    return lam


def bl_bijection_to_distinct(lam: Overpartition, k: int, s: int) -> Partition:
    """Map a BL basis element with overlined smallest part and part count
    congruent to s (mod k) to a partition with j distinct parts congruent to
    s (mod k), where j is the largest part size.  Weight is preserved."""
    return _bijection_to_distinct(lam, "BL", k, s)


def bl_bijection_from_distinct(nu: Partition, k: int, s: int) -> Overpartition:
    """Inverse of :func:`bl_bijection_to_distinct`."""
    return _bijection_from_distinct(nu, "BL", k, s)


def bf_bijection_to_distinct(lam: Overpartition, k: int, s: int) -> Partition:
    """Map a BF basis element with plain largest part and part count
    congruent to s (mod k) to a partition with j distinct parts congruent to
    s (mod k), where j is the largest part size.  Weight is preserved."""
    return _bijection_to_distinct(lam, "BF", k, s)


def bf_bijection_from_distinct(nu: Partition, k: int, s: int) -> Overpartition:
    """Inverse of :func:`bf_bijection_to_distinct`."""
    return _bijection_from_distinct(nu, "BF", k, s)
