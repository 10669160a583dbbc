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
from functools import lru_cache
from math import inf
from operator import itemgetter, lt

from .core import Convention, Overpartition, Partition
from .enumeration import ClassTag, _swept, basis_nodes
from .series import ZQPoly, _check_ints


def _convention_mismatch(pi: Overpartition, convention: Convention, what: str):
    return ValueError(
        f"{what} expects the {convention.value}-occurrence convention, "
        f"got {pi.convention.value}"
    )


def is_member(pi: Overpartition, tag: ClassTag) -> bool:
    """Class membership via the counting reduction (O(distinct sizes))."""
    if tag.family == "all":
        return True
    if pi.convention is not tag.convention:
        raise _convention_mismatch(pi, tag.convention, f"{tag.family}_k membership")
    k = tag.k
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


@lru_cache(maxsize=64)  # a tag validates itself on construction
def _family_tag(family: str, k: int) -> ClassTag:
    if family == "BL":
        return ClassTag("L", k)
    if family == "BF":
        return ClassTag("F", k)
    raise ValueError(f"unknown basis family {family!r}")


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
    tag = _family_tag(family, k)
    if lam.convention is not tag.convention:
        raise _convention_mismatch(lam, tag.convention, f"{family} basis test")
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
        padding = tuple(self.padding)
        if not set(map(type, padding)) <= {int}:
            raise ValueError(f"padding entries must be ints, got {padding!r}")
        _set_padding(self, padding)

    @classmethod
    def _make(cls, basis, padding):
        """Internal fast constructor; ``padding`` is a tuple of ints."""
        self = object.__new__(cls)
        _set_basis(self, basis)
        _set_padding(self, padding)
        return self


_set_basis = DecompositionWitness.__dict__["basis"].__set__
_set_padding = DecompositionWitness.__dict__["padding"].__set__


def compose(witness: DecompositionWitness) -> Overpartition:
    """Partwise sum of basis and padding; inverse of :func:`decompose`.

    Works block by block, never on written parts: the padding under one
    basis block splits into runs of equal values, each run a block of the
    sum, and the basis block's overline goes on its first run (FIRST) or
    its last (LAST).  A canonical basis gives strictly decreasing sizes; a
    basis built past validation may repeat or raise one, and is merged or
    refused as :meth:`Overpartition.from_written` would.  A short padding
    is filled with zeros, and its order is checked in one pass over
    adjacent entries.
    """
    lam = witness.basis
    mu = witness.padding
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
    out = []
    append = out.append
    prev = inf  # the size of the last block of the sum
    end = 0
    for size, mult, over in entries:
        start, end = end, end + mult
        pad = mu[start]
        if pad == mu[end - 1]:  # one run, the common case
            part = size + pad
            if part < prev:
                append((part, mult, over))
                prev = part
                continue
            runs = ((part, mult, over),)
        else:
            block = mu[start:end]
            runs = []
            at = 0
            while at < mult:
                count = block.count(block[at])  # equal values sit together
                runs.append((size + block[at], count, False))
                at += count
            if over:
                i = 0 if lam.convention is Convention.FIRST else -1
                runs[i] = runs[i][:2] + (True,)
        for run in runs:
            part = run[0]
            if part < prev:
                append(run)
                prev = part
            elif part == prev:
                _, above_mult, above_over = out[-1]
                if above_over and run[2]:
                    raise ValueError(f"size {part} overlined twice")
                out[-1] = (part, above_mult + run[1], above_over or run[2])
            else:
                raise ValueError("part sizes must be non-increasing")
    if out and prev <= 0:
        raise ValueError(f"part size must be positive, got {prev}")
    return Overpartition._make(tuple(out), lam.convention)


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
    tag = _family_tag(family, k)
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
    witness = DecompositionWitness._make(
        Overpartition._make(tuple(blocks), tag.convention), tuple(padding))
    try:  # compose rejects a negative or increasing padding
        ok = is_basis_element(witness.basis, family, k) and compose(witness) == pi
    except ValueError:
        ok = False
    if not ok:
        raise AssertionError(
            f"decomposition of {pi.text()!r} failed verification"
        )
    return witness


def _basis_histograms(family: str, k: int, trunc, parts: int) -> tuple:
    """The histograms of the one :func:`basis_nodes` walk per (family, k,
    trunc), laid out as enumeration._SWEEPS says, up to ``parts`` parts.
    The end histogram is filled only by a walk that ``parts`` does not cap,
    at least trunc parts, the one the I18/I19 sides ask for; a capped walk
    leaves it empty."""
    def walk():
        by_top, by_end = defaultdict(Counter), defaultdict(Counter)
        nodes = basis_nodes(family, k, trunc, parts)
        uncapped = trunc is not None and parts >= trunc
        for weight, overlines, length, top, top_over, low_over in nodes:
            by_top[length, top, top_over][weight, overlines] += 1
            if uncapped:
                end = low_over if family == "BL" else top_over
                by_end[length % k, end][weight, overlines] += 1
        return by_top, by_end

    return _swept(("basis", family, k, trunc), parts, walk)


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
    if not lam.entries:
        raise ValueError("cannot toggle an empty overpartition")
    if family == "BL":
        size, mult, over = lam.entries[-1]
        if size != 1:
            raise ValueError("smallest part must have size 1")
        entries = lam.entries[:-1] + ((size, mult, not over),)
    elif family == "BF":
        size, mult, over = lam.entries[0]
        entries = ((size, mult, not over),) + lam.entries[1:]
    else:
        raise ValueError(f"unknown basis family {family!r}")
    return Overpartition._make(entries, lam.convention)


def _length_residue(length: int, k: int) -> int:
    """The representative of length mod k in 1..k."""
    return (length - 1) % k + 1


def _strip_staircase(lam: Overpartition, k: int, j: int, remove_at_top: int, top_overlined: bool):
    """Remove one overline per size below j, k-1 plain copies of each size
    below j, and ``remove_at_top`` parts at size j (the overlined one first
    when present); return the remaining plain multiplicities."""
    remaining = {}
    seen = {size: (mult, over) for size, mult, over in lam.entries}
    for t in range(1, j + 1):
        mult, over = seen.pop(t, (0, False))
        if t < j:
            if not over:
                raise ValueError(f"size {t} must carry an overline")
            take = k
        else:
            if over != top_overlined:
                raise ValueError(
                    f"size {j} must {'carry' if top_overlined else 'not carry'} an overline"
                )
            take = remove_at_top
        left = mult - take
        if left < 0 or left % k != 0:
            raise ValueError(f"size {t} has multiplicity {mult}, cannot remove {take}")
        if left:
            remaining[t] = left
    if seen:
        raise ValueError("parts larger than the largest expected size")
    parts = []
    for t in sorted(remaining, reverse=True):
        parts.extend([t] * remaining[t])
    return Partition(parts)


def _staircase_image(mu: Partition, k: int, s: int, j: int) -> Partition:
    """Conjugate the stripped remainder and add the arithmetic staircase
    k(j-1)+s, ..., k+s, s."""
    conj = list(mu.conjugate().parts)
    if len(conj) > j:
        raise ValueError("remainder has parts larger than the staircase length")
    conj.extend([0] * (j - len(conj)))
    return Partition(tuple(conj[i] + k * (j - 1 - i) + s for i in range(j)))


def _staircase_preimage(nu: Partition, k: int, s: int) -> Partition:
    """Invert :func:`_staircase_image`: subtract the staircase, conjugate."""
    j = len(nu)
    cols = []
    for i, part in enumerate(nu.parts):
        c = part - k * (j - 1 - i) - s
        if c < 0 or c % k != 0:
            raise ValueError("partition does not fit the staircase")
        cols.append(c)
    if any(a < b for a, b in zip(cols, cols[1:])):
        raise ValueError("partition does not fit the staircase")
    return Partition([c for c in cols if c]).conjugate()


def _bijection_to_distinct(lam: Overpartition, family: str, k: int, s: int) -> Partition:
    if not is_basis_element(lam, family, k):
        raise ValueError(f"not a {family} basis element")
    if _length_residue(lam.num_parts, k) != s:
        raise ValueError("part count does not match s mod k")
    j = lam.largest_size
    if family == "BL" and not lam.has_overlined(1):
        raise ValueError("smallest part must be overlined")
    if family == "BF" and lam.has_overlined(j):
        raise ValueError("largest part must be plain")
    mu = _strip_staircase(lam, k, j, remove_at_top=s, top_overlined=family == "BL")
    return _staircase_image(mu, k, s, j)


def _bijection_from_distinct(nu: Partition, family: str, k: int, s: int) -> Overpartition:
    if not 1 <= s <= k:
        raise ValueError("s must satisfy 1 <= s <= k")
    j = len(nu)
    if j < 1:
        raise ValueError("need at least one part")
    mu = _staircase_preimage(nu, k, s)
    entries = {}
    for p in mu.parts:
        entries[p] = entries.get(p, 0) + 1
    built = []
    for t in range(j, 0, -1):
        extra = entries.pop(t, 0)
        if t < j:
            built.append((t, extra + k, True))
        else:  # the largest size is overlined in BL and plain in BF
            built.append((t, extra + s, family == "BL"))
    if entries:
        raise ValueError("partition does not fit the staircase")
    lam = Overpartition(built, _family_tag(family, k).convention)
    if not is_basis_element(lam, family, k):
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
