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

from collections import Counter
from dataclasses import dataclass

from .core import Convention, Overpartition, Partition
from .enumeration import ClassTag, basis_nodes
from .series import ZQPoly


def _require_convention(pi: Overpartition, convention: Convention, what: str):
    if pi.convention is not convention:
        raise ValueError(
            f"{what} expects the {convention.value}-occurrence convention, "
            f"got {pi.convention.value}"
        )


def is_member(pi: Overpartition, tag: ClassTag) -> bool:
    """Class membership via the counting reduction (O(distinct sizes))."""
    if tag.family == "all":
        return True
    _require_convention(pi, tag.convention, f"{tag.family}_k membership")
    k = tag.k
    below = 0
    for size, mult, overlined in reversed(pi.entries):
        if overlined:
            if tag.family == "L":
                if below % k != 0:
                    return False
            else:
                if (below + mult) % k != 0:
                    return False
        below += mult
    return True


def _overlinable_sizes(profile, tag: ClassTag) -> int:
    """Number of sizes of a plain profile ``((size, multiplicity), ...)``,
    sizes descending, that may carry an overline in the tagged L_k or F_k
    class.

    The counting rule of :func:`is_member` tests each size on its own, so
    the members with this profile are exactly its overline choices on these
    sizes: C(a, z) of them carry z overlines.
    """
    k = tag.k
    first = tag.family == "F"
    below = allowed = 0
    for _, mult in reversed(profile):
        if (below + mult if first else below) % k == 0:
            allowed += 1
        below += mult
    return allowed


def _family_tag(family: str, k: int) -> ClassTag:
    if family == "BL":
        return ClassTag("L", k)
    if family == "BF":
        return ClassTag("F", k)
    raise ValueError(f"unknown basis family {family!r}")


def is_basis_element(lam: Overpartition, family: str, k: int) -> bool:
    """Basis test: class membership, smallest-part rule, and the bounded
    adjacent-difference rule with family-specific strictness."""
    tag = _family_tag(family, k)
    _require_convention(lam, tag.convention, f"{family} basis test")
    if not lam.entries:
        return False
    if not is_member(lam, tag):
        return False
    written = lam.parts()
    bottom_size, bottom_over = written[-1]
    if bottom_size != 1:
        return False
    if family == "BF" and k >= 2 and bottom_over:
        return False
    for (sa, oa), (sb, ob) in zip(written, written[1:]):
        if sa > sb + 1:
            return False
        strict = (not oa) if family == "BL" else (not ob)
        if strict and sa == sb + 1:
            return False
    return True


@dataclass(frozen=True)
class DecompositionWitness:
    """A basis element plus a non-increasing nonnegative padding of the same
    length; adding them partwise (overlines carried) recovers the member."""

    basis: Overpartition
    padding: tuple

    def __post_init__(self):
        object.__setattr__(self, "padding", tuple(int(x) for x in self.padding))


def compose(witness: DecompositionWitness) -> Overpartition:
    """Partwise sum of basis and padding; inverse of :func:`decompose`."""
    lam = witness.basis
    mu = witness.padding
    written = lam.parts()
    if len(mu) > len(written):
        raise ValueError("padding longer than basis")
    mu = mu + (0,) * (len(written) - len(mu))
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError("padding must be non-increasing")
    if any(x < 0 for x in mu):
        raise ValueError("padding must be nonnegative")
    return Overpartition.from_written(
        [(size + pad, over) for (size, over), pad in zip(written, mu)], lam.convention
    )


def decompose(pi: Overpartition, family: str, k: int) -> DecompositionWitness:
    """Unique witness for a class member, built greedily from the bottom.

    The overlines of the member pin down the basis element part by part
    (composition preserves overline positions), so the basis is forced;
    the padding is the partwise size difference.  The result is verified
    before returning; a verification failure means an internal bug, since
    every class member decomposes uniquely.
    """
    tag = _family_tag(family, k)
    if not is_member(pi, tag):
        raise ValueError(f"overpartition is not a {tag.family}_{k} member")
    written = pi.parts()
    if not written:
        raise ValueError("the empty overpartition has no m-part decomposition")
    m = len(written)
    lam_parts = []  # bottom-first (size, overlined)
    size = 1
    for pos in range(m - 1, -1, -1):
        over = written[pos][1]
        if lam_parts:
            below_size, below_over = lam_parts[-1]
            if family == "BL":
                size = below_size + 1 if over else below_size
            else:
                size = below_size + 1 if below_over else below_size
        lam_parts.append((size, over))
    lam_written = lam_parts[::-1]
    padding = tuple(p[0] - b[0] for p, b in zip(written, lam_written))
    lam = Overpartition.from_written(lam_written, tag.convention)
    witness = DecompositionWitness(lam, padding)
    if (
        any(p < 0 for p in padding)
        or any(a < b for a, b in zip(padding, padding[1:]))
        or not is_basis_element(lam, family, k)
        or compose(witness) != pi
    ):
        raise AssertionError(
            f"decomposition of {pi.text()!r} failed verification"
        )
    return witness


def basis_gf(family: str, k: int, parts: int, j: int, overlined: bool, trunc=None) -> ZQPoly:
    """Sum of z^(overline count) q^weight over basis elements with the given
    part count whose largest part is j (overlined or plain as requested).

    With no truncation given, the polynomial is computed exactly at the
    largest weight that occurs (0 if the set is empty).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    counts = Counter(
        (node.weight, node.overlined)
        for node in basis_nodes(family, k, trunc, parts)
        if node.length == parts and node.top_size == j and node.top_overlined == overlined
    )
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
