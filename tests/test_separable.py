from functools import cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from qpl.core import (
    Convention,
    Overpartition,
    Partition,
    conjugate,
    count_parts_above,
    largest_repeating_size,
    max_excludant_size,
    min_excludant_size,
    smallest_positive_repeating_size,
)
from qpl.enumeration import (
    ClassTag,
    _basis_family,
    basis_elements,
    distinct_congruent_partitions,
    iter_overpartitions,
)
from qpl.separable import (
    DecompositionWitness,
    basis_gf,
    bf_bijection_from_distinct,
    bf_bijection_to_distinct,
    bl_bijection_from_distinct,
    bl_bijection_to_distinct,
    compose,
    decompose,
    is_basis_element,
    is_member,
    toggle_extreme_overline,
)
from qpl.series import ZQPoly, gaussian_binomial, QSeries

O = Overpartition.parse


def _length_residue(length, k):
    """The representative of length mod k in 1..k."""
    return (length - 1) % k + 1


def iter_basis_elements(family, k, max_weight):
    """Basis elements of every part count with weight <= max_weight."""
    for m in range(1, max_weight + 1):  # the all-ones element has weight m
        yield from basis_elements(family, k, m, max_weight=max_weight)


# -- membership and basis checks --------------------------------------------

def test_membership_examples():
    assert is_member(O("3,1~"), ClassTag("L", 2))
    assert not is_member(O("3~,1"), ClassTag("L", 2))
    assert is_member(O("2~,2", "first"), ClassTag("F", 2))
    assert is_member(O(""), ClassTag("L", 3))


def test_membership_convention_mismatch():
    with pytest.raises(ValueError):
        is_member(O("2,1", "first"), ClassTag("L", 2))
    with pytest.raises(ValueError):
        is_member(O("2,1"), ClassTag("F", 2))
    # k = 1 admits every overline, but not the other convention
    with pytest.raises(ValueError):
        is_member(O("2,1", "first"), ClassTag("L", 1))
    with pytest.raises(ValueError):
        is_member(O("2~,1"), ClassTag("F", 1))
    with pytest.raises(ValueError):
        decompose(O("2,1", "first"), "BL", 1)
    with pytest.raises(ValueError):
        decompose(O("2,1"), "BF", 1)


def test_basis_membership_examples():
    assert is_basis_element(O("2,2,2~,1,1"), "BL", 2)
    assert is_basis_element(O("3,2~,2,1~,1", "first"), "BF", 2)
    assert not is_basis_element(O("2,1"), "BL", 1)
    assert not is_basis_element(O(""), "BL", 1)
    assert not is_basis_element(O("2,2"), "BL", 1)          # smallest size 2
    assert not is_basis_element(O("1~", "first"), "BF", 2)  # overlined bottom


def test_basis_check_matches_generated_sets():
    for k in (1, 2):
        for family, conv in (("BL", Convention.LAST), ("BF", Convention.FIRST)):
            generated = {lam.text() for m in range(1, 11)
                         for lam in basis_elements(family, k, m, max_weight=10)}
            for n in range(0, 11):
                for pi in iter_overpartitions(n, conv):
                    assert is_basis_element(pi, family, k) == (pi.text() in generated), \
                        (pi.text(), family, k)


# -- decomposition -----------------------------------------------------------

def test_decompose_examples():
    w = decompose(O("4,4,3~,2,1"), "BL", 2)
    assert w.basis == O("2,2,2~,1,1")
    assert w.padding == (2, 2, 1, 1, 0)
    w = decompose(O("2,2,2~,1,1"), "BL", 2)
    assert w.padding == (0, 0, 0, 0, 0)
    w = decompose(O("1,1,1,1"), "BL", 2)
    assert w.basis == O("1,1,1,1") and w.padding == (0, 0, 0, 0)


def test_compose_examples():
    assert compose(DecompositionWitness(O("1~"), (3,))) == O("4~")
    assert compose(DecompositionWitness(O("2,2,2~,1,1"), (2, 2, 1, 1, 0))) == O("4,4,3~,2,1")
    assert compose(DecompositionWitness(O("1,1"), (0, 0))) == O("1,1")
    # a short padding is filled with zeros below it
    assert compose(DecompositionWitness(O("2,1"), (1,))) == O("3,1")
    assert compose(DecompositionWitness(O("3,3~,1"), (2,))) == O("5,3~,1")
    assert compose(DecompositionWitness(O("2,2~,1"), ())) == O("2,2~,1")
    # a block whose padding has several runs: each run is a block of the
    # sum, and the overline goes on the run at the block's last (LAST) or
    # first (FIRST) position
    assert compose(DecompositionWitness(O("1,1,1~"), (2, 1, 0))) == O("3,2,1~")
    assert compose(DecompositionWitness(O("1~,1,1", "first"), (2, 1, 0))) == O("3~,2,1", "first")
    assert compose(DecompositionWitness(O("2,2,2~,1,1"), (3, 2, 2, 1, 0))) == O("5,4,4~,2,1")
    assert (compose(DecompositionWitness(O("2~,2,2,1,1", "first"), (3, 2, 2, 1, 0)))
            == O("5~,4,4,2,1", "first"))


def test_compose_errors():
    W = DecompositionWitness
    with pytest.raises(ValueError, match="padding longer than basis"):
        compose(W(O("1,1"), (0, 0, 0)))
    with pytest.raises(ValueError, match="padding must be non-increasing"):
        compose(W(O("1,1"), (0, 1)))
    with pytest.raises(ValueError, match="padding must be nonnegative"):
        compose(W(O("1,1"), (-1, -1)))
    # The zeros that fill a short padding go below it, so one that ends
    # below 0 rises.
    with pytest.raises(ValueError, match="padding must be non-increasing"):
        compose(W(O("2,1"), (-1,)))
    # A valid basis and padding cannot overline one size twice; only a
    # basis built past validation can, and compose must still refuse it.
    corrupt = Overpartition._make(((2, 1, True), (2, 1, True)), Convention.LAST)
    with pytest.raises(ValueError, match="size 2 overlined twice"):
        compose(W(corrupt, (0, 0)))
    # Precedence: too long, then non-increasing, then negative, then
    # overlined twice.
    with pytest.raises(ValueError, match="padding longer than basis"):
        compose(W(corrupt, (-1, 0, 1)))
    with pytest.raises(ValueError, match="padding must be non-increasing"):
        compose(W(corrupt, (-2, -1)))
    with pytest.raises(ValueError, match="padding must be nonnegative"):
        compose(W(corrupt, (-1, -1)))


def test_decompose_rejects_non_members():
    with pytest.raises(ValueError):
        decompose(O("3~,1"), "BL", 2)
    with pytest.raises(ValueError):
        decompose(O(""), "BL", 1)


def test_basis_family_refuses_bool_and_float_k_once_the_int_is_cached():
    # 1, True and 1.0 are equal and hash alike, so a cache keyed on their
    # values would answer True and 1.0 with the tag cached for k = 1.
    assert decompose(O("2,1"), "BL", 1).padding == (1, 0)
    assert is_basis_element(O("1~"), "BL", 1)
    assert bl_bijection_to_distinct(O("1~"), 1, 1) == Partition((1,))
    for k in (True, 1.0):
        with pytest.raises(ValueError, match="k must be an int"):
            decompose(O("2,1"), "BL", k)
        with pytest.raises(ValueError, match="k must be an int"):
            is_basis_element(O("1~"), "BL", k)
        with pytest.raises(ValueError, match="k must be an int"):
            bl_bijection_to_distinct(O("1~"), k, 1)


def _exhaustive_witnesses(pi, family, k):
    """All (basis, padding) pairs composing to pi; the uniqueness oracle."""
    m = pi.num_parts
    found = []
    for lam in basis_elements(family, k, m, max_weight=pi.weight):
        rest = pi.weight - lam.weight
        for pad in _pads(rest, m):
            witness = DecompositionWitness(lam, pad)
            try:
                if compose(witness) == pi:
                    found.append(witness)
            except ValueError:
                pass
    return found


def _pads(total, slots):
    """Non-increasing nonnegative integer tuples of a given length and sum."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        if first * slots < total:
            break
        for rest in _pads(total - first, slots - 1):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def test_decomposition_unique_small():
    for k in (1, 2, 3):
        for family, class_family in (("BL", "L"), ("BF", "F")):
            tag = ClassTag(class_family, k)
            for n in range(1, 11):
                for pi in iter_overpartitions(n, tag.convention):
                    if not is_member(pi, tag):
                        continue
                    witnesses = _exhaustive_witnesses(pi, family, k)
                    assert len(witnesses) == 1, (pi.text(), family, k)
                    greedy = decompose(pi, family, k)
                    assert greedy == witnesses[0]


def test_decompose_round_trip():
    for k in (1, 2, 3, 4):
        for family, class_family in (("BL", "L"), ("BF", "F")):
            tag = ClassTag(class_family, k)
            for n in range(0, 15):
                for pi in iter_overpartitions(n, tag.convention):
                    if pi.entries and is_member(pi, tag):
                        assert compose(decompose(pi, family, k)) == pi


def per_part_witness(pi, family):
    """Oracle for decompose: the basis size of each written part, bottom
    part first, read off the part below it (BL bumps at an overlined part,
    BF just above one)."""
    written = pi.parts()
    basis = []  # bottom-first (size, overlined)
    for size, over in reversed(written):
        if not basis:
            basis.append((1, over))
        else:
            below_size, below_over = basis[-1]
            bump = over if family == "BL" else below_over
            basis.append((below_size + bump, over))
    basis.reverse()
    padding = tuple(p - b for (p, _), (b, _) in zip(written, basis))
    return DecompositionWitness(Overpartition.from_written(basis, pi.convention), padding)


def test_decompose_matches_per_part_oracle():
    for k in (1, 2, 3, 4):
        for family, class_family in (("BL", "L"), ("BF", "F")):
            tag = ClassTag(class_family, k)
            for n in range(1, 17):
                for pi in iter_overpartitions(n, tag.convention):
                    if is_member(pi, tag):
                        assert decompose(pi, family, k) == per_part_witness(pi, family), \
                            (pi.text(), family, k)


def test_witness_refuses_a_basis_that_is_not_an_overpartition():
    for basis in ("x", "1,1", None, Partition((1, 1))):
        with pytest.raises(ValueError, match="basis must be an Overpartition"):
            DecompositionWitness(basis, ())


def test_decompose_looks_up_the_basis_family_once(monkeypatch):
    import qpl.separable as separable
    calls = []

    def counted(family, k):
        calls.append((family, k))
        return _basis_family(family, k)

    monkeypatch.setattr(separable, "_basis_family", counted)
    for pi, family, k in ((O("4,4,3~,2,1"), "BL", 2), (O("3,2~,2,1~,1", "first"), "BF", 2)):
        calls.clear()
        assert compose(decompose(pi, family, k)) == pi
        assert calls == [(family, k)]


def test_witness_rejects_non_int_padding():
    for padding in ((1.9, True), (True, 0), (1, 1.0), ("1", 0)):
        with pytest.raises(ValueError):
            DecompositionWitness(O("1,1"), padding)
    assert DecompositionWitness(O("1,1"), [1, 0]).padding == (1, 0)


def test_unchecked_witness_matches_the_public_constructor():
    basis = O("2,2,2~,1,1")
    made = DecompositionWitness._make(basis, (2, 2, 1, 1, 0))
    public = DecompositionWitness(basis, [2, 2, 1, 1, 0])
    assert made == public and hash(made) == hash(public)
    assert decompose(O("4,4,3~,2,1"), "BL", 2) == public
    # a name outside the fields is refused as the fields are
    for name in ("basis", "padding", "extra"):
        with pytest.raises(AttributeError):
            setattr(made, name, None)
    assert not hasattr(made, "__dict__") and made.padding == (2, 2, 1, 1, 0)


# -- the written-parts oracles for the block forms ---------------------------

def compose_written(witness):
    """Oracle for compose: add the padding to the written parts one by one
    and rebuild from the written form."""
    lam = witness.basis
    mu = witness.padding
    written = lam.parts()
    if len(mu) > len(written):
        raise ValueError("padding longer than basis")
    mu = mu + (0,) * (len(written) - len(mu))
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("padding must be non-increasing")
    if mu and mu[-1] < 0:
        raise ValueError("padding must be nonnegative")
    return Overpartition.from_written(
        [(size + pad, over) for (size, over), pad in zip(written, mu)], lam.convention
    )


def is_basis_element_written(lam, family, k):
    """Oracle for is_basis_element: the rules read on adjacent written
    parts."""
    tag = ClassTag("L" if family == "BL" else "F", k)
    if not lam.entries or not is_member(lam, tag):
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


def _outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


FAMILIES = (("BL", "L"), ("BF", "F"))


@pytest.mark.parametrize("family,class_family", FAMILIES)
def test_block_forms_match_written_oracles(family, class_family):
    for k in (1, 2, 3, 4):
        tag = ClassTag(class_family, k)
        for n in range(0, 15):
            for pi in iter_overpartitions(n, tag.convention):
                assert is_basis_element(pi, family, k) == \
                    is_basis_element_written(pi, family, k), (pi.text(), family, k)
                if pi.entries and is_member(pi, tag):
                    witness = decompose(pi, family, k)
                    assert compose(witness) == compose_written(witness) == pi


def test_compose_errors_match_written_oracle():
    corrupt = Overpartition._make(((2, 1, True), (2, 1, True)), Convention.LAST)
    merged = Overpartition._make(((2, 1, False), (2, 2, True)), Convention.FIRST)
    rising = Overpartition._make(((1, 1, False), (3, 1, False)), Convention.LAST)
    cases = [(O("1,1"), (0, 0, 0)), (O("1,1"), (0, 1)), (O("1,1"), (-1, -1)),
             (corrupt, (0, 0)), (merged, (0, 0, 0)), (rising, (0, 0))]
    for basis, padding in cases:
        witness = DecompositionWitness(basis, padding)
        assert _outcome(compose, witness) == _outcome(compose_written, witness)


# -- properties on random inputs beyond the exhaustive grids -----------------

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def profiles(draw, max_sizes=8, max_size=40, max_mult=6):
    """A plain profile ((size, mult), ...) with sizes strictly decreasing."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_sizes,
                          unique=True))
    return tuple((size, draw(st.integers(1, max_mult)))
                 for size in sorted(sizes, reverse=True))


@st.composite
def members(draw):
    """A random L_k or F_k member: a profile whose overlines are drawn and
    then kept only on the sizes the counting rule allows."""
    family, class_family = draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(1, 4))
    profile = draw(profiles())
    flags = draw(st.lists(st.booleans(), min_size=len(profile), max_size=len(profile)))
    entries = []
    below = sum(mult for _, mult in profile)
    for (size, mult), flag in zip(profile, flags):
        below -= mult  # parts smaller than size
        allowed = (below if class_family == "L" else below + mult) % k == 0
        entries.append((size, mult, flag and allowed))
    tag = ClassTag(class_family, k)
    return Overpartition(entries, tag.convention), family, k


@PROPERTY
@given(members())
def test_round_trip_on_random_members(drawn):
    pi, family, k = drawn
    witness = decompose(pi, family, k)
    assert compose(witness) == compose_written(witness) == pi
    assert is_basis_element_written(witness.basis, family, k)


@st.composite
def near_bases(draw):
    """Overpartitions shaped like basis elements (consecutive sizes from
    a small bottom, random multiplicities and overlines), with an optional
    gap, so that both answers of the basis test occur often."""
    family = draw(st.sampled_from(("BL", "BF")))
    k = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 6))
    bottom = draw(st.sampled_from((1, 1, 1, 2)))
    gap_at = draw(st.integers(0, blocks + 3))  # above this block, skip a size
    entries = []
    size = bottom
    for i in range(blocks):
        entries.append((size, draw(st.integers(1, 5)), draw(st.booleans())))
        size += 2 if i == gap_at else 1
    convention = Convention.LAST if family == "BL" else Convention.FIRST
    return Overpartition(entries[::-1], convention), family, k


@PROPERTY
@given(near_bases())
def test_basis_check_on_random_shapes(drawn):
    lam, family, k = drawn
    assert is_basis_element(lam, family, k) == is_basis_element_written(lam, family, k)


@st.composite
def witnesses(draw):
    """A basis from any canonical overpartition, or from raw entries that
    may repeat or raise a size, with any padding of ints."""
    convention = draw(st.sampled_from((Convention.LAST, Convention.FIRST)))
    raw = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3), st.booleans()),
                        min_size=1, max_size=5))
    if draw(st.booleans()):
        sizes = {}
        for size, mult, over in raw:
            sizes.setdefault(size, (mult, over))
        raw = [(size, *sizes[size]) for size in sorted(sizes, reverse=True)]
    basis = Overpartition._make(tuple(raw), convention)
    length = max(basis.num_parts + draw(st.sampled_from((0,) * 6 + (-1, 1))), 0)
    padding = draw(st.lists(st.integers(-1, 4), min_size=length, max_size=length))
    if draw(st.integers(0, 3)):  # mostly non-increasing, as valid paddings are
        padding.sort(reverse=True)
    return DecompositionWitness(basis, padding)


@PROPERTY
@given(witnesses())
def test_compose_on_random_witnesses(witness):
    assert _outcome(compose, witness) == _outcome(compose_written, witness)


# -- basis generating polynomials -------------------------------------------

def zq_monomial(z, e, c, trunc):
    """c z^z q^e as a ZQPoly."""
    return ZQPoly.from_qseries(QSeries.monomial(e, c, trunc), z)


@pytest.mark.parametrize("args", (
    ("BL", 1, 2.0, 1, False), ("BL", 1, True, 1, False), ("BL", 1, 2, 1.0, False),
    ("BL", True, 2, 1, False), ("BL", 1, 2, 1, 0),
    ("BL", 1, 2, 1, False, 3.5), ("BL", 1, 2, 1, False, True),
))
def test_basis_gf_rejects_non_int_arguments(args):
    with pytest.raises(ValueError):
        basis_gf(*args)


def test_basis_gf_examples():
    assert basis_gf("BL", 2, 1, 1, True, 2) == zq_monomial(1, 1, 1, 2)
    assert basis_gf("BL", 2, 1, 1, False, 2) == zq_monomial(0, 1, 1, 2)
    assert basis_gf("BF", 2, 2, 1, True, 3) == zq_monomial(1, 2, 1, 3)
    assert basis_gf("BF", 2, 2, 1, False, 3) == zq_monomial(0, 2, 1, 3)


def test_basis_gf_smallest_part_cases():
    # one part: q and zq; many parts with largest size 1: (1+z) q^m
    for m in (2, 3, 5):
        got = basis_gf("BL", 2, m, 1, False, m)
        assert got == zq_monomial(0, m, 1, m) + zq_monomial(1, m, 1, m)
        assert basis_gf("BL", 2, m, 1, True, m).is_zero()


def _closed_gl_lemma(k, m, s, j, trunc):
    e = k * (j * (j - 1) // 2) + s * j + k * (m - j)
    base = QSeries.monomial(e, 1, trunc) * gaussian_binomial(m - 1, j - 1, k, trunc)
    return ZQPoly.from_qseries(base, j - 1) + ZQPoly.from_qseries(base, j)


def test_gl_split_by_overline_of_largest():
    # the three per-case closed forms behind the combined L-basis identity
    trunc = 60
    for k in (1, 2, 3):
        for m in range(2, 6):
            for j in range(2, m + 1):
                parts_1 = k * (m - 1) + 1
                plain = basis_gf("BL", k, parts_1, j, False, trunc)
                overl = basis_gf("BL", k, parts_1, j, True, trunc)
                e0 = k * (j * (j - 1) // 2) + j + k * (m - j)
                over_want = ZQPoly.from_qseries(
                    QSeries.monomial(e0, 1, trunc)
                    * gaussian_binomial(m - 2, j - 2, k, trunc), j - 1)
                over_want = over_want + over_want.z_shift(1)
                assert overl == over_want, ("overlined", k, m, j)
                e1 = k * (j * (j - 1) // 2) + j + k * (m - 1)
                plain_want = ZQPoly.from_qseries(
                    QSeries.monomial(e1, 1, trunc)
                    * gaussian_binomial(m - 2, j - 1, k, trunc), j - 1)
                plain_want = plain_want + plain_want.z_shift(1)
                if m > j:
                    assert plain == plain_want, ("plain", k, m, j)
                else:
                    assert plain.is_zero()
                for s in range(2, k + 1):
                    parts_s = k * (m - 1) + s
                    assert basis_gf("BL", k, parts_s, j, True, trunc).is_zero()
                    assert basis_gf("BL", k, parts_s, j, False, trunc) == \
                        _closed_gl_lemma(k, m, s, j, trunc), ("s", k, m, s, j)


def test_gf_overline_toggle_relation():
    # the overlined-largest polynomial is z times the plain one at full blocks
    trunc = 50
    for k in (1, 2, 3):
        for m in range(1, 7):
            for j in range(1, m + 1):
                plain = basis_gf("BF", k, k * m, j, False, trunc)
                overl = basis_gf("BF", k, k * m, j, True, trunc)
                assert overl == plain.z_shift(1), (k, m, j)


def test_nonempty_basis_sets_force_bounds():
    # largest-part bounds across all nonempty basis slices
    for k in (1, 2, 3):
        for m in range(1, 8):
            for s in range(1, k + 1):
                parts = k * (m - 1) + s
                for lam in basis_elements("BL", k, parts):
                    j = lam.largest_size
                    first_over = lam.parts()[0][1]
                    if first_over:
                        assert s == 1 and m >= j, (lam.text(), k)
                    elif s == 1 and m >= 2:
                        assert m > j, (lam.text(), k)
                    else:
                        assert m >= j, (lam.text(), k)
                for lam in basis_elements("BF", k, parts):
                    j = lam.largest_size
                    assert m >= j, (lam.text(), k)
                    if lam.parts()[0][1]:
                        assert s == k, (lam.text(), k)


# -- toggles and bijections --------------------------------------------------

def test_toggle_examples():
    assert toggle_extreme_overline(O("1~"), "BL") == O("1")
    assert toggle_extreme_overline(O("2~,1,1~"), "BL") == O("2~,1,1")
    assert toggle_extreme_overline(O("2~,2,1~,1", "first"), "BF") == O("2,2,1~,1", "first")
    with pytest.raises(ValueError):
        toggle_extreme_overline(O(""), "BL")
    with pytest.raises(ValueError):
        toggle_extreme_overline(O("2,2"), "BL")


def test_toggle_is_involution_on_bases():
    for k in (1, 2):
        for family in ("BL", "BF"):
            for lam in iter_basis_elements(family, k, 12):
                if family == "BF" and k > 1 and lam.num_parts % k != 0:
                    continue  # overlined largest requires a full block count
                twice = toggle_extreme_overline(
                    toggle_extreme_overline(lam, family), family)
                assert twice == lam


def test_bl_bijection_examples():
    assert bl_bijection_to_distinct(O("1~"), 2, 1) == Partition((1,))
    assert bl_bijection_to_distinct(O("2~,1,1~"), 2, 1) == Partition((3, 1))
    assert bl_bijection_to_distinct(O("1,1,1~"), 1, 1) == Partition((3,))


def test_bf_bijection_examples():
    assert bf_bijection_to_distinct(O("1", "first"), 1, 1) == Partition((1,))
    assert bf_bijection_to_distinct(O("2,1~,1", "first"), 2, 1) == Partition((3, 1))
    # the overlined-largest case routes through the toggle
    toggled = toggle_extreme_overline(O("1~,1", "first"), "BF")
    assert bf_bijection_to_distinct(toggled, 2, 2) == Partition((2,))


def test_bijection_preconditions():
    with pytest.raises(ValueError):
        bl_bijection_to_distinct(O("1"), 2, 1)    # smallest part not overlined
    with pytest.raises(ValueError):
        bl_bijection_to_distinct(O("1~"), 2, 2)   # wrong length residue
    with pytest.raises(ValueError):
        bf_bijection_to_distinct(O("2,1"), 2, 2)  # wrong convention/not basis
    # the first argument must be the object it claims to be, not its text or parts
    for to_distinct in (bl_bijection_to_distinct, bf_bijection_to_distinct):
        for lam in ("1~", ((1, 1, True),), Partition((1,))):
            with pytest.raises(ValueError, match="lam must be an Overpartition"):
                to_distinct(lam, 2, 1)
    for from_distinct in (bl_bijection_from_distinct, bf_bijection_from_distinct):
        for nu in ((3, 1), [3, 1], O("3,1")):
            with pytest.raises(ValueError, match="nu must be a Partition"):
                from_distinct(nu, 2, 1)


FIRST_ARGUMENT_TAKERS = {
    **{f"is_member {tag}": (lambda x, tag=tag: is_member(x, tag))
       for tag in (ClassTag("all"), ClassTag("L", 2), ClassTag("F", 2))},
    "is_basis_element": lambda x: is_basis_element(x, "BL", 2),
    "decompose": lambda x: decompose(x, "BF", 2),
    "toggle_extreme_overline": lambda x: toggle_extreme_overline(x, "BL"),
    "conjugate": conjugate,
    "min_excludant_size": lambda x: min_excludant_size(x, 2),
    "max_excludant_size": lambda x: max_excludant_size(x, 1),
    "largest_repeating_size": lambda x: largest_repeating_size(x, 1),
    "smallest_positive_repeating_size": lambda x: smallest_positive_repeating_size(x, 1),
    "count_parts_above": lambda x: count_parts_above(x, 1),
}


@pytest.mark.parametrize("bad", ("2,1", (2, 1)), ids=("text", "tuple"))
@pytest.mark.parametrize("name", FIRST_ARGUMENT_TAKERS)
def test_first_argument_must_be_an_overpartition(name, bad):
    # Text or parts are refused as a bad argument, not met by AttributeError.
    with pytest.raises(ValueError, match="must be an Overpartition"):
        FIRST_ARGUMENT_TAKERS[name](bad)


BIJECTIONS = {
    "BL": (bl_bijection_to_distinct, bl_bijection_from_distinct),
    "BF": (bf_bijection_to_distinct, bf_bijection_from_distinct),
}


def test_bijections_refuse_bool_and_float_s():
    cases = [(bl_bijection_to_distinct, O("1~")), (bf_bijection_to_distinct, O("1", "first")),
             (bl_bijection_from_distinct, Partition((1,))),
             (bf_bijection_from_distinct, Partition((1,)))]
    for bijection, arg in cases:
        assert bijection(arg, 1, 1) is not None
        for s in (True, 1.0):
            with pytest.raises(ValueError, match="s must be an int"):
                bijection(arg, 1, s)


# -- the parts-based oracle for the block-form bijections ---------------------

def _strip_staircase(lam, k, j, remove_at_top, top_overlined):
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


def _staircase_image(mu, k, s, j):
    """Conjugate the stripped remainder and add the arithmetic staircase
    k(j-1)+s, ..., k+s, s."""
    conj = list(mu.conjugate().parts)
    if len(conj) > j:
        raise ValueError("remainder has parts larger than the staircase length")
    conj.extend([0] * (j - len(conj)))
    return Partition(tuple(conj[i] + k * (j - 1 - i) + s for i in range(j)))


def _staircase_preimage(nu, k, s):
    """Invert _staircase_image: subtract the staircase, conjugate."""
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


def to_distinct_parts(lam, family, k, s):
    """Oracle for the to-distinct bijections: strip the staircase off a
    sorted part list, conjugate the rest and add the staircase back."""
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


def from_distinct_parts(nu, family, k, s):
    """Oracle for the from-distinct bijections: subtract the staircase,
    conjugate, and put the stripped parts and overlines back."""
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
    lam = Overpartition(built, "last" if family == "BL" else "first")
    if not is_basis_element(lam, family, k):
        raise AssertionError("inverse image failed the basis check")
    return lam


@pytest.mark.parametrize("family", ("BL", "BF"))
def test_bijections_match_parts_oracle_on_basis_elements(family):
    """Every basis element of weight <= 30 with k <= 4, as enumerated and
    with its extreme overline toggled, for every s in 0..k+1: the value or
    the ValueError message of both directions matches the oracle."""
    to_distinct, from_distinct = BIJECTIONS[family]
    for k in (1, 2, 3, 4):
        for base in iter_basis_elements(family, k, 30):
            for lam in (base, toggle_extreme_overline(base, family)):
                for s in range(k + 2):
                    nu = _outcome(to_distinct, lam, k, s)
                    assert nu == _outcome(to_distinct_parts, lam, family, k, s), \
                        (lam.text(), k, s)
                    if isinstance(nu, Partition):
                        assert from_distinct(nu, k, s) == lam


@pytest.mark.parametrize("family", ("BL", "BF"))
def test_from_distinct_matches_parts_oracle_on_small_partitions(family):
    """Every partition with at most 4 parts of size at most 13, for k <= 3
    and s in 0..k+1: the value or the ValueError message matches the
    oracle."""
    from_distinct = BIJECTIONS[family][1]
    for length in range(5):
        for parts in combinations_with_replacement(range(13, 0, -1), length):
            nu = Partition(parts)
            for k in (1, 2, 3):
                for s in range(k + 2):
                    assert _outcome(from_distinct, nu, k, s) == \
                        _outcome(from_distinct_parts, nu, family, k, s), (parts, k, s)


def _bl_primed(k, max_weight):
    for lam in iter_basis_elements("BL", k, max_weight):
        if lam.has_overlined(1):
            yield lam


def _bf_doubled(k, max_weight):
    for lam in iter_basis_elements("BF", k, max_weight):
        if not lam.has_overlined(lam.largest_size):
            yield lam


def test_bl_bijection_round_trip_and_image():
    cap = 22
    for k in (1, 2, 3):
        images = {}
        for lam in _bl_primed(k, cap):
            s = _length_residue(lam.num_parts, k)
            nu = bl_bijection_to_distinct(lam, k, s)
            assert nu.weight == lam.weight
            j = lam.largest_size
            assert len(nu) == j
            assert all(part % k == s % k for part in nu)
            assert len(set(nu.parts)) == j
            assert bl_bijection_from_distinct(nu, k, s) == lam
            images.setdefault((lam.weight, s, j), set()).add(nu.parts)
        for (n, s, j), got in images.items():
            want = {p.parts for p in distinct_congruent_partitions(n, j, k, s)}
            assert got == want, (k, n, s, j)


def test_bf_bijection_round_trip_and_image():
    cap = 22
    for k in (1, 2, 3):
        images = {}
        for lam in _bf_doubled(k, cap):
            s = _length_residue(lam.num_parts, k)
            nu = bf_bijection_to_distinct(lam, k, s)
            assert nu.weight == lam.weight
            j = lam.largest_size
            assert len(nu) == j
            assert bf_bijection_from_distinct(nu, k, s) == lam
            images.setdefault((lam.weight, s, j), set()).add(nu.parts)
        for (n, s, j), got in images.items():
            want = {p.parts for p in distinct_congruent_partitions(n, j, k, s)}
            assert got == want, (k, n, s, j)


cached_basis_elements = cache(basis_elements)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.sampled_from(("BL", "BF")), st.integers(1, 3), st.integers(1, 11),
       st.integers(0, 2**12))
def test_staircase_bijections_round_trip_on_random_basis_elements(family, k, m, pick):
    """Both directions of both staircase bijections invert each other on a
    basis element with up to 11 parts; an element with the other extreme
    overline is toggled into the bijection's domain first."""
    elements = cached_basis_elements(family, k, m)
    lam = elements[pick % len(elements)]
    if lam.has_overlined(1 if family == "BL" else lam.largest_size) != (family == "BL"):
        lam = toggle_extreme_overline(lam, family)
    to_distinct, from_distinct = BIJECTIONS[family]
    s = _length_residue(m, k)
    nu = to_distinct(lam, k, s)
    assert nu.weight == lam.weight and len(set(nu.parts)) == len(nu) == lam.largest_size
    assert all(part % k == s % k for part in nu)
    assert from_distinct(nu, k, s) == lam
    assert to_distinct(from_distinct(nu, k, s), k, s) == nu
