import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qpl
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
from qpl.enumeration import ClassTag, iter_overpartitions
from qpl.identities import IDENTITIES, Mismatch, VerificationReport
from qpl.separable import DecompositionWitness

O = Overpartition.parse


def test_parse_basic():
    assert O("4~").entries == ((4, 1, True),)
    assert O("").entries == ()
    assert O("").weight == 0
    assert O("2,1,1~").entries == ((2, 1, False), (1, 2, True))


def test_from_written_merges_equal_sizes():
    pi = Overpartition.from_written([(3, True), (2, False), (2, False), (2, True), (1, False)])
    assert pi.entries == ((3, 1, True), (2, 3, True), (1, 1, False))
    assert pi == O("3~,2,2,2~,1") and pi.text() == "3~,2,2,2~,1"
    first = Overpartition.from_written([(2, True), (2, False)], "first")
    assert first == O("2~,2", "first") and first.convention is Convention.FIRST
    assert Overpartition.from_written([]) == O("")
    for text in ("4,4,3~,2,1", "1,1,1~", "5~", ""):
        assert Overpartition.from_written(O(text).parts()) == O(text)


def test_from_written_errors():
    with pytest.raises(ValueError):
        Overpartition.from_written([(2, True), (2, True)])  # overlined twice
    with pytest.raises(ValueError):
        Overpartition.from_written([(1, False), (2, False)])  # increasing
    with pytest.raises(ValueError):
        Overpartition.from_written([(1, False), (0, False)])  # size 0
    with pytest.raises(ValueError):
        Overpartition.from_written([(0, False)])


def test_parse_normalizes_overline_position():
    # the overline may sit anywhere in its block; rendering canonicalizes it
    assert O("2,1~,1").text() == "2,1,1~"
    assert O("2,1,1~", "first").text() == "2,1~,1"


def test_parse_errors():
    for bad in ("x", "1,2", "0", "-3", "1~,1~", "2,2~,2~", "1,,1"):
        with pytest.raises(ValueError):
            O(bad)


def test_parse_rejects_noncanonical_tokens():
    # text() never writes a leading zero or a non-ASCII digit
    for bad in ("01,1", "2,01~", "00", "\u0663,1", "\uff12", "1,\u00b2"):
        with pytest.raises(ValueError):
            O(bad)


def test_round_trip_canonical_text():
    for n in range(0, 13):
        for conv in (Convention.LAST, Convention.FIRST):
            for pi in iter_overpartitions(n, conv):
                assert O(pi.text(), conv) == pi


def test_written_parts_by_convention():
    pi = O("3,2,2~,1")
    assert pi.parts() == ((3, False), (2, False), (2, True), (1, False))
    assert Overpartition(pi.entries, Convention.FIRST).parts() == (
        (3, False), (2, True), (2, False), (1, False))


def test_measures():
    pi = O("3~,2,2~,1")
    assert pi.weight == 8
    assert pi.num_parts == 4
    assert pi.overlined_count == 2
    assert pi.largest_size == 3
    assert pi.multiplicity(2) == 2
    assert pi.has_overlined(3) and not pi.has_overlined(1)


CONJUGATE_TABLE_N4 = {
    "4": "1,1,1,1",
    "4~": "1,1,1,1~",
    "3,1": "2,1,1",
    "3~,1": "2,1,1~",
    "3,1~": "2~,1,1",
    "3~,1~": "2~,1,1~",
    "2,2": "2,2",
    "2,2~": "2,2~",
    "2,1,1": "3,1",
    "2~,1,1": "3,1~",
    "2,1,1~": "3~,1",
    "2~,1,1~": "3~,1~",
    "1,1,1,1": "4",
    "1,1,1,1~": "4~",
}


def test_conjugate_table():
    for text, want in CONJUGATE_TABLE_N4.items():
        assert conjugate(O(text)).text() == want


def test_conjugate_requires_last_convention():
    with pytest.raises(ValueError):
        conjugate(O("2,1", "first"))


def test_conjugate_involution_and_preservation():
    for n in range(0, 21):
        for pi in iter_overpartitions(n):
            image = conjugate(pi)
            assert image.weight == pi.weight
            assert image.overlined_count == pi.overlined_count
            assert conjugate(image) == pi


def test_conjugate_swaps_excludant_and_repeating_statistics():
    # conjugation turns (min excludant size k, j parts above k) into
    # (largest repeating size j, k-1 parts above j)
    for n in range(0, 17):
        for r in (1, 2, 3):
            for pi in iter_overpartitions(n):
                k = min_excludant_size(pi, r)
                j = count_parts_above(pi, k)
                image = conjugate(pi)
                assert largest_repeating_size(image, r) == j, (pi.text(), r)
                assert count_parts_above(image, j) == k - 1, (pi.text(), r)


def test_min_excludant_examples():
    assert min_excludant_size(O("2,2"), 2) == 3
    assert min_excludant_size(O(""), 1) == 1
    assert min_excludant_size(O(""), 5) == 1
    assert min_excludant_size(O("3,1"), 2) == 4


MES_TABLE_N4_R2 = {
    "4": 1, "4~": 1, "3,1": 4, "3~,1": 4, "3,1~": 4, "3~,1~": 4,
    "2,2": 3, "2,2~": 3, "2,1,1": 3, "2~,1,1": 3, "2,1,1~": 3,
    "2~,1,1~": 3, "1,1,1,1": 2, "1,1,1,1~": 2,
}

MAES_TABLE_N6_R2 = {
    "6": 5, "6~": 5, "5,1": 4, "5~,1": 4, "5,1~": 4, "5~,1~": 4,
    "4,1,1": 3, "4~,1,1": 3, "4,1,1~": 3, "4~,1,1~": 3, "3,3": 2, "3,3~": 2,
}


def test_excludant_tables():
    for text, want in MES_TABLE_N4_R2.items():
        assert min_excludant_size(O(text), 2) == want
    for text, want in MAES_TABLE_N6_R2.items():
        assert max_excludant_size(O(text), 2) == want
    # every other overpartition of 6 has no valid excludant at chain length 2
    for pi in iter_overpartitions(6):
        if pi.text() not in MAES_TABLE_N6_R2:
            assert max_excludant_size(pi, 2) == 0


def test_max_excludant_examples():
    assert max_excludant_size(O("5,1~"), 2) == 4
    assert max_excludant_size(O("3,3~"), 2) == 2
    assert max_excludant_size(O("1,1"), 1) == 0
    assert max_excludant_size(O(""), 3) == 0


def test_min_excludant_monotone_in_chain_length():
    for n in range(0, 21):
        for pi in iter_overpartitions(n):
            values = [min_excludant_size(pi, r) for r in range(1, 6)]
            assert all(a <= b for a, b in zip(values, values[1:]))


def set_max_excludant(pi, r):
    """Oracle: test t = largest size - 1 down to r against the set of
    sizes."""
    present = set(pi.sizes())
    for t in range(pi.largest_size - 1, r - 1, -1):
        if all((t - u) not in present for u in range(r)):
            return t
    return 0


def test_max_excludant_matches_set_oracle():
    for r in range(1, 6):
        assert max_excludant_size(O(""), r) == set_max_excludant(O(""), r) == 0
    cases = 0
    for n in range(0, 19):
        for pi in iter_overpartitions(n):
            for r in range(1, 6):
                assert max_excludant_size(pi, r) == set_max_excludant(pi, r), (pi.text(), r)
                cases += 1
            # a chain at least as long as the largest size never fits
            for r in (pi.largest_size, pi.largest_size + 1):
                if r >= 1:
                    assert max_excludant_size(pi, r) == set_max_excludant(pi, r) == 0
    assert cases == 5 * 13_605


def test_max_excludant_range_invariant():
    for n in range(0, 17):
        for r in (1, 2, 3):
            for pi in iter_overpartitions(n):
                value = max_excludant_size(pi, r)
                assert value == 0 or r <= value < pi.largest_size


def test_repeating_sizes():
    assert largest_repeating_size(O("1,1,1,1~"), 2) == 1
    assert largest_repeating_size(O("2,1,1"), 2) == 0
    assert largest_repeating_size(O(""), 4) == 0
    assert smallest_positive_repeating_size(O("2,2,2~"), 2) == 2
    assert smallest_positive_repeating_size(O("4"), 2) is None
    assert smallest_positive_repeating_size(O("1,1,1,1"), 2) == 1


def test_count_parts_above():
    assert count_parts_above(O("2,1,1"), 0) == 3
    assert count_parts_above(O("2,2,2~"), 2, inclusive=True) == 3
    assert count_parts_above(O(""), 5) == 0
    assert count_parts_above(O("3,2,1"), 2) == 1


def test_partition_type():
    p = Partition((4, 2, 1))
    assert p.weight == 7 and len(p) == 3
    assert p.conjugate() == Partition((3, 2, 1, 1))
    assert p.conjugate().conjugate() == p
    assert Partition(()).conjugate() == Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_overpartition_validation():
    with pytest.raises(ValueError):
        Overpartition(((2, 1, False), (2, 1, True)))
    with pytest.raises(ValueError):
        Overpartition(((1, 0, False),))
    with pytest.raises(ValueError):
        Overpartition(((0, 1, False),))


def test_values_are_immutable():
    pi = O("2,1")
    with pytest.raises(AttributeError):
        pi.entries = ()
    with pytest.raises(AttributeError):
        Partition((2, 1)).parts = ()


def test_records_are_immutable_values():
    mismatch = Mismatch(6, None, 32, 36)
    witness = DecompositionWitness(O("1,1"), (1, 0))
    report = VerificationReport("I2", {"r": 1, "form": "subtracted"}, 8, "fail", (mismatch,))
    twins = [
        (ClassTag("L", 2), ClassTag(family="L", k=2)),
        (mismatch, Mismatch(q=6, z=None, lhs=32, rhs=36)),
        (report, VerificationReport("I2", [("form", "subtracted"), ("r", 1)], 8, "fail",
                                    (Mismatch(6, None, 32, 36),))),
        (witness, DecompositionWitness(O("1,1"), [1, 0])),
    ]
    for a, b in twins:
        assert a == b and hash(a) == hash(b) and a is not b
        assert a.__eq__(object()) is NotImplemented
        assert copy.copy(a) == a and not hasattr(a, "__dict__")
        for name in (*a.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
    for a in (ClassTag("F", 3), report):
        assert pickle.loads(pickle.dumps(a)) == a
    assert ClassTag("L", 2) != ClassTag("F", 2)
    assert repr(ClassTag("L", 2)) == "ClassTag(family='L', k=2)"
    assert repr(mismatch) == "Mismatch(q=6, z=None, lhs=32, rhs=36)"
    assert repr(witness) == (
        "DecompositionWitness(basis=Overpartition.parse('1,1', 'last'), padding=(1, 0))"
    )
    assert ClassTag("F", 3).convention is Convention.FIRST
    assert ClassTag("all").convention is ClassTag("L", 1).convention is Convention.LAST
    assert {entry.id: entry.param_names for entry in IDENTITIES.values()} == {
        "I1": (), "I2": ("r", "form"), "I3": ("r", "w_reading"), "I4": ("form",),
        "I5": ("r",), "I6": ("r", "n", "form"), "I7": ("r",), "I8": ("r",),
        "I9": ("r", "m"), "I10": ("r",), "I11": ("k",), "I12": ("k",),
        "I13": ("k", "m", "s", "j"), "I14": ("k", "m", "s", "j"), "I15": (),
        "I16": ("k", "A", "B"), "I17": ("k", "j"), "I18": ("k", "s"), "I19": ("k", "s"),
    }


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site .pth files, which may import either, out of the process.
    src = Path(qpl.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qpl; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_constructors_reject_non_int_sizes_and_non_bool_flags():
    for entries in ([(2.9, 1, "no")], [(True, 1, False)], [(2, True, False)],
                    [(2, 1.0, False)], [(2, 1, 1)], [(2, 1, "no")]):
        with pytest.raises(ValueError):
            Overpartition(entries)
    for pairs in ([(2.5, True), (True, 1)], [(2.5, True)], [(True, False)],
                  [(2, 1)], [(2, None)], [(3, False), (2, "yes")]):
        with pytest.raises(ValueError):
            Overpartition.from_written(pairs)
    for parts in ((2.9, True), (2.0, 1), (True,), ("2",)):
        with pytest.raises(ValueError):
            Partition(parts)
    assert Overpartition([(2, 1, True)]).text() == "2~"
    assert Overpartition.from_written([(2, True), (1, False)]).text() == "2~,1"


@pytest.mark.parametrize("r", (1.5, 2.0, True, False, "2", None))
def test_statistics_reject_non_int_chain_length(r):
    pi = O("5,3,1")
    for stat in (min_excludant_size, max_excludant_size, largest_repeating_size,
                 smallest_positive_repeating_size):
        with pytest.raises(ValueError):
            stat(pi, r)
    assert min_excludant_size(pi, 1) == 2


@pytest.mark.parametrize("t", (2.5, 2.0, True, "2"))
def test_count_parts_above_rejects_non_int_threshold(t):
    with pytest.raises(ValueError):
        count_parts_above(O("5,3,1"), t)


@pytest.mark.parametrize("size", (True, False, 1.0, "1", None))
def test_size_accessors_reject_non_int_sizes(size):
    # True == 1, so a coerced bool would answer for size 1.
    pi = O("2,1~")
    for accessor in (pi.multiplicity, pi.has_overlined):
        with pytest.raises(ValueError):
            accessor(size)
    assert pi.multiplicity(1) == 1 and pi.has_overlined(1)


@pytest.mark.parametrize("flag", ("no", 1, 0, None))
def test_count_parts_above_rejects_non_bool_flag(flag):
    with pytest.raises(ValueError):
        count_parts_above(O("5,3,1"), 3, inclusive=flag)
    assert count_parts_above(O("5,3,1"), 3, inclusive=True) == 2


def set_min_excludant(pi, r):
    """Oracle: test t = 1, 2, ... against the set of sizes."""
    present = set(pi.sizes())
    t = 1
    while any((t + u) in present for u in range(r)):
        t += 1
    return t


def test_min_excludant_matches_set_oracle():
    assert min_excludant_size(O(""), 3) == 1
    for n in range(0, 17):
        for pi in iter_overpartitions(n):
            for r in range(1, 6):
                assert min_excludant_size(pi, r) == set_min_excludant(pi, r), (pi.text(), r)


def written_parts(pi):
    """Oracle for parts(): one written part at a time."""
    out = []
    for size, mult, overlined in pi.entries:
        at = 0 if pi.convention is Convention.FIRST else mult - 1
        for i in range(mult):
            out.append((size, overlined and i == at))
    return tuple(out)


def test_parts_match_per_part_oracle():
    for convention in (Convention.LAST, Convention.FIRST):
        for n in range(0, 13):
            for pi in iter_overpartitions(n, convention):
                assert pi.parts() == written_parts(pi), pi.text()


# -- properties (derandomized, bounded) ---------------------------------------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@st.composite
def overpartitions(draw, conventions=(Convention.LAST, Convention.FIRST)):
    """Any overpartition with sizes up to 15 and multiplicities up to 4."""
    blocks = draw(st.dictionaries(st.integers(1, 15),
                                  st.tuples(st.integers(1, 4), st.booleans()), max_size=7))
    entries = [(size, *blocks[size]) for size in sorted(blocks, reverse=True)]
    return Overpartition(entries, draw(st.sampled_from(conventions)))


@PROPERTY
@given(overpartitions())
def test_parse_inverts_text(pi):
    text = pi.text()
    assert Overpartition.parse(text, pi.convention) == pi
    assert Overpartition.parse(text, pi.convention).text() == text


@PROPERTY
@given(overpartitions((Convention.LAST,)))
def test_conjugate_is_an_involution_on_random_overpartitions(pi):
    image = conjugate(pi)
    assert conjugate(image) == pi
    assert (image.weight, image.overlined_count) == (pi.weight, pi.overlined_count)
