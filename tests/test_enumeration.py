import random
import time
from itertools import zip_longest

from qpl.core import Convention, Overpartition, Partition
from qpl.enumeration import (
    _SWEEPS,
    ClassTag,
    _class_walk,
    basis_elements,
    distinct_congruent_partitions,
    enumerate_class,
    iter_overpartitions,
    overpartitions_of,
)
from qpl.identities import overpartition_series
from qpl.separable import is_basis_element, is_member

import pytest
from hypothesis import given, settings, strategies as st


def test_counts_against_series():
    series = overpartition_series(18)
    for n in range(0, 19):
        assert len(list(overpartitions_of(n))) == series.coeff(n)


def test_small_counts():
    assert len(list(overpartitions_of(4))) == 14
    assert [pi.text() for pi in overpartitions_of(0)] == [""]
    assert [pi.text() for pi in overpartitions_of(1)] == ["1", "1~"]


def test_enumeration_order_and_uniqueness():
    for n in range(0, 12):
        texts = [pi.text() for pi in overpartitions_of(n)]
        assert texts == sorted(texts)
        assert len(texts) == len(set(texts))


def test_iter_matches_ordered_enumeration():
    for n in range(0, 12):
        fast = sorted(pi.text() for pi in iter_overpartitions(n, Convention.FIRST))
        ordered = [pi.text() for pi in overpartitions_of(n, Convention.FIRST)]
        assert fast == ordered


def test_class_counts_of_four():
    assert len(list(enumerate_class(4, ClassTag("L", 2)))) == 12
    assert len(list(enumerate_class(4, ClassTag("F", 2)))) == 9
    assert len(list(enumerate_class(4, ClassTag("L", 1)))) == 14
    assert len(list(enumerate_class(4, ClassTag("all")))) == 14


def test_class_lists_of_four():
    want_l2 = {"4", "4~", "3,1", "3,1~", "2,2", "2,2~", "2,1,1",
               "2~,1,1", "2,1,1~", "2~,1,1~", "1,1,1,1", "1,1,1,1~"}
    assert {pi.text() for pi in enumerate_class(4, ClassTag("L", 2))} == want_l2
    want_f2 = {"4", "3,1", "3~,1", "2,2", "2~,2", "2,1,1", "2,1~,1",
               "1,1,1,1", "1~,1,1,1"}
    assert {pi.text() for pi in enumerate_class(4, ClassTag("F", 2))} == want_f2


def test_class_tag_validation():
    with pytest.raises(ValueError):
        ClassTag("X", 1)
    with pytest.raises(ValueError):
        ClassTag("L", 0)
    assert ClassTag("all").convention is Convention.LAST
    assert ClassTag("F", 3).convention is Convention.FIRST


@pytest.mark.parametrize("k", (2.5, True, 2.0, "2"))
def test_class_tag_rejects_non_int_k(k):
    # the class walk reads k as a modulus
    with pytest.raises(ValueError):
        ClassTag("L", k)


@pytest.mark.parametrize("bad", (True, 2.0, 1.5, "2"))
def test_enumerators_reject_non_int_arguments(bad):
    calls = (
        lambda: list(overpartitions_of(bad)),
        lambda: list(iter_overpartitions(bad)),
        lambda: list(enumerate_class(bad, ClassTag("L", 1))),
        lambda: basis_elements("BL", 1, bad),
        lambda: basis_elements("BL", bad, 2),
        lambda: basis_elements("BL", 1, 3, bad),
        lambda: list(distinct_congruent_partitions(bad, 1, 1, 1)),
        lambda: list(distinct_congruent_partitions(3, bad, 1, 1)),
        lambda: list(distinct_congruent_partitions(3, 1, 1, bad)),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert len(basis_elements("BL", 1, 2)) == 4


BL25 = {"1,1,1,1,1", "2~,1,1,1,1", "2,2,2~,1,1", "3~,2,2~,1,1",
        "1,1,1,1,1~", "2~,1,1,1,1~", "2,2,2~,1,1~", "3~,2,2~,1,1~"}
BF25 = {"1,1,1,1,1", "2,1~,1,1,1", "2,2,2,1~,1", "3,2~,2,1~,1"}


def test_basis_element_lists():
    assert {lam.text() for lam in basis_elements("BL", 2, 5)} == BL25
    assert {lam.text() for lam in basis_elements("BF", 2, 5)} == BF25
    assert {lam.text() for lam in basis_elements("BL", 1, 1)} == {"1", "1~"}


def _expected_basis_count(family, k, parts):
    blocks = (parts - 1) // k + 1  # number of overline opportunities for BL
    if family == "BL":
        return 2 ** blocks
    s = (parts - 1) % k + 1
    return 2 ** blocks if s == k else 2 ** (blocks - 1)


def test_basis_counts():
    for k in (1, 2, 3):
        for parts in range(1, 13):
            assert len(basis_elements("BL", k, parts)) == \
                _expected_basis_count("BL", k, parts), ("BL", k, parts)
            assert len(basis_elements("BF", k, parts)) == \
                _expected_basis_count("BF", k, parts), ("BF", k, parts)


def test_basis_elements_pass_membership_and_basis_checks():
    for k in (1, 2, 3):
        for parts in range(1, 9):
            for lam in basis_elements("BL", k, parts):
                assert is_member(lam, ClassTag("L", k))
                assert is_basis_element(lam, "BL", k)
            for lam in basis_elements("BF", k, parts):
                assert is_member(lam, ClassTag("F", k))
                assert is_basis_element(lam, "BF", k)


def test_basis_weight_cap():
    capped = basis_elements("BL", 1, 6, max_weight=8)
    full = [lam for lam in basis_elements("BL", 1, 6) if lam.weight <= 8]
    assert {lam.text() for lam in capped} == {lam.text() for lam in full}
    every = [lam for m in range(1, 11) for lam in basis_elements("BF", 2, m, max_weight=10)]
    assert all(lam.weight <= 10 for lam in every)
    assert len({lam.text() for lam in every}) == len(every)


def is_member_positional(pi, tag):
    """Oracle for is_member: scan the written part positions directly."""
    if tag.family == "all":
        return True
    assert pi.convention is tag.convention
    written = pi.parts()
    ell = len(written)
    want = 0 if tag.family == "L" else -1
    for i, (_, overlined) in enumerate(written, start=1):
        if overlined and (ell - i - want) % tag.k != 0:
            return False
    return True


def test_membership_tests_agree():
    for n in range(0, 19):
        for k in (1, 2, 3):
            for family in ("L", "F"):
                tag = ClassTag(family, k)
                for pi in iter_overpartitions(n, tag.convention):
                    assert is_member(pi, tag) == is_member_positional(pi, tag), \
                        (pi.text(), family, k)


def test_distinct_congruent_partitions():
    assert list(distinct_congruent_partitions(4, 2, 2, 1)) == [Partition((3, 1))]
    assert list(distinct_congruent_partitions(1, 1, 2, 1)) == [Partition((1,))]
    assert list(distinct_congruent_partitions(2, 2, 1, 1)) == []
    got = {p.parts for p in distinct_congruent_partitions(12, 2, 2, 2)}
    assert got == {(10, 2), (8, 4)}


def test_distinct_congruent_against_filter():
    def naive(n, j, k, s):
        found = set()

        def rec(remaining, count, cap, acc):
            if count == 0:
                if remaining == 0:
                    found.add(acc)
                return
            for part in range(1, cap):
                if part % k == s % k and part <= remaining:
                    rec(remaining - part, count - 1, part, acc + (part,))

        rec(n, j, n + 1, ())
        return {tuple(sorted(p, reverse=True)) for p in found}

    for n in range(1, 16):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                for s in range(1, k + 1):
                    got = {p.parts for p in distinct_congruent_partitions(n, j, k, s)}
                    assert got == naive(n, j, k, s), (n, j, k, s)


# -- the ordered walk against the profile x overline-mask oracle -------------


def _plain_profiles(n, cap):
    """Plain partitions of n with parts <= cap, as ((size, mult), ...)."""
    if n == 0:
        yield ()
        return
    for size in range(min(n, cap), 0, -1):
        for mult in range(1, n // size + 1):
            for rest in _plain_profiles(n - size * mult, size - 1):
                yield ((size, mult),) + rest


def mask_walk(n, convention):
    """Oracle: every plain profile of n with every subset of its distinct
    sizes overlined, in no particular order."""
    for profile in _plain_profiles(n, n):
        for mask in range(1 << len(profile)):
            entries = tuple((size, mult, bool(mask >> i & 1))
                            for i, (size, mult) in enumerate(profile))
            yield Overpartition(entries, convention)


@pytest.mark.parametrize("convention", (Convention.LAST, Convention.FIRST))
def test_ordered_walk_matches_sorted_oracle(convention):
    for n in range(0, 19):
        want = sorted(mask_walk(n, convention), key=Overpartition.text)
        assert list(overpartitions_of(n, convention)) == want, n
        walked = list(iter_overpartitions(n, convention))
        assert len(walked) == len(want) and set(walked) == set(want), n


def test_text_order_puts_a_comma_below_digits_and_overlines():
    # "," < "0".."9" < "~", so "1,..." < "10" < "10~" < "1~,..." < "2,..."
    first = [pi.text() for pi in overpartitions_of(10, Convention.FIRST)]
    assert first[:5] == ["1,1,1,1,1,1,1,1,1,1", "10", "10~",
                         "1~,1,1,1,1,1,1,1,1,1", "2,1,1,1,1,1,1,1,1"]
    last = [pi.text() for pi in overpartitions_of(11)]
    assert last[:4] == ["1,1,1,1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1,1,1,1~",
                        "10,1", "10,1~"]


@pytest.mark.parametrize("family", ("L", "F"))
def test_class_stream_is_the_filtered_oracle(family):
    for k in (1, 2, 3, 4):
        tag = ClassTag(family, k)
        for n in range(0, 15):
            want = [pi for pi in sorted(mask_walk(n, tag.convention), key=Overpartition.text)
                    if is_member(pi, tag)]
            assert list(enumerate_class(n, tag)) == want, (family, k, n)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(0, 20), st.sampled_from(("L", "F")), st.integers(1, 7))
def test_class_stream_is_the_filtered_walk_on_random_tags(n, family, k):
    tag = ClassTag(family, k)
    want = [pi for pi in iter_overpartitions(n, tag.convention) if is_member(pi, tag)]
    assert list(enumerate_class(n, tag)) == want


def test_streamed_objects_are_canonical():
    # The walk builds its objects with the unchecked Overpartition._make;
    # n up to 16 straddles the weight at which nodes finish from suffix lists.
    tags = [ClassTag(family, k) for family in ("L", "F") for k in (1, 2, 3, 4)]
    for n in range(17):
        streams = [iter_overpartitions(n, convention)
                   for convention in (Convention.LAST, Convention.FIRST)]
        streams += [enumerate_class(n, tag) for tag in tags]
        for stream in streams:
            for pi in stream:
                assert Overpartition(pi.entries, pi.convention) == pi, (n, pi.entries)


def test_stream_stays_lazy_at_large_weight():
    # Suffix lists are built on first use, so the first object of a large
    # stream costs one descent, not a table of all completions.
    start = time.perf_counter()
    first = next(iter_overpartitions(200))
    assert time.perf_counter() - start < 2.0
    assert first.entries == ((1, 200, False),)


def test_interleaved_class_streams_match_separate_runs():
    tags = (ClassTag("L", 2), ClassTag("F", 3))
    want = [list(enumerate_class(14, tag)) for tag in tags]
    got = ([], [])
    for pair in zip_longest(*(enumerate_class(14, tag) for tag in tags)):
        for out, pi in zip(got, pair):
            if pi is not None:
                out.append(pi)
    assert list(got) == want


def test_class_walks_share_their_suffix_lists():
    # A repeat walk builds no list.
    tag = ClassTag("L", 4)
    want = list(enumerate_class(8, tag))
    lists = _SWEEPS["suffixes", Convention.LAST, 4][1]
    built = dict(lists)
    assert list(enumerate_class(8, tag)) == want
    assert lists.keys() == built.keys()
    assert all(lists[state] is built[state] for state in built)
    # Each stream is walked with no stored lists for its (convention, k),
    # then again in a shuffled order, reading the lists that walks of other
    # weights left.
    calls = [(n, convention, k) for n in range(15) for convention in Convention
             for k in (1, 2, 3, 4)]
    cold = {}
    for n, convention, k in calls:
        _SWEEPS.pop(("suffixes", convention, k), None)
        cold[n, convention, k] = list(_class_walk(n, convention, k))
    random.Random(26).shuffle(calls)
    for call in calls:
        assert list(_class_walk(*call)) == cold[call], call
