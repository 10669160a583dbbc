"""The counting sweeps behind the brute-force sides, against object walks.

Each sweep visits profiles or basis nodes instead of overpartition objects.
The object walks the library used before stay here as oracles: they build
every overpartition or basis element and read its statistics one by one.
The basis walk is also compared with a generator of one record per node,
which the inline walk of ``separable._basis_histograms`` replaced.
The distinct-part walk is compared with one recursion per part count, and
the profile walk with the two scans of memoised profile tuples it replaced.
The last tests poison one kind of side's primitives and evaluate the other
kind: a brute-force side that borrowed from the closed form it is checked
against, or a closed side that enumerated, would fail.  Each such pass
starts from an empty sweep cache, so it walks instead of reading what an
unpoisoned pass stored.
"""

import math
import random
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cache
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from qpl import enumeration, identities
from qpl.core import (
    Convention,
    count_parts_above,
    largest_repeating_size,
    max_excludant_size,
    min_excludant_size,
    smallest_positive_repeating_size,
)
from qpl.enumeration import (
    _SWEEPS,
    ClassTag,
    _basis_children,
    _basis_family,
    _swept,
    basis_elements,
    distinct_congruent_partitions,
    iter_overpartitions,
    weighted_profiles,
)
from qpl.identities import (
    _brute_basis_marked,
    _brute_class_marked,
    _brute_distinct_marked,
    _diff,
    _excludant_sweep,
    _report,
    _resolve,
    brute_force,
    catalog_instances,
    closed_form,
    theorem_count_check,
    verify_all,
)
from qpl.separable import _basis_histograms, basis_gf, is_member
from qpl.series import QSeries, ZQPoly

N = 18


@contextmanager
def _emptied_sweeps():
    """An empty sweep cache, so the sweep under test runs at the asked
    bounds; the shared cache is restored afterwards."""
    saved = dict(_SWEEPS)
    _SWEEPS.clear()
    try:
        yield
    finally:
        _SWEEPS.clear()
        _SWEEPS.update(saved)


@pytest.fixture
def cold_sweeps():
    with _emptied_sweeps():
        yield


# -- oracles: the object walks ----------------------------------------------


@cache
def object_excludant_sweep(r, trunc):
    data = {
        "counts": [0] * (trunc + 1),
        "sigma_mes": [0] * (trunc + 1),
        "sigma_maes": [0] * (trunc + 1),
        "mes_hist": defaultdict(int),
        "maes_hist": defaultdict(int),
        "rep_hist": defaultdict(int),
    }
    for n in range(trunc + 1):
        for pi in iter_overpartitions(n, Convention.LAST):
            data["counts"][n] += 1
            mes = min_excludant_size(pi, r)
            maes = max_excludant_size(pi, r)
            data["sigma_mes"][n] += mes
            data["sigma_maes"][n] += maes
            data["mes_hist"][(n, mes)] += 1
            if maes > 0:
                data["maes_hist"][(n, maes)] += 1
            big = largest_repeating_size(pi, r)
            small = smallest_positive_repeating_size(pi, r) or 0
            data["rep_hist"][(n, big, small)] += 1
    return data


@cache
def object_class_marked(family, k, trunc):
    tag = ClassTag(family, k)
    hist = Counter()
    for n in range(trunc + 1):
        for pi in iter_overpartitions(n, tag.convention):
            if is_member(pi, tag):
                hist[(n, pi.overlined_count)] += 1
    return ZQPoly.from_counts(hist, trunc)


def memo_profiles(n, max_size, memo):
    """Plain partitions of n with parts <= max_size, as ((size, mult), ...)
    tuples with sizes descending, memoised in ``memo`` by (n, max_size)."""
    if n == 0:
        return ((),)
    profiles = memo.get((n, max_size))
    if profiles is None:
        out = []
        for size in range(min(n, max_size), 0, -1):
            for mult in range(1, n // size + 1):
                head = ((size, mult),)
                for rest in memo_profiles(n - size * mult, size - 1, memo):
                    out.append(head + rest)
        profiles = memo[n, max_size] = tuple(out)
    return profiles


def two_scan_profile_histograms(trunc):
    """identities._profile_histograms as one scan of each profile tuple from
    the top (maes and the largest repeating size) and one from the bottom
    (mes and the smallest repeating size), weight by weight."""
    mes, maes, rep = Counter(), Counter(), Counter()
    mults = defaultdict(Counter)
    memo = {}
    for n in range(trunc + 1):
        for profile in memo_profiles(n, n, memo):
            count = 1 << len(profile)
            # from the top: maes and the largest repeating size's records
            lo = rep_lo = 1  # the least r no record covers yet
            above = 0
            big = []  # (last r, size)
            for size, mult in profile:
                gap = above - size - 1
                if gap >= lo:
                    maes[lo, gap, n, above - 1] += count
                    lo = gap + 1
                if mult > rep_lo:
                    big.append((mult - 1, size))
                    rep_lo = mult
                above = size
            if above - 1 >= lo:
                maes[lo, above - 1, n, above - 1] += count
            # from the bottom: mes and the smallest repeating size's records
            lo = t = rep_lo = 1
            small = []
            for size, mult in reversed(profile):
                if size - t >= lo:
                    mes[lo, size - t, n, t] += count
                    lo = size - t + 1
                t = size + 1
                if mult > rep_lo:
                    small.append((mult - 1, size))
                    rep_lo = mult
            mes[lo, math.inf, n, t] += count
            lo = i = j = 0  # lo: the last r covered
            while i < len(big):  # the joint intervals, to the last record
                (big_hi, big_size), (small_hi, small_size) = big[i], small[j]
                hi = min(big_hi, small_hi)
                rep[lo + 1, hi, n, big_size, small_size] += count
                lo = hi
                i += big_hi == hi
                j += small_hi == hi
            rep[lo + 1, math.inf, n, 0, 0] += count
            mults[tuple([mult for _, mult in reversed(profile)])][n] += 1
    return {"mes": mes, "maes": maes, "rep": rep, "mults": mults}


def plain_histograms(h):
    """The four profile histograms as plain dicts, so that an entry of
    count 0 would not compare equal to a missing one."""
    out = {name: dict(h[name]) for name in ("mes", "maes", "rep")}
    out["mults"] = {key: dict(weights) for key, weights in h["mults"].items()}
    return out


def object_theorem_count_check(which, n, r):
    axis = n + 2
    lhs = Counter()
    rhs = Counter()
    for pi in iter_overpartitions(n, Convention.LAST):
        if which == "Thm2_1":
            kk = min_excludant_size(pi, r)
            lhs[(kk, count_parts_above(pi, kk))] += 1
            big = largest_repeating_size(pi, r)
            rhs[(count_parts_above(pi, big) + 1, big)] += 1
        else:
            kk = max_excludant_size(pi, r)
            if kk >= 1:
                lhs[(kk, count_parts_above(pi, kk))] += 1
            small = smallest_positive_repeating_size(pi, r)
            if small is not None:
                rhs[(count_parts_above(pi, small, inclusive=True) - 1, small)] += 1
    mismatches = _diff(ZQPoly.from_counts(lhs, axis), ZQPoly.from_counts(rhs, axis))
    return _report(which, {"n": n, "r": r}, n, mismatches)


class BasisNode(NamedTuple):
    """One basis element as :func:`basis_nodes` sees it: no parts, only the
    counts and flags the identity checks read."""

    weight: int
    overlined: int  # overlined parts, one per overlined size
    length: int  # number of parts
    top_size: int  # the largest size
    top_overlined: bool  # the first written part is overlined
    smallest_overlined: bool  # size 1 carries an overline


def basis_nodes(family, k, max_weight=None, max_length=None):
    """Every basis element with weight <= ``max_weight`` and at most
    ``max_length`` parts, once each and in no particular order, as a
    :class:`BasisNode`.  One depth-first walk emits every prefix, since each
    prefix is itself a basis element.  At least one bound must be given."""
    _, allowed = _basis_family(family, k)
    if max_weight is None and max_length is None:
        raise ValueError("give max_weight or max_length")
    stack = [BasisNode(0, 0, 0, 0, False, False)]  # the empty prefix
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
            ))


def node_basis_histograms(family, k, trunc, parts):
    """_basis_histograms read off the basis_nodes generator, as plain dicts."""
    cap = basis_bounds(trunc, parts)[1]
    by_top, by_end = defaultdict(Counter), defaultdict(Counter)
    for node in basis_nodes(family, k, trunc, parts):
        counts = (node.weight, node.overlined)
        by_top[node.length, node.top_size, node.top_overlined][counts] += 1
        if cap is None:
            end = node.smallest_overlined if family == "BL" else node.top_overlined
            by_end[node.length % k, end][counts] += 1
    return plain_basis_histograms((by_top, by_end))


def plain_basis_histograms(histograms):
    return tuple({key: dict(counts) for key, counts in h.items()} for h in histograms)


def object_basis_gf(elements, j, overlined, trunc):
    selected = [lam for lam in elements if lam.parts()[0] == (j, overlined)]
    if trunc is None:
        trunc = max((lam.weight for lam in selected), default=0)
    acc = ZQPoly.zero(trunc)
    for lam in selected:
        acc = acc + ZQPoly.from_qseries(QSeries.monomial(lam.weight, 1, trunc), lam.overlined_count)
    return acc


def walked_basis_gf(family, k, parts, j, overlined, trunc):
    """basis_gf as one basis_nodes walk per call, without the shared
    histograms."""
    counts = Counter(
        (node.weight, node.overlined)
        for node in basis_nodes(family, k, trunc, parts)
        if node.length == parts and node.top_size == j and node.top_overlined == overlined
    )
    if trunc is None:
        trunc = max((weight for weight, _ in counts), default=0)
    return ZQPoly.from_counts(counts, trunc)


@cache
def element_end_marked(family, k, s, overlined, trunc):
    """_brute_basis_marked from the elements: filtered on their part count
    and their smallest (BL) or largest (BF) size's overline, read off each
    element."""
    want = Counter(
        (lam.weight, lam.overlined_count)
        for m in range(1, trunc + 1) for lam in basis_elements(family, k, m, trunc)
        if (lam.num_parts - s) % k == 0
        and lam.has_overlined(1 if family == "BL" else lam.largest_size) == overlined)
    return ZQPoly.from_counts(want, trunc)


def basis_bounds(trunc, parts):
    """The bounds a basis entry walked to ``trunc`` and ``parts`` is stored
    with: no part bound once ``parts`` reaches the truncation."""
    return (trunc, parts if trunc is None or parts < trunc else None)


def covers(stored, asked):
    """The cover rule of the sweep cache, bound by bound (None: unbounded)."""
    return all(old is None or new is not None and old >= new for old, new in zip(stored, asked))


def per_length_distinct_marked(k, s, trunc):
    """One distinct_congruent_partitions recursion per (weight, length)."""
    hist = Counter()
    j = 1
    while s * j + k * (j * (j - 1) // 2) <= trunc:
        for n in range(1, trunc + 1):
            for _ in distinct_congruent_partitions(n, j, k, s):
                hist[(n, j)] += 1
        j += 1
    return ZQPoly.from_counts(hist, trunc)


def element_key(lam):
    """What a basis node records, read from the element itself."""
    return (
        lam.weight,
        lam.overlined_count,
        lam.num_parts,
        lam.parts()[0],
        lam.has_overlined(1),
    )


def node_key(node):
    return (
        node.weight,
        node.overlined,
        node.length,
        (node.top_size, node.top_overlined),
        node.smallest_overlined,
    )


# -- sweeps against oracles --------------------------------------------------


@pytest.mark.parametrize("r", range(1, N + 3))
def test_excludant_sweep_matches_object_walk(r, cold_sweeps):
    # Past r = N every statistic sits in its last interval, the unbounded one.
    got = _excludant_sweep(r, N)
    want = object_excludant_sweep(r, N)
    assert set(got) == {"mes_hist", "maes_hist", "rep_hist"}
    for key, value in got.items():
        assert value == want[key], key
    # the per-weight lists are read off the histograms
    mes = ZQPoly.from_counts(got["mes_hist"], N)
    maes = ZQPoly.from_counts(got["maes_hist"], N)
    assert list(mes.q_projection().coeffs) == want["counts"]
    assert list(mes.z_moment().coeffs) == want["sigma_mes"]
    assert list(maes.z_moment().coeffs) == want["sigma_maes"]


@pytest.mark.parametrize("family", ("L", "F"))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_class_sweep_matches_object_walk(family, k):
    assert _brute_class_marked(family, k, N) == object_class_marked(family, k, N)


def test_one_profile_walk_serves_every_chain_length_and_class_tag(cold_sweeps, monkeypatch):
    walks = []
    real = identities._profile_histograms

    def recorded(trunc):
        walks.append(trunc)
        return real(trunc)

    monkeypatch.setattr(identities, "_profile_histograms", recorded)
    assert len(verify_all(25)) == len(catalog_instances(25))
    assert walks == [25]
    # Chain lengths no catalog instance asks for, at a smaller truncation,
    # read the same walk; its weights above N are filtered out here.
    for r in (4, 7, 30):
        got = _excludant_sweep(r, N)
        want = object_excludant_sweep(r, N)
        for key, hist in got.items():
            assert {k: v for k, v in hist.items() if k[0] <= N} == want[key], (r, key)
    assert walks == [25]


def test_profile_walk_matches_the_two_scan_oracle():
    # Every interval key of the four histograms, at every truncation.
    for trunc in range(21):
        assert plain_histograms(identities._profile_histograms(trunc)) == \
            plain_histograms(two_scan_profile_histograms(trunc)), trunc


@st.composite
def profile_calls(draw):
    """A few excludant reads and class sides at mixed chain lengths,
    classes and truncations, so that calls meet at the one profile entry."""
    calls = []
    for _ in range(draw(st.integers(2, 8))):
        trunc = draw(st.integers(0, 16))
        if draw(st.booleans()):
            calls.append(("excludant", draw(st.integers(1, 25)), trunc))
        else:
            calls.append(("class", draw(st.sampled_from(("L", "F"))), draw(st.integers(1, 5)),
                          trunc))
    return calls


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(profile_calls())
def test_profile_sweeps_match_the_object_walks_in_any_order(calls):
    # A read answered by a walk at a larger truncation filters out the
    # weights past its own.
    with _emptied_sweeps():
        for kind, *args in calls:
            if kind == "excludant":
                r, trunc = args
                want = object_excludant_sweep(r, trunc)
                for key, hist in _excludant_sweep(r, trunc).items():
                    assert {w: c for w, c in hist.items() if w[0] <= trunc} == want[key], calls
            else:
                assert _brute_class_marked(*args) == object_class_marked(*args), calls


@pytest.mark.parametrize("which", ("Thm2_1", "Thm2_2"))
def test_theorem_count_check_matches_object_walk(which):
    for n in range(N + 1):
        for r in (1, 2, 3):
            assert theorem_count_check(which, n, r) == \
                object_theorem_count_check(which, n, r), (n, r)


@pytest.mark.parametrize("family", ("BL", "BF"))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_basis_nodes_match_basis_elements(family, k):
    nodes = Counter(node_key(node) for node in basis_nodes(family, k, 30))
    elements = Counter(
        element_key(lam) for m in range(1, 31) for lam in basis_elements(family, k, m, 30)
    )
    assert nodes == elements
    capped = Counter(node_key(node) for node in basis_nodes(family, k, None, 6))
    assert capped == Counter(
        element_key(lam) for m in range(1, 7) for lam in basis_elements(family, k, m)
    )


@pytest.mark.parametrize("family", ("BL", "BF"))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_basis_walk_matches_the_node_generator(family, k, cold_sweeps):
    # Capped and uncapped walks, at part bounds below, at and above the
    # truncation, and with no truncation.
    for trunc, parts in ((0, 0), (None, 1), (None, 6), (5, 5), (12, 4), (25, 25), (30, 40)):
        _SWEEPS.clear()
        assert plain_basis_histograms(_basis_histograms(family, k, trunc, parts)) == \
            node_basis_histograms(family, k, trunc, parts), (trunc, parts)


def test_bf_largest_size_is_overlined_exactly_when_the_top_part_is():
    # Under BF an overlined part is followed by a size bump and the overline
    # is written first in its block, so the top part's flag, which the I19
    # sides read, is the largest size's.  (Under BL it is not: "2,2~,1" has a
    # plain first part and an overlined size 2.)
    for k in (1, 2, 3, 4):
        elements = [lam for m in range(1, 31) for lam in basis_elements("BF", k, m, 30)]
        assert elements
        for lam in elements:
            assert lam.has_overlined(lam.largest_size) == lam.parts()[0][1], (k, lam.text())


@pytest.mark.parametrize("family", ("BL", "BF"))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_basis_gf_matches_basis_elements_filter(family, k):
    for parts in range(1, 11):
        elements = basis_elements(family, k, parts)
        for j in range(1, 12):
            for overlined in (False, True):
                for trunc in (None, 25):
                    assert basis_gf(family, k, parts, j, overlined, trunc) == \
                        object_basis_gf(elements, j, overlined, trunc), \
                        (parts, j, overlined, trunc)


def test_shared_basis_histograms_match_one_walk_per_call(cold_sweeps):
    # In a shuffled order the bounds asked at a key rise and fall mid-stream,
    # so entries are read, and replaced at the asked bounds when they do not
    # cover them.
    calls = [(family, k, parts, j, overlined, trunc)
             for family in ("BL", "BF") for k in (1, 2, 3) for trunc in (None, 12, 30)
             for parts in range(1, 3 * k + 1) for j in range(1, parts + 2)
             for overlined in (False, True)]
    random.Random(16).shuffle(calls)
    stored = {}
    for call in calls:
        assert basis_gf(*call) == walked_basis_gf(*call), call
        family, k, parts, _, _, trunc = call
        key, asked = ("basis", family, k), basis_bounds(trunc, parts)
        if key not in stored or not covers(stored[key], asked):
            stored[key] = asked
        assert _SWEEPS[key][0] == stored[key], call
    assert set(_SWEEPS) == set(stored)


def test_basis_histogram_keeps_its_truncation_and_cap(cold_sweeps, monkeypatch):
    walks = _record_basis_walks(monkeypatch)
    basis_gf("BF", 1, 3, 2, False, 30)
    assert {key: cached[0] for key, cached in _SWEEPS.items()} == {("basis", "BF", 1): (30, 3)}
    basis_gf("BF", 1, 2, 1, True, 30)  # fewer parts read the stored walk,
    basis_gf("BF", 1, 3, 1, True, 12)  # and so do as many at a smaller truncation
    assert walks == [("BF", 1, 30, 3)]
    # More parts walk again at the asked bounds, in place of the old entry:
    # the truncation is not kept at 30, and the cap is not widened.
    basis_gf("BF", 1, 9, 2, False, 12)
    assert {key: cached[0] for key, cached in _SWEEPS.items()} == {("basis", "BF", 1): (12, 9)}
    basis_gf("BF", 1, 3, 2, False, 30)  # a larger truncation walks again
    assert _SWEEPS["basis", "BF", 1][0] == (30, 3)
    assert walks == [("BF", 1, 30, 3), ("BF", 1, 12, 9), ("BF", 1, 30, 3)]


@pytest.mark.parametrize("family", ("BL", "BF"))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_brute_basis_sides_match_basis_elements_filter(family, k, cold_sweeps):
    # The I18/I19 brute sides read the end histogram; the oracle filters the
    # elements on their part count and their smallest (BL) or largest (BF)
    # size's overline, read off each element.  A basis_gf walk capped at 2
    # parts comes first at each truncation; it leaves the end histogram
    # empty, so the sides walk again.
    for trunc in (0, 7, 20):
        basis_gf(family, k, 2, 1, False, trunc)
        for s in range(1, k + 1):
            for overlined in (False, True):
                assert _brute_basis_marked(family, k, s, overlined, trunc) == \
                    element_end_marked(family, k, s, overlined, trunc), (trunc, s, overlined)


def test_distinct_identities_walk_once_per_basis_key(cold_sweeps, monkeypatch):
    # I18 reads BL and I19 BF, each for k = 1, 2, 3: one full walk per key,
    # however many instances and sides read it.
    walks = _record_basis_walks(monkeypatch)
    assert all(report.passed for report in verify_all(40, ["I18", "I19"]))
    assert sorted(walks) == [(family, k, 40, None) for family in ("BF", "BL") for k in (1, 2, 3)]


def test_basis_gf_refuses_bool_and_float_truncations_beside_cached_ones(cold_sweeps):
    for trunc in (1, 3):
        basis_gf("BL", 1, 2, 1, False, trunc)
    # True and 3.0 compare equal to the truncations 1 and 3, so the stored
    # bounds (3, 2) cover them: only basis_gf's own check refuses them.
    stored = _SWEEPS["basis", "BL", 1]
    assert stored[0] == (3, 2)
    for trunc in (True, 3.0):
        assert _swept(("basis", "BL", 1), (trunc, 2), None) is stored[1]
        with pytest.raises(ValueError):
            basis_gf("BL", 1, 2, 1, False, trunc)


def test_one_basis_entry_per_family_and_k_serves_smaller_bounds(cold_sweeps, monkeypatch):
    walks = _record_basis_walks(monkeypatch)
    basis_ids = ["I13", "I14", "I18", "I19"]
    for trunc in (6, 8, 10):  # rising: each truncation replaces the entries
        assert all(report.passed for report in verify_all(trunc, basis_ids))
    assert {key: cached[0] for key, cached in _SWEEPS.items()} == {
        ("basis", family, k): (10, None) for family in ("BL", "BF") for k in (1, 2, 3)}
    walked = len(walks)
    for trunc in (9, 7, 5):  # falling: the stored walks answer every side
        assert all(report.passed for report in verify_all(trunc, basis_ids))
    assert len(walks) == walked
    # A walk capped below the truncation cannot answer an end histogram.
    basis_gf("BL", 2, 3, 1, False, 12)
    assert _SWEEPS["basis", "BL", 2][0] == (12, 3)
    assert _brute_basis_marked("BL", 2, 1, True, 12) == element_end_marked("BL", 2, 1, True, 12)
    assert walks[-2:] == [("BL", 2, 12, 3), ("BL", 2, 12, None)]
    assert _SWEEPS["basis", "BL", 2][0] == (12, None)


def test_profile_walks_keep_no_state_between_calls(monkeypatch):
    # The profile walk carries its records down its own stack: it builds no
    # profile tuple, so it calls no _profiles, and a second walk gives the
    # same histograms.  weighted_profiles streams _profiles afresh per call.
    profile_calls = []
    real = enumeration._profiles

    def counted(n, max_size):
        profile_calls.append((n, max_size))
        return real(n, max_size)

    _rebind(monkeypatch, "_profiles", counted)
    first = identities._profile_histograms(10)
    assert identities._profile_histograms(10) == first and not profile_calls
    first = list(weighted_profiles(10))
    once = len(profile_calls)
    assert list(weighted_profiles(10)) == first and once and len(profile_calls) == 2 * once


@st.composite
def basis_calls(draw):
    """A few basis_gf calls and I18/I19 end-histogram reads on small sets,
    over one to three (family, k), so that calls meet at one cache entry."""
    keys = st.tuples(st.sampled_from(("BL", "BF")), st.integers(1, 3))
    keys = st.sampled_from(draw(st.lists(keys, min_size=1, max_size=3)))
    calls = []
    for _ in range(draw(st.integers(4, 10))):
        (family, k), overlined = draw(keys), draw(st.booleans())
        trunc = draw(st.none() | st.integers(0, 20))
        if trunc is None or draw(st.booleans()):
            parts = draw(st.integers(1, 12))
            j = draw(st.integers(1, parts + 1))
            calls.append(("basis_gf", family, k, parts, j, overlined, trunc))
        else:
            calls.append(("end", family, k, draw(st.integers(1, k)), overlined, trunc))
    return calls


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(basis_calls())
def test_basis_sweeps_match_the_object_walks_in_any_order(calls):
    # Each call reads the one entry of its (family, k), or replaces it, so a
    # cover rule that answered from the wrong bounds would fail some call.
    with _emptied_sweeps():
        for kind, family, k, *rest in calls:
            if kind == "basis_gf":
                parts, j, overlined, trunc = rest
                got = basis_gf(family, k, parts, j, overlined, trunc)
                assert got == walked_basis_gf(family, k, parts, j, overlined, trunc), calls
                elements = basis_elements(family, k, parts, trunc)
                assert got == object_basis_gf(elements, j, overlined, trunc), calls
            else:
                got = _brute_basis_marked(family, k, *rest)
                assert got == element_end_marked(family, k, *rest), calls


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_distinct_walk_matches_per_length_recursion(k):
    for s in range(1, k + 1):
        for trunc in range(0, 31):
            assert _brute_distinct_marked(k, s, trunc) == \
                per_length_distinct_marked(k, s, trunc), (s, trunc)


# -- independence from the closed forms -------------------------------------

POISONED_FUNCTIONS = (
    "_apply_factors",
    "_apply_z_factors",
    "q_pochhammer",
    "omega_product",
    "gaussian_binomial",
    "one_plus_zq_product",
)
POISONED_METHODS = (
    (QSeries, "__mul__"),
    (QSeries, "__rmul__"),
    (QSeries, "__truediv__"),
    (ZQPoly, "__mul__"),
    (ZQPoly, "__rmul__"),
)


# The enumerators and sweeps that no closed side may call.
ENUMERATORS = (
    "iter_overpartitions",
    "_class_walk",
    "_profiles",
    "weighted_profiles",
    "basis_elements",
    "distinct_congruent_partitions",
    "basis_gf",
    "_basis_histograms",
    "_excludant_sweep",
    "_profile_sweep",
    "_profile_histograms",
    *(name for name in vars(identities) if name.startswith("_brute_")),
)


def _rebind(monkeypatch, name, replacement):
    """Replace every qpl module's binding of ``name``."""
    for module_name, module in list(sys.modules.items()):
        if (module_name == "qpl" or module_name.startswith("qpl.")) and hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def _poison(monkeypatch, functions=POISONED_FUNCTIONS, methods=POISONED_METHODS):
    """Make every qpl binding of ``functions``, and ``methods``, raise."""
    def boom(*args, **kwargs):
        raise AssertionError("a poisoned primitive was called")

    for name in functions:
        _rebind(monkeypatch, name, boom)
    for cls, name in methods:
        monkeypatch.setattr(cls, name, boom)


def _record_basis_walks(monkeypatch):
    """Record every basis walk as ``(family, k) + bounds``: each build that
    _swept runs at a ("basis", family, k) key, with the bounds it stores."""
    calls = []

    def recorded(key, bounds, build):
        def walk():
            if key[0] == "basis":
                calls.append(key[1:] + bounds)
            return build()

        return _swept(key, bounds, walk)

    _rebind(monkeypatch, "_swept", recorded)
    return calls


def _walked_every_basis_histogram(walks):
    """Every basis histogram in the cache was stored by the last of ``walks``
    at its (family, k), with that walk's bounds."""
    walked = {("basis",) + walk[:2]: walk[2:] for walk in walks}
    stored = {key: cached[0] for key, cached in _SWEEPS.items() if key[0] == "basis"}
    return bool(stored) and walked == stored


def _sweeps(trunc):
    """Every counting sweep, called directly, with its result."""
    out = {}
    _SWEEPS.clear()
    for r in (1, 2, 3):
        out[("excludant", r)] = _excludant_sweep(r, trunc)
        for which in ("Thm2_1", "Thm2_2"):
            out[(which, r)] = theorem_count_check(which, trunc, r)
    for k in (1, 2, 3, 4):
        for family in ("L", "F"):
            out[("class", family, k)] = _brute_class_marked(family, k, trunc)
        for s in range(1, k + 1):
            out[("distinct", k, s)] = _brute_distinct_marked(k, s, trunc)
        for family in ("BL", "BF"):
            for overlined in (False, True):
                for s in range(1, k + 1):
                    out[("basis", family, k, s, overlined)] = _brute_basis_marked(
                        family, k, s, overlined, trunc)
                out[("basis_gf", family, k, overlined)] = basis_gf(
                    family, k, 2 * k, 2, overlined, trunc)
    return out


def test_sweeps_borrow_no_closed_form_primitive(monkeypatch, cold_sweeps):
    clean = _sweeps(12)
    _poison(monkeypatch)
    with pytest.raises(AssertionError):
        QSeries.one(3) * QSeries.one(3)  # the poison is in place
    walks = _record_basis_walks(monkeypatch)
    assert _sweeps(12) == clean
    assert _walked_every_basis_histogram(walks)


def _catalog_sides(kind, trunc):
    """Per catalog instance with a side of ``kind``: every such side of every
    equation, evaluated, and what brute_force or closed_form returns."""
    _SWEEPS.clear()
    api = brute_force if kind == "brute" else closed_form
    out = {}
    for identity, params, n in catalog_instances(trunc):
        _, equations = _resolve(identity, params, n)
        sides = [side.evaluate() for eq in equations for side in eq if side.kind == kind]
        if sides:
            out[(identity, tuple(sorted(params.items())))] = (sides, api(identity, params, n))
    return out


def test_brute_sides_borrow_no_closed_form_primitive(monkeypatch, cold_sweeps):
    clean = _catalog_sides("brute", 12)
    assert len({identity for identity, _ in clean}) == 16
    _poison(monkeypatch)
    with pytest.raises(AssertionError):
        closed_form("I1", {}, 3)  # the poison is in place
    walks = _record_basis_walks(monkeypatch)
    assert _catalog_sides("brute", 12) == clean
    assert _walked_every_basis_histogram(walks)


def test_closed_sides_call_no_enumerator(monkeypatch, cold_sweeps):
    clean = _catalog_sides("closed", 12)
    assert len(clean) == len(catalog_instances(12))
    _poison(monkeypatch, ENUMERATORS, ())
    for identity, params in (("I1", {}), ("I11", {"k": 2}), ("I18", {"k": 2, "s": 1}),
                             ("I13", {"k": 1, "m": 2, "s": 1, "j": 1})):
        with pytest.raises(AssertionError):  # the poison is in place
            brute_force(identity, params, 3)
    assert _catalog_sides("closed", 12) == clean
