"""The counting sweeps behind the brute-force sides, against object walks.

Each sweep visits profiles or basis nodes instead of overpartition objects.
The object walks the library used before stay here as oracles: they build
every overpartition or basis element and read its statistics one by one.
The distinct-part walk is compared with one recursion per part count.
The last tests poison one kind of side's primitives and evaluate the other
kind: a brute-force side that borrowed from the closed form it is checked
against, or a closed side that enumerated, would fail.  Each such pass
starts from an empty sweep cache, so it walks instead of reading what an
unpoisoned pass stored.
"""

import random
import sys
from collections import Counter, defaultdict

import pytest

from qpl import identities
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
    basis_elements,
    basis_nodes,
    distinct_congruent_partitions,
    iter_overpartitions,
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
from qpl.separable import basis_gf, is_member
from qpl.series import QSeries, ZQPoly

N = 18


@pytest.fixture
def cold_sweeps():
    """An empty sweep cache, so the sweep under test runs at the asked
    truncation; the shared cache is restored afterwards."""
    saved = dict(_SWEEPS)
    _SWEEPS.clear()
    yield
    _SWEEPS.clear()
    _SWEEPS.update(saved)


# -- oracles: the object walks ----------------------------------------------


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


def object_class_marked(family, k, trunc):
    tag = ClassTag(family, k)
    hist = Counter()
    for n in range(trunc + 1):
        for pi in iter_overpartitions(n, tag.convention):
            if is_member(pi, tag):
                hist[(n, pi.overlined_count)] += 1
    return ZQPoly.from_counts(hist, trunc)


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
    # In a shuffled order the part count asked at a key rises mid-stream,
    # so entries are read before and after they are walked again.
    calls = [(family, k, parts, j, overlined, trunc)
             for family in ("BL", "BF") for k in (1, 2, 3) for trunc in (None, 12, 30)
             for parts in range(1, 3 * k + 1) for j in range(1, parts + 2)
             for overlined in (False, True)]
    random.Random(16).shuffle(calls)
    asked = {}
    for call in calls:
        assert basis_gf(*call) == walked_basis_gf(*call), call
        family, k, parts, _, _, trunc = call
        key = ("basis", family, k, trunc)
        asked[key] = max(asked.get(key, 0), parts)
        assert _SWEEPS[key][0] == asked[key], call  # the largest cap asked
    assert set(_SWEEPS) == set(asked)


def test_basis_histogram_keeps_its_truncation_and_cap(cold_sweeps, monkeypatch):
    walks = _record_basis_walks(monkeypatch)
    basis_gf("BF", 1, 3, 2, False, 30)
    basis_gf("BF", 1, 9, 2, False, 12)  # another truncation: its own entry
    assert {key: cached[0] for key, cached in _SWEEPS.items()} == {
        ("basis", "BF", 1, 30): 3, ("basis", "BF", 1, 12): 9}
    basis_gf("BF", 1, 2, 1, True, 30)  # fewer parts read the stored walk,
    basis_gf("BF", 1, 3, 1, True, 30)  # and so do as many
    assert _SWEEPS["basis", "BF", 1, 30][0] == 3
    assert walks == [("BF", 1, 30, 3), ("BF", 1, 12, 9)]


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
        elements = [lam for m in range(1, trunc + 1) for lam in basis_elements(family, k, m, trunc)]
        for s in range(1, k + 1):
            for overlined in (False, True):
                want = Counter(
                    (lam.weight, lam.overlined_count) for lam in elements
                    if (lam.num_parts - s) % k == 0
                    and lam.has_overlined(1 if family == "BL" else lam.largest_size) == overlined)
                assert _brute_basis_marked(family, k, s, overlined, trunc) == \
                    ZQPoly.from_counts(want, trunc), (trunc, s, overlined)


def test_distinct_identities_walk_once_per_basis_key(cold_sweeps, monkeypatch):
    # I18 reads BL and I19 BF, each for k = 1, 2, 3: one full walk per key,
    # however many instances and sides read it.
    walks = _record_basis_walks(monkeypatch)
    assert all(report.passed for report in verify_all(40, ["I18", "I19"]))
    assert sorted(walks) == [(family, k, 40, 40) for family in ("BF", "BL") for k in (1, 2, 3)]


def test_basis_gf_refuses_bool_and_float_truncations_beside_cached_ones(cold_sweeps):
    for trunc in (1, 3):
        basis_gf("BL", 1, 2, 1, False, trunc)
    # True and 3.0 hash equal to the stored keys at truncations 1 and 3
    assert ("basis", "BL", 1, True) in _SWEEPS and ("basis", "BL", 1, 3.0) in _SWEEPS
    for trunc in (True, 3.0):
        with pytest.raises(ValueError):
            basis_gf("BL", 1, 2, 1, False, trunc)


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
    "basis_nodes",
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
    """Record the positional arguments of every basis_nodes call."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return basis_nodes(*args)

    _rebind(monkeypatch, "basis_nodes", recorded)
    return calls


def _walked_every_basis_histogram(walks):
    """Every basis histogram in the cache was walked by one of ``walks``."""
    walked = {("basis",) + args[:3] for args in walks if len(args) == 4}
    stored = {key for key in _SWEEPS if key[0] == "basis"}
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
