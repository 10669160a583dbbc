"""The counting sweeps behind the brute-force sides, against object walks.

Each sweep visits profiles or basis nodes instead of overpartition objects.
The object walks the library used before stay here as oracles: they build
every overpartition or basis element and read its statistics one by one.
The distinct-part walk is compared with one recursion per part count.
The last tests poison one kind of side's primitives and evaluate the other
kind: a brute-force side that borrowed from the closed form it is checked
against, or a closed side that enumerated, would fail.
"""

import sys
from collections import Counter, defaultdict

import pytest

from qpl import identities
from qpl.core import (
    Convention,
    Overpartition,
    count_parts_above,
    largest_repeating_size,
    max_excludant_size,
    min_excludant_size,
    smallest_positive_repeating_size,
)
from qpl.enumeration import (
    ClassTag,
    basis_elements,
    basis_nodes,
    distinct_congruent_partitions,
    iter_basis_elements,
    iter_overpartitions,
)
from qpl.identities import (
    _brute_basis_marked,
    _brute_class_marked,
    _brute_distinct_marked,
    _diff_zq,
    _excludant_sweep,
    _report,
    _resolve,
    brute_force,
    catalog_instances,
    closed_form,
    theorem_count_check,
)
from qpl.separable import basis_gf, is_member
from qpl.series import QSeries, ZQPoly

N = 18


@pytest.fixture
def cold_sweeps(monkeypatch):
    """An empty sweep cache, so the sweep under test runs at the asked
    truncation; the shared cache is restored afterwards."""
    monkeypatch.setattr(identities, "_SWEEPS", {})


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
    mismatches = _diff_zq(ZQPoly.from_counts(lhs, axis), ZQPoly.from_counts(rhs, axis))
    return _report(which, {"n": n, "r": r}, n, mismatches)


def object_basis_gf(elements, j, overlined, trunc):
    selected = [lam for lam in elements if lam.parts()[0] == (j, overlined)]
    if trunc is None:
        trunc = max((lam.weight for lam in selected), default=0)
    acc = ZQPoly.zero(trunc)
    for lam in selected:
        acc = acc + ZQPoly.monomial(lam.overlined_count, lam.weight, 1, trunc)
    return acc


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
        lam.has_overlined(lam.largest_size),
    )


def node_key(node):
    return (
        node.weight,
        node.overlined,
        node.length,
        (node.top_size, node.top_overlined),
        node.smallest_overlined,
        node.largest_overlined,
    )


# -- sweeps against oracles --------------------------------------------------


@pytest.mark.parametrize("r", (1, 2, 3))
def test_excludant_sweep_matches_object_walk(r, cold_sweeps):
    got = _excludant_sweep(r, N)
    want = object_excludant_sweep(r, N)
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == value, key


@pytest.mark.parametrize("family", ("L", "F"))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_class_sweep_matches_object_walk(family, k):
    assert _brute_class_marked(family, k, N) == object_class_marked(family, k, N)


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
    elements = Counter(element_key(lam) for lam in iter_basis_elements(family, k, 30))
    assert nodes == elements
    capped = Counter(node_key(node) for node in basis_nodes(family, k, None, 6))
    assert capped == Counter(
        element_key(lam) for m in range(1, 7) for lam in basis_elements(family, k, m)
    )


def test_largest_size_overline_is_a_block_property():
    # BL writes the overline last in its block: "2,2~,1" is built bottom-first
    # as 1, 2~, 2, so its first written part is plain while size 2 carries
    # the overline.  Under BF the overline is written first, and the two agree.
    lam = Overpartition.parse("2,2~,1", "last")
    assert element_key(lam)[3:] == ((2, False), False, True)
    assert element_key(lam) in {node_key(n) for n in basis_nodes("BL", 1, 5)}
    lam = Overpartition.parse("2~,2,1~", "first")
    assert element_key(lam)[3:] == ((2, True), True, True)
    assert element_key(lam) in {node_key(n) for n in basis_nodes("BF", 1, 5)}


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


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_distinct_walk_matches_per_length_recursion(k):
    for s in range(1, k + 1):
        for trunc in range(0, 31):
            assert _brute_distinct_marked(k, s, trunc) == \
                per_length_distinct_marked(k, s, trunc), (s, trunc)


# -- independence from the closed forms -------------------------------------

POISONED_FUNCTIONS = (
    "q_pochhammer",
    "omega_product",
    "omega_factor",
    "gaussian_binomial",
    "one_plus_zq_product",
    "zq_geometric",
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
    "_excludant_sweep",
    *(name for name in vars(identities) if name.startswith("_brute_")),
)


def _poison(monkeypatch, functions=POISONED_FUNCTIONS, methods=POISONED_METHODS):
    """Make every qpl binding of ``functions``, and ``methods``, raise."""
    def boom(*args, **kwargs):
        raise AssertionError("a poisoned primitive was called")

    modules = [module for name, module in sys.modules.items()
               if name == "qpl" or name.startswith("qpl.")]
    for module in modules:
        for name in functions:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    for cls, name in methods:
        monkeypatch.setattr(cls, name, boom)


def _sweeps(trunc):
    """Every counting sweep, called directly, with its result."""
    out = {}
    identities._SWEEPS.clear()
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
            out[("basis", family, k)] = _brute_basis_marked(
                family, k, trunc, lambda node: node.length % k == 0)
            for overlined in (False, True):
                out[("basis_gf", family, k, overlined)] = basis_gf(
                    family, k, 2 * k, 2, overlined, trunc)
    return out


def test_sweeps_borrow_no_closed_form_primitive(monkeypatch):
    monkeypatch.setattr(identities, "_SWEEPS", {})
    clean = _sweeps(12)
    _poison(monkeypatch)
    with pytest.raises(AssertionError):
        QSeries.one(3) * QSeries.one(3)  # the poison is in place
    assert _sweeps(12) == clean


def _catalog_sides(kind, trunc):
    """Per catalog instance with a side of ``kind``: every such side of every
    equation, evaluated, and what brute_force or closed_form returns."""
    identities._SWEEPS.clear()
    api = brute_force if kind == "brute" else closed_form
    out = {}
    for identity, params, n in catalog_instances(trunc):
        _, equations = _resolve(identity, params, n)
        sides = [side.evaluate() for eq in equations for side in eq if side.kind == kind]
        if sides:
            out[(identity, tuple(sorted(params.items())))] = (sides, api(identity, params, n))
    return out


def test_brute_sides_borrow_no_closed_form_primitive(monkeypatch):
    monkeypatch.setattr(identities, "_SWEEPS", {})
    clean = _catalog_sides("brute", 12)
    assert len({identity for identity, _ in clean}) == 16
    _poison(monkeypatch)
    with pytest.raises(AssertionError):
        closed_form("I1", {}, 3)  # the poison is in place
    assert _catalog_sides("brute", 12) == clean


def test_closed_sides_call_no_enumerator(monkeypatch):
    monkeypatch.setattr(identities, "_SWEEPS", {})
    clean = _catalog_sides("closed", 12)
    assert len(clean) == len(catalog_instances(12))
    _poison(monkeypatch, ENUMERATORS, ())
    for identity, params in (("I1", {}), ("I11", {"k": 2}), ("I18", {"k": 2, "s": 1}),
                             ("I13", {"k": 1, "m": 2, "s": 1, "j": 1})):
        with pytest.raises(AssertionError):  # the poison is in place
            brute_force(identity, params, 3)
    assert _catalog_sides("closed", 12) == clean
