import hashlib
import json
import time
from collections import Counter
from functools import cache
from itertools import islice, takewhile

import pytest

from qpl import identities
from qpl.core import Overpartition
from qpl.enumeration import iter_overpartitions
from qpl.identities import (
    IDENTITIES,
    IDENTITY_IDS,
    _diff,
    _resolve,
    brute_force,
    catalog_instances,
    closed_form,
    overpartition_series,
    theorem_count_check,
    verify,
    verify_all,
)
from qpl.series import (
    QSeries,
    ZQPoly,
    _apply_factors,
    _apply_z_factors,
    gaussian_binomial,
    omega_product,
    q_pochhammer,
)


def test_catalog_is_complete():
    assert IDENTITY_IDS == tuple(f"I{i}" for i in range(1, 20))
    assert set(IDENTITIES) == set(IDENTITY_IDS)


def test_spot_values_from_tables():
    # sums of the excludant tables at weight 4 and 6
    assert closed_form("I2", {"r": 2}, 10)[1].coeff(4) == 40
    assert closed_form("I3", {"r": 2}, 10)[1].coeff(6) == 42
    assert brute_force("I2", {"r": 2}, 10).coeff(4) == 40
    assert brute_force("I3", {"r": 2}, 10).coeff(6) == 42


def test_spot_values_class_counts():
    assert closed_form("I11", {"k": 2}, 6)[1].q_projection().coeff(4) == 12
    assert brute_force("I12", {"k": 2}, 6).q_projection().coeff(4) == 9
    assert brute_force("I7", {"r": 2}, 4).coeff(1, 4) == 2
    assert brute_force("I1", {}, 0).coeff(0) == 1


def test_overpartition_series_values():
    assert overpartition_series(10).coeffs == (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_repeating_size_stratifications_pass(r):
    assert verify("I5", {"r": r}, 24).passed
    assert verify("I8", {"r": r}, 24).passed
    for m in (1, 2, 5):
        assert verify("I9", {"r": r, "m": m}, 24).passed


@pytest.mark.parametrize("r", (1, 2, 3))
def test_bivariate_generators_pass(r):
    assert verify("I7", {"r": r}, 16).passed
    assert verify("I10", {"r": r}, 16).passed


def test_subtracted_partial_sum_forms_fail_where_analyzed():
    # the subtracted complement restricts small sizes it must leave free; the
    # first failures land at q^(3r+5) for the excludant totals
    for r, first_bad in ((1, 8), (2, 11), (3, 14)):
        report = verify("I2", {"r": r}, 20)
        assert not report.passed
        assert report.mismatches[0].q == first_bad
    report = verify("I4", {}, 20)
    assert not report.passed and report.mismatches[0].q == 8
    report = verify("I6", {"r": 1, "n": 2}, 12)
    assert not report.passed and report.mismatches[0].q == 6
    assert verify("I6", {"r": 2, "n": 1}, 20).passed  # degenerate case holds


def test_subtracted_form_excess_is_enumerated():
    # The subtracted partial at bound n over-counts exactly the overpartitions
    # whose smallest repeating size is below n and whose largest is n or more.
    trunc, first = 30, {}
    for r in (1, 2, 3, 4, 7):
        forms = (identities._partial_rep(form, r, trunc) for form in ("subtracted", "corrected"))
        for n, subtracted, corrected in zip(range(1, 13), *forms):
            excess = identities._brute_rep_filtered(
                r, trunc, lambda big, small: 0 < small < n <= big)
            assert subtracted - corrected == excess, (r, n)
            first[r, n] = next((q for q, c in enumerate(excess.coeffs) if c), None)
    # Not vacuous: the lightest excess repeats sizes 1 and n r + 1 times each
    # (I6 at r = 1, n = 2 first fails at q^6); it is empty at n = 1.
    for (r, n), q in first.items():
        lightest = (r + 1) * (n + 1)
        assert q == (lightest if n > 1 and lightest <= trunc else None), (r, n)


def test_corrected_partial_sum_forms_pass():
    for r in (1, 2, 3):
        assert verify("I2", {"r": r, "form": "corrected"}, 24).passed
        for n in (1, 2, 3, 6):
            assert verify("I6", {"r": r, "n": n, "form": "corrected"}, 24).passed
    assert verify("I4", {"form": "corrected"}, 24).passed


def test_i1_matches_enumeration_and_corrected_i2():
    assert verify("I1", {}, 24).passed
    lhs = closed_form("I1", {}, 24)[0]
    rhs = closed_form("I2", {"r": 1, "form": "corrected"}, 24)[0]
    assert lhs == rhs


def test_maes_series_under_both_readings():
    for r in (1, 2, 3):
        assert verify("I3", {"r": r}, 24).passed
    alternate = verify("I3", {"r": 2, "w_reading": "omega_1_n"}, 24)
    assert not alternate.passed
    assert alternate.mismatches[0].q == 3


def test_moment_of_marked_generators_matches_totals():
    for r in (1, 2, 3):
        marked = brute_force("I7", {"r": r}, 20)
        assert marked.z_moment() == brute_force("I2", {"r": r}, 20)
        marked = brute_force("I10", {"r": r}, 20)
        assert marked.z_moment() == brute_force("I3", {"r": r}, 20)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_class_generating_functions(k):
    assert verify("I11", {"k": k}, 16).passed
    assert verify("I12", {"k": k}, 16).passed


def test_basis_polynomial_identities():
    for k in (1, 2, 3):
        for m in range(1, 6):
            for s in range(1, k + 1):
                for j in range(1, m + 2):  # j = m+1 gives the empty case
                    deg = k * (j * (j + 1)) + s * j + k * m + 5
                    assert verify("I13", {"k": k, "m": m, "s": s, "j": j},
                                  min(deg, 40)).passed, (k, m, s, j)
                    assert verify("I14", {"k": k, "m": m, "s": s, "j": j},
                                  min(deg, 40)).passed, (k, m, s, j)


def test_basis_polynomial_worked_example():
    report = verify("I13", {"k": 2, "m": 1, "s": 1, "j": 1}, 6)
    assert report.passed
    lhs, rhs = closed_form("I13", {"k": 2, "m": 1, "s": 1, "j": 1}, 6)
    assert rhs.coeff(0, 1) == 1 and rhs.coeff(1, 1) == 1


def test_series_kernel_identities():
    assert verify("I15", {}, 40).passed
    assert verify("I16", {"A": 12, "B": 5, "k": 3}, 200).passed
    for k in (1, 2, 3):
        for j in range(1, 7):
            assert verify("I17", {"k": k, "j": j}, 40).passed


def test_shifted_binomial_sum_matches_sum_of_binomials():
    """I17's closed side, built on the binomial ladder, against the sum of
    binomials built one by one with ``gaussian_binomial``."""
    for n in (300, 400):
        for k in (1, 2, 3):
            for j in range(1, 7):
                expected = QSeries.zero(n)
                for m in range(j, j + n // k + 1):
                    expected = expected + gaussian_binomial(m - 1, j - 1, k, n).shift(k * (m - j))
                assert identities._shifted_binomial_sum(k, j, n) == expected, (n, k, j)


def test_distinct_partition_identities():
    for k in (1, 2, 3):
        for s in range(1, k + 1):
            assert verify("I18", {"k": k, "s": s}, 24).passed, (k, s)
            assert verify("I19", {"k": k, "s": s}, 24).passed, (k, s)


def test_theorem_counts_small():
    for n in range(0, 13):
        for r in (1, 2, 3):
            assert theorem_count_check("Thm2_1", n, r).passed, (n, r)
            assert theorem_count_check("Thm2_2", n, r).passed, (n, r)


def test_theorem_worked_instances():
    # the two-on-both-sides instances at weights 4 and 6
    by_pair = {}
    for pi in iter_overpartitions(4):
        from qpl.core import count_parts_above, min_excludant_size
        kk = min_excludant_size(pi, 2)
        by_pair.setdefault((kk, count_parts_above(pi, kk)), []).append(pi.text())
    assert sorted(by_pair[(1, 1)]) == ["4", "4~"]
    assert sorted(by_pair[(4, 0)]) == ["3,1", "3,1~", "3~,1", "3~,1~"]


def test_param_validation():
    with pytest.raises(ValueError):
        verify("I2", {"r": 0}, 10)
    with pytest.raises(ValueError):
        verify("I2", {"bogus": 1}, 10)
    with pytest.raises(ValueError):
        verify("I13", {"k": 2, "m": 1, "s": 3, "j": 1}, 10)
    with pytest.raises(ValueError):
        verify("I6", {"r": 1}, 10)  # missing n
    with pytest.raises(ValueError):
        verify("I3", {"r": 1, "w_reading": "nonsense"}, 10)
    with pytest.raises(ValueError, match="unknown identity 'I99'"):
        verify("I99", {}, 10)


def test_unknown_identity_ids_are_value_errors():
    for fn in (verify, closed_form, brute_force):
        for bad in ("I99", "i1", "", 1, ["I1"]):
            with pytest.raises(ValueError, match="unknown identity"):
                fn(bad, {}, 10)
    for fn in (verify_all, catalog_instances):
        with pytest.raises(ValueError, match="unknown identity 'I99'"):
            fn(10, ("I15", "I99"))
        # a bare string is not a collection of ids, even a valid id
        for bad in ("I1", "I15"):
            with pytest.raises(ValueError, match="collection of ids"):
                fn(10, bad)
    assert catalog_instances(10, ["I15"]) == [("I15", {}, 10)]


def test_bool_parameters_rejected():
    # bool is an int subclass; True must not pass for r = 1
    with pytest.raises(ValueError):
        verify("I2", {"r": True})
    with pytest.raises(ValueError):
        verify("I16", {"A": 3, "B": False, "k": 1}, 10)
    assert verify("I16", {"A": 3, "B": 0, "k": 1}, 10).passed
    for n, r in ((5, 1.5), (5, True), (True, 1)):
        with pytest.raises(ValueError):
            theorem_count_check("Thm2_1", n, r)


def test_truncation_guards():
    with pytest.raises(ValueError):
        verify("I2", {"r": 1}, 41)  # enumeration-backed entries stop at 40
    with pytest.raises(ValueError):
        brute_force("I2", {"r": 1}, 41)
    with pytest.raises(ValueError):
        verify("I15", {}, 401)
    # I18 and I19 walk every basis element, with no length cap, so they stop
    # at 40 too; I13 and I14 cap their walk by part count and get 400.
    with pytest.raises(ValueError):
        verify("I18", {"k": 1, "s": 1}, 41)
    assert verify("I13", {"k": 1, "m": 2, "s": 1, "j": 1}, 400).passed
    assert verify("I16", {"A": 4, "B": 2, "k": 1}, 399).passed
    with pytest.raises(ValueError):
        brute_force("I15", {}, 10)  # no enumeration side at all
    with pytest.raises(ValueError):
        verify("I1", {}, True)  # bool is an int subclass
    with pytest.raises(ValueError):
        verify("I1", {}, 25.0)


@pytest.mark.parametrize("trunc", ("25", 2.5, -3, True, None))
@pytest.mark.parametrize("run", (catalog_instances, verify_all))
def test_bad_truncations_are_refused_before_the_grid(run, trunc):
    # One truncation check for a single instance and for the grid: a text,
    # a float, a negative value, a bool or None is not capped or compared.
    with pytest.raises(ValueError, match="truncation"):
        run(trunc, ["I1"])


def test_all_zero_equations_in_the_catalog():
    # At truncation 25 some I13 and I14 equations compare sides that are all
    # zero: every basis element they count weighs more than 25, so they pass
    # without checking anything.  Pinned as a finding, like the subtracted
    # forms; raising their truncation would change the recorded catalog.
    equations = 0
    vacuous = Counter()
    for identity, params, trunc in catalog_instances(25):
        for eq in _resolve(identity, params, trunc)[1]:
            equations += 1
            if all(side.evaluate().is_zero() for side in eq):
                vacuous[identity] += 1
    assert equations == 1011
    assert vacuous == {"I13": 44, "I14": 95}


def test_diff_walks_rows_of_both_kinds_of_side():
    def found(ref, other):
        return [(m.q, m.z, m.lhs, m.rhs) for m in _diff(ref, other)]

    s = QSeries([1, 2, 3], 2)
    assert found(s, QSeries([1, 0, 3], 2)) == [(1, None, 2, 0)]
    assert found(s, ZQPoly([[1, 2, 3]], 2)) == found(ZQPoly([[1, 2, 3]], 2), s) == []
    # A row that only one side has is compared against zero, from either side.
    longer = ZQPoly([[1, 2, 3], [], [0, 4]], 2)
    assert found(s, longer) == [(1, 2, 0, 4)]
    assert found(longer, ZQPoly([[1, 0, 3]], 2)) == [(1, 0, 2, 0), (1, 2, 4, 0)]


def test_closed_sides_keep_their_recorded_digest():
    # Every closed side of every default-grid instance at truncations 0-12,
    # 40 and 120, skipping the instances that the entry's guard would cap,
    # hashed with its identity, parameters and truncation.  The digest was
    # recorded before the z-marked closed forms moved to z-rows; any change
    # to a closed side's value or dump changes it.
    digest = hashlib.sha256()
    sides = 0
    for trunc in (*range(13), 40, 120):
        for identity, params, capped in catalog_instances(trunc):
            if capped != trunc:
                continue
            params, equations = _resolve(identity, params, capped)
            for eq in equations:
                for side in eq:
                    if side.kind == "closed":
                        text = f"{identity} {sorted(params.items())} {capped}\n{side.evaluate().dump()}\n"
                        digest.update(text.encode())
                        sides += 1
    assert sides == 21842
    assert digest.hexdigest() == "d9d1652ce59f6dbca5224f3eb5af385795f34c5da331c068f4b532786b8994ff"


def _count_calls(monkeypatch, name):
    calls = Counter()
    real = getattr(identities, name)

    def counted(*args):
        calls[args] += 1
        return real(*args)

    monkeypatch.setattr(identities, name, counted)
    return calls


def test_sides_are_built_once_and_only_when_read(monkeypatch):
    closed = _count_calls(monkeypatch, "_closed_distinct_gf")
    distinct = _count_calls(monkeypatch, "_brute_distinct_marked")
    for identity, params in (("I18", {"k": 3, "s": 2}), ("I19", {"k": 3, "s": 3}),
                             ("I19", {"k": 3, "s": 1})):
        closed.clear()
        distinct.clear()
        assert verify(identity, params, 12).passed
        assert set(closed.values()) == set(distinct.values()) == {1}
    closed.clear()
    distinct.clear()
    brute_force("I18", {"k": 3, "s": 2}, 12)  # the first enumeration side only
    assert not closed and not distinct
    sigma_mes = _count_calls(monkeypatch, "_closed_sigma_mes")
    sweep = _count_calls(monkeypatch, "_excludant_sweep")
    lhs, rhs = closed_form("I2", {"r": 2}, 12)
    assert lhs is rhs and sum(sigma_mes.values()) == 1 and not sweep


def test_report_shape_and_determinism():
    report = verify("I2", {"r": 1}, 14)
    payload = json.loads(report.to_json())
    assert set(payload) == {"identity", "params", "trunc", "status", "mismatches"}
    assert payload["status"] == "fail"
    assert payload["mismatches"][0] == {"q": 8, "z": None, "lhs": "246", "rhs": "238"}
    assert all(isinstance(m["lhs"], str) for m in payload["mismatches"])
    again = verify("I2", {"r": 1}, 14)
    assert report.to_json() == again.to_json()


def test_reports_are_hashable():
    reports = verify_all(10, identities=("I11", "I13"))
    assert len(set(reports)) == len(reports)
    again = verify("I13", reports[-1].to_dict()["params"], 10)
    assert again == reports[-1] and hash(again) == hash(reports[-1])
    report = verify("I6", {"r": 1, "n": 2}, 12)
    assert report.params == (("form", "subtracted"), ("n", 2), ("r", 1))
    assert report.to_dict()["params"] == {"form": "subtracted", "n": 2, "r": 1}
    assert hash(report) == hash(verify("I6", {"n": 2, "r": 1}, 12))


def default_grid(identity):
    return [params for _, params, _ in catalog_instances(25, [identity])]


def test_default_grids_cover_documented_ranges():
    assert default_grid("I1") == [{}]
    assert {p["r"] for p in default_grid("I2")} == {1, 2, 3}
    assert {p["form"] for p in default_grid("I2")} == {"subtracted", "corrected"}
    assert {p["n"] for p in default_grid("I6")} == set(range(1, 9))
    assert {p["k"] for p in default_grid("I11")} == {1, 2, 3, 4}
    assert max(p["A"] for p in default_grid("I16")) == 12
    assert all(p["s"] <= p["k"] for p in default_grid("I18"))


def test_verify_all_subset_runs_in_catalog_order():
    reports = verify_all(12, identities=("I15", "I16", "I17"))
    assert [r.identity for r in reports] == \
        ["I15"] + ["I16"] * len(default_grid("I16")) + ["I17"] * len(default_grid("I17"))
    assert all(r.passed for r in reports)


# -- stepped partial sums against the rebuilt ones -----------------------------
#
# The oracles rebuild every partial sum and every I3 term from dense
# q-Pochhammers, as the closed forms did before they stepped one product.


def _rebuilt_partial(form, r, trunc, limit):
    """The overpartitions whose largest repeating size is at most limit-1,
    built afresh for this limit."""
    if form == "corrected":
        return (q_pochhammer(-1, 1, limit - 1, trunc) / q_pochhammer(1, 1, limit - 1, trunc)
                * omega_product(limit, None, r, trunc))
    tail = q_pochhammer(-1, limit, None, trunc) / q_pochhammer(1, limit, None, trunc)
    fixed = overpartition_series(trunc) + omega_product(1, None, r, trunc)
    return fixed - omega_product(1, limit - 1, r, trunc) * tail


def _rebuilt_sigma_maes(r, trunc, w_reading):
    big = overpartition_series(trunc)
    total = (big - omega_product(1, None, r, trunc)) * r
    lamb = [0] * (trunc + 1)
    for n in range(1, trunc + 1):
        for e in range(n, trunc + 1, 2 * n):
            lamb[e] += 2
    total = total + big * QSeries(lamb, trunc)
    partial = QSeries.one(trunc)
    for n in range(1, trunc + 1):
        w_n = omega_product(n, 1, r, trunc)
        w_term = w_n if w_reading == "omega_n" else partial * w_n
        term = (
            QSeries.monomial(n, 1, trunc)
            * partial
            * q_pochhammer(-1, n + 1, None, trunc)
            / q_pochhammer(1, n, None, trunc)
            * (QSeries.one(trunc) + w_term)
        )
        total = total - term
        partial = partial * w_n
    return total


ORACLE_TRUNCS = (*range(13), 25, 40, 120)


@pytest.mark.parametrize("form", identities.FORMS)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_stepped_partials_match_rebuilt_ones(form, r):
    for trunc in ORACLE_TRUNCS:
        stepped = list(islice(identities._partial_rep(form, r, trunc), trunc + 2))
        for limit, partial in enumerate(stepped, 1):
            assert partial == _rebuilt_partial(form, r, trunc, limit), (trunc, limit)


@pytest.mark.parametrize("w_reading", identities.W_READINGS)
def test_stepped_maes_terms_match_rebuilt_ones(w_reading):
    for r in (1, 2, 3):
        for trunc in ORACLE_TRUNCS:
            want = _rebuilt_sigma_maes(r, trunc, w_reading)
            assert identities._closed_sigma_maes(r, trunc, w_reading) == want, (r, trunc)


# The stratified sums (I5, I6, I8, I9) rebuilt term by term from dense
# q-Pochhammers, and I10's terms with the omega prefix rebuilt for each size.


def _rep_size_head(j, r, trunc):
    """q^((r+1)j) (-1;q)_j / (q;q)_j: the sizes up to j, with j repeated
    more than r times (1 at j = 0)."""
    base = QSeries.monomial((r + 1) * j, 1, trunc) * q_pochhammer(-1, 0, j, trunc)
    return base / q_pochhammer(1, 1, j, trunc)


def _rep_size_term(j, r, trunc):
    """Overpartitions whose largest repeating size is exactly j."""
    return _rep_size_head(j, r, trunc) * omega_product(j + 1, None, r, trunc)


def _smallest_rep_term(j, r, trunc):
    """Overpartitions whose smallest positive repeating size is exactly j."""
    return (
        QSeries.monomial((r + 1) * j, 2, trunc)
        * omega_product(1, j - 1, r, trunc)
        * q_pochhammer(-1, j + 1, None, trunc)
        / q_pochhammer(1, j, None, trunc)
    )


def _stratified_sum(term, r, trunc, sizes):
    """The sum of ``term(j, r, trunc)`` over the ascending repeating sizes j
    in ``sizes`` that fit below the truncation, (r+1) j <= trunc."""
    fits = takewhile(lambda j: (r + 1) * j <= trunc, sizes)
    return sum((term(j, r, trunc) for j in fits), QSeries.zero(trunc))


def _rebuilt_maes_marked(r, trunc):
    last = trunc // (r + 1)
    rows = [[0] * (trunc + 1)]
    for j in range(1, last + 1):
        base = QSeries.monomial((r + 1) * j, 2, trunc) * omega_product(1, j - 1, r, trunc)
        rows[0] = [a + b for a, b in zip(rows[0], base.coeffs)]
        _apply_z_factors(rows, [[(1, j + 1, 1)]])
        _apply_z_factors(rows, [[(1, j, -1)]], divide=True)
    _apply_z_factors(rows, [[(1, e, 1)] for e in range(last + 2, trunc + 1)])
    _apply_z_factors(rows, [[(1, e, -1)] for e in range(last + 1, trunc + 1)], divide=True)
    return ZQPoly._make([[0] * (trunc + 1)] * r + rows, trunc)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_stepped_stratified_sums_match_rebuilt_ones(r):
    for trunc in ORACLE_TRUNCS:
        heads = list(identities._rep_size_heads(r, trunc))
        assert len(heads) == trunc // (r + 1) + 1, trunc
        for j, head in enumerate(heads):
            assert head == _rep_size_head(j, r, trunc).coeffs, (trunc, j)
        # each term is rebuilt once per truncation and summed for every limit
        largest, smallest = cache(_rep_size_term), cache(_smallest_rep_term)
        for limit in range(1, trunc + 3):
            assert identities._largest_rep_sum(r, trunc, limit) == \
                _stratified_sum(largest, r, trunc, range(limit)), (trunc, limit)
            assert identities._smallest_rep_sum(r, trunc, limit) == \
                _stratified_sum(smallest, r, trunc, range(1, limit + 1)), (trunc, limit)


def test_stepped_maes_prefix_matches_rebuilt_one():
    for r in (1, 2, 3):
        for trunc in ORACLE_TRUNCS[:-1]:  # the z-rows at 120 cost more than they check
            assert identities._closed_maes_marked(r, trunc) == \
                _rebuilt_maes_marked(r, trunc), (r, trunc)


def _rebuilt_class_gf(family, k, trunc):
    """I11/I12's closed side with every basis polynomial built afresh: one
    gaussian_binomial and one ZQPoly sum per term, the overlined F term of
    k*m parts added on its own."""
    total = ZQPoly.zero(trunc)
    for parts in range(trunc, 0, -1):
        m, s = (parts - 1) // k + 1, (parts - 1) % k + 1
        for j in range(1, m + 1):
            e = k * (j * (j - 1) // 2) + s * j + k * (m - j)
            if e > trunc:
                break
            base = QSeries.monomial(e, 1, trunc) * gaussian_binomial(m - 1, j - 1, k, trunc)
            total = total + ZQPoly.from_qseries(base, j - 1)
            if family == "L" or s == k:  # L's overlined largest part, or F's
                total = total + ZQPoly.from_qseries(base, j)
        rows = [list(row) for row in total.rows]
        for row in rows:
            _apply_factors(row, [((parts, -1),)], divide=True)
        total = ZQPoly._make(rows, trunc)
    return total + 1


@pytest.mark.parametrize("family", ("L", "F"))
def test_laddered_class_sums_match_rebuilt_ones(family):
    for k in range(1, 7):
        for trunc in ORACLE_TRUNCS[:-1]:  # one binomial per term at 120 costs more than it checks
            assert identities._closed_class_gf(family, k, trunc) == \
                _rebuilt_class_gf(family, k, trunc), (k, trunc)


def test_class_closed_sides_build_no_binomial_per_term(monkeypatch):
    # [m-1 choose j-1] is a rung of j's ladder, so no Gaussian binomial is
    # built and each largest part j steps one ladder.
    binomial = _count_calls(monkeypatch, "gaussian_binomial")
    basis_poly = _count_calls(monkeypatch, "_closed_basis_poly")
    ladder = _count_calls(monkeypatch, "_binomial_ladder")
    for identity in ("I11", "I12"):
        for k in (1, 2, 3, 4):
            for trunc in (10, 40):
                ladder.clear()
                closed_form(identity, {"k": k}, trunc)
                assert not binomial and not basis_poly, (identity, k, trunc)
                assert ladder and set(ladder.values()) == {1}, (identity, k, trunc)
                assert sorted(ladder) == [(b, trunc // k) for b in range(len(ladder))]


def test_partial_sum_closed_sides_build_no_pochhammer_per_bound(monkeypatch):
    # Every omega factor is applied in place, so neither the q-Pochhammers
    # nor the omega products grow with the bound.
    pochhammer = _count_calls(monkeypatch, "q_pochhammer")
    omega = _count_calls(monkeypatch, "omega_product")
    cases = (
        ("I2", {"r": 1, "form": "subtracted"}), ("I2", {"r": 1, "form": "corrected"}),
        ("I3", {"r": 2}), ("I3", {"r": 2, "w_reading": "omega_1_n"}),
        ("I5", {"r": 1}), ("I6", {"r": 1, "n": 8}), ("I7", {"r": 1}), ("I8", {"r": 1}),
        ("I9", {"r": 1, "m": 8}), ("I10", {"r": 1}))
    for identity, params in cases:
        counts = []
        for trunc in (10, 40):
            pochhammer.clear()
            omega.clear()
            closed_form(identity, params, trunc)
            counts.append(sum(pochhammer.values()) + sum(omega.values()))
        assert counts[0] == counts[1], (identity, params, counts)


def test_bounds_far_above_the_truncation_are_clamped():
    # The partials stop changing at limit trunc + 1 and the stratified sums
    # stop at the first size past the truncation, so a huge bound costs no
    # more than trunc + 1.
    cases = [("I6", {"r": 1, "form": form}, "n") for form in identities.FORMS]
    cases.append(("I9", {"r": 1}, "m"))
    for identity, params, name in cases:
        start = time.perf_counter()
        huge, near = dict(params, **{name: 10**9}), dict(params, **{name: 11})
        report = verify(identity, huge, 10)
        assert time.perf_counter() - start < 2.0
        assert report.mismatches == verify(identity, near, 10).mismatches
        assert closed_form(identity, huge, 10) == closed_form(identity, near, 10)
