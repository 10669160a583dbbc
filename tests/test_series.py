import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from qpl.series import (
    QSeries,
    ZQPoly,
    _apply_factors,
    _apply_z_factors,
    _binomial_ladder,
    gaussian_binomial,
    omega_product,
    one_plus_zq_product,
    q_pochhammer,
)


def _convolve(a, b):
    """Naive truncated product: the oracle for ``QSeries.__mul__``."""
    n = a.trunc
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return QSeries(out, n)


def _dense_reciprocal(a):
    """Dense O(N^2) inverse of a series with unit constant: the oracle for
    ``QSeries.__truediv__``."""
    n = a.trunc
    inv0 = a.coeffs[0]
    b = [inv0] + [0] * n
    for m in range(1, n + 1):
        acc = sum(a.coeffs[i] * b[m - i] for i in range(1, m + 1))
        b[m] = -inv0 * acc
    return QSeries(b, n)


def _random_series(rng, n, sparse, unit=False):
    """A random series of truncation n: dense, or with about three nonzero
    terms; ``unit`` makes the constant term +1 or -1."""
    if sparse:
        coeffs = [0] * (n + 1)
        for _ in range(3):
            coeffs[rng.randrange(n + 1)] = rng.randrange(-9, 10)
    else:
        coeffs = [rng.randrange(-9, 10) for _ in range(n + 1)]
    if unit:
        coeffs[0] = rng.choice((1, -1))
    return QSeries(coeffs, n)


def test_product_and_quotient_match_dense_oracles():
    rng = random.Random(20261018)
    for n in (0, 1, 17, 60, 200):
        for sparse_a in (False, True):
            for sparse_b in (False, True):
                a = _random_series(rng, n, sparse_a)
                b = _random_series(rng, n, sparse_b)
                assert a * b == _convolve(a, b) == b * a
                d = _random_series(rng, n, sparse_b, unit=True)
                quotient = a / d
                assert quotient == a * _dense_reciprocal(d)
                assert quotient * d == a
                assert d * quotient == a


def _random_factor(rng, n, terms, z=False, divisor=False):
    """A sparse factor 1 + sum(c q^e) (1 + sum(c z^a q^e) with ``z``) as the
    primitive takes it, terms in ascending e, every e >= 1 (a >= 1, e >= 0;
    a z-marked ``divisor`` has every e >= 1 and its first a >= 2)."""
    exponents = sorted(rng.sample(range(0 if z and not divisor else 1, n + 6), terms))
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in exponents]
    if z:
        degrees = [rng.randrange(2 if divisor and i == 0 else 1, 4) for i in range(terms)]
        return list(zip(degrees, exponents, coeffs))
    return list(zip(exponents, coeffs))


def _zq_monomial(z, e, c, trunc):
    """c z^z q^e as a ZQPoly."""
    return ZQPoly.from_qseries(QSeries.monomial(e, c, trunc), z)


def _zq_factor(factor, trunc):
    """1 + sum(c z^a q^e) as a ZQPoly, terms past q^trunc dropped."""
    return sum((_zq_monomial(a, e, c, trunc) for a, e, c in factor), ZQPoly.one(trunc))


def _factor_series(factor, n, unit=1):
    """unit * (1 + sum(c q^e)) as a QSeries, terms past q^n dropped."""
    coeffs = [unit] + [0] * n
    for e, c in factor:
        if e <= n:
            coeffs[e] += unit * c
    return QSeries(coeffs, n)


def test_sparse_factor_primitive_matches_dense_oracles():
    rng = random.Random(20261019)
    for n in (0, 1, 9, 40):
        for terms in (1, 2, 4):
            for sparse in (False, True):
                a = _random_series(rng, n, sparse)
                factors = [_random_factor(rng, n, terms) for _ in range(3)]
                product, quotient = list(a.coeffs), list(a.coeffs)
                _apply_factors(product, factors)
                _apply_factors(quotient, factors, divide=True)
                by_star, by_slash, want_product, want_quotient = a, a, a, a
                for f in (_factor_series(f, n) for f in factors):
                    by_star, by_slash = by_star * f, by_slash / f
                    want_product = _convolve(want_product, f)
                    want_quotient = _convolve(want_quotient, _dense_reciprocal(f))
                assert QSeries(product, n) == by_star == want_product
                assert QSeries(quotient, n) == by_slash == want_quotient
                for unit in (1, -1):
                    divisor = _factor_series(factors[0], n, unit)
                    single = list(a.coeffs)
                    _apply_factors(single, factors[:1], divide=True)
                    assert a / divisor == _convolve(a, _dense_reciprocal(divisor))
                    assert a / divisor == QSeries(single, n) * unit


def test_z_factor_primitive_matches_zq_product():
    rng = random.Random(20261020)
    for n in (0, 1, 9, 30):
        for terms in (1, 2, 4):
            rows = [[rng.randrange(-5, 6) for _ in range(n + 1)] for _ in range(rng.randrange(1, 4))]
            want = ZQPoly(rows, n)
            factors = [_random_factor(rng, n, terms, z=True) for _ in range(3)]
            _apply_z_factors(rows, factors)
            for factor in factors:
                want = want * _zq_factor(factor, n)
            assert ZQPoly(rows, n) == want
            # The quotient: multiplying it back by its divisors through
            # ZQPoly.__mul__ restores the rows exactly.
            dividend = ZQPoly(rows, n)
            divisors = [_random_factor(rng, n, max(terms, 2), z=True, divisor=True) for _ in range(3)]
            assert any(c < 0 for f in divisors for _, _, c in f)
            assert any(c > 0 for f in divisors for _, _, c in f)
            _apply_z_factors(rows, divisors, divide=True)
            back = ZQPoly(rows, n)
            for factor in divisors:
                back = back * _zq_factor(factor, n)
            assert back == dividend


def test_quotient_errors():
    with pytest.raises(ValueError, match=r"constant term must be \+1 or -1 to invert"):
        QSeries.one(3) / QSeries([2, 1], 3)
    with pytest.raises(ValueError, match="constant term"):
        QSeries.one(3) / QSeries.zero(3)
    with pytest.raises(ValueError, match="truncation mismatch"):
        QSeries.one(3) / QSeries.one(4)
    with pytest.raises(TypeError):
        QSeries.one(3) / 2


def test_coefficients_must_be_ints():
    for bad in ([1.7, 2.2], [1, True], [False], [1, "2"]):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            QSeries(bad)
    assert QSeries((c for c in (1, 2)), 3).coeffs == (1, 2, 0, 0)


def test_polynomial_square():
    a = QSeries([1, 1], 3)
    assert (a * a).coeffs == (1, 2, 1, 0)


def test_shift():
    assert QSeries.one(3).shift(2).coeffs == (0, 0, 1, 0)
    assert QSeries([1, 2, 3], 2).shift(1).coeffs == (0, 1, 2)
    with pytest.raises(ValueError):
        QSeries.one(3).shift(-1)


def test_truncation_mismatch_rejected():
    with pytest.raises(ValueError):
        QSeries.one(3) + QSeries.one(4)
    with pytest.raises(ValueError):
        QSeries.one(3) * QSeries.one(4)
    with pytest.raises(ValueError):
        ZQPoly.zero(3) * QSeries.one(4)


def test_reciprocal_geometric():
    assert QSeries([1, -1], 4).reciprocal().coeffs == (1, 1, 1, 1, 1)
    assert QSeries.one(5).reciprocal() == QSeries.one(5)


def test_reciprocal_requires_unit():
    with pytest.raises(ValueError):
        QSeries([2, 1], 3).reciprocal()
    # the infinite product with a doubled constant term is a valid series
    # but cannot be inverted
    doubled = q_pochhammer(-1, 0, None, 6)
    assert doubled.coeffs[0] == 2
    with pytest.raises(ValueError):
        doubled.reciprocal()


def test_reciprocal_randomized():
    rng = random.Random(20240831)
    for trial in range(12):
        n = rng.choice((5, 17, 60, 200))
        coeffs = [rng.choice((1, -1))] + [rng.randrange(-9, 10) for _ in range(n)]
        a = QSeries(coeffs, n)
        assert a * a.reciprocal() == QSeries.one(n)


def test_pochhammer_pentagonal():
    assert q_pochhammer(1, 1, None, 5).coeffs == (1, -1, -1, 0, 0, 1)


def test_pochhammer_empty_and_constant():
    assert q_pochhammer(7, 3, 0, 4) == QSeries.one(4)
    assert q_pochhammer(-1, 0, 1, 3).coeffs == (2, 0, 0, 0)


def test_pochhammer_step():
    # base q^2: (1 - q^2)(1 - q^4)
    assert q_pochhammer(1, 2, 2, 6, step=2).coeffs == (1, 0, -1, 0, -1, 0, 1)


def test_overpartition_counts():
    counts = q_pochhammer(-1, 1, None, 10) * q_pochhammer(1, 1, None, 10).reciprocal()
    assert counts.coeffs == (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)


def test_product_of_series_and_reciprocal_is_one():
    a = q_pochhammer(1, 1, None, 30)
    assert a * a.reciprocal() == QSeries.one(30)


def test_omega_factor_and_product():
    assert omega_product(1, 1, 1, 4).coeffs == (1, 2, 0, 0, 0)  # one factor
    assert omega_product(3, 1, 2, 7).coeffs == (1, 0, 0, 2, 0, 0, 2, 0)
    assert omega_product(1, 0, 3, 6) == QSeries.one(6)
    assert omega_product(1, 2, 2, 4).coeffs == (1, 2, 4, 4, 6)
    # count=None runs up to the truncation: prod over t = 2..6 of 1 + 2q^t
    expected = QSeries.one(6)
    for t in range(2, 7):
        expected = expected * QSeries.monomial(t, 2, 6) + expected
    assert omega_product(2, None, 1, 6) == omega_product(2, 5, 1, 6) == expected


def test_gaussian_binomial_values():
    assert gaussian_binomial(1, 2, 3).is_zero()
    assert gaussian_binomial(5, 0, 2) == QSeries.one(0)
    assert gaussian_binomial(2, 1, 1).coeffs == (1, 1)
    assert gaussian_binomial(4, 2, 1).coeffs == (1, 1, 2, 1, 1)


def test_gaussian_binomial_costs_no_more_than_its_truncation():
    # Both B and A - B exceed the truncation, so below q^11 the binomial
    # counts partitions, 1 / (q;q)_inf; the factors past q^10 are skipped.
    start = time.perf_counter()
    got = gaussian_binomial(10**6, 5 * 10**5, 1, 10)
    assert time.perf_counter() - start < 0.5
    assert got == QSeries.one(10) / q_pochhammer(1, 1, None, 10)


def test_gaussian_binomial_recurrence():
    for k in (1, 2, 3, 4):
        for a in range(1, 13):
            for b in range(0, a + 1):
                n = k * b * (a - b)
                lhs = gaussian_binomial(a, b, k, n)
                rhs = gaussian_binomial(a - 1, b - 1, k, n) + \
                    gaussian_binomial(a - 1, b, k, n).shift(k * b)
                assert lhs == rhs, (a, b, k)


def test_binomial_ladder_matches_gaussian_binomial():
    """Every rung equals the from-scratch binomial, over I16's grid
    (a <= 12, k <= 4) and I17's (b <= 5, k <= 3, a up to b + N/k)."""
    n = 400
    for k, b, top in ([(k, b, 12) for k in (1, 2, 3, 4) for b in range(13)]
                      + [(k, b, b + n // k) for k in (1, 2, 3) for b in range(6)]):
        ladder = _binomial_ladder(b, k, n)
        for a in range(b, top + 1):
            assert tuple(next(ladder)) == gaussian_binomial(a, b, k, n).coeffs, (a, b, k)


def test_gaussian_binomial_palindromic_nonnegative():
    for a in range(0, 13):
        for b in range(0, a + 1):
            coeffs = gaussian_binomial(a, b, 1).coeffs
            assert min(coeffs) >= 0
            assert coeffs == coeffs[::-1], (a, b)


def test_zq_basic_arithmetic():
    one = ZQPoly.one(4)
    z = _zq_monomial(1, 0, 1, 4)
    sq = (one + z) * (one + z)
    assert sq.coeff(0, 0) == 1 and sq.coeff(1, 0) == 2 and sq.coeff(2, 0) == 1
    assert (sq - sq).is_zero()
    assert sq.z_degrees() == (0, 1, 2)


def test_series_with_zq_operand_defers_to_zq():
    s = QSeries([1, 2, 0, 5], 3)
    p = ZQPoly([[1], [], [0, 3]], 3)
    assert s * p == p * s and isinstance(s * p, ZQPoly)
    assert s + p == p + s and isinstance(s + p, ZQPoly)
    assert s - p == -(p - s)
    assert QSeries.one(3) * ZQPoly.one(3) == ZQPoly.one(3) * QSeries.one(3)
    assert QSeries.one(3) + ZQPoly.one(3) == ZQPoly.one(3) + QSeries.one(3)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(s, "1")


def test_zq_canonical_drops_zero_terms():
    p = ZQPoly([[1], [0, 0, 0, 0]], 3)
    assert p.z_degrees() == (0,)
    assert p.rows == ((1, 0, 0, 0),)
    assert ZQPoly([[0], []], 3) == ZQPoly.zero(3) and ZQPoly.zero(3).rows == ()


def test_z_index_does_not_wrap():
    p = ZQPoly([[0, 1], [0, 5]], 3)
    assert p.coeff(-1, 1) == 0 and p.coeff(1, 1) == 5 and p.coeff(2, 1) == 0
    assert p.z_coeff(-1) == p.z_coeff(2) == QSeries.zero(3)
    with pytest.raises(ValueError, match="z-degree"):
        ZQPoly.from_counts({(1, 1): 5, (1, -1): 1}, 3)
    with pytest.raises(ValueError, match="z must be an int"):
        ZQPoly.from_counts({(1, True): 1}, 3)
    with pytest.raises(ValueError, match="weight"):
        ZQPoly.from_counts({(-1, 0): 1}, 3)  # would wrap to q^3
    with pytest.raises(ValueError, match="coefficient must be an int"):
        ZQPoly.from_counts({(1, 1): 1.5}, 3)
    with pytest.raises(ValueError, match="z-degree"):
        ZQPoly.from_qseries(QSeries.one(3), -1)
    assert ZQPoly.from_counts({(1, 1): 5, (0, 0): 0, (9, 4): 1}, 3) == ZQPoly([[], [0, 5]], 3)


def test_zq_shift_rules():
    z = _zq_monomial(2, 1, 5, 4)
    assert z.z_shift(-1).coeff(1, 1) == 5
    with pytest.raises(ValueError):
        z.z_shift(-3)


def test_zq_projection_and_moment():
    p = _zq_monomial(0, 1, 3, 5) + _zq_monomial(2, 1, 4, 5)
    assert p.q_projection().coeffs == (0, 7, 0, 0, 0, 0)
    assert p.z_moment().coeffs == (0, 8, 0, 0, 0, 0)


def test_one_plus_zq_product():
    p = one_plus_zq_product(1, 3)
    # (1 + zq)(1 + zq^2)(1 + zq^3)
    assert p.coeff(0, 0) == 1
    assert p.coeff(1, 1) == 1 and p.coeff(1, 2) == 1 and p.coeff(1, 3) == 1
    assert p.coeff(2, 3) == 1
    stepped = one_plus_zq_product(1, 5, step=2)
    assert stepped.coeff(1, 3) == 1 and stepped.coeff(1, 2) == 0
    # offset 0 adds the factor (1 + z)
    one_plus_z = ZQPoly.one(3) + _zq_monomial(1, 0, 1, 3)
    assert one_plus_zq_product(0, 3) == one_plus_z * p


def test_zq_geometric():
    # The quotient 1 / (1 - z q^2) modulo q^8 appends rows until they vanish:
    # it is the finite factor 1 + z q^2 + z^2 q^4 + z^3 q^6.
    rows = [[1] + [0] * 7]
    _apply_z_factors(rows, [[(1, 2, -1)]], divide=True)
    g = ZQPoly(rows, 7)
    assert len(g.rows) == 4
    assert [g.coeff(a, 2 * a) for a in range(4)] == [1, 1, 1, 1]
    assert g.coeff(1, 3) == 0
    expansion = [[1] + [0] * 7]
    _apply_z_factors(expansion, [[(a, 2 * a, 1) for a in range(1, 4)]])
    assert g == ZQPoly(expansion, 7)
    assert g * (ZQPoly.one(7) - _zq_monomial(1, 2, 1, 7)) == ZQPoly.one(7)


def test_kernel_rejects_floats_and_bools():
    s = QSeries.one(3)
    calls = [
        lambda: QSeries.monomial(0, 1.5, 3),
        lambda: QSeries.monomial(True, 1, 3),
        lambda: QSeries([1, 2], True),
        lambda: QSeries.zero(True),
        lambda: QSeries.zero(-1),
        lambda: QSeries.one(3.0),
        lambda: s.shift(1.0),
        lambda: q_pochhammer(1.5, 1, 2, 4),
        lambda: q_pochhammer(1, 1, 2.0, 4),
        lambda: q_pochhammer(1, 1, -1, 4),
        lambda: q_pochhammer(1, True, 2, 4),
        lambda: omega_product(1, None, 1.5, 4),
        lambda: omega_product(1, None, 1, False),
        lambda: gaussian_binomial(4, 2, 1, True),
        lambda: gaussian_binomial(4.0, 2, 1),
        lambda: one_plus_zq_product(1, 4, step=True),
        lambda: ZQPoly([[1.5]], 3),
        lambda: ZQPoly([[True]], 3),
        lambda: ZQPoly([[1, 2, 3, 4, 5]], 3),
        lambda: ZQPoly.zero(3.0),
        lambda: ZQPoly.one(3).z_shift(True),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_zq_foreign_operand_is_a_type_error():
    p = ZQPoly.one(3)
    for op in (lambda: p + 1.5, lambda: 1.5 + p, lambda: p - 1.5, lambda: 1.5 - p,
               lambda: p * 1.5, lambda: 1.5 * p, lambda: p * "1"):
        with pytest.raises(TypeError):
            op()
    # A bool is refused as a float is, by both classes, from either side.
    for x in (QSeries.one(3), p):
        for op in (lambda: x + True, lambda: True + x, lambda: x - True,
                   lambda: True - x, lambda: x * True, lambda: False * x):
            with pytest.raises(TypeError):
                op()


def test_dump_format():
    assert QSeries([1, 0, -2], 2).dump() == "0\t1\n1\t0\n2\t-2"
    p = _zq_monomial(1, 0, 3, 1)
    assert p.dump() == "z 1\n0\t3\n1\t0"


# -- ring laws (derandomized, bounded) ------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def series_triples(draw, unit_last=False):
    """Three series at one truncation up to 12; ``unit_last`` gives the
    third a constant term of +1 or -1."""
    n = draw(st.integers(0, 12))
    coeffs = st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1)
    a, b, c = (draw(coeffs) for _ in range(3))
    if unit_last:
        c[0] = draw(st.sampled_from((1, -1)))
    return QSeries(a, n), QSeries(b, n), QSeries(c, n)


@PROPERTY
@given(series_triples())
def test_sum_and_product_are_commutative_and_associative(abc):
    a, b, c = abc
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@PROPERTY
@given(series_triples(unit_last=True))
def test_quotient_undoes_product_by_a_unit_series(abc):
    a, _, b = abc
    assert (a * b) / b == a


@PROPERTY
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=13),
       st.lists(st.dictionaries(st.integers(1, 15), st.integers(-5, 5).filter(bool),
                                min_size=1, max_size=3), max_size=4))
def test_sparse_quotient_undoes_sparse_product(coeffs, factors):
    factors = [sorted(f.items()) for f in factors]
    out = list(coeffs)
    _apply_factors(out, factors)
    _apply_factors(out, factors, divide=True)
    assert out == coeffs
