import random

import pytest

from qpl.series import (
    QSeries,
    ZQPoly,
    gaussian_binomial,
    omega_factor,
    omega_product,
    one_plus_zq_product,
    q_pochhammer,
    zq_geometric,
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
    assert omega_factor(1, 1, 4).coeffs == (1, 2, 0, 0, 0)
    assert omega_product(1, 0, 3, 6) == QSeries.one(6)
    assert omega_product(1, 1, 1, 4) == omega_factor(1, 1, 4)
    assert omega_product(1, 2, 2, 4).coeffs == (1, 2, 4, 4, 6)


def test_gaussian_binomial_values():
    assert gaussian_binomial(1, 2, 3).is_zero()
    assert gaussian_binomial(5, 0, 2) == QSeries.one(0)
    assert gaussian_binomial(2, 1, 1).coeffs == (1, 1)
    assert gaussian_binomial(4, 2, 1).coeffs == (1, 1, 2, 1, 1)


def test_gaussian_binomial_recurrence():
    for k in (1, 2, 3, 4):
        for a in range(1, 13):
            for b in range(0, a + 1):
                n = k * b * (a - b)
                lhs = gaussian_binomial(a, b, k, n)
                rhs = gaussian_binomial(a - 1, b - 1, k, n) + \
                    gaussian_binomial(a - 1, b, k, n).shift(k * b)
                assert lhs == rhs, (a, b, k)


def test_gaussian_binomial_palindromic_nonnegative():
    for a in range(0, 13):
        for b in range(0, a + 1):
            coeffs = gaussian_binomial(a, b, 1).coeffs
            assert min(coeffs) >= 0
            assert coeffs == coeffs[::-1], (a, b)


def test_zq_basic_arithmetic():
    one = ZQPoly.one(4)
    z = ZQPoly.monomial(1, 0, 1, 4)
    sq = (one + z) * (one + z)
    assert sq.coeff(0, 0) == 1 and sq.coeff(1, 0) == 2 and sq.coeff(2, 0) == 1
    assert (sq - sq).is_zero()
    assert sq.z_degrees() == (0, 1, 2)


def test_series_with_zq_operand_defers_to_zq():
    s = QSeries([1, 2, 0, 5], 3)
    p = ZQPoly({0: QSeries.one(3), 2: QSeries.monomial(1, 3, 3)}, 3)
    assert s * p == p * s and isinstance(s * p, ZQPoly)
    assert s + p == p + s and isinstance(s + p, ZQPoly)
    assert s - p == -(p - s)
    assert QSeries.one(3) * ZQPoly.one(3) == ZQPoly.one(3) * QSeries.one(3)
    assert QSeries.one(3) + ZQPoly.one(3) == ZQPoly.one(3) + QSeries.one(3)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(s, "1")


def test_zq_canonical_drops_zero_terms():
    p = ZQPoly({0: QSeries.one(3), 1: QSeries.zero(3)}, 3)
    assert p.z_degrees() == (0,)


def test_zq_shift_rules():
    z = ZQPoly.monomial(2, 1, 5, 4)
    assert z.z_shift(-1).coeff(1, 1) == 5
    with pytest.raises(ValueError):
        z.z_shift(-3)
    assert z.shift(2).coeff(2, 3) == 5


def test_zq_projection_and_moment():
    p = ZQPoly.monomial(0, 1, 3, 5) + ZQPoly.monomial(2, 1, 4, 5)
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


def test_zq_geometric():
    g = zq_geometric(2, 7)
    assert [g.coeff(a, 2 * a) for a in range(4)] == [1, 1, 1, 1]
    assert g.coeff(1, 3) == 0


def test_dump_format():
    assert QSeries([1, 0, -2], 2).dump() == "0\t1\n1\t0\n2\t-2"
    p = ZQPoly.monomial(1, 0, 3, 1)
    assert p.dump() == "z 1\n0\t3\n1\t0"
