"""Exact truncated power series in q and polynomials in z over them.

All coefficients are Python integers (arbitrary precision).  A ``QSeries``
is known exactly modulo q^(N+1) for its truncation order N; arithmetic
between two series requires equal truncation.  ``ZQPoly`` keeps the marking
variable z exact (never truncated) while q stays truncated at N.

Infinite products are exact here, not approximate: a factor congruent to 1
modulo q^(N+1) is simply skipped, so the finitely many remaining factors
determine the truncated product completely.

Every product or quotient by a sparse factor 1 + sum(c q^e), or by a
z-marked factor 1 + sum(c z^a q^e), goes through one in-place primitive.
"""

from __future__ import annotations


def _check_ints(**values):
    """Reject non-int arguments (floats, bools, ...) and a negative trunc or
    count; a count may be None, for no bound."""
    for name, value in values.items():
        if type(value) is not int and not (name == "count" and value is None):
            raise ValueError(f"{name} must be an int (got {value!r})")  # bools too
        if name in ("trunc", "count") and (value or 0) < 0:
            raise ValueError(f"{name} must be >= 0")


def _apply_factors(coeffs, factors, divide=False):
    """Multiply the truncated series ``coeffs`` in place by each sparse
    factor 1 + sum(c q^e), given as (e, c) pairs in ascending e, every
    e >= 1; or divide it by each.  A product runs from the top index down
    and a quotient from the bottom up, so every entry read is final."""
    n = len(coeffs) - 1
    for factor in factors:
        if len(factor) == 1:  # one tight loop for (1 + c q^e)
            ((e, c),) = factor
            if divide:
                for j in range(e, n + 1):
                    coeffs[j] -= c * coeffs[j - e]
            else:
                for j in range(n, e - 1, -1):
                    coeffs[j] += c * coeffs[j - e]
            continue
        sign = -1 if divide else 1
        for m in range(n + 1) if divide else range(n, -1, -1):
            b = sign * coeffs[m]
            if b:
                for e, c in factor:
                    if m + e > n:
                        break
                    coeffs[m + e] += c * b


def _apply_z_factors(rows, factors):
    """Multiply the z-rows ``rows`` (``rows[a]``: the truncated series at
    z^a) in place by each sparse factor 1 + sum(c z^a q^e), given as
    (a, e, c) triples, every a >= 1.  Rows are read from the top z-degree
    down, so each is read before anything is added to it."""
    n = len(rows[0]) - 1
    for factor in factors:
        top = len(rows)
        rows.extend([0] * (n + 1) for _ in range(max((t[0] for t in factor), default=0)))
        for z in range(top - 1, -1, -1):
            for a, e, c in factor:
                row = rows[z + a]
                row[e:] = [x + c * y for x, y in zip(row[e:], rows[z])]
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()


class QSeries:
    """Power series sum(c_i q^i, i=0..trunc) with exact integer coefficients."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, coeffs, trunc=None):
        coeffs = list(coeffs)
        bad = [c for c in coeffs if type(c) is not int]
        if bad:
            raise ValueError(f"coefficients must be ints, got {bad[0]!r}")
        if trunc is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit trunc")
            trunc = len(coeffs) - 1
        _check_ints(trunc=trunc)
        if len(coeffs) > trunc + 1:
            raise ValueError("coefficient list longer than truncation order")
        coeffs.extend([0] * (trunc + 1 - len(coeffs)))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _make(cls, coeffs, trunc):
        self = object.__new__(cls)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        _check_ints(trunc=trunc)
        return cls._make((0,) * (trunc + 1), trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls.monomial(0, 1, trunc)

    @classmethod
    def monomial(cls, exponent: int, coeff: int, trunc: int) -> "QSeries":
        _check_ints(exponent=exponent, coeff=coeff, trunc=trunc)
        c = [0] * (trunc + 1)
        if 0 <= exponent <= trunc:
            c[exponent] = coeff
        elif exponent < 0:
            raise ValueError("exponent must be >= 0")
        return cls._make(c, trunc)

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.trunc:
            raise IndexError(f"exponent {n} outside truncation {self.trunc}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other):
        if self.trunc != other.trunc:
            raise ValueError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.trunc, self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = QSeries.monomial(0, other, self.trunc)
        elif not isinstance(other, QSeries):
            return NotImplemented  # a ZQPoly operand lifts this series
        self._check(other)
        return QSeries._make(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.trunc
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = QSeries.monomial(0, other, self.trunc)
        elif not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        return QSeries._make(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.trunc
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QSeries._make([-a for a in self.coeffs], self.trunc)

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries._make([a * other for a in self.coeffs], self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        n = self.trunc
        a, b = self.coeffs, other.coeffs
        if a.count(0) < b.count(0):  # the sparser operand drives the outer loop
            a, b = b, a
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return QSeries._make(out, n)

    __rmul__ = __mul__

    def shift(self, exponent: int) -> "QSeries":
        """Multiply by q^exponent, dropping overflow past the truncation."""
        _check_ints(exponent=exponent)
        if exponent < 0:
            raise ValueError("shift exponent must be >= 0")
        n = self.trunc
        out = [0] * (n + 1)
        for i in range(n + 1 - exponent):
            out[i + exponent] = self.coeffs[i]
        return QSeries._make(out, n)

    def __truediv__(self, other):
        """Exact b with other * b = self; other needs a unit constant u.
        Divides u * self by the one sparse factor u * other, visiting only
        the divisor's nonzero terms: O(N * nnz), not O(N^2)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        u = other.coeffs[0]
        if u not in (1, -1):
            raise ValueError("constant term must be +1 or -1 to invert")
        out = [u * c for c in self.coeffs]
        factor = [(e, u * c) for e, c in enumerate(other.coeffs) if c and e]
        _apply_factors(out, [factor], divide=True)
        return QSeries._make(out, self.trunc)

    def reciprocal(self) -> "QSeries":
        """Series b with self * b = 1 mod q^(trunc+1); needs unit constant."""
        return QSeries.one(self.trunc) / self

    def dump(self) -> str:
        """One line per exponent: ``exponent<TAB>coefficient``."""
        return "\n".join(f"{i}\t{c}" for i, c in enumerate(self.coeffs))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.trunc >= 8 else ""
        return f"QSeries([{shown}{tail}], trunc={self.trunc})"


def q_pochhammer(coef: int, offset: int, count, trunc: int, step: int = 1) -> QSeries:
    """Product of (1 - coef * q^(offset + i*step)) for i = 0..count-1.

    ``count=None`` keeps multiplying until the factor exponent exceeds the
    truncation, which is exact modulo q^(trunc+1).  ``step`` > 1 gives
    products in the base q^step.
    """
    _check_ints(coef=coef, offset=offset, count=count, trunc=trunc, step=step)
    if offset < 0 or step < 1:
        raise ValueError("offset must be >= 0 and step >= 1")
    exponents = range(offset, trunc + 1, step)[:count]
    out = [1] + [0] * trunc
    if exponents and exponents[0] == 0:  # the constant factor (1 - coef)
        out[0], exponents = 1 - coef, exponents[1:]
    _apply_factors(out, [((e, -coef),) for e in exponents])
    return QSeries._make(out, trunc)


def omega_product(m: int, count, r: int, trunc: int) -> QSeries:
    """Product of the omega factors 1 + 2 q^t + 2 q^(2t) + ... + 2 q^(rt)
    at t = m, m+1, ..., m+count-1.

    An empty product (count=0) is 1; ``count=None`` stops once m+i exceeds
    the truncation.  ``count=1`` is the single factor itself.
    """
    _check_ints(m=m, count=count, r=r, trunc=trunc)
    if m < 1 or r < 1:
        raise ValueError("m and r must be >= 1")
    out = [1] + [0] * trunc
    _apply_factors(out, [
        [(i * t, 2) for i in range(1, min(r, trunc // t) + 1)]
        for t in range(m, trunc + 1)[:count]
    ])
    return QSeries._make(out, trunc)


def gaussian_binomial(a: int, b: int, k: int, trunc=None) -> QSeries:
    """q-binomial coefficient of a over b in the base q^k.

    Zero unless a >= b >= 0; otherwise a polynomial with nonnegative
    coefficients of degree k*b*(a-b).  Computed at that exact degree by
    default, or at the requested truncation (exact either way).
    """
    if trunc is None:
        trunc = k * b * (a - b) if a >= b >= 0 else 0
    _check_ints(a=a, b=b, k=k, trunc=trunc)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not a >= b >= 0:
        return QSeries.zero(trunc)
    b = min(b, a - b)  # the coefficient is symmetric in b and a - b
    # (q^(k(a-b+1)); q^k)_b / (q^k; q^k)_b, one factor (1 - q^e) at a time
    out = [1] + [0] * trunc
    _apply_factors(out, [((k * (a - b + i), -1),) for i in range(1, b + 1)])
    _apply_factors(out, [((k * i, -1),) for i in range(1, b + 1)], divide=True)
    return QSeries._make(out, trunc)


class ZQPoly:
    """Polynomial in z whose coefficients are QSeries of one truncation.

    Canonical form: no stored term is the zero series.  z-degrees are exact
    (never truncated); q is truncated at ``trunc``.
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, terms, trunc: int):
        _check_ints(trunc=trunc)
        clean = {}
        for z, s in dict(terms).items():
            _check_ints(z=z)
            if z < 0:
                raise ValueError("z-degree must be >= 0")
            if s.trunc != trunc:
                raise ValueError("all terms must share one truncation")
            if not s.is_zero():
                clean[z] = s
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ZQPoly is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "ZQPoly":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "ZQPoly":
        return cls({0: QSeries.one(trunc)}, trunc)

    @classmethod
    def from_qseries(cls, s: QSeries, z_degree: int = 0) -> "ZQPoly":
        return cls({z_degree: s}, s.trunc)

    @classmethod
    def monomial(cls, z_degree: int, q_exponent: int, coeff: int, trunc: int) -> "ZQPoly":
        return cls({z_degree: QSeries.monomial(q_exponent, coeff, trunc)}, trunc)

    @classmethod
    def from_counts(cls, counts, trunc: int) -> "ZQPoly":
        """The sum of count * z^z q^weight over a ``{(weight, z): count}``
        mapping.  Weights past the truncation are dropped, so counts taken
        to a larger weight can be reused."""
        rows = {}
        for (weight, z), count in counts.items():
            if weight <= trunc:
                rows.setdefault(z, [0] * (trunc + 1))[weight] += count
        return cls({z: QSeries(row, trunc) for z, row in rows.items()}, trunc)

    def z_degrees(self):
        return tuple(sorted(self.terms))

    def z_coeff(self, z: int) -> QSeries:
        return self.terms.get(z, QSeries.zero(self.trunc))

    def coeff(self, z: int, q: int) -> int:
        s = self.terms.get(z)
        return s.coeff(q) if s is not None else 0

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.trunc != other.trunc:
            raise ValueError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, ZQPoly)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.trunc, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if isinstance(other, (int, QSeries)):
            other = _lift(other, self.trunc)
        elif not isinstance(other, ZQPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for z, s in other.terms.items():
            terms[z] = terms[z] + s if z in terms else s
        return ZQPoly(terms, self.trunc)

    __radd__ = __add__

    def __neg__(self):
        return ZQPoly({z: -s for z, s in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, (int, QSeries, ZQPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QSeries)):
            if isinstance(other, QSeries):
                self._check(other)
            return ZQPoly(
                {z: s * other for z, s in self.terms.items()}, self.trunc
            )
        if not isinstance(other, ZQPoly):
            return NotImplemented
        self._check(other)
        terms = {}
        for za, sa in self.terms.items():
            for zb, sb in other.terms.items():
                z = za + zb
                prod = sa * sb
                terms[z] = terms[z] + prod if z in terms else prod
        return ZQPoly(terms, self.trunc)

    __rmul__ = __mul__

    def shift(self, exponent: int) -> "ZQPoly":
        """Multiply by q^exponent termwise."""
        return ZQPoly(
            {z: s.shift(exponent) for z, s in self.terms.items()}, self.trunc
        )

    def z_shift(self, delta: int) -> "ZQPoly":
        """Multiply by z^delta; negative delta must not create z^(<0) terms."""
        _check_ints(delta=delta)
        if delta < 0 and any(z + delta < 0 for z in self.terms):
            raise ValueError("z-shift would produce a negative z-degree")
        return ZQPoly({z + delta: s for z, s in self.terms.items()}, self.trunc)

    def q_projection(self) -> QSeries:
        """Sum over z-degrees (the q-series at z = 1)."""
        acc = QSeries.zero(self.trunc)
        for s in self.terms.values():
            acc = acc + s
        return acc

    def z_moment(self) -> QSeries:
        """Sum over z-degrees weighted by the degree (d/dz at z = 1)."""
        acc = QSeries.zero(self.trunc)
        for z, s in self.terms.items():
            acc = acc + s * z
        return acc

    def dump(self) -> str:
        """Per z-degree, a ``z <degree>`` header then the series dump."""
        blocks = []
        for z in self.z_degrees():
            blocks.append(f"z {z}")
            blocks.append(self.terms[z].dump())
        return "\n".join(blocks)

    def __repr__(self):
        degs = self.z_degrees()
        return f"ZQPoly(z_degrees={list(degs)}, trunc={self.trunc})"


def _lift(value, trunc):
    if isinstance(value, int):
        value = QSeries.monomial(0, value, trunc)
    return ZQPoly.from_qseries(value)


def _zq_from_rows(rows) -> ZQPoly:
    """The ZQPoly whose z^a coefficient is the series ``rows[a]``."""
    trunc = len(rows[0]) - 1
    return ZQPoly({a: QSeries._make(row, trunc) for a, row in enumerate(rows)}, trunc)


def one_plus_zq_product(offset: int, trunc: int, step: int = 1) -> ZQPoly:
    """Product of (1 + z q^(offset + i*step)) over all exponents <= trunc.
    An offset of 0 includes the factor (1 + z)."""
    _check_ints(offset=offset, trunc=trunc, step=step)
    if offset < 0 or step < 1:
        raise ValueError("offset must be >= 0 and step >= 1")
    rows = [[1] + [0] * trunc]
    _apply_z_factors(rows, [((1, e, 1),) for e in range(offset, trunc + 1, step)])
    return _zq_from_rows(rows)
