"""Exact truncated power series in q and polynomials in z over them.

All coefficients are Python integers (arbitrary precision).  A ``QSeries``
is known exactly modulo q^(N+1) for its truncation order N; arithmetic
between two series requires equal truncation.  ``ZQPoly`` keeps the marking
variable z exact (never truncated) while q stays truncated at N.

Infinite products are exact here, not approximate: a factor congruent to 1
modulo q^(N+1) is simply skipped, so the finitely many remaining factors
determine the truncated product completely.
"""

from __future__ import annotations

INFINITY = None  # sentinel for unbounded factor/term counts


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
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
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
        return cls._make((0,) * (trunc + 1), trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls.monomial(0, 1, trunc)

    @classmethod
    def monomial(cls, exponent: int, coeff: int, trunc: int) -> "QSeries":
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
        if exponent < 0:
            raise ValueError("shift exponent must be >= 0")
        n = self.trunc
        out = [0] * (n + 1)
        for i in range(n + 1 - exponent):
            out[i + exponent] = self.coeffs[i]
        return QSeries._make(out, n)

    def __truediv__(self, other):
        """Exact b with other * b = self; other needs a unit constant.  Only
        the divisor's nonzero terms are visited: O(N * nnz), not O(N^2)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        d = other.coeffs
        if d[0] not in (1, -1):
            raise ValueError("constant term must be +1 or -1 to invert")
        n = self.trunc
        inv0 = d[0]
        terms = [(i, c) for i, c in enumerate(d) if c and i]
        out = list(self.coeffs)
        for m in range(n + 1):
            bm = out[m] = inv0 * out[m]
            if bm:
                for i, c in terms:
                    if m + i > n:
                        break
                    out[m + i] -= c * bm
        return QSeries._make(out, n)

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

    ``count=INFINITY`` (None) keeps multiplying until the factor exponent
    exceeds the truncation, which is exact modulo q^(trunc+1).  ``step`` > 1
    gives products in the base q^step.
    """
    if offset < 0 or step < 1:
        raise ValueError("offset must be >= 0 and step >= 1")
    out = [0] * (trunc + 1)
    out[0] = 1
    i = 0
    while count is None or i < count:
        e = offset + i * step
        if e > trunc:
            break
        if e == 0:
            out = [c * (1 - coef) for c in out]
        else:
            for j in range(trunc, e - 1, -1):
                out[j] -= coef * out[j - e]
        i += 1
    return QSeries._make(out, trunc)


def omega_factor(t: int, r: int, trunc: int) -> QSeries:
    """1 + 2 q^t + 2 q^(2t) + ... + 2 q^(rt) truncated."""
    if t < 1 or r < 1:
        raise ValueError("t and r must be >= 1")
    out = [0] * (trunc + 1)
    out[0] = 1
    for i in range(1, r + 1):
        if i * t > trunc:
            break
        out[i * t] = 2
    return QSeries._make(out, trunc)


def omega_product(m: int, count, r: int, trunc: int) -> QSeries:
    """Product of omega factors at t = m, m+1, ..., m+count-1.

    An empty product (count=0) is 1; ``count=INFINITY`` stops once m+i
    exceeds the truncation.  ``count=1`` is the single factor itself.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = QSeries.one(trunc)
    i = 0
    while count is None or i < count:
        t = m + i
        if t > trunc:
            break
        acc = acc * omega_factor(t, r, trunc)
        i += 1
    return acc


def gaussian_binomial(a: int, b: int, k: int, trunc=None) -> QSeries:
    """q-binomial coefficient of a over b in the base q^k.

    Zero unless a >= b >= 0; otherwise a polynomial with nonnegative
    coefficients of degree k*b*(a-b).  Computed at that exact degree by
    default, or at the requested truncation (exact either way).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    degree = k * b * (a - b) if a >= b >= 0 else 0
    if trunc is None:
        trunc = degree
    if not a >= b >= 0:
        return QSeries.zero(trunc)
    if b == 0 or b == a:
        return QSeries.one(trunc)
    num = q_pochhammer(1, k * (a - b + 1), b, trunc, step=k)
    den = q_pochhammer(1, k, b, trunc, step=k)
    return num / den


class ZQPoly:
    """Polynomial in z whose coefficients are QSeries of one truncation.

    Canonical form: no stored term is the zero series.  z-degrees are exact
    (never truncated); q is truncated at ``trunc``.
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, terms, trunc: int):
        clean = {}
        for z, s in dict(terms).items():
            z = int(z)
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
        self._check(other)
        terms = dict(self.terms)
        for z, s in other.terms.items():
            terms[z] = terms[z] + s if z in terms else s
        return ZQPoly(terms, self.trunc)

    __radd__ = __add__

    def __neg__(self):
        return ZQPoly({z: -s for z, s in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, QSeries)):
            other = _lift(other, self.trunc)
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


def one_plus_zq_product(offset: int, trunc: int, step: int = 1) -> ZQPoly:
    """Product of (1 + z q^(offset + i*step)) over all exponents <= trunc."""
    if offset < 1 or step < 1:
        raise ValueError("offset and step must be >= 1")
    acc = ZQPoly.one(trunc)
    e = offset
    while e <= trunc:
        factor = ZQPoly.one(trunc) + ZQPoly.monomial(1, e, 1, trunc)
        acc = acc * factor
        e += step
    return acc


def zq_geometric(exponent: int, trunc: int) -> ZQPoly:
    """1 / (1 - z q^exponent) truncated in q; exact in z."""
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    terms = {}
    a = 0
    while a * exponent <= trunc:
        terms[a] = QSeries.monomial(a * exponent, 1, trunc)
        a += 1
    return ZQPoly(terms, trunc)
