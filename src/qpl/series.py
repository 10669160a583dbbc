"""Exact truncated power series in q and polynomials in z over them.

All coefficients are Python integers (arbitrary precision).  A ``QSeries``
is known exactly modulo q^(N+1) for its truncation order N; arithmetic
between two series requires equal truncation.  ``ZQPoly`` keeps the marking
variable z exact (never truncated) while q stays truncated at N; it stores
one row of q-coefficients per power of z, the form the z-marked primitive
works on.

Infinite products are exact here, not approximate: a factor congruent to 1
modulo q^(N+1) is simply skipped, so the finitely many remaining factors
determine the truncated product completely.

Every product or quotient by a sparse factor 1 + sum(c q^e), or by a
z-marked factor 1 + sum(c z^a q^e), goes through one in-place primitive:
``_apply_factors`` on a coefficient list, ``_apply_z_factors`` on z-rows.
"""

from __future__ import annotations

from operator import add


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
    factor 1 + sum(c q^e), given as (e, c) pairs in ascending e; or divide
    it by each, every e >= 1.  A product runs from the top index down and a
    quotient from the bottom up, so every entry read is final."""
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


def _lowest(row, n):
    """Index of the first nonzero entry of ``row``; n + 1 for a zero row."""
    first = next(filter(None, row), 0)
    return row.index(first) if first else n + 1


def _apply_z_factors(rows, factors, divide=False):
    """Multiply the z-rows ``rows`` (``rows[a]``: the truncated series at
    z^a) in place by each sparse factor 1 + sum(c z^a q^e), given as
    (a, e, c) triples, every a >= 1; or divide them by each, every e >= 1.
    A product reads rows from the top z-degree down and a quotient from
    the bottom up, so each row read is final.  ``lows[z]`` bounds the
    index of row z's lowest nonzero term from below (N + 1 for a zero
    row), and every update starts there: term (a, e, c) adds row z from
    q^low on into row z + a from q^(low+e) on, and only when low + e <= N.
    A row is appended only when a term reaches it, so a quotient stops once
    its rows' lowest terms pass q^N."""
    n = len(rows[0]) - 1
    lows = [_lowest(row, n) for row in rows]
    for factor in factors:
        factor = [(a, e, -c if divide else c) for a, e, c in factor]
        least = min((t[1] for t in factor), default=n + 1)
        z = 0 if divide else len(rows) - 1
        while 0 <= z < len(rows):
            low = lows[z]
            if low + least <= n:  # some term lands at or below q^N
                source = rows[z][low:]
                for a, e, c in factor:
                    start = low + e
                    if start <= n:
                        if z + a >= len(rows):
                            rows.extend([0] * (n + 1) for _ in range(z + a + 1 - len(rows)))
                            lows.extend([n + 1] * (len(rows) - len(lows)))
                        row = rows[z + a]
                        if c == 1:
                            row[start:] = map(add, row[start:], source)
                        else:
                            row[start:] = [x + c * y for x, y in zip(row[start:], source)]
                        if start < lows[z + a]:
                            lows[z + a] = start
            z += 1 if divide else -1
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()
            lows.pop()


class QSeries:
    """Power series sum(c_i q^i, i=0..trunc) with exact integer coefficients."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, coeffs, trunc=None):
        if not hasattr(coeffs, "__iter__"):
            raise ValueError(f"coefficients must be an iterable of ints, got {coeffs!r}")
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
        _check_ints(exponent=n)
        if not 0 <= n <= self.trunc:
            raise IndexError(f"exponent {n} outside truncation {self.trunc}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other):
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.trunc, self.coeffs))

    def __add__(self, other):
        if type(other) is int:  # a bool is refused, as a float is
            other = QSeries.monomial(0, other, self.trunc)
        elif not isinstance(other, QSeries):
            return NotImplemented  # a ZQPoly operand lifts this series
        self._check(other)
        return QSeries._make(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.trunc
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
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
        if type(other) is int:
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
    _apply_factors(out, [_omega_factor(t, r, trunc) for t in range(m, trunc + 1)[:count]])
    return QSeries._make(out, trunc)


def _omega_factor(t: int, r: int, trunc: int) -> list:
    """omega_t's terms (i t, 2), i = 1..r, up to q^trunc, as a sparse factor."""
    return [(i * t, 2) for i in range(1, min(r, trunc // t) + 1)]


def gaussian_binomial(a: int, b: int, k: int, trunc=None) -> QSeries:
    """q-binomial coefficient of a over b in the base q^k.

    Zero unless a >= b >= 0; otherwise a polynomial with nonnegative
    coefficients of degree k*b*(a-b).  Computed at that exact degree by
    default, or at the requested truncation (exact either way).  The
    binomial in the base q is computed to q^(trunc // k), then its
    coefficient i is placed at q^(k i): only every k-th coefficient can be
    nonzero, so k times fewer are stepped.
    """
    _check_ints(a=a, b=b, k=k)
    if trunc is None:
        trunc = k * b * (a - b) if a >= b >= 0 else 0
    _check_ints(trunc=trunc)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not a >= b >= 0:
        return QSeries.zero(trunc)
    b = min(b, a - b)  # the coefficient is symmetric in b and a - b
    # (q^(a-b+1); q)_b / (q; q)_b, one factor (1 - q^e), e <= trunc // k, at a time
    n = trunc // k
    out = [1] + [0] * n
    _apply_factors(out, [((e, -1),) for e in range(a - b + 1, n + 1)[:b]])
    _apply_factors(out, [((e, -1),) for e in range(1, n + 1)[:b]], divide=True)
    return QSeries._make(_stride(out, k, trunc), trunc)


def _stride(coeffs: list, k: int, trunc: int) -> list:
    """The series ``coeffs`` in q, truncated at q^(trunc // k), with q^k put
    for q: coefficient i moves to q^(k i), truncated at q^trunc."""
    if k == 1:
        return coeffs
    out = [0] * (trunc + 1)
    out[::k] = coeffs
    return out


def _binomial_ladder(b: int, trunc: int):
    """Yield [a choose b] in the base q, truncated at q^trunc, for
    a = b, b+1, ... as one coefficient list that the next step changes in
    place, so read each rung before asking for the next.  Each step is the
    product formula taken one factor further:
    [a+1 choose b] = [a choose b] (1 - q^(a+1)) / (1 - q^(a+1-b)).
    A ladder in the base q^k is this one at ``trunc // k``, each rung
    placed with stride k."""
    out = [1] + [0] * trunc
    a = b
    while True:
        yield out
        a += 1
        _apply_factors(out, [((a, -1),)])
        _apply_factors(out, [((a - b, -1),)], divide=True)


class ZQPoly:
    """Polynomial in z whose coefficients are truncated q-series.

    Stored as z-rows: ``rows[a]`` is the tuple of the ``trunc + 1``
    q-coefficients of z^a, and the last row is never all zero (the zero
    polynomial has no rows).  z-degrees are exact (never truncated); q is
    truncated at ``trunc``.
    """

    __slots__ = ("trunc", "rows")

    def __init__(self, rows, trunc: int):
        _check_ints(trunc=trunc)
        if not hasattr(rows, "__iter__"):
            raise ValueError(f"rows must be an iterable of coefficient lists, got {rows!r}")
        rows = ZQPoly._make([QSeries(row, trunc).coeffs for row in rows], trunc).rows
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _make(cls, rows, trunc):
        """Unchecked: every row holds ``trunc + 1`` ints."""
        rows = [tuple(row) for row in rows]
        while rows and not any(rows[-1]):
            rows.pop()
        self = object.__new__(cls)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "rows", tuple(rows))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ZQPoly is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "ZQPoly":
        return cls((), trunc)

    @classmethod
    def one(cls, trunc: int) -> "ZQPoly":
        return cls.from_qseries(QSeries.one(trunc))

    @classmethod
    def from_qseries(cls, s: QSeries, z_degree: int = 0) -> "ZQPoly":
        if type(z_degree) is not int or z_degree < 0:
            raise ValueError(f"z-degree must be an int >= 0 (got {z_degree!r})")
        return cls._make([(0,) * (s.trunc + 1)] * z_degree + [s.coeffs], s.trunc)

    @classmethod
    def from_counts(cls, counts, trunc: int) -> "ZQPoly":
        """The sum of count * z^z q^weight over a ``{(weight, z): count}``
        mapping.  Weights past the truncation are dropped, so counts taken
        to a larger weight can be reused."""
        rows = []
        for (weight, z), count in counts.items():
            _check_ints(weight=weight, z=z, coefficient=count)
            if min(weight, z) < 0:
                raise ValueError(f"weight and z-degree must be >= 0 (got {(weight, z)!r})")
            if weight <= trunc:
                rows.extend([0] * (trunc + 1) for _ in range(z + 1 - len(rows)))
                rows[z][weight] += count
        return cls._make(rows, trunc)

    def z_degrees(self):
        return tuple(z for z, row in enumerate(self.rows) if any(row))

    def z_coeff(self, z: int) -> QSeries:
        """The q-series at z^z; zero past the stored rows and below z^0."""
        _check_ints(z=z)
        if 0 <= z < len(self.rows):
            return QSeries._make(self.rows[z], self.trunc)
        return QSeries.zero(self.trunc)

    def coeff(self, z: int, q: int) -> int:
        return self.z_coeff(z).coeff(q)

    def is_zero(self) -> bool:
        return not self.rows

    _check = QSeries._check

    def __eq__(self, other):
        return isinstance(other, ZQPoly) and (self.trunc, self.rows) == (other.trunc, other.rows)

    def __hash__(self):
        return hash((self.trunc, self.rows))

    def __add__(self, other):
        if type(other) is int:
            other = QSeries.monomial(0, other, self.trunc)
        if isinstance(other, QSeries):
            other = ZQPoly.from_qseries(other)
        elif not isinstance(other, ZQPoly):
            return NotImplemented
        self._check(other)
        low, high = sorted((self.rows, other.rows), key=len)
        rows = [[a + b for a, b in zip(x, y)] if any(x) else y for x, y in zip(low, high)]
        return ZQPoly._make(rows + list(high[len(low):]), self.trunc)

    __radd__ = __add__

    def __neg__(self):
        return ZQPoly._make([[-a for a in row] for row in self.rows], self.trunc)

    def __sub__(self, other):
        if type(other) is not int and not isinstance(other, (QSeries, ZQPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int or isinstance(other, QSeries):
            other = ZQPoly.zero(self.trunc) + other  # lifted to z^0
        elif not isinstance(other, ZQPoly):
            return NotImplemented
        self._check(other)
        total = ZQPoly.zero(self.trunc)
        for za, ra in enumerate(self.rows):
            for zb, rb in enumerate(other.rows):
                prod = QSeries._make(ra, self.trunc) * QSeries._make(rb, self.trunc)
                total = total + ZQPoly.from_qseries(prod, za + zb)
        return total

    __rmul__ = __mul__

    def z_shift(self, delta: int) -> "ZQPoly":
        """Multiply by z^delta; negative delta must not create z^(<0) terms."""
        _check_ints(delta=delta)
        if delta < 0 and any(any(row) for row in self.rows[:-delta]):
            raise ValueError("z-shift would produce a negative z-degree")
        pad = [(0,) * (self.trunc + 1)] * delta
        return ZQPoly._make(pad + list(self.rows[max(-delta, 0):]), self.trunc)

    def q_projection(self) -> QSeries:
        """The q-series at z = 1: the sum of the rows."""
        zero = (0,) * (self.trunc + 1)
        return QSeries._make([sum(col) for col in zip(zero, *self.rows)], self.trunc)

    def z_moment(self) -> QSeries:
        """d/dz at z = 1: the sum of the rows, row a weighted by a."""
        weighted = [[a * c for c in row] for a, row in enumerate(self.rows)]
        return ZQPoly._make(weighted, self.trunc).q_projection()

    def dump(self) -> str:
        """Per z-degree, a ``z <degree>`` header then the series dump."""
        return "\n".join(f"z {z}\n{self.z_coeff(z).dump()}" for z in self.z_degrees())

    def __repr__(self):
        return f"ZQPoly(z_degrees={list(self.z_degrees())}, trunc={self.trunc})"


def one_plus_zq_product(offset: int, trunc: int, step: int = 1) -> ZQPoly:
    """Product of (1 + z q^(offset + i*step)) over all exponents <= trunc.
    An offset of 0 includes the factor (1 + z)."""
    _check_ints(offset=offset, trunc=trunc, step=step)
    if offset < 0 or step < 1:
        raise ValueError("offset must be >= 0 and step >= 1")
    rows = [[1] + [0] * trunc]
    _apply_z_factors(rows, [((1, e, 1),) for e in range(offset, trunc + 1, step)])
    return ZQPoly._make(rows, trunc)
