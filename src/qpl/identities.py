"""Catalog of the closed-form identities, their brute-force counterparts,
and the comparison engine.

Every catalog entry (I1..I19) pairs series built purely from the exact
series kernel with, where one exists, a combinatorial side computed by full
enumeration.  Verification compares all sides coefficientwise at a common
truncation and reports every mismatch; failures are data, not errors.

Identity overview:

  I1   total minimal-excludant-size series at chain length 1, closed form
  I2   total minimal-excludant-size series, general chain length r
  I3   total maximal-excludant-size series, general chain length r
  I4   bridge between the I1-style sum and the I2 form at r = 1
  I5   overpartitions stratified by largest repeating size, full sum
  I6   ... partial sum: largest repeating size at most n-1
  I7   bivariate generator marking the minimal excludant size by z
  I8   overpartitions with some positive repeating size
  I9   ... with smallest positive repeating size at most m
  I10  bivariate generator marking the maximal excludant size by z
  I11  z-marked generating function of the L_k class
  I12  z-marked generating function of the F_k class
  I13  L-basis polynomials: plain plus overlined largest part, closed form
  I14  F-basis polynomials: the plain and overlined closed forms
  I15  Euler's product expansion of sum z^j q^(j choose 2) / (q;q)_j
  I16  q-binomial recurrence in the base q^k
  I17  summation of shifted q-binomials
  I18  L-basis subsets against distinct congruent partitions
  I19  F-basis subsets against distinct congruent partitions
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import cache
from itertools import count, islice, zip_longest
from math import comb, inf
from operator import add

from .core import (
    _Record,
    count_parts_above,
    largest_repeating_size,
    max_excludant_size,
    min_excludant_size,
    smallest_positive_repeating_size,
)
from .enumeration import (
    ClassTag,
    _swept,
    weighted_profiles,
)
from .separable import _basis_histograms, _overlinable_sizes, basis_gf
from .series import (
    QSeries,
    ZQPoly,
    _apply_factors,
    _apply_z_factors,
    _binomial_ladder,
    _omega_factor,
    _stride,
    gaussian_binomial,
    omega_product,
    one_plus_zq_product,
    q_pochhammer,
)

BRUTE_TRUNC_GUARD = 40
SERIES_TRUNC_GUARD = 400

W_READING_DEFAULT = "omega_n"
W_READINGS = ("omega_n", "omega_1_n")

# I2, I4 and I6 exist in two variants.  The default "subtracted" form
# expresses the partial sum over the largest repeating size by
# inclusion-exclusion, subtracting a product that restricts every size
# below n to at most r copies; that product does not generate the set it
# must (largest repeating size 0 or >= n allows small sizes to repeat), so
# the subtracted forms disagree with enumeration from q^8 on (chain
# length 1).  "corrected" replaces the complement with the product that
# does generate the partial sum: sizes below n unrestricted, sizes >= n at
# most r each; it agrees with enumeration and the acceptance criteria
# assert it.  The subtracted variant stays the default so that the
# finding shows in the default report; its first mismatches are pinned in
# tests/test_identities.py and tests/test_acceptance.py.
FORM_DEFAULT = "subtracted"
FORMS = ("subtracted", "corrected")

IDENTITY_IDS = tuple(f"I{i}" for i in range(1, 20))


# ---------------------------------------------------------------------------
# reports


class Mismatch(_Record):
    """One coefficient where two sides differ: of q^q, and of z^z where the
    sides are z-marked (``z`` is None otherwise)."""

    __slots__ = _fields = ("q", "z", "lhs", "rhs")

    def __init__(self, q: int, z: int | None, lhs: int, rhs: int):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class VerificationReport(_Record):
    """One verified instance.  ``params`` is frozen to its sorted
    ``(name, value)`` pairs, so a report is hashable; ``to_dict`` gives the
    mapping back.  ``status`` is "pass" or "fail"."""

    __slots__ = _fields = ("identity", "params", "trunc", "status", "mismatches")

    def __init__(self, identity: str, params, trunc: int, status: str, mismatches: tuple):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", tuple(sorted(dict(params).items())))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "mismatches", mismatches)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "trunc": self.trunc,
            "status": self.status,
            "mismatches": [
                {"q": m.q, "z": m.z, "lhs": str(m.lhs), "rhs": str(m.rhs)}
                for m in self.mismatches
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _diff(ref, other):
    """The coefficients where two sides differ, walked z-row by z-row (a
    QSeries is the single row z^0); z is None when both are QSeries."""
    marked = isinstance(ref, ZQPoly) or isinstance(other, ZQPoly)
    left, right = ((s.coeffs,) if isinstance(s, QSeries) else s.rows for s in (ref, other))
    out = []
    for z, (a, b) in enumerate(zip_longest(left, right, fillvalue=(0,) * (ref.trunc + 1))):
        if a != b:  # one tuple comparison passes over an equal row
            for i, (ca, cb) in enumerate(zip(a, b)):
                if ca != cb:
                    out.append(Mismatch(i, z if marked else None, ca, cb))
    return out


# ---------------------------------------------------------------------------
# shared closed-form pieces


def overpartition_series(trunc: int) -> QSeries:
    """Generating function counting all overpartitions by weight."""
    return q_pochhammer(-1, 1, None, trunc) / q_pochhammer(1, 1, None, trunc)


def _excludant_numerator(n: int, r: int, trunc: int) -> QSeries:
    """2 (q^n + 2 q^(2n) + ... + r q^(rn)) truncated."""
    c = [0] * (trunc + 1)
    for i in range(1, r + 1):
        if i * n > trunc:
            break
        c[i * n] = 2 * i
    return QSeries(c, trunc)


# ---------------------------------------------------------------------------
# enumeration sweeps (brute-force sides)
#
# The sweeps count instead of building one object per overpartition.  Every
# statistic the excludant sweep and theorem_count_check read (mes, maes, the
# repeating sizes, count_parts_above) depends only on the plain profile, so
# each profile adds its 2^d overpartitions at once.  Class membership tests
# each size on its own, so a profile with a sizes that may carry an overline
# adds C(a, z) members with z overlines.  separable._basis_histograms walks
# the basis elements of a family, read off enumeration._basis_family, and
# counts each as it pops it.  Each sweep still visits every profile or basis
# element and borrows nothing from the closed form it is compared with.
#
# One walk over the profiles (_profile_histograms) serves every chain
# length r and every class tag.  Each excludant statistic is a step
# function of r, so the walk counts each profile once per interval of r on
# which the statistic is constant, and _excludant_sweep(r, trunc) adds up
# the intervals that contain r, for any r, without walking again.  Each
# profile's records come down from its parent, so no profile is scanned.
# The walk also counts the profiles by their multiplicities, which fix the
# overlinable sizes of every (family, k).
#
# The profile, excludant and basis histograms live in one cache,
# enumeration._SWEEPS, read and filled through enumeration._swept.  basis_gf
# (I13, I14) and the I18/I19 sides read one basis walk per (family, k).  The
# per-weight counts and excludant totals are the q_projection and z_moment
# of the mes histogram (the maes histogram for the maximal excludant, whose
# zero values add nothing to the total).


def _profile_histograms(trunc: int) -> dict:
    """Every plain profile of weight <= trunc, visited once.

    "mes", "maes" and "rep" count overpartitions, 2^d per profile, by
    ``(lo, hi, weight, value)``: the statistic is ``value`` for every chain
    length lo <= r <= hi (hi is inf for the last interval).  The value is
    mes_r, maes_r when positive, or the largest and the smallest repeating
    size, 0 for none.  "mults" counts the profiles by their multiplicities
    from the bottom size up, then by weight.

    Each statistic is read off the first run of at least r of something in
    a scan, so only a run longer than every run before it, a record, starts
    a new interval.  One depth-first walk places sizes from the smallest up,
    so every node is a complete profile.  A child adds one size s above the
    top with some multiplicity, which opens one run of s - top - 1 absent
    sizes (for the bottom size, the run down to size 0), its least size
    top + 1 and its largest s - 1.  mes_r scans the runs from the bottom:
    the new run comes last, is appended when it is a record, and the run
    above the top stays open to hi = inf.  maes_r scans them from the top:
    the new run comes first, so when it is not empty it becomes the first
    record and drops the parent's records that are no longer.  The
    repeating sizes scan the multiplicities - 1 the same two ways; both
    lists end at the largest multiplicity - 1, so they share one list of
    joint intervals.
    """
    mes, maes, rep = Counter(), Counter(), Counter()
    mults = defaultdict(Counter)
    # A node: weight, top size, 2^d, multiplicities from the bottom up, the
    # mes records (lo, hi, value) and the least r they leave open, the maes
    # records (hi, value) from the top, and the repeating-size records
    # (hi, size) from the bottom and from the top.
    stack = [(0, 0, 1, (), (), 1, (), (), ())]
    pop, push = stack.pop, stack.append
    while stack:
        n, top, count, ms, low, lo, high, small, big = pop()
        for r, hi, value in low:
            mes[r, hi, n, value] += count
        mes[lo, inf, n, top + 1] += count
        r = 1
        for hi, value in high:
            maes[r, hi, n, value] += count
            r = hi + 1
        r = i = j = 0  # r: the last chain length covered
        while i < len(big):  # the joint intervals, to the last record
            (big_hi, big_size), (small_hi, small_size) = big[i], small[j]
            hi = min(big_hi, small_hi)
            rep[r + 1, hi, n, big_size, small_size] += count
            r = hi
            i += big_hi == hi
            j += small_hi == hi
        rep[r + 1, inf, n, 0, 0] += count
        mults[ms][n] += 1
        room, rep_hi = trunc - n, small[-1][0] if small else 0
        for s in range(top + 1, room + 1):
            gap = s - top - 1
            s_low, s_lo = (low + ((lo, gap, top + 1),), gap + 1) if gap >= lo else (low, lo)
            s_high = ((gap, s - 1),) + tuple(rec for rec in high if rec[0] > gap) if gap else high
            for m in range(1, room // s + 1):
                push((n + s * m, s, 2 * count, ms + (m,), s_low, s_lo, s_high,
                      small + ((m - 1, s),) if m - 1 > rep_hi else small,
                      ((m - 1, s),) + tuple(rec for rec in big if rec[0] >= m) if m > 1 else big))
    return {"mes": mes, "maes": maes, "rep": rep, "mults": mults}


def _profile_sweep(trunc: int) -> dict:
    return _swept(("profiles",), (trunc,), lambda: _profile_histograms(trunc))


def _excludant_sweep(r: int, trunc: int) -> dict:
    return _swept(("excludant", r), (trunc,), lambda: _excludant_histograms(r, trunc))


def _excludant_histograms(r: int, trunc: int) -> dict:
    """The profile histograms of the intervals that contain r."""
    steps = _profile_sweep(trunc)
    out = {}
    for name in ("mes", "maes", "rep"):
        hist = out[f"{name}_hist"] = defaultdict(int)
        for key, count in steps[name].items():
            if key[0] <= r <= key[1]:
                hist[key[2:]] += count
    return out


def _brute_rep_filtered(r: int, trunc: int, keep) -> QSeries:
    data = _excludant_sweep(r, trunc)
    c = [0] * (trunc + 1)
    for (w, big, small), count in data["rep_hist"].items():
        if w <= trunc and keep(big, small):
            c[w] += count
    return QSeries(c, trunc)


def _brute_class_marked(family: str, k: int, trunc: int) -> ZQPoly:
    tag = ClassTag(family, k)
    by_a = Counter()
    for mults, weights in _profile_sweep(trunc)["mults"].items():
        a = _overlinable_sizes(mults, tag)
        for n, count in weights.items():
            by_a[n, a] += count
    hist = Counter()
    for (n, a), count in by_a.items():
        for z in range(a + 1):
            hist[(n, z)] += count * comb(a, z)
    return ZQPoly.from_counts(hist, trunc)


def _brute_basis_marked(family: str, k: int, s: int, overlined: bool, trunc: int) -> ZQPoly:
    """Basis elements of weight <= trunc whose length is s (mod k) and whose
    end part (the smallest under BL, the largest under BF) is overlined or
    plain, as asked, marked by their overline count."""
    by_end = _basis_histograms(family, k, trunc, trunc)[1]
    return ZQPoly.from_counts(by_end.get((s % k, overlined), {}), trunc)


def _brute_distinct_marked(k: int, s: int, trunc: int) -> ZQPoly:
    """Partitions into distinct parts congruent to s (mod k) with weight
    <= trunc, marked by their number of parts: one depth-first walk that
    chooses parts in descending order and counts every partition once."""
    hist = Counter()
    stack = [(0, 0, trunc)]  # (weight, parts, bound on the next part)
    while stack:
        weight, count, cap = stack.pop()
        start = min(cap, trunc - weight)
        start -= (start - s) % k
        for part in range(start, s - 1, -k):
            w = weight + part
            hist[(w, count + 1)] += 1
            if part - k >= s and w + s <= trunc:
                stack.append((w, count + 1, part - k))
    return ZQPoly.from_counts(hist, trunc)


# ---------------------------------------------------------------------------
# closed forms


def _closed_i1_sum(trunc: int, start: int) -> QSeries:
    total = QSeries.zero(trunc)
    c = start
    while c * (c + 1) // 2 <= trunc:
        term = QSeries.monomial(c * (c + 1) // 2, 2**c, trunc)
        term = term / q_pochhammer(-1, 1, c, trunc)
        total = total + term
        c += 1
    return overpartition_series(trunc) * total


def _stepped_product(r: int, trunc: int, divide: bool):
    """Yield, for limit = 1, 2, ..., the overpartitions whose sizes below
    limit occur at most r times and whose larger sizes are free; with
    ``divide``, the reverse: sizes below limit free, larger ones at most r
    times.  Raising the limit past l trades size l's free factor
    (1 + q^l) / (1 - q^l) for omega_l, so both directions share one step,
    (1 + q^l - 2 q^((r+1)l)) / (1 + q^l), applied in place as a product or
    as a quotient.  The step is 1 once (r+1) l > trunc, so stepping stops
    there; every yield is a fresh series."""
    start = omega_product(1, None, r, trunc) if divide else overpartition_series(trunc)
    out = list(start.coeffs)
    for limit in count(1):
        yield QSeries._make(out, trunc)
        if (r + 1) * limit <= trunc:
            _apply_factors(out, [((limit, 1), ((r + 1) * limit, -2))], divide)
            _apply_factors(out, [((limit, 1),)], not divide)


def _partial_rep(form: str, r: int, trunc: int):
    """Yield, for limit = 1, 2, ..., the overpartitions whose largest
    repeating size is at most limit-1, in the form asked for; the one place
    the form is decided (see FORM_DEFAULT).  "corrected" is the stepped
    product with small sizes free; "subtracted" is the complement of the
    reverse product, which restricts small sizes it must leave free."""
    if form == "corrected":
        return _stepped_product(r, trunc, True)
    fixed = overpartition_series(trunc) + omega_product(1, None, r, trunc)
    return (fixed - product for product in _stepped_product(r, trunc, False))


def _closed_sigma_mes(r: int, trunc: int, form: str) -> QSeries:
    # Term n is exact in both forms: omega_n has constant term 1, and the
    # corrected partial at limit n over omega_n is the product over sizes > n.
    total = overpartition_series(trunc)
    for n, partial in zip(range(1, trunc + 1), _partial_rep(form, r, trunc)):
        term = list((_excludant_numerator(n, r, trunc) * partial).coeffs)
        _apply_factors(term, [_omega_factor(n, r, trunc)], divide=True)
        total = total + QSeries._make(term, trunc)
    return total


def _closed_sigma_maes(r: int, trunc: int, w_reading: str) -> QSeries:
    big = overpartition_series(trunc)
    none_repeating = omega_product(1, None, r, trunc)
    total = (big - none_repeating) * r
    lamb = [0] * (trunc + 1)
    for n in range(1, trunc + 1):
        for e in range(n, trunc + 1, 2 * n):
            lamb[e] += 2
    total = total + big * QSeries(lamb, trunc)
    # Term n: q^n omega_1 ... omega_(n-1) (-q^(n+1);q)_inf / (q^n;q)_inf (1 + w),
    # the stepped product at limit n over (1 + q^n), times q^n (1 + w).
    omegas = [1] + [0] * trunc  # omega_1 ... omega_n, stepped in place
    for n, product in zip(range(1, trunc + 1), _stepped_product(r, trunc, False)):
        term = [0] * n + list(product.coeffs[: trunc + 1 - n])
        _apply_factors(term, [((n, 1),)], divide=True)
        if w_reading == "omega_n":
            w_term = list(term)
            _apply_factors(w_term, [_omega_factor(n, r, trunc)])
        elif w_reading == "omega_1_n":
            _apply_factors(omegas, [_omega_factor(n, r, trunc)])
            w_term = (QSeries._make(term, trunc) * QSeries._make(omegas, trunc)).coeffs
        else:
            raise ValueError(f"unknown w reading {w_reading!r}")
        total = total - QSeries._make([a + b for a, b in zip(term, w_term)], trunc)
    return total


def _closed_bridge_rhs(trunc: int, form: str) -> QSeries:
    total = QSeries.zero(trunc)
    for n, partial in zip(range(1, trunc + 1), _partial_rep(form, 1, trunc)):
        factor = QSeries.monomial(n, 2, trunc) / q_pochhammer(-2, n, 1, trunc)
        total = total + factor * partial
    return total


def _rep_size_heads(r: int, trunc: int):
    """Yield, for j = 0, 1, ... while (r+1) j <= trunc, q^((r+1)j) (-1;q)_j /
    (q;q)_j: the sizes up to j, j repeated more than r times (1 at j = 0),
    each the one before times q^(r+1) (1 + q^(j-1)) / (1 - q^j)."""
    head = [1] + [0] * trunc
    for j in count(1):
        yield tuple(head)
        if (r + 1) * j > trunc:
            return
        head = [0] * (r + 1) + head[: trunc - r]
        _apply_factors(head, [((j - 1, 1),)])  # 1 + q^0 = 2 at j = 1
        _apply_factors(head, [((j, -1),)], divide=True)


def _largest_rep_sum(r: int, trunc: int, limit: int) -> QSeries:
    # Largest repeating size below limit: sum_(j < limit) head j
    # prod_(t > j) omega_t, summed Horner-style as in I7, without z.
    total = [0] * (trunc + 1)
    for j, head in zip(range(limit), _rep_size_heads(r, trunc)):
        total = [a + b for a, b in zip(total, head)]
        _apply_factors(total, [_omega_factor(j + 1, r, trunc)])
    _apply_factors(total, [_omega_factor(t, r, trunc) for t in range(j + 2, trunc + 1)])
    return QSeries._make(total, trunc)


def _smallest_rep_sum(r: int, trunc: int, limit: int) -> QSeries:
    # Smallest positive repeating size at most limit: term j is
    # 2 q^((r+1)j) P_j / (1 + q^j), P_j the stepped product at limit j.
    total = [0] * (trunc + 1)
    for j, product in zip(range(1, limit + 1), _stepped_product(r, trunc, False)):
        shift = (r + 1) * j
        if shift > trunc:
            break
        term = list(product.coeffs[: trunc + 1 - shift])
        _apply_factors(term, [((j, 1),)], divide=True)
        total[shift:] = [a + 2 * b for a, b in zip(total[shift:], term)]
    return QSeries._make(total, trunc)


def _closed_mes_marked(r: int, trunc: int) -> ZQPoly:
    # z sum_j q^((r+1)j) (-1;q)_j / (q;q)_j prod_{t > j} omega_t(z), where
    # omega_t(z) = 1 + 2 z q^t + 2 z^2 q^(2t) + ... + 2 z^r q^(rt).  Summed
    # Horner-style, innermost term first: add head j to the z-rows, then
    # apply omega_(j+1), so each factor is applied once, in place.  The term
    # (e, c) of omega_t carries z^(e // t).
    omegas = [[(e // t, e, c) for e, c in _omega_factor(t, r, trunc)] for t in range(1, trunc + 1)]
    rows = [[0] * (trunc + 1)]
    for j, head in enumerate(_rep_size_heads(r, trunc)):
        rows[0] = [a + b for a, b in zip(rows[0], head)]
        _apply_z_factors(rows, omegas[j:j + 1])
    _apply_z_factors(rows, omegas[j + 1:])
    return ZQPoly._make([[0] * (trunc + 1)] + rows, trunc)


def _closed_maes_marked(r: int, trunc: int) -> ZQPoly:
    # z^r sum_{j >= 1} 2 q^((r+1)j) omega_{1..j-1}(q) prod_{e > j} (1 + z q^e)
    # prod_{e >= j} 1 / (1 - z q^e), summed as in I7, each 1 / (1 - z q^e)
    # applied as a quotient; 2 omega_1 ... omega_(j-1) is a running prefix
    last = trunc // (r + 1)
    rows = [[0] * (trunc + 1)]
    prefix = [2] + [0] * trunc
    for j in range(1, last + 1):
        shift = (r + 1) * j
        rows[0][shift:] = [a + b for a, b in zip(rows[0][shift:], prefix)]
        _apply_z_factors(rows, [[(1, j + 1, 1)]])
        _apply_z_factors(rows, [[(1, j, -1)]], divide=True)
        _apply_factors(prefix, [_omega_factor(j, r, trunc)])
    _apply_z_factors(rows, [[(1, e, 1)] for e in range(last + 2, trunc + 1)])
    _apply_z_factors(rows, [[(1, e, -1)] for e in range(last + 1, trunc + 1)], divide=True)
    return ZQPoly._make([[0] * (trunc + 1)] * r + rows, trunc)


def _basis_exponent(k: int, m: int, s: int, j: int) -> int:
    """Lowest q-exponent of the basis polynomial with k(m-1)+s parts and
    largest part j: k*C(j,2) + s*j + k*(m-j)."""
    return k * (j * (j - 1) // 2) + s * j + k * (m - j)


def _closed_class_gf(family: str, k: int, trunc: int) -> ZQPoly:
    # 1 + sum over the part count L = k(m-1) + s of B_L / (q;q)_L, B_L the sum
    # over the largest part j of the basis polynomials q^e [m-1 choose j-1]
    # (I13, I14), Horner-style from the largest L down on z-rows: add B_L, then
    # divide every row by (1 - q^L).  Term (m, j) adds to z^(j-1), and to z^j
    # too under L or at s = k (F's overlined largest part: k*m parts).
    rows, rungs = [], {}
    for parts in range(trunc, 0, -1):
        m, s = (parts - 1) // k + 1, (parts - 1) % k + 1
        for j in range(1, m + 1):
            e = _basis_exponent(k, m, s, j)
            if e > trunc:
                break
            if j not in rungs:  # at j's largest m: copy rungs a = j-1 .. m-1, base q
                rungs[j] = [list(r) for r in
                            islice(_binomial_ladder(j - 1, trunc // k), m - j + 1)]
            z_rows = range(j - 1, j + 1 if family == "L" or s == k else j)
            rows.extend([0] * (trunc + 1) for _ in range(z_rows.stop - len(rows)))
            for z in z_rows:  # [m-1 choose j-1] is rung m - j, placed with stride k
                rows[z][e::k] = map(add, rows[z][e::k], rungs[j][m - j])
        for row in rows:
            _apply_factors(row, [((parts, -1),)], divide=True)
    return ZQPoly._make(rows, trunc) + 1


def _closed_basis_poly(k: int, m: int, s: int, j: int, trunc: int, z_rows: range) -> ZQPoly:
    """q^e [m-1 choose j-1] at each z-degree in ``z_rows``."""
    base = QSeries.monomial(_basis_exponent(k, m, s, j), 1, trunc)
    coeffs = (base * gaussian_binomial(m - 1, j - 1, k, trunc)).coeffs
    return ZQPoly._make([(0,) * (trunc + 1)] * z_rows.start + [coeffs] * len(z_rows), trunc)


def _shifted_binomial_sum(k: int, j: int, trunc: int) -> QSeries:
    """sum over m >= j of q^(k(m-j)) [m-1 choose j-1] in the base q^k,
    each binomial stepped from the one before it (rung a = m - 1).  The sum
    is taken in the base q to q^(trunc // k), then placed with stride k."""
    n = trunc // k
    total = [0] * (n + 1)
    for shift, rung in zip(range(n + 1), _binomial_ladder(j - 1, n)):
        total[shift:] = [x + y for x, y in zip(total[shift:], rung)]
    return QSeries._make(_stride(total, k, trunc), trunc)


def _closed_euler_lhs(trunc: int) -> ZQPoly:
    # sum_j z^j q^C(j,2) / (q;q)_j: row j is row j-1 times q^(j-1), divided
    # by (1 - q^j).
    rows = [[1] + [0] * trunc]
    j = 1
    while j * (j - 1) // 2 <= trunc:
        row = ([0] * (j - 1) + rows[-1])[: trunc + 1]
        _apply_factors(row, [((j, -1),)], divide=True)
        rows.append(row)
        j += 1
    return ZQPoly._make(rows, trunc)


def _closed_distinct_gf(k: int, s: int, trunc: int) -> ZQPoly:
    return one_plus_zq_product(s, trunc, step=k) - ZQPoly.one(trunc)


# ---------------------------------------------------------------------------
# catalog
#
# A builder returns the equations of one instance as lists of lazy sides.
# Nothing is computed until a side is evaluated, so each caller pays only
# for the sides it reads: verify evaluates them all, closed_form only the
# closed sides of the first equation and brute_force only the first
# enumeration side.  A value that several sides read is built once.


class Side(_Record):
    """One side of an equation: its label, its kind ("closed" or "brute")
    and ``build``, a zero-argument callable that computes it."""

    __slots__ = _fields = ("label", "kind", "build")

    def __init__(self, label: str, kind: str, build):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "build", build)

    def evaluate(self):
        return self.build()


def _build_i1(p, n):
    return [[
        Side("closed form", "closed", lambda: _closed_i1_sum(n, 0)),
        Side("enumerated excludant totals", "brute",
             lambda: ZQPoly.from_counts(_excludant_sweep(1, n)["mes_hist"], n).z_moment()),
    ]]


def _build_i2(p, n):
    r, form = p["r"], p["form"]
    return [[
        Side("closed form", "closed", lambda: _closed_sigma_mes(r, n, form)),
        Side("enumerated excludant totals", "brute",
             lambda: ZQPoly.from_counts(_excludant_sweep(r, n)["mes_hist"], n).z_moment()),
    ]]


def _build_i3(p, n):
    r, w_reading = p["r"], p["w_reading"]
    return [[
        Side("closed form", "closed", lambda: _closed_sigma_maes(r, n, w_reading)),
        Side("enumerated excludant totals", "brute",
             lambda: ZQPoly.from_counts(_excludant_sweep(r, n)["maes_hist"], n).z_moment()),
    ]]


def _build_i4(p, n):
    form = p["form"]

    def totals_minus_counts():
        mes = ZQPoly.from_counts(_excludant_sweep(1, n)["mes_hist"], n)
        return mes.z_moment() - mes.q_projection()

    return [[
        Side("weighted triangular sum", "closed", lambda: _closed_i1_sum(n, 1)),
        Side("telescoped form", "closed", lambda: _closed_bridge_rhs(n, form)),
        Side("enumerated totals minus counts", "brute", totals_minus_counts),
    ]]


def _build_i5(p, n):
    r = p["r"]
    return [[
        Side("sum over largest repeating size", "closed",
             lambda: _largest_rep_sum(r, n, n + 1)),
        Side("overpartition series", "closed", lambda: overpartition_series(n)),
        Side("enumerated counts", "brute",
             lambda: ZQPoly.from_counts(_excludant_sweep(1, n)["mes_hist"], n).q_projection()),
    ]]


def _build_i6(p, n):
    r, limit, form = p["r"], p["n"], p["form"]
    return [[
        Side("partial sum over largest repeating size", "closed",
             lambda: _largest_rep_sum(r, n, limit)),
        # the partials stop changing by limit n + 1; a larger bound reads that one
        Side("complement form", "closed",
             lambda: next(islice(_partial_rep(form, r, n), min(limit, n + 1) - 1, None))),
        Side("enumerated counts", "brute",
             lambda: _brute_rep_filtered(r, n, lambda big, small: big <= limit - 1)),
    ]]


def _build_i7(p, n):
    r = p["r"]
    return [[
        Side("closed form", "closed", lambda: _closed_mes_marked(r, n)),
        Side("enumerated z-marked sum", "brute",
             lambda: ZQPoly.from_counts(_excludant_sweep(r, n)["mes_hist"], n)),
    ]]


def _build_i8(p, n):
    r = p["r"]
    return [[
        Side("sum over smallest repeating size", "closed",
             lambda: _smallest_rep_sum(r, n, n)),
        Side("complement form", "closed",
             lambda: overpartition_series(n) - omega_product(1, None, r, n)),
        Side("enumerated counts", "brute",
             lambda: _brute_rep_filtered(r, n, lambda big, small: small > 0)),
    ]]


def _build_i9(p, n):
    r, limit = p["r"], p["m"]
    return [[
        Side("partial sum over smallest repeating size", "closed",
             lambda: _smallest_rep_sum(r, n, limit)),
        # sizes up to m at most r times and larger ones free, at limit m + 1
        Side("complement form", "closed",
             lambda: overpartition_series(n)
             - next(islice(_stepped_product(r, n, False), min(limit, n), None))),
        Side("enumerated counts", "brute",
             lambda: _brute_rep_filtered(r, n, lambda big, small: 0 < small <= limit)),
    ]]


def _build_i10(p, n):
    r = p["r"]
    return [[
        Side("closed form", "closed", lambda: _closed_maes_marked(r, n)),
        Side("enumerated z-marked sum", "brute",
             lambda: ZQPoly.from_counts(_excludant_sweep(r, n)["maes_hist"], n)),
    ]]


def _build_i11(p, n):
    k = p["k"]
    return [[
        Side("closed form", "closed", lambda: _closed_class_gf("L", k, n)),
        Side("class enumeration", "brute", lambda: _brute_class_marked("L", k, n)),
    ]]


def _build_i12(p, n):
    k = p["k"]
    return [[
        Side("closed form", "closed", lambda: _closed_class_gf("F", k, n)),
        Side("class enumeration", "brute", lambda: _brute_class_marked("F", k, n)),
    ]]


def _build_i13(p, n):
    k, m, s, j = p["k"], p["m"], p["s"], p["j"]
    parts = k * (m - 1) + s
    return [[
        Side("closed form", "closed",
             lambda: _closed_basis_poly(k, m, s, j, n, range(j - 1, j + 1))),
        Side("basis enumeration", "brute",
             lambda: basis_gf("BL", k, parts, j, False, n) + basis_gf("BL", k, parts, j, True, n)),
    ]]


def _build_i14(p, n):
    k, m, s, j = p["k"], p["m"], p["s"], p["j"]
    parts = k * (m - 1) + s
    return [
        [
            Side("closed form, plain largest part", "closed",
                 lambda: _closed_basis_poly(k, m, s, j, n, range(j - 1, j))),
            Side("basis enumeration", "brute", lambda: basis_gf("BF", k, parts, j, False, n)),
        ],
        [
            Side("closed form, overlined largest part", "closed",
                 lambda: _closed_basis_poly(k, m, k, j, n, range(j, j + 1))),
            Side("basis enumeration", "brute", lambda: basis_gf("BF", k, k * m, j, True, n)),
        ],
    ]


def _build_i15(p, n):
    return [[
        Side("series sum", "closed", lambda: _closed_euler_lhs(n)),
        # (1 + z) prod_{e >= 1} (1 + z q^e)
        Side("product form", "closed", lambda: one_plus_zq_product(0, n)),
    ]]


def _build_i16(p, n):
    a, b, k = p["A"], p["B"], p["k"]
    return [[
        Side("binomial", "closed", lambda: gaussian_binomial(a, b, k, n)),
        Side("recurrence", "closed",
             lambda: gaussian_binomial(a - 1, b - 1, k, n)
             + gaussian_binomial(a - 1, b, k, n).shift(k * b)),
    ]]


def _build_i17(p, n):
    k, j = p["k"], p["j"]
    return [[
        Side("binomial sum", "closed", lambda: _shifted_binomial_sum(k, j, n)),
        Side("reciprocal product", "closed",
             lambda: QSeries.one(n) / q_pochhammer(1, k, j, n, step=k)),
    ]]


def _build_i18(p, n):
    k, s = p["k"], p["s"]
    closed = cache(lambda: _closed_distinct_gf(k, s, n))
    return [
        [
            Side("product form", "closed", closed),
            Side("basis elements, overlined smallest part", "brute",
                 lambda: _brute_basis_marked("BL", k, s, True, n)),
            Side("distinct congruent partitions", "brute", lambda: _brute_distinct_marked(k, s, n)),
        ],
        [
            Side("product form over z", "closed", lambda: closed().z_shift(-1)),
            Side("basis elements, plain smallest part", "brute",
                 lambda: _brute_basis_marked("BL", k, s, False, n)),
        ],
    ]


def _build_i19(p, n):
    k, s = p["k"], p["s"]
    # Keyed by residue, so the two equations share one value when s == k.
    closed = cache(lambda residue: _closed_distinct_gf(k, residue, n))
    distinct = cache(lambda residue: _brute_distinct_marked(k, residue, n))
    return [
        [
            Side("product form", "closed", lambda: closed(k)),
            Side("basis elements, overlined largest part", "brute",
                 lambda: _brute_basis_marked("BF", k, k, True, n)),
            Side("distinct congruent partitions", "brute", lambda: distinct(k)),
        ],
        [
            Side("product form over z", "closed", lambda: closed(s).z_shift(-1)),
            Side("basis elements, plain largest part", "brute",
                 lambda: _brute_basis_marked("BF", k, s, False, n)),
            Side("distinct congruent partitions over z", "brute",
                 lambda: distinct(s).z_shift(-1)),
        ],
    ]


# Every catalog parameter and the values it takes: the least value of an
# integer, or the choices of a string.  The CLI builds one flag per entry.
PARAMETERS = {
    "r": 1, "k": 1, "n": 1, "m": 1, "s": 1, "j": 1, "A": 1, "B": 0,
    "w_reading": W_READINGS, "form": FORMS,
}


def _check_param(name: str, value, domain=None):
    """``value`` if it lies in ``domain`` (by default the parameter's own, from
    PARAMETERS); a ValueError otherwise."""
    domain = PARAMETERS[name] if domain is None else domain
    if isinstance(domain, tuple):
        if value not in domain:
            raise ValueError(f"{name} must be one of {domain}")
    elif type(value) is not int or value < domain:  # bool is an int subclass
        kind = "positive" if domain else "nonnegative"
        raise ValueError(f"parameter {name} must be a {kind} integer")
    return value


class Identity(_Record):
    """A catalog entry.  ``grid`` is the default grid: each parameter and
    its values, in loop order; a range that depends on an earlier parameter
    is a function of the point built so far.  ``param_names`` is every
    parameter the grid or the defaults name, in that order.

    I1-I12, I18 and I19 stop at BRUTE_TRUNC_GUARD: they walk profiles, or
    every basis element with no length cap (17,392 nodes for BL k=1 at
    weight 40, 203,964 at weight 60).  I13 and I14 cap their walk by part
    count and I15-I17 are series only, so they get SERIES_TRUNC_GUARD.
    """

    _fields = ("id", "builder", "grid", "defaults", "guard")
    __slots__ = (*_fields, "param_names")

    def __init__(self, id: str, builder, grid: dict, defaults: dict, guard: int):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "builder", builder)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "defaults", defaults)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "param_names", tuple(dict.fromkeys([*grid, *defaults])))

    def normalize(self, params) -> dict:
        params, names = dict(params or {}), self.param_names
        out = dict(self.defaults)
        for name, value in params.items():
            if name not in names:
                raise ValueError(f"{self.id} takes no parameter {name!r}")
            out[name] = value
        for name in names:
            if name not in out:
                raise ValueError(f"{self.id} requires parameter {name!r}")
            out[name] = _check_param(name, out[name])
        if "s" in out and "k" in out and not out["s"] <= out["k"]:
            raise ValueError("parameter s must satisfy 1 <= s <= k")
        return out


_R = {"r": (1, 2, 3)}
_KS = {"k": (1, 2, 3), "s": lambda p: range(1, p["k"] + 1)}
_KMSJ = {"k": (1, 2, 3), "m": range(1, 8), "s": _KS["s"], "j": lambda p: range(1, p["m"] + 1)}

IDENTITIES = {
    e.id: e
    for e in [
        Identity("I1", _build_i1, {}, {}, BRUTE_TRUNC_GUARD),
        Identity("I2", _build_i2, {**_R, "form": FORMS}, {"form": FORM_DEFAULT},
                 BRUTE_TRUNC_GUARD),
        Identity("I3", _build_i3, _R, {"w_reading": W_READING_DEFAULT}, BRUTE_TRUNC_GUARD),
        Identity("I4", _build_i4, {"form": FORMS}, {"form": FORM_DEFAULT}, BRUTE_TRUNC_GUARD),
        Identity("I5", _build_i5, _R, {}, BRUTE_TRUNC_GUARD),
        Identity("I6", _build_i6, {**_R, "n": range(1, 9), "form": FORMS},
                 {"form": FORM_DEFAULT}, BRUTE_TRUNC_GUARD),
        Identity("I7", _build_i7, _R, {}, BRUTE_TRUNC_GUARD),
        Identity("I8", _build_i8, _R, {}, BRUTE_TRUNC_GUARD),
        Identity("I9", _build_i9, {**_R, "m": range(1, 9)}, {}, BRUTE_TRUNC_GUARD),
        Identity("I10", _build_i10, _R, {}, BRUTE_TRUNC_GUARD),
        Identity("I11", _build_i11, {"k": range(1, 5)}, {}, BRUTE_TRUNC_GUARD),
        Identity("I12", _build_i12, {"k": range(1, 5)}, {}, BRUTE_TRUNC_GUARD),
        Identity("I13", _build_i13, _KMSJ, {}, SERIES_TRUNC_GUARD),
        Identity("I14", _build_i14, _KMSJ, {}, SERIES_TRUNC_GUARD),
        Identity("I15", _build_i15, {}, {}, SERIES_TRUNC_GUARD),
        Identity("I16", _build_i16, {"k": range(1, 5), "A": range(1, 13),
                                     "B": lambda p: range(p["A"] + 1)}, {}, SERIES_TRUNC_GUARD),
        Identity("I17", _build_i17, {"k": (1, 2, 3), "j": range(1, 7)}, {}, SERIES_TRUNC_GUARD),
        Identity("I18", _build_i18, _KS, {}, BRUTE_TRUNC_GUARD),
        Identity("I19", _build_i19, _KS, {}, BRUTE_TRUNC_GUARD),
    ]
}


def _entry(identity: str) -> Identity:
    """The catalog entry of an identity id; an unknown id is a ValueError."""
    try:
        return IDENTITIES[identity]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise ValueError(f"unknown identity {identity!r}") from None


def _check_trunc(trunc) -> int:
    """``trunc`` if it is a nonnegative int; a ValueError otherwise."""
    if type(trunc) is not int or trunc < 0:  # bool is an int subclass
        raise ValueError(f"truncation must be a nonnegative integer (got {trunc!r})")
    return trunc


def _resolve(identity: str, params, trunc: int):
    """The normalized parameters and the lazy equations of one instance,
    once the truncation has passed the entry's guard."""
    entry = _entry(identity)
    params = entry.normalize(params)
    if _check_trunc(trunc) > entry.guard:
        raise ValueError(
            f"{entry.id} is limited to truncation {entry.guard} (got {trunc})"
        )
    return params, entry.builder(params, trunc)


def _report(identity: str, params: dict, trunc: int, mismatches: list) -> VerificationReport:
    mismatches.sort(key=lambda m: (m.q, -1 if m.z is None else m.z))
    return VerificationReport(
        identity=identity,
        params=params,
        trunc=trunc,
        status="pass" if not mismatches else "fail",
        mismatches=tuple(mismatches),
    )


def closed_form(identity: str, params=None, trunc: int = 25):
    """The identity's written sides built from series primitives only.

    Returns the first and last closed sides of the identity's primary
    equation; where that equation has one closed side (its other written
    side is the enumeration), both elements are that closed form.
    """
    _, equations = _resolve(identity, params, trunc)
    closed = [side for side in equations[0] if side.kind == "closed"]
    first = closed[0].evaluate()
    return first, closed[-1].evaluate() if len(closed) > 1 else first


def brute_force(identity: str, params=None, trunc: int = 25):
    """The identity's combinatorial side, computed by full enumeration."""
    _, equations = _resolve(identity, params, trunc)
    for eq in equations:
        for side in eq:
            if side.kind == "brute":
                return side.evaluate()
    raise ValueError(f"{identity} has no enumeration side")


def verify(identity: str, params=None, trunc: int = 25) -> VerificationReport:
    """Compare every side of the identity coefficientwise."""
    params, equations = _resolve(identity, params, trunc)
    mismatches = []
    for eq in equations:
        ref = eq[0].evaluate()
        for other in eq[1:]:
            mismatches.extend(_diff(ref, other.evaluate()))
    return _report(identity, params, trunc, mismatches)


def catalog_instances(trunc: int, identities=None, overrides=None) -> list:
    """``(identity, params, trunc)`` for every default-grid instance, in
    catalog order, with the truncation capped at each entry's guard.

    ``identities`` is a collection of ids, every id when empty or None; a
    bare string or an unknown id is a ValueError, and so is a truncation
    that is not a nonnegative int.  An override of a parameter with a fixed
    range replaces that range, and the ranges that depend on it follow it
    (``k`` = 2 gives I18 s = 1, 2).  An override of a parameter whose range
    depends on the point keeps the points whose range holds it (``s`` = 2
    gives I18 k = 2, 3; ``j`` = 5 gives I13 m = 5..7; ``B`` = 5 gives I16
    A = 5..12).  Entries that do not take an override keep their grid, but
    an override that no selected entry takes, a value outside the
    parameter's domain, or an entry left with no grid point is an error.
    """
    _check_trunc(trunc)
    if isinstance(identities, str):
        raise ValueError(f"identities must be a collection of ids, not {identities!r}")
    identities = tuple(identities or IDENTITY_IDS)
    entries = [_entry(identity) for identity in identities]
    overrides = dict(overrides or {})
    for name, value in overrides.items():
        if not any(name in entry.param_names for entry in entries):
            raise ValueError(f"{'/'.join(identities)} takes no parameter {name!r}")
        _check_param(name, value)  # before a range is built from it
    instances = []
    for identity, entry in zip(identities, entries):
        fixed = {n: v for n, v in overrides.items() if n in entry.param_names}
        points = [{}]
        for name in {**entry.grid, **fixed}:  # an override keeps its parameter's place
            values = entry.grid.get(name, ())
            if name in fixed:
                v = fixed[name]
                points = [{**p, name: v} for p in points if not callable(values) or v in values(p)]
            else:
                points = [{**p, name: v} for p in points
                          for v in (values(p) if callable(values) else values)]
        if not points:
            where = ", ".join(f"{n} = {v}" for n, v in fixed.items())
            raise ValueError(f"{identity} has no grid point with {where}")
        instances += [(identity, p, min(trunc, entry.guard)) for p in points]
    return instances


def verify_all(trunc: int = 25, identities=None):
    """Verify the whole catalog on the default grids, in catalog order."""
    return [verify(*instance) for instance in catalog_instances(trunc, identities)]


def theorem_count_check(which: str, n: int, r: int) -> VerificationReport:
    """Count-level check of the two excludant/repeating-size relations.

    Both sides are encoded as bivariate polynomials whose q-axis carries the
    excludant value and whose z-axis carries the part-count parameter, so a
    mismatch at (q=k, z=j) pinpoints the failing pair.  The truncation field
    records the weight n.
    """
    if which not in ("Thm2_1", "Thm2_2"):
        raise ValueError("which must be Thm2_1 or Thm2_2")
    n = _check_param("n", n, 0)
    r = _check_param("r", r)
    if n > BRUTE_TRUNC_GUARD:
        raise ValueError(f"n must lie in 0..{BRUTE_TRUNC_GUARD}")
    axis = n + 2
    lhs = Counter()
    rhs = Counter()
    # Every statistic read here depends only on the plain profile.
    for pi, count in weighted_profiles(n):
        if which == "Thm2_1":
            kk = min_excludant_size(pi, r)
            lhs[(kk, count_parts_above(pi, kk))] += count
            big = largest_repeating_size(pi, r)
            rhs[(count_parts_above(pi, big) + 1, big)] += count
        else:
            kk = max_excludant_size(pi, r)
            if kk >= 1:
                lhs[(kk, count_parts_above(pi, kk))] += count
            small = smallest_positive_repeating_size(pi, r)
            if small is not None:
                rhs[(count_parts_above(pi, small, inclusive=True) - 1, small)] += count
    mismatches = _diff(ZQPoly.from_counts(lhs, axis), ZQPoly.from_counts(rhs, axis))
    return _report(which, {"n": n, "r": r}, n, mismatches)
