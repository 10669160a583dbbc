"""Acceptance suite: one test per criterion, printing one line per criterion.

Every comparison is exact integer equality.  Criteria 2, 3, 5 and 6 build
the partial-sum identities I2, I4 and I6 in the corrected complement form
and assert that it agrees with enumeration.  The subtracted
(inclusion-exclusion) form, which is the default of ``verify`` and of the
CLI, restricts small part sizes that the stratification leaves free; the
same four criteria pin exactly where it first disagrees (q^8 for chain
length 1) and print it in their detail lines.
"""

import time

from qpl.core import (
    Convention,
    Overpartition,
    count_parts_above,
    min_excludant_size,
    smallest_positive_repeating_size,
)
from qpl.enumeration import (
    ClassTag,
    basis_elements,
    distinct_congruent_partitions,
    iter_overpartitions,
    overpartitions_of,
)
from qpl.identities import (
    brute_force,
    closed_form,
    overpartition_series,
    theorem_count_check,
    verify,
)
from qpl.separable import (
    DecompositionWitness,
    bf_bijection_from_distinct,
    bf_bijection_to_distinct,
    bl_bijection_from_distinct,
    bl_bijection_to_distinct,
    compose,
    decompose,
    is_member,
    toggle_extreme_overline,
)
from qpl.series import QSeries, gaussian_binomial, q_pochhammer


def _length_residue(length, k):
    """The representative of length mod k in 1..k."""
    return (length - 1) % k + 1


def iter_basis_elements(family, k, max_weight):
    """Basis elements of every part count with weight <= max_weight."""
    for m in range(1, max_weight + 1):  # the all-ones element has weight m
        yield from basis_elements(family, k, m, max_weight=max_weight)


def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {number}: {status}{suffix}")
    return ok


def _first_mismatch(report):
    if report.passed:
        return ""
    m = report.mismatches[0]
    where = f"q^{m.q}" if m.z is None else f"z^{m.z} q^{m.q}"
    return f"{report.identity}{report.params} differs at {where}: {m.lhs} != {m.rhs}"


def _first_difference(report):
    """(q, lhs, rhs) of a report's first mismatch, or None if it passed."""
    if report.passed:
        return None
    m = report.mismatches[0]
    return m.q, m.lhs, m.rhs


def _difference_text(first):
    return "nowhere" if first is None else f"q^{first[0]} ({first[1]} != {first[2]})"


# Where the subtracted I2 form first disagrees with enumeration, per chain
# length r: (q, closed form, enumeration); the first failure lands at q^(3r+5).
SUBTRACTED_I2_FIRST = {1: (8, 246, 238), 2: (11, 1266, 1258), 3: (14, 4978, 4970)}


def test_criterion_01_overpartition_counts():
    start = time.perf_counter()
    series = overpartition_series(30)
    counts = [len(list(overpartitions_of(n))) for n in range(31)]
    elapsed = time.perf_counter() - start
    ok = counts == list(series.coeffs) and counts[4] == 14 and elapsed < 10.0
    assert _report(1, ok, f"counts to n=30 in {elapsed:.1f}s"), (counts[:8], elapsed)


def test_criterion_02_sigma_mes_closed_form():
    start = time.perf_counter()
    reports = [verify("I2", {"r": r, "form": "corrected"}, 30) for r in (1, 2, 3)]
    spot = brute_force("I2", {"r": 2, "form": "corrected"}, 4).coeff(4)
    subtracted = {r: _first_difference(verify("I2", {"r": r, "form": "subtracted"}, 30))
                  for r in (1, 2, 3)}
    elapsed = time.perf_counter() - start
    ok = (all(r.passed for r in reports) and spot == 40 and elapsed < 30.0
          and subtracted == SUBTRACTED_I2_FIRST)
    detail = f"sigma_2_mes(4)={spot}, {elapsed:.1f}s; subtracted form first differs at " + \
        ", ".join(f"r={r} {_difference_text(d)}" for r, d in subtracted.items())
    bad = [_first_mismatch(r) for r in reports if not r.passed]
    if bad:
        detail += "; " + bad[0]
    assert _report(2, ok, detail), (bad, subtracted)


def test_criterion_03_sigma_mes_specialization():
    base = closed_form("I1", {}, 30)[0]
    corrected = closed_form("I2", {"r": 1, "form": "corrected"}, 30)[0]
    subtracted = closed_form("I2", {"r": 1, "form": "subtracted"}, 30)[0]
    brute = brute_force("I2", {"r": 1, "form": "corrected"}, 30)
    agree_base = base == brute
    agree_corrected = corrected == base
    first = next(((i, a, b) for i, (a, b) in enumerate(zip(base.coeffs, subtracted.coeffs))
                  if a != b), None)
    ok = agree_base and agree_corrected and first == (8, 238, 246)
    detail = ("I1, corrected r=1 form and enumeration agree"
              if agree_base and agree_corrected else
              f"I1 = enumeration: {agree_base}, corrected r=1 form = I1: {agree_corrected}")
    detail += f"; subtracted r=1 form first differs from I1 at {_difference_text(first)}"
    assert _report(3, ok, detail), (agree_base, agree_corrected, first)


def test_criterion_04_sigma_maes_closed_form():
    reports = [verify("I3", {"r": r}, 30) for r in (1, 2, 3)]
    spot = brute_force("I3", {"r": 2}, 6).coeff(6)
    ok = all(r.passed for r in reports) and spot == 42
    detail = f"sigma_2_maes(6)={spot}, omega(n) reading"
    if not ok:
        alternates = [verify("I3", {"r": r, "w_reading": "omega_1_n"}, 30)
                      for r in (1, 2, 3)]
        detail += ("; alternate reading passes"
                   if all(a.passed for a in alternates)
                   else "; alternate reading fails too")
    assert _report(4, ok, detail), [_first_mismatch(r) for r in reports]


def test_criterion_05_bridge_identity():
    report = verify("I4", {"form": "corrected"}, 30)
    subtracted = _first_difference(verify("I4", {"form": "subtracted"}, 30))
    ok = report.passed and subtracted == (8, 138, 146)
    detail = f"subtracted form first differs at {_difference_text(subtracted)}"
    if not report.passed:
        detail = _first_mismatch(report) + "; " + detail
    assert _report(5, ok, detail), (_first_mismatch(report), subtracted)


def test_criterion_06_repeating_size_lemmas():
    reports = []
    for r in (1, 2, 3):
        reports.append(verify("I5", {"r": r}, 30))
        reports.append(verify("I8", {"r": r}, 30))
        for n in range(1, 9):
            reports.append(verify("I6", {"r": r, "n": n, "form": "corrected"}, 30))
        for m in range(1, 9):
            reports.append(verify("I9", {"r": r, "m": m}, 30))
    subtracted = _first_difference(verify("I6", {"r": 1, "n": 2, "form": "subtracted"}, 30))
    bad = [r for r in reports if not r.passed]
    ok = not bad and subtracted == (6, 32, 36)
    detail = f"{len(reports) - len(bad)}/{len(reports)} instances hold"
    if bad:
        detail += "; " + _first_mismatch(bad[0])
    detail += f"; subtracted I6 r=1 n=2 first differs at {_difference_text(subtracted)}"
    assert _report(6, ok, detail), ([_first_mismatch(r) for r in bad[:4]], subtracted)


def test_criterion_07_bivariate_generators():
    ok = True
    details = []
    for r in (1, 2, 3):
        mes_report = verify("I7", {"r": r}, 20)
        maes_report = verify("I10", {"r": r}, 20)
        mes_marked = brute_force("I7", {"r": r}, 20)
        maes_marked = brute_force("I10", {"r": r}, 20)
        moments_ok = (
            mes_marked.z_moment() == brute_force("I2", {"r": r}, 20)
            and maes_marked.z_moment() == brute_force("I3", {"r": r}, 20)
            and maes_marked.z_moment() == closed_form("I3", {"r": r}, 20)[0]
        )
        ok = ok and mes_report.passed and maes_report.passed and moments_ok
        if not (mes_report.passed and maes_report.passed and moments_ok):
            details.append(f"r={r} failed")
    assert _report(7, ok, "generators and moment checks, r<=3, q^20"), details


def test_criterion_08_theorem_counts():
    reports = [theorem_count_check(which, n, r)
               for which in ("Thm2_1", "Thm2_2")
               for n in range(0, 17) for r in (1, 2, 3)]
    counts_ok = all(r.passed for r in reports)

    def pair_count(n, r, key):
        total = 0
        for pi in iter_overpartitions(n):
            kk = min_excludant_size(pi, r)
            if (kk, count_parts_above(pi, kk)) == key:
                total += 1
        return total

    worked = pair_count(4, 2, (1, 1)) == 2 and pair_count(4, 2, (4, 0)) == 4
    both2 = 0
    for pi in iter_overpartitions(6):
        small = smallest_positive_repeating_size(pi, 2)
        if small == 2 and count_parts_above(pi, 2, inclusive=True) == 3:
            both2 += 1
    worked = worked and both2 == 2
    ok = counts_ok and worked
    assert _report(8, ok, "all (k, j) pairs for n<=16, r<=3"), \
        [r.params for r in reports if not r.passed]


def test_criterion_09_class_generating_functions():
    reports = [verify(ident, {"k": k}, 20)
               for ident in ("I11", "I12") for k in (1, 2, 3, 4)]
    l2 = brute_force("I11", {"k": 2}, 4).q_projection().coeff(4)
    f2 = brute_force("I12", {"k": 2}, 4).q_projection().coeff(4)
    ok = all(r.passed for r in reports) and l2 == 12 and f2 == 9
    assert _report(9, ok, f"k<=4 to q^20; totals at q^4: L_2={l2}, F_2={f2}"), \
        [_first_mismatch(r) for r in reports if not r.passed]


BL25 = {"1,1,1,1,1", "2~,1,1,1,1", "2,2,2~,1,1", "3~,2,2~,1,1",
        "1,1,1,1,1~", "2~,1,1,1,1~", "2,2,2~,1,1~", "3~,2,2~,1,1~"}
BF25 = {"1,1,1,1,1", "2,1~,1,1,1", "2,2,2,1~,1", "3,2~,2,1~,1"}


def test_criterion_10_basis_cardinalities():
    got_bl = {lam.text() for lam in basis_elements("BL", 2, 5)}
    got_bf = {lam.text() for lam in basis_elements("BF", 2, 5)}
    ok = got_bl == BL25 and got_bf == BF25
    for k in (1, 2, 3):
        for parts in range(1, 13):
            blocks = (parts - 1) // k + 1
            s = (parts - 1) % k + 1
            ok = ok and len(basis_elements("BL", k, parts)) == 2 ** blocks
            want_bf = 2 ** blocks if s == k else 2 ** (blocks - 1)
            ok = ok and len(basis_elements("BF", k, parts)) == want_bf
    assert _report(10, ok, "element lists at 5 parts; counts to 12 parts, k<=3")


def test_criterion_11_basis_polynomial_theorems():
    start = time.perf_counter()
    bad = []
    for k in (1, 2, 3):
        for m in range(1, 8):
            for s in range(1, k + 1):
                for j in range(1, m + 2):
                    tri = j * (j - 1) // 2
                    trunc = k * tri + s * j + k * m + k * j * (m - j) + 2
                    for ident in ("I13", "I14"):
                        report = verify(ident, {"k": k, "m": m, "s": s, "j": j},
                                        trunc)
                        if not report.passed:
                            bad.append(_first_mismatch(report))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    assert _report(11, ok, f"k<=3, m<=7, all s, j in {elapsed:.1f}s"), bad[:4]


def _pads(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        if first * slots < total:
            break
        for rest in _pads(total - first, slots - 1):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _witness_count(pi, family, k):
    found = 0
    for lam in basis_elements(family, k, pi.num_parts, max_weight=pi.weight):
        for pad in _pads(pi.weight - lam.weight, pi.num_parts):
            try:
                if compose(DecompositionWitness(lam, pad)) == pi:
                    found += 1
            except ValueError:
                pass
    return found


def test_criterion_12_decomposition():
    ok = True
    for k in (1, 2, 3):
        for family, class_family in (("BL", "L"), ("BF", "F")):
            tag = ClassTag(class_family, k)
            for n in range(1, 21):
                for pi in iter_overpartitions(n, tag.convention):
                    if not is_member(pi, tag):
                        continue
                    witness = decompose(pi, family, k)
                    ok = ok and compose(witness) == pi
                    if n <= 12:
                        ok = ok and _witness_count(pi, family, k) == 1
    assert _report(12, ok, "round trip n<=20, uniqueness n<=12, k<=3")


def test_criterion_13_bijections():
    cap = 25
    ok = True
    details = []
    for k in (1, 2, 3):
        bl_primed, bl_doubled, bf_primed, bf_doubled = {}, {}, {}, {}
        for lam in iter_basis_elements("BL", k, cap):
            s = _length_residue(lam.num_parts, k)
            key = (lam.weight, s, lam.largest_size)
            target = bl_primed if lam.has_overlined(1) else bl_doubled
            target.setdefault(key, []).append(lam)
        for lam in iter_basis_elements("BF", k, cap):
            s = _length_residue(lam.num_parts, k)
            key = (lam.weight, s, lam.largest_size)
            target = bf_primed if lam.has_overlined(lam.largest_size) else bf_doubled
            target.setdefault(key, []).append(lam)
        keys = set(bl_primed) | set(bl_doubled) | set(bf_doubled) | set(bf_primed)
        for n in range(1, cap + 1):
            for s in range(1, k + 1):
                max_j = next(j for j in range(1, n + 2)
                             if s * (j + 1) + k * (j + 1) * j // 2 > n)
                for j in range(1, max_j + 1):
                    keys.add((n, s, j))
        for n, s, j in sorted(keys):
            want = {p.parts for p in distinct_congruent_partitions(n, j, k, s)}
            primed = bl_primed.get((n, s, j), [])
            images = {bl_bijection_to_distinct(lam, k, s).parts for lam in primed}
            if not (len(images) == len(primed) and images == want):
                ok = False
                details.append(f"BL' k={k} {(n, s, j)}")
            if any(bl_bijection_from_distinct(
                    bl_bijection_to_distinct(lam, k, s), k, s) != lam
                   for lam in primed):
                ok = False
                details.append(f"BL' round trip k={k} {(n, s, j)}")
            doubled = bl_doubled.get((n, s, j), [])
            if len(doubled) != len(want):
                ok = False
                details.append(f"BL'' count k={k} {(n, s, j)}")
            if any(toggle_extreme_overline(lam, "BL") not in primed
                   for lam in doubled):
                ok = False
                details.append(f"BL toggle k={k} {(n, s, j)}")
            bf2 = bf_doubled.get((n, s, j), [])
            images = {bf_bijection_to_distinct(lam, k, s).parts for lam in bf2}
            if not (len(images) == len(bf2) and images == want):
                ok = False
                details.append(f"BF'' k={k} {(n, s, j)}")
            if any(bf_bijection_from_distinct(
                    bf_bijection_to_distinct(lam, k, s), k, s) != lam
                   for lam in bf2):
                ok = False
                details.append(f"BF'' round trip k={k} {(n, s, j)}")
            if s == k and len(bf_primed.get((n, s, j), [])) != len(want):
                ok = False
                details.append(f"BF' count k={k} {(n, s, j)}")
    assert _report(13, ok, "image sets, injectivity, round trips to n<=25"), details[:5]


def test_criterion_14_series_kernel():
    start = time.perf_counter()
    euler = verify("I15", {}, 40)
    lhs, rhs = closed_form("I15", {}, 40)
    euler_z = all(lhs.z_coeff(z) == rhs.z_coeff(z) for z in range(0, 13))
    recurrence_ok = True
    palindrome_ok = True
    for k in (1, 2, 3, 4):
        for a in range(1, 13):
            for b in range(0, a + 1):
                recurrence_ok = recurrence_ok and \
                    verify("I16", {"A": a, "B": b, "k": k}, k * b * (a - b)).passed
                coeffs = gaussian_binomial(a, b, k).coeffs
                palindrome_ok = palindrome_ok and coeffs == coeffs[::-1] \
                    and min(coeffs) >= 0
    summation_ok = all(verify("I17", {"k": k, "j": j}, 40).passed
                       for k in (1, 2, 3) for j in range(1, 7))
    elapsed = time.perf_counter() - start
    ok = (euler.passed and euler_z and recurrence_ok and palindrome_ok
          and summation_ok and elapsed < 5.0)
    assert _report(14, ok, f"Euler q^40, binomials A<=12, sums q^40 in {elapsed:.1f}s")
