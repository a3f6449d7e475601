"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact exhaustion at the stated desk-scale bounds; there are
no tolerances anywhere.  Run with ``pytest -v -s tests/test_acceptance.py``
to see the per-criterion lines as they complete.
"""

import time
from collections import Counter
from itertools import permutations

from oracles import inv_oracle, maj_oracle, q_binomial_oracle
from shufbij.perm import insert_in_space, space_labels
from shufbij.qpoly import add, gen_poly, stanley_refined_rhs, stanley_rhs
from shufbij.reduce import (
    SUPPORTED_STATS,
    apply_trace,
    canonicalize,
    maj_decrement,
)
from shufbij.shuffle import phi, shuffles, t_swap, word_of
from shufbij.stats import (
    chi_minus,
    chi_plus,
    des_set,
    distribution,
    evaluate,
    maj,
    peak_family,
    udr,
    valley_family,
)
from shufbij.verify import (
    check_compatibility,
    check_conjecture_udr_pk_des,
    find_counterexample,
)

SWEEP_STATS = (
    "Des", "Asc", "Pk", "Val", "Lpk", "Rpk", "Epk", "Lval", "Rval", "Eval",
    "des", "maj", ("maj", "des"), "pk", "lpk", "rpk", "epk", "udr", ("udr", "pk"),
)


def _report(number, label, ok):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_golden_worked_examples():
    started = time.perf_counter()
    problems = []

    def check(name, got, want):
        if got != want:
            problems.append(f"{name}: got {got!r}, want {want!r}")

    pi = (2, 1, 5, 7, 3, 6, 4)
    check("maj", maj(pi), 11)
    check("Des", des_set(pi), frozenset({1, 4, 6}))

    run = (6, 8, 5, 9, 3, 4)
    check("Des(catalog)", des_set(run), frozenset({2, 4}))
    check("chi_minus", chi_minus(run), 0)
    check("chi_plus", chi_plus(run), 1)
    check("Pk", peak_family(run, "interior"), frozenset({2, 4}))
    check("Val", valley_family(run, "interior"), frozenset({3, 5}))
    check("Lpk", peak_family(run, "left"), frozenset({2, 4}))
    check("Rpk", peak_family(run, "right"), frozenset({2, 4, 6}))
    check("Epk", peak_family(run, "exterior"), frozenset({2, 4, 6}))
    check("Lval", valley_family(run, "left"), frozenset({1, 3, 5}))
    check("Eval", valley_family(run, "exterior"), frozenset({1, 3, 5}))
    check("udr", udr(run), 5)

    check(
        "shuffle set",
        list(shuffles((1, 3, 2), (7, 6))),
        [
            (1, 3, 2, 7, 6), (1, 3, 7, 2, 6), (1, 3, 7, 6, 2), (1, 7, 3, 2, 6),
            (1, 7, 3, 6, 2), (1, 7, 6, 3, 2), (7, 1, 3, 2, 6), (7, 1, 3, 6, 2),
            (7, 1, 6, 3, 2), (7, 6, 1, 3, 2),
        ],
    )
    tau = (1, 4, 5, 3, 8, 2, 9)
    check("word", word_of(tau, (1, 3, 2), (4, 5, 8, 9)), "abbabab")
    check("phi", phi(tau, (1, 3, 2), (3, 6, 1), (4, 5, 8, 9)), (3, 4, 5, 6, 8, 1, 9))

    check("space labels", space_labels((2, 6, 5, 7, 8, 1)), (3, 4, 2, 5, 6, 1, 0))
    inserted = insert_in_space((2, 6, 5, 7, 8, 1), 9, 4)
    check("insertion", inserted, (2, 9, 6, 5, 7, 8, 1))
    check("insertion maj", maj(inserted), 11)

    check("t_swap distant", t_swap((5, 2, 4, 1, 3), 4), (5, 2, 3, 1, 4))
    check("t_swap adjacent", t_swap((5, 2, 3, 4, 1), 4), (5, 2, 3, 4, 1))

    maj_dist = Counter({4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 2, 10: 2, 11: 1, 12: 1})
    check("maj dist 4312/76", distribution("maj", shuffles((4, 3, 1, 2), (7, 6))), maj_dist)
    check("maj dist 2341/98", distribution("maj", shuffles((2, 3, 4, 1), (9, 8))), maj_dist)
    check(
        "Pk dist 241/73",
        distribution("Pk", shuffles((2, 4, 1), (7, 3))),
        Counter({
            frozenset({2}): 2, frozenset({3}): 4,
            frozenset({4}): 2, frozenset({2, 4}): 2,
        }),
    )

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s, bound is 1s")
    _report(1, "golden worked examples", not problems)
    assert not problems, problems


def test_criterion_2_identity_suite():
    started = time.perf_counter()
    problems = []
    for total in range(9):
        for m in range(total + 1):
            n = total - m
            for pi in permutations(range(1, m + 1)):
                for sigma in permutations(range(m + 1, total + 1)):
                    tau_set = shuffles(pi, sigma)
                    by_k: dict[int, list] = {}
                    for tau in tau_set:
                        by_k.setdefault(len(des_set(tau)), []).append(tau)
                    full = gen_poly("maj", tau_set)
                    if full != stanley_rhs(pi, sigma):
                        problems.append(f"maj identity fails at {pi}, {sigma}")
                    recombined = ()
                    for k in range(total + 1):
                        lhs = gen_poly("maj", by_k.get(k, []))
                        rhs = stanley_refined_rhs(pi, sigma, k)
                        if lhs != rhs:
                            problems.append(
                                f"refined identity fails at {pi}, {sigma}, k={k}"
                            )
                        recombined = add(recombined, rhs)
                    if recombined != full:
                        problems.append(f"refined sum mismatch at {pi}, {sigma}")
                    if problems:
                        break
                if problems:
                    break
            if problems:
                break
        if problems:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, bound is 120s")
    _report(2, "Stanley identity suite m+n<=8", not problems)
    assert not problems, problems


def test_criterion_3_compatibility_sweep():
    failures = []
    for stat in SWEEP_STATS:
        for total in range(8):
            for m in range(total + 1):
                for mode in ("reduced_pi", "reduced_sigma"):
                    report = check_compatibility(stat, m, total - m, mode=mode)
                    if not report.passed:
                        failures.append((stat, m, total - m, mode))
    _report(3, "compatibility sweep m+n<=7, both reduced modes", not failures)
    assert not failures, failures


def test_criterion_4_bijection_audits():
    failures = []
    for stat in SUPPORTED_STATS:
        for total in range(7):
            for m in range(total + 1):
                for pi in permutations(range(1, m + 1)):
                    for sigma in permutations(range(m + 1, total + 1)):
                        _, trace = canonicalize(stat, pi, sigma)
                        measures = (trace.start_measure,) + trace.measure_values
                        if any(a <= b for a, b in zip(measures, measures[1:])):
                            failures.append(("measure", stat, pi, sigma))
                            continue
                        source = shuffles(pi, sigma)
                        images = [apply_trace(trace, t) for t in source]
                        target = shuffles(trace.final_pi, trace.final_sigma)
                        if len(set(images)) != len(images) or sorted(images) != sorted(target):
                            failures.append(("bijection", stat, pi, sigma))
                            continue
                        drop = maj_decrement(trace)
                        for t, im in zip(source, images):
                            if stat == "maj":
                                ok = maj(im) == maj(t) - drop
                            elif stat == ("maj", "des"):
                                ok = maj(im) == maj(t) - drop and evaluate(
                                    "des", im
                                ) == evaluate("des", t)
                            else:
                                ok = evaluate(stat, im) == evaluate(stat, t)
                            if not ok:
                                failures.append(("pointwise", stat, pi, sigma, t, im))
                                break
    _report(4, "bijection audits m+n<=6", not failures)
    assert not failures, failures[:5]


def test_criterion_5_structural_identities():
    failures = []
    for m in range(2, 9):
        for pi in permutations(range(1, m + 1)):
            lpk = len(peak_family(pi, "left"))
            pk = len(peak_family(pi, "interior"))
            cm, cp = chi_minus(pi), chi_plus(pi)
            if udr(pi) != 2 * lpk + cp:
                failures.append(("udr=2lpk+chi+", pi))
            if udr(pi) != 2 * pk + 2 * cm + cp:
                failures.append(("udr=2pk+2chi-+chi+", pi))
            if lpk != pk + cm:
                failures.append(("lpk=pk+chi-", pi))
            if peak_family(pi, "exterior") != peak_family(pi, "left") | peak_family(
                pi, "right"
            ):
                failures.append(("Epk=Lpk|Rpk", pi))
    _report(5, "structural identities 2<=m<=8", not failures)
    assert not failures, failures[:5]


def test_criterion_6_negative_results():
    problems = []
    inv_report = find_counterexample("inv", 3)
    if inv_report.passed:
        problems.append("no inv witness found up to total 3")
    elif not inv_report.witness.recheck():
        problems.append("inv witness does not re-verify")

    biruns_report = find_counterexample("biruns", 7)
    if biruns_report.passed:
        problems.append("no biruns witness found up to total 7")
    else:
        w = biruns_report.witness
        if not w.recheck():
            problems.append("biruns witness does not re-verify")
        if len(w.pi) + len(w.sigma) > 7:
            problems.append("biruns witness exceeds the stated bound")
    _report(6, "negative results (inv, biruns)", not problems)
    assert not problems, problems


def test_criterion_7_inv_maj_equidistribution():
    # The literal claim "inv and maj have equal generating polynomials over
    # every shuffle set" is false: pi = (), sigma = 132 gives q for inv and
    # q^2 for maj.  What holds, for every separated pair (pi on [m], sigma on
    # m+[n]), is:
    #   1. gen_poly(inv) = q^(inv pi + inv sigma) [m+n choose m]_q, MacMahon's
    #      inv/maj equidistribution on the word a^m b^n lifted by the
    #      operands' own inversions;
    #   2. gen_poly(maj) = q^(maj pi + maj sigma) [m+n choose m]_q, the
    #      Stanley / Garsia-Gessel closed form;
    #   3. so the two agree exactly when the operand sums agree.
    # Pairs that are not separated are left out on purpose: there the inv
    # distribution is not a function of the operands at all (criterion 6),
    # so no inv/maj statement holds to check.  Operand sums and the
    # q-binomial come from the oracles, independent of the code under test.
    # The scan covers all 110,116 separated pairs with m+n <= 8.
    problems = []
    for total in range(9):
        for m in range(total + 1):
            q_binomial = q_binomial_oracle(total, m)
            for pi in permutations(range(1, m + 1)):
                for sigma in permutations(range(m + 1, total + 1)):
                    tau_set = shuffles(pi, sigma)
                    inv_poly = gen_poly("inv", tau_set)
                    maj_poly = gen_poly("maj", tau_set)
                    inv_sum = inv_oracle(pi) + inv_oracle(sigma)
                    maj_sum = maj_oracle(pi) + maj_oracle(sigma)
                    failed = []
                    if inv_poly != (0,) * inv_sum + q_binomial:
                        failed.append("1 (inv closed form)")
                    if maj_poly != (0,) * maj_sum + q_binomial:
                        failed.append("2 (maj closed form)")
                    if (inv_poly == maj_poly) != (inv_sum == maj_sum):
                        failed.append("3 (equal exactly when the sums are equal)")
                    if failed:
                        problems.append((pi, sigma, inv_poly, maj_poly,
                                         inv_sum, maj_sum, failed))
    _report(7, "inv/maj closed forms over separated shuffle sets m+n<=8", not problems)
    if problems:
        pi, sigma, inv_poly, maj_poly, inv_sum, maj_sum, failed = problems[0]
        raise AssertionError(
            f"{len(problems)} separated pair(s) fail; first: pi={pi}, "
            f"sigma={sigma}, failed check(s): {'; '.join(failed)}; "
            f"inv coefficients {inv_poly}, maj coefficients {maj_poly}, "
            f"inv pi + inv sigma = {inv_sum}, maj pi + maj sigma = {maj_sum}"
        )


def test_criterion_8_conjecture_evidence():
    problems = []
    for total in range(8):
        for m in range(total + 1):
            report = check_conjecture_udr_pk_des(m, total - m)
            if not report.passed:
                problems.append((m, total - m))
            if "not a proof" not in report.subject:
                problems.append("report is not labeled as evidence")
    _report(8, "(udr,pk,des) conjecture evidence m+n<=7", not problems)
    assert not problems, problems
