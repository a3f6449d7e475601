import json
import tracemalloc
from collections import Counter
from itertools import permutations, product
from math import comb

import pytest

from oracles import rename_in_order
from shufbij import reduce, stats, traces, verify
from shufbij.errors import ResourceLimitError
from shufbij.perm import descent_classes, least_with_descent_set, mask_positions
from shufbij.qpoly import stanley_refined_table, stanley_rhs
from shufbij.shuffle import class_pair_counts, shuffles
from shufbij.stats import CATALOG_TUPLES, DESCENT_NAMES, descent_rule, distribution
from shufbij.traces import ReductionTrace
from shufbij.verify import (
    check_bijection_pipeline,
    check_compatibility,
    check_conjecture_udr_pk_des,
    check_identity,
    find_counterexample,
    format_report,
    Report,
    Witness,
)


def test_compatibility_pk_reduced_pass():
    report = check_compatibility("pk", 3, 2, mode="reduced_pi")
    assert report.passed
    assert report.witness is None
    assert report.cases_checked == 6 * 2  # every pi on [3] against every sigma on [2]+3


def test_compatibility_inv_full_fails_with_reverifying_witness():
    report = check_compatibility("inv", 2, 1, mode="full")
    assert not report.passed
    w = report.witness
    assert w is not None
    assert w.recheck()
    assert w.dist_left != w.dist_right
    dists = {
        tuple(sorted(w.dist_left.elements())),
        tuple(sorted(w.dist_right.elements())),
    }
    assert dists == {(0, 1, 1), (0, 1, 2)}


def test_compatibility_trivial_empty_side():
    for mode in ("reduced_pi", "reduced_sigma", "full"):
        assert check_compatibility("Des", 3, 0, mode=mode).passed


def test_compatibility_des_both_reduced_modes_agree():
    for m, n in [(2, 2), (3, 1), (1, 3)]:
        a = check_compatibility("Des", m, n, mode="reduced_pi")
        b = check_compatibility("Des", m, n, mode="reduced_sigma")
        assert a.passed and b.passed


def test_reduced_modes_refuse_non_descent_statistics():
    for stat in ("inv", ("maj", "inv")):
        for mode in ("reduced_pi", "reduced_sigma"):
            with pytest.raises(ValueError, match="--mode full"):
                check_compatibility(stat, 3, 3, mode=mode)


def test_compatibility_resource_gate():
    with pytest.raises(ResourceLimitError):
        check_compatibility("des", 5, 6, mode="reduced_pi")
    with pytest.raises(ResourceLimitError):
        check_compatibility("des", 5, 6, mode="full")
    assert check_compatibility("des", 5, 6, mode="full", limit=11).passed


@pytest.mark.parametrize(
    "scan",
    [
        lambda m, n: check_compatibility("maj", m, n, "reduced_pi"),
        lambda m, n: check_compatibility("maj", m, n, "reduced_sigma"),
        lambda m, n: check_compatibility("maj", m, n, "full"),
        lambda m, n: check_identity("maj", m, n),
        lambda m, n: check_identity("maj_des", m, n),
        lambda m, n: check_identity("word_base", m, n),
        lambda m, n: check_conjecture_udr_pk_des(m, n),
        lambda m, n: find_counterexample("maj", m + n),
    ],
    ids=["reduced_pi", "reduced_sigma", "full", "maj", "maj_des", "word_base", "conjecture",
         "counterexample"],
)
def test_descent_scans_default_to_m_plus_n_10(scan, monkeypatch):
    """Every scan of a descent statistic reads class-pair tables, and one
    default bound covers them all."""
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL", raising=False)
    assert scan(1, 9).passed
    with pytest.raises(ResourceLimitError, match="m\\+n=11 exceeds the bound 10;"):
        scan(1, 10)


def test_scans_over_inv_default_to_m_plus_n_6(monkeypatch):
    """A scan over inv enumerates shuffle sets, in full mode as in the
    search; the search's refusal at 7 is pinned by
    test_find_counterexample_is_gated_before_scanning."""
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL", raising=False)
    for report in (check_compatibility("inv", 3, 3, "full"), find_counterexample("inv", 6)):
        assert not report.passed and report.witness.recheck()
    with pytest.raises(ResourceLimitError, match="m\\+n=7 exceeds the bound 6;"):
        check_compatibility("inv", 3, 4, "full")


@pytest.mark.parametrize("mode, m, n", [("reduced_sigma", 1, 7), ("full", 1, 7),
                                        ("reduced_pi", 7, 1)])
def test_maj_pk_fails_at_m_plus_n_8_within_the_default_bound(mode, m, n, monkeypatch):
    """(maj,Pk) first fails at |pi| = 1, |sigma| = 7, or its mirror; the
    default bound reaches it."""
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL", raising=False)
    report = check_compatibility(("maj", "Pk"), m, n, mode)
    assert not report.passed
    assert report.witness.recheck()


def test_a_reduced_mode_at_one_shape_is_not_full_compatibility():
    """With one pi class, reduced_pi compares nothing, so it passes the
    shape at which reduced_sigma and full fail (above)."""
    assert check_compatibility(("maj", "Pk"), 1, 7, "reduced_pi").passed


def test_compatibility_env_override(monkeypatch):
    monkeypatch.setenv("SHUFBIJ_MAX_TOTAL", "3")
    with pytest.raises(ResourceLimitError):
        check_compatibility("des", 2, 2, mode="reduced_pi")
    monkeypatch.setenv("SHUFBIJ_MAX_TOTAL", "bogus")
    with pytest.raises(ResourceLimitError):
        check_compatibility("des", 2, 2, mode="reduced_pi")


def test_bijection_pipeline_reports():
    report = check_bijection_pipeline("pk", (2, 1, 4, 3), (5,))
    assert report.passed
    assert report.cases_checked == 5

    report = check_bijection_pipeline("des", (1, 2), (4, 3, 5))
    assert report.passed
    assert "steps=0" in report.scope

    report = check_bijection_pipeline("maj", (1,), (3, 2))
    assert report.passed


def test_bijection_pipeline_rejects_unsupported():
    with pytest.raises(ValueError):
        check_bijection_pipeline("inv", (1, 2), (3,))


def test_bijection_pipeline_reports_a_move_that_keeps_maj(monkeypatch):
    # A descent move that only renames sigma, without moving its entry,
    # does not lower maj by one on every interleaving.
    monkeypatch.setattr(traces, "_des_move", lambda sigma, i, sigma_new:
                        lambda tau: rename_in_order(tau, sigma, sigma_new))
    report = check_bijection_pipeline("maj", (1,), (2, 4, 3))
    assert report.outcome == "fail"
    assert not report.passed
    assert "statistic not preserved" in report.subject
    assert "not a bijection" not in report.subject
    assert report.witness is not None
    assert report.witness.dist_left != report.witness.dist_right
    assert "outcome: FAIL" in format_report(report)


def test_bijection_pipeline_lowers_only_the_maj_component(monkeypatch):
    # (maj,des) keeps des and lowers maj by one per descent move; the same
    # rename-only move as above keeps neither on every interleaving.
    assert check_bijection_pipeline(("maj", "des"), (1,), (2, 4, 3)).passed
    monkeypatch.setattr(traces, "_des_move", lambda sigma, i, sigma_new:
                        lambda tau: rename_in_order(tau, sigma, sigma_new))
    report = check_bijection_pipeline(("maj", "des"), (1,), (2, 4, 3))
    assert report.outcome == "fail"
    assert "statistic not preserved" in report.subject


def test_bijection_pipeline_reports_colliding_images(monkeypatch):
    # A peak move that sends every interleaving to the same one.
    monkeypatch.setattr(
        traces, "_peak_move",
        lambda src, tgt, j, append=False: lambda tau: tgt + tuple(v for v in tau if v not in src),
    )
    report = check_bijection_pipeline("pk", (2, 1, 4, 3), (5,))
    assert report.outcome == "fail"
    assert "not a bijection onto the canonical shuffle set" in report.subject
    assert report.witness is not None
    assert report.to_json()["outcome"] == "fail"


def _forge_traces(monkeypatch, forge):
    """Make the audit read each real trace with the fields ``forge(trace)``
    returns replaced.  The audit calls ``reduce.canonicalize`` through the
    module, which it binds on first use."""
    real = reduce.canonicalize

    def forged(stat, pi, sigma):
        side, trace = real(stat, pi, sigma)
        return side, trace._replace(**forge(trace))

    monkeypatch.setattr(reduce, "canonicalize", forged)


def test_trace_replace_and_make_build_through_the_fields():
    """``len`` of a trace counts its steps, yet ``_replace`` and ``_make``
    build a trace of any number of steps."""
    _, trace = reduce.canonicalize("maj", (1,), (2, 4, 3))
    assert len(trace) == 2 and len(trace._fields) == 7
    empty = trace._replace(steps=())
    assert len(empty) == 0 and not empty
    assert type(empty) is ReductionTrace
    assert empty[2:] == trace[2:] and empty.statistic == "maj"
    assert trace._replace(start_measure=9) == (*trace[:6], 9)
    assert ReductionTrace._make(tuple(trace)) == trace
    assert len(ReductionTrace._make(trace)) == 2
    with pytest.raises(TypeError):
        ReductionTrace._make(tuple(trace)[:6])
    with pytest.raises(ValueError, match="unexpected field names"):
        trace._replace(steps=(), stepz=())


def test_bijection_pipeline_audits_an_empty_trace_off_the_start_pair(monkeypatch):
    # No step ran, yet the trace claims another final pair: its shuffle set
    # is the target, not the start pair's.
    _forge_traces(monkeypatch, lambda trace: {"steps": ()})
    report = check_bijection_pipeline("des", (2, 1), (3, 5, 4))
    assert not report.passed
    assert report.subject == (
        "reduction pipeline for des: replay is not a bijection onto the canonical shuffle set"
    )
    assert report.cases_checked == 10


def test_bijection_pipeline_anchors_on_the_operands_not_the_traced_start(monkeypatch):
    """An empty trace that claims to start where it ends, at a pair other
    than the operands, still fails: the audit replays the operands' shuffle
    set, whatever start pair the trace records."""
    _forge_traces(monkeypatch, lambda trace: {
        "steps": (), "start_pi": trace.final_pi, "start_sigma": trace.final_sigma})
    for stat, pi, sigma in [("des", (2, 1), (3, 5, 4)), ("pk", (2, 1, 4, 3), (5, 6))]:
        report = check_bijection_pipeline(stat, list(pi), sigma)
        assert not report.passed
        assert report.subject == (f"reduction pipeline for {stat}: "
                                  "replay is not a bijection onto the canonical shuffle set")
        assert "steps=0" in report.scope


def test_bijection_pipeline_passes_an_empty_trace_on_the_start_pair(monkeypatch):
    _forge_traces(monkeypatch, lambda trace: {
        "steps": (), "final_pi": trace.start_pi, "final_sigma": trace.start_sigma})
    for stat, pi, sigma in [("des", (2, 1), (3, 5, 4)), ("pk", (2, 1, 4, 3), (5, 6))]:
        report = check_bijection_pipeline(stat, pi, sigma)
        assert report.passed, report.subject
        assert report.cases_checked == comb(len(pi) + len(sigma), len(pi))
        assert "steps=0" in report.scope


def test_bijection_pipeline_lists_no_shuffle_set_for_a_canonical_pair(monkeypatch):
    """A canonical pair's trace has no step and ends on its start pair: the
    audit passes it without listing a shuffle set, with the report of an
    audit that lists them."""
    canonical = set()
    for stat in reduce.SUPPORTED_STATS:
        for m in range(6):
            for pi, sigma in product(permutations(range(1, m + 1)), permutations(range(m + 1, 6))):
                _, trace = reduce.canonicalize(stat, pi, sigma)
                canonical.add((stat, trace.final_pi, trace.final_sigma))
    assert {stat for stat, _, _ in canonical} == set(reduce.SUPPORTED_STATS)
    assert {len(pi) for _, pi, _ in canonical} == set(range(6))  # m = 0 and n = 0 among them
    for stat, pi, sigma in canonical:
        trace = reduce.canonicalize(stat, pi, sigma)[1]
        assert not trace.steps and (trace.final_pi, trace.final_sigma) == (pi, sigma)
    listed = {pair: check_bijection_pipeline(*pair).to_json() for pair in canonical}

    def no_shuffles(*args):
        raise AssertionError("the audit of a canonical pair listed a shuffle set")

    monkeypatch.setattr(verify, "shuffles", no_shuffles)
    for pair in canonical:
        assert check_bijection_pipeline(*pair).to_json() == listed[pair], pair
        assert listed[pair]["outcome"] == "pass"


def test_bijection_pipeline_treats_list_operands_as_their_tuples(monkeypatch):
    """The audit compares the trace's final pair with the operands as
    tuples, so list operands list no shuffle set for a canonical pair
    either, and get the report of the tuple call."""
    real, calls = verify.shuffles, []
    monkeypatch.setattr(verify, "shuffles", lambda *args: calls.append(args) or real(*args))
    as_lists = check_bijection_pipeline("des", [1, 2], [4, 3, 5])
    as_tuples = check_bijection_pipeline("des", (1, 2), (4, 3, 5))
    assert calls == []
    assert as_lists.to_json() == as_tuples.to_json()
    assert format_report(as_lists) == format_report(as_tuples)
    assert as_lists.passed and as_lists.cases_checked == 10


def test_bijection_pipeline_reports_a_measure_that_does_not_drop(monkeypatch):
    _forge_traces(monkeypatch, lambda trace: {
        "start_measure": trace.measure_values[0]})
    report = check_bijection_pipeline("maj", (1,), (2, 4, 3))
    assert not report.passed
    assert "measures not strictly decreasing" in report.subject
    assert "not a bijection" not in report.subject
    assert "statistic not preserved" not in report.subject


def test_bijection_pipeline_size_bound(monkeypatch):
    def no_canonicalize(*args):
        raise AssertionError("canonicalize ran before the size bound")

    monkeypatch.setattr(reduce, "canonicalize", no_canonicalize)
    monkeypatch.setenv("SHUFBIJ_MAX_TOTAL", "3")
    with pytest.raises(ResourceLimitError, match="set SHUFBIJ_MAX_TOTAL to allow it$"):
        check_bijection_pipeline("des", (1, 2), (3, 4))
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL")
    with pytest.raises(ResourceLimitError, match="m\\+n=21 exceeds the bound 20"):
        check_bijection_pipeline("des", tuple(range(1, 12)), tuple(range(12, 22)))


def test_identity_reports():
    assert check_identity("maj", 2, 2).passed
    assert check_identity("maj_des", 2, 2).passed
    assert check_identity("word_base", 3, 4).passed
    word_base = check_identity("word_base", 3, 3)
    assert word_base.scope == "increasing pair pi=1,2,3, sigma=4,5,6"
    assert word_base.cases_checked == 1
    assert check_identity("maj", 3, 3).scope == "all pi on [3], sigma on [3]+3"
    assert check_identity("maj", 0, 3).passed
    with pytest.raises(ValueError):
        check_identity("nope", 1, 1)
    with pytest.raises(ResourceLimitError):
        check_identity("maj", 6, 5)


@pytest.mark.parametrize(
    "check",
    [
        lambda m, n: check_compatibility("maj", m, n),
        lambda m, n: check_compatibility("inv", m, n, mode="full"),
        lambda m, n: check_identity("maj", m, n),
        lambda m, n: check_identity("word_base", m, n),
        lambda m, n: check_conjecture_udr_pk_des(m, n),
    ],
    ids=["reduced", "full", "identity", "word_base", "conjecture"],
)
@pytest.mark.parametrize("m, n", [(-1, 3), (3, -1), (-2, -2)])
def test_negative_sizes_refused(check, m, n):
    with pytest.raises(ValueError, match="sizes must be nonnegative"):
        check(m, n)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 1), (0, 3)])
@pytest.mark.parametrize("at", ["first", "last"])
def test_refined_identity_reads_every_k(at, m, n, monkeypatch):
    """A closed form wrong only at k = 0, or only at k = m+n, fails the
    maj_des identity: one count more at k descents, one above the largest
    maj there (at maj 0 when there is none)."""
    right = verify._closed_form
    k = 0 if at == "first" else m + n

    def wrong_at_one_k(which, *shape_and_label):
        assert (which, *shape_and_label[:2]) == ("maj_des", m, n)
        form = right(which, *shape_and_label)
        top = max((maj + 1 for des, maj in form if des == k), default=0)
        return {**form, (k, top): 1}

    assert check_identity("maj_des", m, n).passed
    monkeypatch.setattr(verify, "_closed_form", wrong_at_one_k)
    report = check_identity("maj_des", m, n)
    assert not report.passed
    assert report.subject == f"identity maj_des: refined identity fails at k={k}"


@pytest.mark.parametrize("which, builds", [("maj", 1), ("maj_des", 25), ("word_base", 1)])
def test_identity_builds_each_closed_form_once(which, builds, monkeypatch):
    """At 5+5 the 256 class pairs have 25 pairs of descent counts: the maj
    form at maj sum 0 is built once per call, the refined one once per
    (des pi, des sigma), and each pair shifts it by its maj sum."""
    right, built = verify._closed_form, []

    def counted(*args):
        built.append(args[:5])
        return right(*args)

    monkeypatch.setattr(verify, "_closed_form", counted)
    assert check_identity(which, 5, 5).passed
    assert len(built) == len(set(built)) == builds


def test_closed_forms_of_labels_match_least_members():
    """For every class pair with m+n <= 8, the closed form of the label read
    off the two bitmasks (des, maj by the rule ``check_identity`` reads)
    equals the closed forms of the pair's least members."""
    rule, pairs = descent_rule(("des", "maj")), 0
    for total in range(9):
        for m in range(total + 1):
            n = total - m
            for (mask_pi, _), (mask_sigma, _) in product(descent_classes(m), descent_classes(n)):
                pi = least_with_descent_set(range(1, m + 1), mask_positions(mask_pi))
                sigma = least_with_descent_set(range(m + 1, total + 1), mask_positions(mask_sigma))
                (des_pi, maj_pi), (des_sigma, maj_sigma) = rule(mask_pi, m), rule(mask_sigma, n)
                label = (des_pi, des_sigma, maj_pi + maj_sigma)
                maj_form = {e: c for e, c in enumerate(stanley_rhs(pi, sigma)) if c}
                refined = {(k, e): c for k, poly in enumerate(stanley_refined_table(pi, sigma))
                           for e, c in enumerate(poly) if c}
                assert verify._closed_form("maj", m, n, *label) == maj_form, (pi, sigma)
                assert verify._closed_form("word_base", m, n, *label) == maj_form, (pi, sigma)
                assert verify._closed_form("maj_des", m, n, *label) == refined, (pi, sigma)
                pairs += 1
    assert pairs == sum(2 ** max(m - 1, 0) * 2 ** max(t - m - 1, 0)
                        for t in range(9) for m in range(t + 1))


def test_identity_counts_pairs():
    report = check_identity("maj", 4, 2)
    assert report.passed
    assert report.cases_checked == 48


def test_find_counterexample_inv():
    report = find_counterexample("inv", 3)
    assert not report.passed
    w = report.witness
    assert w.recheck()
    assert len(w.pi) + len(w.sigma) == 3


def test_find_counterexample_biruns_within_7():
    report = find_counterexample("biruns", 7)
    assert not report.passed
    assert report.witness.recheck()
    assert len(report.witness.pi) + len(report.witness.sigma) <= 7


def test_find_counterexample_rejects_negative_bound():
    with pytest.raises(ValueError, match=">= 0"):
        find_counterexample("maj", -3)


def test_find_counterexample_is_gated_before_scanning(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned past the bound")

    monkeypatch.setattr(verify, "_full_scan", no_scan)
    with pytest.raises(ResourceLimitError, match="m\\+n=11 exceeds the bound 10"):
        find_counterexample("maj", 11)
    with pytest.raises(ResourceLimitError, match="m\\+n=7 exceeds the bound 6"):
        find_counterexample("inv", 7)
    with pytest.raises(ResourceLimitError, match="bound 6"):
        find_counterexample(("des", "inv"), 7)
    with pytest.raises(ResourceLimitError, match="bound 3; pass a larger limit \\(--limit\\) to"):
        find_counterexample("maj", 5, limit=3)


def test_find_counterexample_explicit_limit_allows_more():
    report = find_counterexample("inv", 3, limit=3)
    assert not report.passed
    assert find_counterexample("Des", 4, limit=4).passed


def test_find_counterexample_des_passes_in_scope():
    report = find_counterexample("Des", 5)
    assert report.passed
    assert report.witness is None


def test_conjecture_sweep():
    report = check_conjecture_udr_pk_des(3, 3)
    assert report.passed
    assert "evidence" in report.subject
    assert "not a proof" in report.subject
    assert check_conjecture_udr_pk_des(1, 1).passed


def test_conjecture_counts_both_reduced_modes():
    # 2!·3! pairs in reduced_pi, and as many again in reduced_sigma.
    report = check_conjecture_udr_pk_des(2, 3)
    assert report.passed
    assert report.cases_checked == 24
    assert report.cases_checked == sum(
        check_compatibility(("udr", "pk", "des"), 2, 3, mode=mode).cases_checked
        for mode in ("reduced_pi", "reduced_sigma")
    )


INCOMPATIBLE = ("biruns", ("biruns", "des"))
COMPATIBLE = [stat for stat in (*DESCENT_NAMES, *CATALOG_TUPLES) if stat not in INCOMPATIBLE]


def test_passing_scans_never_walk(monkeypatch):
    """A scan passes on one comparison of its table: with the locate walk
    made to raise, every scan of a compatible catalog statistic passes to
    m+n = 7, in both reduced modes, full mode and the search, and so does
    the conjecture."""
    def no_walk(*args):
        raise AssertionError("a passing scan walked its class pairs")

    monkeypatch.setattr(verify, "_first_failure", no_walk)
    splits = [(m, total - m) for total in range(8) for m in range(total + 1)]
    for stat in COMPATIBLE:
        for (m, n), mode in product(splits, ("reduced_pi", "reduced_sigma", "full")):
            assert check_compatibility(stat, m, n, mode).passed, (stat, m, n, mode)
        assert find_counterexample(stat, 7).passed, stat
    for m, n in splits:
        assert check_conjecture_udr_pk_des(m, n).passed, (m, n)


@pytest.mark.parametrize("scan, cases, witness", [
    (lambda: find_counterexample("biruns", 7), 83,
     ((1, 2), (1, 2), (3, 4), (4, 3), "biruns")),
    (lambda: check_compatibility(("maj", "Pk"), 1, 7, "reduced_sigma"), 43,
     ((1,), (1,), (2, 3, 4, 5, 8, 7, 6), (5, 4, 3, 2, 7, 6, 8), ("maj", "Pk"))),
])
def test_a_failing_scan_walks_once(scan, cases, witness, monkeypatch):
    """A failing scan walks its class pairs once, to locate the failure,
    and reports the cases and witness of a pair-by-pair scan; the
    witness's distributions are its members' (``recheck``)."""
    walks = []
    walk = verify._first_failure
    monkeypatch.setattr(verify, "_first_failure", lambda *args: walks.append(args) or walk(*args))
    report = scan()
    w = report.witness
    assert len(walks) == 1
    assert report.cases_checked == cases
    assert (w.pi, w.pi_prime, w.sigma, w.sigma_prime, w.statistic) == witness
    assert w.recheck()


def test_each_entry_point_decides_descent_ness_once(monkeypatch):
    """``verify`` asks whether the statistic is a descent statistic at most
    once per entry-point call: not again for the default bound, the mode
    check or each split of a search."""
    real, calls = verify.is_descent_statistic, []
    monkeypatch.setattr(verify, "is_descent_statistic",
                        lambda stat: calls.append(stat) or real(stat))
    for run in (lambda: check_compatibility("maj", 3, 4),
                lambda: check_compatibility("maj", 3, 4, "full"),
                lambda: check_compatibility(("maj", "inv"), 2, 2, "full"),
                lambda: find_counterexample("maj", 7),
                lambda: find_counterexample("biruns", 7),
                lambda: find_counterexample("inv", 4),
                lambda: check_identity("maj_des", 3, 3),
                lambda: check_conjecture_udr_pk_des(3, 3)):
        calls.clear()
        run()
        assert len(calls) <= 1, calls


def test_mark_tables_validate_each_id_once(monkeypatch):
    """A search validates its id in ``verify`` once, and its tables' DP
    (``stats.mark_tables``, called once per table) once more, on the id's
    first use; an id it refused is refused again."""
    real, calls = stats.is_descent_statistic, []

    def count(stat):
        calls.append(stat)
        return real(stat)

    monkeypatch.setattr(stats, "_RULES", {})
    for module in (stats, verify):
        monkeypatch.setattr(module, "is_descent_statistic", count)
    find_counterexample("maj", 7)
    assert calls == ["maj", "maj"]
    calls.clear()
    find_counterexample("maj", 7)
    assert calls == ["maj"]
    for _ in range(2):
        with pytest.raises(ValueError, match="not a descent statistic"):
            class_pair_counts(("maj", "inv"), 2, 2)
    assert calls == ["maj", ("maj", "inv"), ("maj", "inv")]


def test_witness_recheck_detects_stale_data():
    report = check_compatibility("inv", 2, 1, mode="full")
    w = report.witness
    w.dist_left = Counter({99: 1})
    assert not w.recheck()


def test_witness_with_differently_labeled_operands_does_not_recheck():
    # The distributions do differ, but the two pi sides have des 0 and 1,
    # so the pair is no evidence against compatibility.
    pi, pi_prime, sigma = (1, 2), (2, 1), (3, 4, 5)
    left, right = (distribution("des", shuffles(p, sigma)) for p in (pi, pi_prime))
    assert left != right
    assert not Witness(pi, pi_prime, sigma, sigma, "des", left, right).recheck()
    assert not Witness(sigma, sigma, pi, pi_prime, "des", left, right).recheck()


def test_report_serialization():
    report = check_compatibility("inv", 2, 1, mode="full")
    payload = report.to_json()
    assert payload["outcome"] == "fail"
    assert payload["witness"]["statistic"] == "inv"
    assert json.dumps(payload)
    assert "elapsed_seconds" not in payload
    assert "elapsed_seconds" in report.to_json(include_elapsed=True)
    text = format_report(report)
    assert "outcome: FAIL" in text
    assert "witness:" in text


def test_reduced_and_full_agree_for_descent_statistic_small():
    # A descent statistic passes or fails consistently across modes.
    for stat in ("Pk", "maj", "biruns"):
        verdicts = {
            mode: check_compatibility(stat, 2, 2, mode=mode, limit=6).passed
            for mode in ("reduced_pi", "reduced_sigma", "full")
        }
        assert len(set(verdicts.values())) == 1, (stat, verdicts)


def test_distribution_shapes_against_direct_enumeration():
    report = check_compatibility("inv", 2, 1, mode="full")
    w = report.witness
    assert distribution("inv", shuffles(w.pi, w.sigma)) == w.dist_left
    assert distribution("inv", shuffles(w.pi_prime, w.sigma_prime)) == w.dist_right


def test_witness_and_report_are_values():
    report = check_compatibility("inv", 2, 1, mode="full")
    w = report.witness
    fields = ((1, 2), (1, 3), (3,), (2,), "inv", Counter({0: 1, 1: 1, 2: 1}), Counter({0: 1, 1: 2}))
    assert w == Witness(*fields)
    assert w == Witness(
        pi=(1, 2), pi_prime=(1, 3), sigma=(3,), sigma_prime=(2,), statistic="inv",
        dist_left=fields[5], dist_right=fields[6],
    )
    assert w != Witness(*fields[:4], "maj", *fields[5:])
    assert repr(w).startswith("Witness(pi=(1, 2), pi_prime=(1, 3), sigma=(3,), ")
    assert w.to_json() == {
        "pi": "1,2", "pi_prime": "1,3", "sigma": "3", "sigma_prime": "2", "statistic": "inv",
        "dist_left": [{"value": "0", "mult": 1}, {"value": "1", "mult": 1},
                      {"value": "2", "mult": 1}],
        "dist_right": [{"value": "0", "mult": 1}, {"value": "1", "mult": 2}],
    }
    subject, scope = "shuffle compatibility of inv (full)", "|pi|=2, |sigma|=1"
    assert report == Report(subject, scope, w, 3, report.elapsed)
    assert report == Report(subject=subject, scope=scope, witness=w, cases_checked=3,
                            elapsed=report.elapsed)
    assert report.to_json() == {"subject": subject, "scope": scope, "outcome": "fail",
                                "cases_checked": 3, "witness": w.to_json()}
    passing = Report("s", "t", None, 1, 0.5)
    assert (passing.passed, passing.outcome) == (True, "pass")
    assert passing.to_json(include_elapsed=True)["elapsed_seconds"] == 0.5


def test_full_mode_table_memory_stays_bounded():
    """A scan holds its whole class pair table, if it builds one: full-mode
    Epk at 5+5 keeps all 256 class pairs, the largest full table of the
    catalog there, and Des builds none, as no two of its classes share a
    label.  Each traced peak must stay under 16 MB."""
    for stat in ("Des", "Epk"):
        tracemalloc.start()
        try:
            report = check_compatibility(stat, 5, 5, "full", limit=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, stat
        assert peak < 16 * 2**20, (stat, peak)
