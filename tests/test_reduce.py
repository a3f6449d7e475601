from functools import partial
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rename_in_order
from shufbij import reduce
from shufbij.errors import DomainOverlapError, NotAShuffleError
from shufbij.perm import perm_with_descent_set, space_labels
from shufbij.reduce import (
    PI_SIDE_STATS,
    SIGMA_SIDE_STATS,
    apply_trace,
    canonicalize,
    maj_decrement,
    theta_des,
    theta_lpk,
    theta_maj_first,
    theta_pk,
)
from shufbij.shuffle import shuffles
from shufbij.traces import (
    STEP_KINDS,
    ReductionStep,
    ReductionTrace,
    _gap_below,
    _pk_core,
    run_reduction,
    step_replay,
)
from shufbij.stats import des_set, distribution, evaluate, maj, peak_family

ALL_PIPELINE_STATS = SIGMA_SIDE_STATS + PI_SIDE_STATS


def _normalized_pairs(max_total):
    for total in range(max_total + 1):
        for m in range(total + 1):
            for pi in permutations(range(1, m + 1)):
                for sigma in permutations(range(m + 1, total + 1)):
                    yield pi, sigma


# ---------------------------------------------------------------------------
# elementary moves


def test_theta_des_worked_instance():
    pi, sigma, sigma_new = (1,), (2, 4, 3), (4, 2, 3)
    assert theta_des((2, 4, 1, 3), pi, sigma, 2, sigma_new) == (4, 1, 2, 3)
    images = set()
    for tau in shuffles(pi, sigma):
        out = theta_des(tau, pi, sigma, 2, sigma_new)
        assert len(des_set(out)) == len(des_set(tau))
        assert maj(out) == maj(tau) - 1
        images.add(out)
    assert images == set(shuffles(pi, sigma_new))


def test_theta_des_moves_one_descent_left():
    # Image descent sets differ from the source by one descent moved one
    # position left.
    pi, sigma, sigma_new = (1, 2), (3, 5, 4), (5, 3, 4)
    for tau in shuffles(pi, sigma):
        out = theta_des(tau, pi, sigma, 2, sigma_new)
        src, img = des_set(tau), des_set(out)
        moved = sorted(src - img), sorted(img - src)
        assert len(moved[0]) == 1 and len(moved[1]) == 1
        assert moved[0][0] == moved[1][0] + 1


def test_theta_des_descent_shape_exhaustive():
    # Every valid application replaces one descent position j+1 by j and
    # changes nothing else.
    for total in range(2, 6):
        for m in range(total - 1):
            n = total - m
            pi = tuple(range(1, m + 1))
            for sigma in permutations(range(m + 1, total + 1)):
                dset = des_set(sigma)
                for i in range(2, n):
                    if not (sigma[i - 2] < sigma[i - 1] > sigma[i]):
                        continue
                    sigma_new = perm_with_descent_set(sigma, (dset - {i}) | {i - 1})
                    for tau in shuffles(pi, sigma):
                        out = theta_des(tau, pi, sigma, i, sigma_new)
                        gone = sorted(des_set(tau) - des_set(out))
                        added = sorted(des_set(out) - des_set(tau))
                        assert len(gone) == 1 and len(added) == 1
                        assert gone[0] == added[0] + 1


def test_theta_des_validation():
    with pytest.raises(ValueError):
        theta_des((2, 4, 1, 3), (1,), (2, 4, 3), 1, (4, 2, 3))
    with pytest.raises(ValueError):
        theta_des((2, 4, 1, 3), (1,), (2, 4, 3), 2, (2, 4, 3))
    with pytest.raises(NotAShuffleError):
        theta_des((4, 2, 1, 3), (1,), (2, 4, 3), 2, (4, 2, 3))


def test_theta_maj_first_worked_instance():
    pi, sigma, sigma_new = (1,), (3, 2), (2, 3)
    expected = {(1, 3, 2): (2, 1, 3), (3, 1, 2): (1, 2, 3), (3, 2, 1): (2, 3, 1)}
    for tau, want in expected.items():
        out = theta_maj_first(tau, pi, sigma, sigma_new)
        assert out == want
        assert maj(out) == maj(tau) - 1
    assert set(expected.values()) == set(shuffles(pi, sigma_new))


def test_theta_maj_first_validation():
    with pytest.raises(ValueError):
        theta_maj_first((1, 2, 3), (1,), (2, 3), (2, 3))
    with pytest.raises(ValueError):
        theta_maj_first((1, 3, 2), (1,), (3, 2), (3, 2))


def test_theta_maj_first_on_separated_nonstandard_domains():
    """The move compares no values: pi on {2,5} and sigma above it on
    {7,9,11} build a step, whose replay maps the shuffle set onto the
    target's with maj one lower, for each of the 6 such pairs with a front
    descent.  A pair whose sigma does not lie above pi is still refused."""
    pairs = [(pi, sigma) for pi in permutations((2, 5)) for sigma in permutations((7, 9, 11))
             if sigma[0] > sigma[1]]
    assert len(pairs) == 6
    for pi, sigma in pairs:
        sigma_new = perm_with_descent_set(sigma, des_set(sigma) - {1})
        step = ReductionStep("theta_maj_first", {}, pi, sigma, pi, sigma_new)
        replay = reduce.step_replay(step)
        source = shuffles(pi, sigma)
        images = [replay(tau) for tau in source]
        assert sorted(images) == sorted(shuffles(pi, sigma_new))
        assert [maj(image) for image in images] == [maj(tau) - 1 for tau in source]
    for pi, sigma, sigma_new in [((2, 8), (9, 7, 11), (7, 9, 11)), ((7, 2), (9, 5, 11), (5, 9, 11))]:
        with pytest.raises(ValueError, match="must exceed"):
            ReductionStep("theta_maj_first", {}, pi, sigma, pi, sigma_new)


def test_theta_pk_worked_instance():
    pi, pi_new, sigma = (2, 1, 4, 3), (3, 4, 1, 2), (5,)
    assert theta_pk((2, 1, 4, 5, 3), pi, pi_new, sigma, 3) == (3, 5, 4, 1, 2)
    assert theta_pk((2, 1, 4, 3, 5), pi, pi_new, sigma, 3) == (3, 4, 1, 2, 5)
    source = shuffles(pi, sigma)
    images = [theta_pk(t, pi, pi_new, sigma, 3) for t in source]
    assert sorted(images) == sorted(shuffles(pi_new, sigma))
    assert distribution("pk", source) == distribution("pk", images)
    for t, im in zip(source, images):
        assert evaluate("pk", t) == evaluate("pk", im)


def test_theta_pk_validation():
    pi, pi_new, sigma = (2, 1, 4, 3), (3, 4, 1, 2), (5,)
    with pytest.raises(ValueError):
        theta_pk((2, 1, 4, 3, 5), pi, pi_new, sigma, 2)
    with pytest.raises(ValueError):
        theta_pk((2, 1, 4, 3, 5), pi, (2, 1, 4, 3), sigma, 3)
    with pytest.raises(ValueError):
        theta_pk((2, 1, 4, 3, 5), (1, 2, 4, 3), pi_new, sigma, 3)


def test_pk_core_inverse_roundtrip():
    a_src, a_tgt = (2, 1, 4, 3, 0), (3, 4, 1, 2, 0)
    for tau in shuffles((2, 1, 4, 3), (6, 5)):
        framed = tau + (0,)
        out = _pk_core(a_src, a_tgt, 3)(framed)
        assert _pk_core(a_tgt, a_src, 3)(out) == framed


def test_gap_below_is_one_space_label_lower():
    """The descent move's gap rule, read off the block's descents, finds the
    gap whose ``space_labels`` label is one lower, cyclically."""
    for length in range(1, 8):
        for delta in permutations(range(1, length + 1)):
            labels = space_labels(delta)
            for r in range(length + 1):
                assert _gap_below(delta, r) == labels.index((labels[r] - 1) % (length + 1))


# The side each renaming kernel renames.
RENAMED_SIDE = {"phi": "pi", "phi_tilde": "sigma", "theta_des": "sigma",
                "theta_maj_first": "sigma", "theta_pk": "pi", "theta_lpk": "pi",
                "theta_rpk_inverse": "pi"}


def test_renaming_kernels_rename_by_position():
    """Each kernel renames its side through a value map.  That is the
    renaming by position exactly when the kernel keeps the side in order:
    on every shuffle of each step's source pair, the image with the value
    map undone, renamed by position, is the image again."""
    steps = [step for stat in ALL_PIPELINE_STATS for pi, sigma in _normalized_pairs(6)
             for step in canonicalize(stat, pi, sigma)[1].steps]
    for pi, sigma in _normalized_pairs(6):
        lifted = tuple(v + len(pi) + len(sigma) for v in pi)
        steps += [ReductionStep("phi", {}, pi, sigma, pi[::-1], sigma),
                  ReductionStep("phi", {}, pi, sigma, lifted, sigma),
                  ReductionStep("phi_tilde", {}, pi, sigma, pi, sigma[::-1])]
    for step in steps:
        side = RENAMED_SIDE[step.kind]
        old, new = getattr(step, "source_" + side), getattr(step, "target_" + side)
        undo, replay = dict(zip(new, old)), step_replay(step)
        for tau in shuffles(step.source_pi, step.source_sigma):
            image = replay(tau)
            assert rename_in_order(tuple(undo.get(v, v) for v in image), set(old), new) == image
    assert {step.kind for step in steps} == set(RENAMED_SIDE)


@pytest.mark.parametrize(
    "kind, params, pairs",
    [
        # 2,3,4 has no interior peak at position 2
        ("theta_des", {"i": 2}, ((1,), (2, 3, 4), (1,), (3, 2, 4))),
        # 3,2,4 would need descent set {1} after the move from 2 to 1
        ("theta_des", {"i": 2}, ((1,), (2, 4, 3), (1,), (2, 4, 3))),
        # the target keeps the peak at 3 instead of moving it to 2
        ("theta_pk", {"j": 3}, ((2, 1, 4, 3), (5,), (2, 1, 4, 3), (5,))),
        # the move needs an interior position >= 3
        ("theta_pk", {"j": 2}, ((1, 3, 2), (4,), (3, 1, 2), (4,))),
        # 1,2 has no left peak at position 2
        ("theta_lpk", {"j": 2}, ((1, 2), (3,), (2, 1), (3,))),
        # 2,3 has no descent at position 1
        ("theta_maj_first", {}, ((1,), (2, 3), (1,), (2, 3))),
        # sigma does not lie above pi
        ("theta_rpk_inverse", {"j": 1}, ((1, 3), (2,), (3, 1), (2,))),
        # the replacement has the wrong length
        ("phi_tilde", {}, ((1,), (2, 3), (1,), (4,))),
        # an appended-frame move starts at the last position, not at 1
        ("theta_pk", {"j": 1, "frame": "append"}, ((1, 3, 2), (4,), (1, 2, 3), (4,))),
        # the exterior peak at 3 must move to 2; 2,1,3 has exterior peaks {1, 3}
        ("theta_pk", {"j": 3, "frame": "append"}, ((1, 2, 3), (4,), (2, 1, 3), (4,))),
        # the right peak at 2 must move to 3; 1,3,2 keeps it at 2
        ("theta_rpk_inverse", {"j": 2}, ((2, 3, 1), (4,), (1, 3, 2), (4,))),
        # 1,2,3 has no right peak at 1
        ("theta_rpk_inverse", {"j": 1}, ((1, 2, 3), (4,), (2, 1, 3), (4,))),
        ("no_such_kind", {}, ((), (), (), ())),
    ],
)
def test_invalid_step_rejected_when_built(kind, params, pairs):
    with pytest.raises(ValueError):
        ReductionStep(kind, params, *pairs)


@pytest.mark.parametrize(
    "kind, index, pairs",
    [
        ("t_swap", "i", ((1,), (2,), (2,), (1,))),
        ("theta_des", "i", ((1,), (2, 4, 3), (1,), (4, 2, 3))),
        ("theta_pk", "j", ((1, 3, 2, 4), (5,), (3, 1, 2, 4), (5,))),
        ("theta_rpk_inverse", "j", ((2, 3, 1), (4,), (1, 2, 3), (4,))),
    ],
)
def test_step_missing_its_index_names_it(kind, index, pairs):
    # A bool is an int to isinstance, but no index: it is refused as missing.
    for params in ({}, {index: True}):
        with pytest.raises(ValueError, match=f"parameter '{index}'"):
            ReductionStep(kind, params, *pairs)


def test_list_operands_replay_as_tuples():
    """A step freezes its pairs and canonicalize its operands, so a pipeline
    or a move given lists gives the tuples' trace and images."""
    for stat in ALL_PIPELINE_STATS:
        for pi, sigma in [((2, 1, 3), (6, 4, 5)), ((1, 3, 2), (4,))]:
            canonical, trace = canonicalize(stat, list(pi), list(sigma))
            assert (canonical, trace) == canonicalize(stat, pi, sigma)
            images = [apply_trace(trace, tau) for tau in shuffles(pi, sigma)]
            assert sorted(images) == sorted(shuffles(trace.final_pi, trace.final_sigma))
    tau = (1, 3, 2)
    assert theta_maj_first(tau, [1], [3, 2], [2, 3]) == theta_maj_first(tau, (1,), (3, 2), (2, 3))
    tau = (1, 3, 2, 4)
    assert theta_lpk(tau, [1, 3, 2], [4], [2, 1, 3]) == theta_lpk(tau, (1, 3, 2), (4,), (2, 1, 3))


def test_step_kinds_in_order():
    assert STEP_KINDS == ("t_swap", "phi", "phi_tilde", "theta_des", "theta_maj_first",
                          "theta_pk", "theta_lpk", "theta_rpk_inverse")


def test_theta_lpk_step_on_empty_pi_names_the_missing_peak():
    with pytest.raises(ValueError, match="2 is not a left peak"):
        ReductionStep("theta_lpk", {"j": 2}, (), (1,), (), (1,))
    with pytest.raises(ValueError, match="positive"):
        ReductionStep("theta_lpk", {"j": 2}, (0, 2, 1), (3,), (2, 0, 1), (3,))


def test_step_with_overlapping_target_rejected_when_built():
    with pytest.raises(DomainOverlapError):
        ReductionStep("phi", {}, (1, 2), (3,), (3, 4), (3,))


def test_theta_lpk_small_exhaustive():
    # Every valid left-peak-at-2 move preserves lpk pointwise.
    from shufbij.perm import perm_with_left_peak_profile
    from shufbij.stats import chi_plus

    checked = 0
    for m in range(2, 5):
        for pi in permutations(range(1, m + 1)):
            lpk = peak_family(pi, "left")
            if 2 not in lpk:
                continue
            target = (lpk - {2}) | {1}
            pi_new = perm_with_left_peak_profile(m, target, chi_plus(pi))
            for n in range(0, 3):
                sigma = tuple(range(m + 1, m + n + 1))
                for tau in shuffles(pi, sigma):
                    out = theta_lpk(tau, pi, sigma, pi_new)
                    assert evaluate("lpk", out) == evaluate("lpk", tau)
                    checked += 1
    assert checked > 50


def test_theta_lpk_validation():
    with pytest.raises(ValueError):
        theta_lpk((1, 2, 3), (1, 2), (3,), (2, 1))


# ---------------------------------------------------------------------------
# canonical forms


def test_canonicalize_worked_examples():
    canonical, trace = canonicalize("maj", (1,), (3, 2))
    assert canonical == (2, 3)
    assert [s.kind for s in trace.steps] == ["theta_maj_first"]

    canonical, trace = canonicalize("pk", (2, 1, 4, 3), (5,))
    assert canonical == (3, 4, 1, 2)
    assert [s.kind for s in trace.steps] == ["theta_pk"]


def test_canonicalize_fixed_points():
    sigma = perm_with_descent_set(range(4, 8), {1, 2})
    _, trace = canonicalize("des", (1, 2, 3), sigma)
    assert len(trace.steps) == 0
    _, trace = canonicalize("maj", (1, 2), (3, 4, 5))
    assert len(trace.steps) == 0
    _, trace = canonicalize("lpk", (2, 1, 3), (4,))
    assert len(trace.steps) == 0


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize("inv", (1, 2), (3,))
    with pytest.raises(ValueError):
        canonicalize("des", (1, 3), (2,))


NOT_NORMALIZED = "operands must be normalized to [m] and [n]+m (see normalize_pair)"


@pytest.mark.parametrize("stat, pi, sigma, message", [
    # ids that are not statistics
    (["des"], (1,), (2,), "statistic must be a name or tuple of names, got ['des']"),
    (None, (1,), (2,), "statistic must be a name or tuple of names, got None"),
    ("nope", (1,), (2,), "unknown statistic 'nope'"),
    (("maj", "nope"), (1,), (2,), "unknown statistic component 'nope'"),
    (("maj", 3), (1,), (2,), "unknown statistic component 3"),
    ((), (1,), (2,), "empty tuple statistic"),
    # statistics with no pipeline
    ("Pk", (1,), (2,), "no reduction pipeline for statistic 'Pk'"),
    ("inv", (1,), (2,), "no reduction pipeline for statistic 'inv'"),
    (("maj", "inv"), (1,), (2,), "no reduction pipeline for statistic ('maj', 'inv')"),
    (("des", "maj"), (1,), (2,), "no reduction pipeline for statistic ('des', 'maj')"),
    # operands off [m] and [n]+m
    ("des", (2,), (1,), NOT_NORMALIZED),
    ("des", (1, 3), (2,), NOT_NORMALIZED),
    ("pk", (0, 1), (2,), NOT_NORMALIZED),
    ("maj", [1, 1], [3], NOT_NORMALIZED),
    ("maj", (1,), (2, 3, 5), NOT_NORMALIZED),
    (("udr", "pk"), (), (2,), NOT_NORMALIZED),
])
def test_canonicalize_refusals(stat, pi, sigma, message):
    with pytest.raises(ValueError) as info:
        canonicalize(stat, pi, sigma)
    assert str(info.value) == message


CANONICAL_CHECKS = {
    "des": lambda p, s: des_set(s) == frozenset(range(1, len(des_set(s)) + 1)),
    ("maj", "des"): lambda p, s: des_set(s) == frozenset(range(1, len(des_set(s)) + 1)),
    "maj": lambda p, s: des_set(s) == frozenset(),
    "pk": lambda p, s: peak_family(p, "interior")
    == frozenset(range(2, 2 * len(peak_family(p, "interior")) + 1, 2)),
    "lpk": lambda p, s: peak_family(p, "left")
    == frozenset(range(1, 2 * len(peak_family(p, "left")), 2)),
    "udr": lambda p, s: peak_family(p, "left")
    == frozenset(range(1, 2 * len(peak_family(p, "left")), 2)),
    "rpk": lambda p, s: peak_family(p, "right")
    == frozenset(range(len(p), len(p) - 2 * len(peak_family(p, "right")), -2)),
    "epk": lambda p, s: peak_family(p, "exterior")
    == frozenset(range(1, 2 * len(peak_family(p, "exterior")), 2)),
    ("udr", "pk"): lambda p, s: peak_family(p, "left")
    in (
        frozenset(range(2, 2 * len(peak_family(p, "left")) + 1, 2)),
        frozenset(range(1, 2 * len(peak_family(p, "left")), 2)),
    ),
}


@pytest.mark.parametrize("stat", ALL_PIPELINE_STATS, ids=str)
def test_pipelines_exhaustive_small(stat):
    is_canonical = CANONICAL_CHECKS[stat]
    for pi, sigma in _normalized_pairs(5):
        canonical, trace = canonicalize(stat, pi, sigma)
        assert is_canonical(trace.final_pi, trace.final_sigma)
        measures = (trace.start_measure,) + trace.measure_values
        assert all(a > b for a, b in zip(measures, measures[1:]))

        source = shuffles(pi, sigma)
        images = [apply_trace(trace, t) for t in source]
        assert len(set(images)) == len(images)
        assert sorted(images) == sorted(shuffles(trace.final_pi, trace.final_sigma))

        drop = maj_decrement(trace)
        for t, im in zip(source, images):
            if stat == "maj":
                assert maj(im) == maj(t) - drop
            elif stat == ("maj", "des"):
                assert maj(im) == maj(t) - drop
                assert evaluate("des", im) == evaluate("des", t)
            else:
                assert evaluate(stat, im) == evaluate(stat, t)

        again, trace2 = canonicalize(stat, trace.final_pi, trace.final_sigma)
        assert len(trace2.steps) == 0
        assert again == canonical


@given(
    st.sampled_from(ALL_PIPELINE_STATS),
    st.integers(0, 8),
    st.data(),
)
def test_pipelines_hold_beyond_exhaustive_range(stat, m, data):
    # Random spot checks at m+n in 7..8, past the exhaustive sweep.
    n = data.draw(st.integers(max(0, 7 - m), 8 - m))
    pi = tuple(data.draw(st.permutations(list(range(1, m + 1)))))
    sigma = tuple(data.draw(st.permutations(list(range(m + 1, m + n + 1)))))
    _, trace = canonicalize(stat, pi, sigma)
    measures = (trace.start_measure,) + trace.measure_values
    assert all(a > b for a, b in zip(measures, measures[1:]))
    source = shuffles(pi, sigma)
    images = [apply_trace(trace, t) for t in source]
    assert sorted(images) == sorted(shuffles(trace.final_pi, trace.final_sigma))
    drop = maj_decrement(trace)
    for t, im in zip(source, images):
        if stat == "maj":
            assert maj(im) == maj(t) - drop
        elif stat == ("maj", "des"):
            assert maj(im) == maj(t) - drop
            assert evaluate("des", im) == evaluate("des", t)
        else:
            assert evaluate(stat, im) == evaluate(stat, t)


# ---------------------------------------------------------------------------
# the class plan


def _per_permutation_trace(stat, pi, sigma):
    """The reduction with every move, target and measure worked out from
    the pair itself, step by step, with no plan."""
    move = reduce._sigma_side_step if stat in SIGMA_SIDE_STATS else reduce._pi_side_step
    return run_reduction(stat, pi, sigma, partial(reduce._measure, stat), partial(move, stat))


@pytest.mark.parametrize("stat", ALL_PIPELINE_STATS, ids=str)
def test_class_plan_matches_per_permutation_moves(stat):
    """Every normalized pair with m+n <= 6: the planned trace is the one the
    per-permutation moves record, from a warm cache and a cleared one."""
    pairs = list(_normalized_pairs(6))
    expected = [_per_permutation_trace(stat, pi, sigma).to_json() for pi, sigma in pairs]
    assert [canonicalize(stat, pi, sigma)[1].to_json() for pi, sigma in pairs] == expected
    reduce._class_plan.cache_clear()
    assert [canonicalize(stat, pi, sigma)[1].to_json() for pi, sigma in pairs] == expected
    assert reduce._class_plan.cache_info().maxsize is not None


def test_class_plan_gives_each_trace_its_own_params():
    # (2, 4, 3) and (3, 4, 2) share the descent set {2}, so one plan.
    _, first = canonicalize("des", (1,), (2, 4, 3))
    _, second = canonicalize("des", (1,), (3, 4, 2))
    assert (first.steps[0].source_sigma, second.steps[0].source_sigma) == ((2, 4, 3), (3, 4, 2))
    assert first.steps[0].params == second.steps[0].params == {"i": 2}
    assert first.steps[0].params is not second.steps[0].params
    first.steps[0].params["i"] = 99
    assert second.steps[0].params == {"i": 2}
    assert canonicalize("des", (1,), (2, 4, 3))[1].steps[0].params == {"i": 2}


def test_a_plan_that_does_not_fit_the_pair_raises(monkeypatch):
    # The plan of the class {2} moves an interior peak at 2; (4, 2, 3) has
    # none there, so building the first step against it refuses.
    wrong = reduce._class_plan("des", 1, 3, 0b100)
    monkeypatch.setattr(reduce, "_class_plan", lambda *key: wrong)
    with pytest.raises(ValueError, match="is not an interior peak"):
        canonicalize("des", (1,), (4, 2, 3))


def _shifted_plan(stat, m, n, mask, target=None, index=None):
    """The cached plan of one class with its first step's target side or
    index parameter replaced."""
    start, plan = reduce._class_plan(stat, m, n, mask)
    kind, params, side, after = plan[0]
    if index is not None:
        params = tuple((k, v + index if isinstance(v, int) else v) for k, v in params)
    return start, ((kind, params, target or side, after),) + plan[1:]


@pytest.mark.parametrize(
    "stat, pi, sigma, mask, change",
    [
        # theta_des at 3 in (4, 5, 7, 6); the target must have descent set {2}.
        ("des", (1, 2, 3), (4, 5, 7, 6), 0b1000, {"target": (4, 5, 6, 7)}),
        ("des", (1, 2, 3), (4, 5, 7, 6), 0b1000, {"target": (4, 7, 6, 5)}),
        ("des", (1, 2, 3), (4, 5, 7, 6), 0b1000, {"index": -1}),
        ("des", (1, 2, 3), (4, 5, 7, 6), 0b1000, {"index": 1}),
        # theta_maj_first on (3, 2); the target must have no descent.
        ("maj", (1,), (3, 2), 0b10, {"target": (3, 2)}),
        # theta_pk at 3 in (1, 2, 4, 3); the target must have its peak at 2.
        ("pk", (1, 2, 4, 3), (5,), 0b1000, {"target": (1, 2, 4, 3)}),
        ("pk", (1, 2, 4, 3), (5,), 0b1000, {"index": -1}),
        # theta_lpk on (1, 3, 2); the target must have its left peak at 1.
        ("lpk", (1, 3, 2), (4,), 0b100, {"target": (1, 3, 2)}),
        # theta_rpk_inverse at 2 in (1, 3, 2); the target's right peak is at 3.
        ("rpk", (1, 3, 2), (4,), 0b100, {"target": (3, 2, 1)}),
        ("rpk", (1, 3, 2), (4,), 0b100, {"index": 1}),
        # theta_pk on the appended frame for epk; the peak must be at the end.
        ("epk", (1, 2, 3), (4,), 0, {"target": (1, 2, 3)}),
        ("epk", (1, 2, 3), (4,), 0, {"index": -1}),
    ],
)
def test_every_planned_step_runs_its_kinds_check(stat, pi, sigma, mask, change, monkeypatch):
    """A cached plan whose first step has a wrong target or index is refused
    when canonicalize builds that step against the caller's pair."""
    _, plan = reduce._class_plan(stat, len(pi), len(sigma), mask)
    assert canonicalize(stat, pi, sigma)[1].steps[0].kind == plan[0][0]
    wrong = _shifted_plan(stat, len(pi), len(sigma), mask, **change)
    monkeypatch.setattr(reduce, "_class_plan", lambda *key: wrong)
    with pytest.raises(ValueError):
        canonicalize(stat, pi, sigma)


def test_maj_trace_length_equals_major_index():
    for pi, sigma in _normalized_pairs(5):
        _, trace = canonicalize("maj", pi, sigma)
        assert len(trace.steps) == maj(sigma)


def test_apply_trace_empty_and_validation():
    _, trace = canonicalize("maj", (1, 2), (3, 4, 5))
    assert apply_trace(trace, (1, 3, 2, 4, 5)) == (1, 3, 2, 4, 5)
    with pytest.raises(NotAShuffleError):
        apply_trace(trace, (3, 1, 2, 5, 4))


def test_trace_serialization_round_trip_fields():
    _, trace = canonicalize("pk", (2, 1, 4, 3), (5,))
    payload = trace.to_json()
    assert payload["statistic"] == "pk"
    assert payload["start"] == {"pi": "2,1,4,3", "sigma": "5"}
    assert payload["final"] == {"pi": "3,4,1,2", "sigma": "5"}
    (step,) = payload["steps"]
    assert step["kind"] == "theta_pk"
    assert step["params"] == {"j": 3}
    assert isinstance(step["measure_after"], int)


# --- value semantics of steps and traces ---------------------------------------

_PK_TRACE_JSON = {
    "statistic": "pk",
    "start": {"pi": "2,1,4,3", "sigma": "5"},
    "final": {"pi": "3,4,1,2", "sigma": "5"},
    "start_measure": 3,
    "steps": [{
        "kind": "theta_pk",
        "params": {"j": 3},
        "source": {"pi": "2,1,4,3", "sigma": "5"},
        "target": {"pi": "3,4,1,2", "sigma": "5"},
        "measure_after": 2,
    }],
}


def test_step_and_trace_are_immutable_values():
    _, trace = canonicalize("pk", (2, 1, 4, 3), (5,))
    assert trace.to_json() == _PK_TRACE_JSON
    (step,) = trace.steps
    fields = ("theta_pk", {"j": 3}, (2, 1, 4, 3), (5,), (3, 4, 1, 2), (5,), 2)
    assert step == ReductionStep(*fields)
    assert step == ReductionStep(
        kind="theta_pk", params={"j": 3}, source_pi=(2, 1, 4, 3), source_sigma=(5,),
        target_pi=(3, 4, 1, 2), target_sigma=(5,), measure_after=2,
    )
    assert step != ReductionStep(*fields[:-1], 1)
    assert ReductionStep("phi") == ReductionStep("phi", {}, (), (), (), (), 0)
    assert trace == ReductionTrace("pk", (step,), (2, 1, 4, 3), (5,), (3, 4, 1, 2), (5,), 3)
    assert trace == ReductionTrace(
        statistic="pk", steps=(step,), start_pi=(2, 1, 4, 3), start_sigma=(5,),
        final_pi=(3, 4, 1, 2), final_sigma=(5,), start_measure=3,
    )
    assert (len(trace), trace.measure_values) == (1, (2,))
    for value, attr in ((step, "kind"), (step, "new_field"), (trace, "steps")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)


def test_trace_without_steps_is_empty():
    _, trace = canonicalize("maj", (1, 2), (3, 4, 5))
    assert (len(trace), bool(trace), trace.steps) == (0, False, ())
    assert trace.to_json()["steps"] == []
