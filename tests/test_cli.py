import json
import os
import random
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import shufbij

from shufbij import cli, shuffle
from shufbij.cli import main
from shufbij.shuffle import iter_shuffles
from shufbij.stats import distribution, distribution_entries, parse_stat


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat_command(capsys):
    code, out, _ = run_cli(capsys, "stat", "maj", "2,1,5,7,3,6,4")
    assert code == 0
    assert out.strip() == "11"
    code, out, _ = run_cli(capsys, "stat", "udr", "6,8,5,9,3,4")
    assert code == 0
    assert out.strip() == "5"
    code, out, _ = run_cli(capsys, "stat", "Des", "2,1,5,7,3,6,4")
    assert out.strip() == "[1,4,6]"
    code, out, _ = run_cli(capsys, "stat", "(maj,des)", "4,3,1,2")
    assert out.strip() == "(3,2)"


def test_stat_json(capsys):
    code, out, _ = run_cli(capsys, "stat", "--format", "json", "maj", "2,1,5,7,3,6,4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"statistic": "maj", "perm": "2,1,5,7,3,6,4", "value": "11"}


def test_shuffles_command_streams(capsys):
    code, out, _ = run_cli(capsys, "shuffles", "1,3,2", "7,6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "1,3,2,7,6"
    assert lines[-1] == "7,6,1,3,2"


def test_dist_command_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "dist", "Pk", "2,4,1", "7,3")
    assert code == 0
    assert out.strip() == "{[2]:2, [3]:4, [4]:2, [2,4]:2}"
    code, out, _ = run_cli(capsys, "dist", "--format", "json", "Pk", "2,4,1", "7,3")
    payload = json.loads(out)
    assert payload["distribution"] == [
        {"value": "[2]", "mult": 2},
        {"value": "[3]", "mult": 4},
        {"value": "[4]", "mult": 2},
        {"value": "[2,4]", "mult": 2},
    ]


def test_overlapping_domains_rejected_with_element_named(capsys):
    code, out, err = run_cli(capsys, "dist", "maj", "1,2", "2,3")
    assert code == 2
    assert "2" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("shuffles", "1,2", "2,3"),
        ("dist", "maj", "1,2", "2,3"),
        ("genpoly", "maj", "1,2", "2,3"),
        ("reduce", "maj", "1,2", "2,3"),
    ],
    ids=lambda a: a[0],
)
def test_overlapping_pair_exits_2_before_any_output(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert "[2]" in err


def test_unknown_statistic_rejected_before_compute(capsys):
    code, _, err = run_cli(capsys, "stat", "bogus", "1,2")
    assert code == 2
    assert "bogus" in err


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", "maj", "2,4,1", "7,3")
    assert code == 0
    assert "canonical pair:" in out
    code, out, _ = run_cli(capsys, "reduce", "--format", "json", "pk", "2,1,4,3", "5")
    payload = json.loads(out)
    assert payload["canonical"]["pi"] == "3,4,1,2"
    assert payload["reduction_trace"]["steps"][0]["kind"] == "theta_pk"


@pytest.mark.parametrize("stat", ["inv", "Des"])
def test_reduce_refuses_a_statistic_without_a_pipeline(capsys, stat):
    assert run_cli(capsys, "reduce", stat, "1,2", "3") == (
        2, "", f"error: no reduction pipeline for {stat}\n")


def test_verify_command_pass_and_fail_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "pk", "--m", "2", "--n", "2")
    assert code == 0
    assert "outcome: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "inv", "--m", "2", "--n", "1", "--mode", "full")
    assert code == 1
    assert "outcome: FAIL" in out
    assert "witness" in out


def test_verify_reduced_mode_refuses_inv(capsys):
    code, out, err = run_cli(capsys, "verify", "inv", "--m", "3", "--n", "3")
    assert code == 2
    assert out == ""
    assert "--mode full" in err


def test_verify_limit_refusal_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "des", "--m", "5", "--n", "6")
    assert code == 2
    assert "exceeds the bound" in err
    assert "--limit" in err and "SHUFBIJ_MAX_TOTAL" in err


def test_limit_help_names_the_default_bounds(capsys, monkeypatch):
    """Each --limit help is built from the bound it falls back to, so it
    follows a raised default."""
    for name, value in (("CLASS", 11), ("ENUM", 7)):
        monkeypatch.setattr(cli, f"DEFAULT_{name}_LIMIT", value)
    helps = [" ".join(run_cli(capsys, command, "--help")[1].split())
             for command in ("verify", "identity", "conjecture", "counterexample")]
    assert [re.search(r"--limit LIMIT (.*?\))", text)[1] for text in helps] == [
        "override the size bound (default 11, or 7 with inv)"
    ] * 4


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "maj", "--mode", "reduced_pi"),
        ("verify", "maj", "--mode", "reduced_sigma"),
        ("verify", "maj", "--mode", "full"),
        ("identity", "maj"),
        ("identity", "maj_des"),
        ("identity", "word_base"),
        ("conjecture", "udr-pk-des"),
    ],
    ids=lambda a: f"{a[0]}_{a[-1]}",
)
def test_descent_scans_accept_m_plus_n_10_and_refuse_11(capsys, monkeypatch, argv):
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL", raising=False)
    code, out, _ = run_cli(capsys, *argv, "--m", "1", "--n", "9")
    assert code == 0 and "outcome: PASS" in out
    code, out, err = run_cli(capsys, *argv, "--m", "1", "--n", "10")
    assert (code, out) == (2, "")
    assert "m+n=11 exceeds the bound 10;" in err


def test_maj_pk_fails_at_1_plus_7_by_default(capsys, monkeypatch):
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL", raising=False)
    code, out, _ = run_cli(capsys, "verify", "(maj,Pk)", "--m", "1", "--n", "7",
                           "--mode", "reduced_sigma")
    assert code == 1 and "outcome: FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "maj", "--m", "-1", "--n", "3"),
        ("verify", "inv", "--m", "2", "--n", "-1", "--mode", "full"),
        ("identity", "maj", "--m", "-1", "--n", "3"),
        ("identity", "word_base", "--m", "3", "--n", "-2"),
        ("conjecture", "udr-pk-des", "--m", "-2", "--n", "3"),
    ],
    ids=lambda a: "_".join(a[:2]),
)
def test_negative_sizes_exit_2_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "sizes must be nonnegative" in err


@pytest.mark.parametrize("command", ["shuffles", "dist", "genpoly"])
def test_shuffle_set_size_bound_exits_2_before_any_output(capsys, monkeypatch, command):
    stat = () if command == "shuffles" else ("maj",)
    monkeypatch.setenv("SHUFBIJ_MAX_TOTAL", "5")
    code, out, err = run_cli(capsys, command, *stat, "1,2,3", "4,5,6")
    assert (code, out) == (2, "")
    assert "m+n=6 exceeds the bound 5; set SHUFBIJ_MAX_TOTAL to allow it" in err
    assert "limit" not in err  # these commands have no --limit
    # Without the override the bound is m+n = 20.
    monkeypatch.delenv("SHUFBIJ_MAX_TOTAL")
    low, high = range(1, 12), range(12, 22)
    code, out, err = run_cli(
        capsys, command, *stat, ",".join(map(str, low)), ",".join(map(str, high))
    )
    assert (code, out) == (2, "")
    assert "m+n=21 exceeds the bound 20" in err


def test_identity_command(capsys):
    code, out, _ = run_cli(capsys, "identity", "maj", "--m", "2", "--n", "2")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "identity", "--format", "json", "word_base", "--m", "3", "--n", "2"
    )
    payload = json.loads(out)
    assert payload["outcome"] == "pass"


def test_counterexample_command(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "inv", "--max", "3")
    assert code == 1
    assert "witness" in out
    code, out, _ = run_cli(capsys, "counterexample", "Des", "--max", "4")
    assert code == 0


def test_counterexample_size_bound_exits_2_before_any_output(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "counterexample", "maj", "--max", "11")
    assert (code, out) == (2, "")
    assert "m+n=11 exceeds the bound 10" in err and "--limit" in err
    code, out, err = run_cli(capsys, "counterexample", "inv", "--max", "7")
    assert (code, out) == (2, "")
    assert "m+n=7 exceeds the bound 6" in err and "SHUFBIJ_MAX_TOTAL" not in err
    code, out, _ = run_cli(capsys, "counterexample", "inv", "--max", "3", "--limit", "3")
    assert code == 1 and "witness" in out
    # The variable bounds shuffle sets and sweeps, not the search.
    monkeypatch.setenv("SHUFBIJ_MAX_TOTAL", "6")
    code, out, _ = run_cli(capsys, "counterexample", "biruns", "--max", "7")
    assert code == 1 and "witness" in out


def test_counterexample_negative_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "counterexample", "maj", "--max", "-3")
    assert code == 2
    assert out == ""
    assert ">= 0" in err


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "udr-pk-des", "--m", "2", "--n", "2")
    assert code == 0
    assert "evidence" in out
    code, _, err = run_cli(capsys, "conjecture", "other", "--m", "1", "--n", "1")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "nope")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_outputs_stable_across_runs(capsys):
    first = run_cli(capsys, "verify", "Pk", "--m", "2", "--n", "2", "--format", "json")
    second = run_cli(capsys, "verify", "Pk", "--m", "2", "--n", "2", "--format", "json")
    assert first == second
    a = run_cli(capsys, "reduce", "epk", "1,2,3", "4,5")
    b = run_cli(capsys, "reduce", "epk", "1,2,3", "4,5")
    assert a == b


def test_genpoly_command(capsys):
    code, out, _ = run_cli(capsys, "genpoly", "maj", "4,3,1,2", "7,6")
    assert code == 0
    assert "[0,0,0,0,1,1,2,2,3,2,2,1,1]" in out


DP_DIST_STATS = ["Des", "Pk", "Epk", "Lval", "maj", "udr", "biruns", "chi_plus", "(maj,des)"]
DP_GENPOLY_STATS = ["maj", "udr", "biruns", "chi_plus"]


def _seeded_pairs(count=12, max_total=12):
    """Seeded pairs with interleaved domains (never sigma above pi), up to
    m+n = max_total."""
    rng = random.Random(20190618)
    pairs = []
    while len(pairs) < count:
        total = rng.randint(2, max_total)
        m = rng.randint(1, total - 1)
        values = rng.sample(range(1, 2 * total + 1), total)
        pi, sigma = values[:m], values[m:]
        if max(pi) > min(sigma) and max(sigma) > min(pi):
            pairs.append((",".join(map(str, pi)), ",".join(map(str, sigma))))
    return pairs


def _enumerated(stat, pi, sigma):
    return distribution(stat, iter_shuffles(pi, sigma))


@pytest.mark.parametrize("pi, sigma", _seeded_pairs())
def test_dist_and_genpoly_match_the_enumeration_path(capsys, monkeypatch, pi, sigma):
    commands = [("dist", stat) for stat in DP_DIST_STATS]
    commands += [("genpoly", stat) for stat in DP_GENPOLY_STATS]
    runs = [
        (command, "--format", fmt, stat, pi, sigma)
        for command, stat in commands for fmt in ("text", "json")
    ]
    fast = [run_cli(capsys, *argv) for argv in runs]
    monkeypatch.setattr(cli, "shuffle_distribution", _enumerated)
    slow = [run_cli(capsys, *argv) for argv in runs]
    assert fast == slow
    assert all(code == 0 and out for code, out, _ in fast)


def test_dist_of_a_descent_statistic_builds_no_shuffle_set(capsys, monkeypatch):
    expected = [run_cli(capsys, "dist", stat, "5,1,8", "2,7,3,6") for stat in ("Pk", "(maj,des)")]

    def refuse(pi, sigma):
        raise AssertionError("a descent statistic needs no shuffle set")

    monkeypatch.setattr(shuffle, "iter_shuffles", refuse)
    assert [run_cli(capsys, "dist", stat, "5,1,8", "2,7,3,6") for stat in ("Pk", "(maj,des)")] \
        == expected


@pytest.mark.parametrize("stat", ["inv", "(inv,des)"])
def test_dist_with_inv_still_enumerates(capsys, monkeypatch, stat):
    pi, sigma = "5,1,8", "2,7,3,6"
    expected = _enumerated(parse_stat(stat), (5, 1, 8), (2, 7, 3, 6))
    body = ", ".join(f"{v}:{c}" for v, c in distribution_entries(expected))

    def refuse(*args):
        raise AssertionError("inv is not read off descent sets")

    monkeypatch.setattr(shuffle, "class_pair_distributions", refuse)
    assert run_cli(capsys, "dist", stat, pi, sigma) == (0, "{" + body + "}\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_genpoly_of_a_set_statistic_keeps_its_error(capsys, fmt):
    code, out, err = run_cli(capsys, "genpoly", "--format", fmt, "Des", "5,1,8", "2,7,3,6")
    assert (code, out) == (2, "")
    assert err == "error: generating polynomial needs an integer statistic, got 'Des'\n"


@pytest.mark.parametrize("command, stat", [("dist", "Pk"), ("genpoly", "maj")])
def test_interleaved_pair_above_the_bound_refused_before_any_output(capsys, command, stat):
    values = list(range(1, 22))
    pi, sigma = values[0::2], values[1::2]  # 11 + 10, interleaved domains
    code, out, err = run_cli(
        capsys, command, stat, ",".join(map(str, pi)), ",".join(map(str, sigma))
    )
    assert (code, out) == (2, "")
    assert "m+n=21 exceeds the bound 20" in err


# One small run of each command, in a fresh interpreter: what it imports.
_COMMAND_ARGV = {
    "stat": ["stat", "maj", "3,1,2"],
    "shuffles": ["shuffles", "1,3", "2"],
    "dist": ["dist", "des", "1,3", "2"],
    "genpoly": ["genpoly", "maj", "1,3", "2"],
    "reduce": ["reduce", "maj", "2,1", "3"],
    "verify": ["verify", "des", "--m", "2", "--n", "1"],
    "identity": ["identity", "maj", "--m", "2", "--n", "1"],
    "counterexample": ["counterexample", "maj", "--max", "3"],
    "conjecture": ["conjecture", "udr-pk-des", "--m", "2", "--n", "1"],
}
# The probe takes its snapshot before it imports anything else, and prints
# the modules one a line, so it loads no json of its own.
_PROBE = """
import sys
before = set(sys.modules)
{body}
print(*sorted(set(sys.modules) - before), sep="\\n")
"""
_RUN_COMMAND = """
import contextlib, io
from shufbij import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
"""
# What a scan command loads of the package: no reduce or traces, and no
# qpoly but for identity.
_SCAN_MODULES = {"shufbij", "shufbij.cli", "shufbij.errors", "shufbij.perm", "shufbij.stats",
                 "shufbij.shuffle", "shufbij.verify"}


def _modules_loaded(body, *args):
    """The modules a fresh interpreter loads while it runs ``body``."""
    env = dict(os.environ)
    src = str(Path(shufbij.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("command", list(_COMMAND_ARGV))
def test_each_command_imports_only_the_modules_it_runs(command):
    loaded = _modules_loaded(_RUN_COMMAND, *_COMMAND_ARGV[command])
    assert "shufbij.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}
    package = {m for m in loaded if m.split(".")[0] == "shufbij"}
    if command in ("verify", "identity", "counterexample", "conjecture"):
        assert package == _SCAN_MODULES | ({"shufbij.qpoly"} if command == "identity" else set())
    if command in ("stat", "shuffles", "dist", "genpoly"):
        assert "shufbij.traces" not in loaded
    if command in ("stat", "shuffles", "dist"):
        assert not loaded & {"shufbij.verify", "shufbij.reduce", "shufbij.qpoly"}


def test_json_is_imported_to_print_json():
    loaded = _modules_loaded(_RUN_COMMAND, *_COMMAND_ARGV["verify"], "--format", "json")
    assert "json" in loaded


@pytest.mark.parametrize("module", ["shufbij.verify", "shufbij.shuffle"])
def test_verdict_modules_load_no_bijection_replay_code(module):
    loaded = _modules_loaded(f"import {module}")
    assert module in loaded
    assert not loaded & {"shufbij.reduce", "shufbij.traces", "shufbij.qpoly"}


_BASE = ("errors", "perm", "stats")
# The package modules each module loads when it is imported alone.
_MODULE_IMPORTS = {
    "errors": ("errors",),
    "perm": ("errors", "perm"),
    "stats": _BASE,
    "shuffle": (*_BASE, "shuffle"),
    "traces": (*_BASE, "shuffle", "traces"),
    "reduce": (*_BASE, "shuffle", "traces", "reduce"),
    "qpoly": (*_BASE, "qpoly"),
    "verify": (*_BASE, "shuffle", "verify"),
    "cli": (*_BASE, "shuffle", "cli"),
}


@pytest.mark.parametrize("module", list(_MODULE_IMPORTS))
def test_each_module_loads_only_the_modules_it_imports(module):
    loaded = _modules_loaded(f"import shufbij.{module}")
    package = {m for m in loaded if m.split(".")[0] == "shufbij"}
    assert package == {"shufbij", *(f"shufbij.{m}" for m in _MODULE_IMPORTS[module])}


def test_reading_a_bijection_off_shuffle_loads_traces():
    loaded = _modules_loaded("import shufbij.shuffle; shufbij.shuffle.normalize_pair")
    assert "shufbij.traces" in loaded


def test_bare_package_import_loads_no_submodule():
    loaded = _modules_loaded("import shufbij")
    assert "shufbij" in loaded
    assert not {m for m in loaded if m.startswith("shufbij.")}


# The package's public names, by home module.
_PUBLIC_NAMES = {
    "errors": ["DomainOverlapError", "InfeasibleProfileError", "NotAShuffleError",
               "ResourceLimitError"],
    "perm": ["Perm", "as_perm", "format_perm", "insert_in_space", "parse_perm",
             "perm_with_descent_set", "perm_with_left_peak_profile", "space_labels",
             "standardize", "standardize_unit"],
    "qpoly": ["QPoly", "gen_poly", "q_binomial", "q_factorial", "q_int", "stanley_refined_rhs",
              "stanley_rhs"],
    "reduce": ["apply_step", "apply_trace", "canonicalize", "theta_des", "theta_lpk",
               "theta_maj_first", "theta_pk"],
    "shuffle": ["from_word", "is_shuffle", "iter_shuffles", "shuffle_distribution", "shuffles",
                "shuffles_with_k_descents", "word_of"],
    "stats": ["Distribution", "StatValue", "asc_set", "biruns", "chi_minus", "chi_plus",
              "des_set", "distribution", "evaluate", "inv", "maj", "parse_stat", "peak_family",
              "udr", "valley_family"],
    "traces": ["ReductionStep", "ReductionTrace", "normalize_pair", "phi", "phi_tilde", "t_swap"],
    "verify": ["Report", "Witness", "check_bijection_pipeline", "check_compatibility",
               "check_conjecture_udr_pk_des", "check_identity", "find_counterexample"],
}


def test_package_names_resolve_to_their_home_objects():
    expected = {name: home for home, names in _PUBLIC_NAMES.items() for name in names}
    assert sorted(shufbij.__all__) == sorted(expected)
    assert set(expected) <= set(dir(shufbij))
    for name, home in expected.items():
        assert getattr(shufbij, name) is getattr(import_module(f"shufbij.{home}"), name), name
    for name in ("normalize_pair", "phi", "phi_tilde", "t_swap"):  # their old home answers too
        assert getattr(shuffle, name) is getattr(import_module("shufbij.traces"), name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shufbij.no_such_name
