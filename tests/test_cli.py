import json

import pytest

from shufbij.cli import main


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
    code, _, err = run_cli(capsys, "verify", "des", "--m", "5", "--n", "5")
    assert code == 2
    assert "exceeds the bound" in err
    assert "--limit" in err and "SHUFBIJ_MAX_TOTAL" in err


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
