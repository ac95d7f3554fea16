import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, **kwargs):
    """Run this checkout's CLI (src/ first on PYTHONPATH) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "coverdepth", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def test_expect_plain_simplex():
    proc = run_cli("expect", "--field", "2", "--code", "simplex", "--k", "3")
    assert proc.returncode == 0
    assert "value 47/12" in proc.stdout
    assert "bound 107/30" in proc.stdout
    assert "gap 7/20" in proc.stdout
    assert "meets MDS bound" not in proc.stdout


def test_expect_plain_mds_code():
    proc = run_cli("expect", "--field", "5", "--code", "rs", "--n", "5", "--k", "2")
    assert proc.returncode == 0
    assert "meets MDS bound" in proc.stdout


def test_expect_json_is_byte_stable():
    args = ("expect", "--field", "2", "--code", "hamming", "--r", "3", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["value_rational"] == "347/60"
    assert doc["bound_rational"] == "319/60"
    assert doc["meets_mds_bound"] is False
    assert doc["n"] == 7 and doc["k"] == 4 and doc["q"] == 2


def test_expect_methods_agree():
    base = run_cli("expect", "--field", "2", "--code", "simplex", "--k", "3")
    dual = run_cli(
        "expect", "--field", "2", "--code", "simplex", "--k", "3", "--method", "dual"
    )
    formula = run_cli(
        "expect", "--field", "2", "--code", "simplex", "--k", "3", "--method", "formula"
    )
    assert base.stdout == dual.stdout == formula.stdout


def test_expect_formula_rejects_other_codes():
    proc = run_cli(
        "expect", "--field", "5", "--code", "rs", "--n", "5", "--k", "2",
        "--method", "formula",
    )
    assert proc.returncode == 1


def test_expect_monte_carlo_json():
    proc = run_cli(
        "expect", "--field", "2", "--code", "simplex", "--k", "3",
        "--method", "mc", "--trials", "2000", "--seed", "3", "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value_rational"] is None
    assert doc["trials"] == 2000 and doc["seed"] == 3
    assert doc["min_draws"] >= 3
    assert abs(doc["mean"] - 47 / 12) < 0.2


def test_expect_monte_carlo_plain():
    simplex = ("--field", "2", "--code", "simplex", "--k", "3", "--trials", "2000", "--seed", "3")
    proc = run_cli("expect", *simplex, "--method", "mc")
    assert proc.returncode == 0
    mean, trials, bound = proc.stdout.splitlines()
    assert mean.startswith("mean ") and " +- " in mean
    assert abs(float(mean.split()[1]) - 47 / 12) < 0.2
    assert trials.startswith("trials 2000 seed 3 min ")
    assert bound == "bound 107/30 (3.56666666666666666666666666667)"
    # simulate prints the same Monte Carlo lines, without the bound.
    sim = run_cli("simulate", *simplex, "--format", "plain")
    assert sim.stdout == f"{mean}\n{trials}\n"


def test_expect_dual_of_simplex_is_hamming():
    a = run_cli("expect", "--field", "2", "--code", "dual-of:simplex", "--k", "3")
    b = run_cli("expect", "--field", "2", "--code", "hamming", "--r", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_expect_extension_field():
    proc = run_cli("expect", "--field", "2^3", "--code", "simplex", "--k", "2")
    assert proc.returncode == 0
    assert "value" in proc.stdout


def test_expect_file_code(tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("2 3 2\n1 0 1\n0 1 1\n")
    proc = run_cli("expect", "--code", f"file:{path}")
    assert proc.returncode == 0
    assert "value 5/2" in proc.stdout


def test_expect_file_errors(tmp_path):
    missing = run_cli("expect", "--code", "file:/nonexistent/gen.txt")
    assert missing.returncode == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3 2\n1 0 1\n1 0 1\n")  # rank 1, not 2
    proc = run_cli("expect", "--code", f"file:{bad}")
    assert proc.returncode == 1


def test_bound_command():
    plain = run_cli("bound", "--n", "7", "--k", "4")
    assert plain.returncode == 0
    assert plain.stdout.startswith("319/60 (5.31666666666666666666666666667)")
    doc = json.loads(run_cli("bound", "--n", "7", "--k", "4", "--format", "json").stdout)
    assert doc["bound_rational"] == "319/60"


def test_search_json_default_and_job_stability():
    args = ("search", "--field", "2", "--k", "2", "--n", "5")
    a = run_cli(*args)
    b = run_cli(*args, "--jobs", "2")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["minimum"]
    assert "wall_time" not in doc


def test_search_plain_format():
    proc = run_cli(
        "search", "--field", "2", "--k", "2", "--n", "3", "--format", "plain"
    )
    assert proc.returncode == 0
    assert "minimum 5/2" in proc.stdout
    assert "optimal [0, 1, 2]" in proc.stdout
    assert "runner_up 7/2" in proc.stdout


def test_search_budget_exit_code():
    proc = run_cli("search", "--field", "2", "--k", "3", "--n", "7", "--budget", "100")
    assert proc.returncode == 2


def test_search_budget_is_checked_before_enumerating():
    # Enumerating before the check would need terabytes at k = 40; the
    # address-space cap makes such a regression fail instead of swapping.
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    for mode in ("projective", "full"):
        proc = run_cli(
            "search", "--field", "2", "--k", "40", "--n", "40", "--mode", mode,
            timeout=60, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("budget exceeded: ")


def test_simulate_is_deterministic_across_runs_and_jobs():
    args = (
        "simulate", "--field", "2", "--code", "simplex", "--k", "3",
        "--trials", "40000", "--seed", "11",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, "--jobs", "4")
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout
    doc = json.loads(a.stdout)
    assert doc["trials"] == 40000
    assert doc["min_draws"] >= 3
    assert doc["max_draws"] >= doc["min_draws"]


def test_asymptotics_csv_range_grid():
    proc = run_cli("asymptotics", "--family", "simplex", "--k", "3", "--q-grid", "2..9")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "q,k_or_r,n,exact,bound,gap,ratio,predicted_term"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "3", "4", "5", "7", "8", "9"]


def test_asymptotics_comma_grid_and_families():
    proc = run_cli("asymptotics", "--family", "hamming", "--r", "3", "--q-grid", "2,4")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3
    proc = run_cli("asymptotics", "--family", "binary-hamming", "--r-grid", "2..4")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 4


def test_asymptotics_json_format():
    proc = run_cli(
        "asymptotics", "--family", "simplex", "--k", "3", "--q-grid", "2,3",
        "--format", "json",
    )
    rows = json.loads(proc.stdout)
    assert [r["q"] for r in rows] == [2, 3]
    assert rows[0]["exact"] == "47/12"


def test_asymptotics_errors():
    assert run_cli("asymptotics", "--family", "simplex", "--k", "3").returncode == 1
    assert (
        run_cli("asymptotics", "--family", "simplex", "--k", "3", "--q-grid", "6").returncode
        == 1
    )
    assert run_cli("asymptotics", "--q-grid", "2..4").returncode == 1


def test_figure1_grid():
    proc = run_cli("figure1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "k,q,simplex_value,bound_value"
    assert len(lines) == 1 + 5 * 13
    assert lines[1].startswith("3,2,")
    # digits are clamped to at least 20 significant digits
    low = run_cli("figure1", "--digits", "2")
    value = low.stdout.splitlines()[1].split(",")[2]
    assert len(value.replace(".", "").lstrip("0")) >= 20


def test_out_writes_file(tmp_path):
    target = tmp_path / "out.txt"
    proc = run_cli("bound", "--n", "7", "--k", "4", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert target.read_text().startswith("319/60")


def test_out_to_missing_directory_is_an_error(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    proc = run_cli("bound", "--n", "7", "--k", "4", "--out", str(target))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_nonpositive_budget_is_a_usage_error():
    for budget in ("-5", "0"):
        proc = run_cli("search", "--field", "2", "--k", "2", "--n", "3", "--budget", budget)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: ")
        assert proc.stdout == ""


def test_nonpositive_counts_are_usage_errors():
    simplex = ("--field", "2", "--code", "simplex", "--k", "3")
    for argv in (
        ("expect", *simplex, "--trials", "0"),
        ("expect", *simplex, "--method", "mc", "--trials", "0"),
        ("simulate", *simplex, "--trials", "0"),
        ("search", "--field", "2", "--k", "2", "--n", "3", "--jobs", "0"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("usage error: ")
        assert proc.stdout == ""


def test_flags_a_command_does_not_read_are_usage_errors():
    for argv in (
        ("bound", "--n", "7", "--k", "4", "--jobs", "2"),
        ("figure1", "--field", "7"),
        ("verify", "--budget", "5"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("usage error: ")
        assert proc.stdout == ""


def test_usage_errors_exit_one():
    assert run_cli("expect", "--field", "2").returncode == 1  # no --code
    assert run_cli("expect", "--field", "6", "--code", "simplex", "--k", "3").returncode == 1
    assert run_cli("nonsense").returncode == 1
    assert run_cli("bound", "--n", "7", "--k", "4", "--digits", "0").returncode == 1
    assert run_cli("expect", "--field", "2", "--code", "simplex").returncode == 1  # no --k
    assert run_cli("search", "--k", "2", "--n", "3").returncode == 1  # no --field


def test_verify_command_passes():
    proc = run_cli("verify")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 7
    assert all(ln.startswith("ok ") for ln in lines)
