import json
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from coverdepth.cli import main
from coverdepth.coverage import expectation_hamming, expectation_simplex, mds_bound

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


def test_expect_deeply_nested_dual_of_spec(capsys):
    # An even number of duals gives back the simplex code; the prefixes are
    # stripped in a loop, so their number is not bounded by the stack.
    spec = "dual-of:" * 1200 + "simplex"
    assert main(["expect", "--field", "2", "--code", spec, "--k", "3"]) == 0
    assert capsys.readouterr().out.startswith("value 47/12 ")


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


def test_bound_prints_values_past_the_int_str_digit_limit():
    # The denominator has about 6,800 digits, past Python's default 4300-digit
    # int-to-str limit; Decimal compares the printed digits without that limit.
    proc = run_cli("bound", "--n", "20000", "--k", "6000", "--digits", "5")
    assert proc.returncode == 0, proc.stderr
    num, den = proc.stdout.split()[0].split("/")
    value = mds_bound(20000, 6000)
    assert len(den) > 4300
    assert (Decimal(num), Decimal(den)) == (Decimal(value.numerator), Decimal(value.denominator))


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
    # At n = 10^6 the counts themselves have millions of digits, so the
    # check must stop as soon as it passes the budget and never print them.
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    # At k = 1 there is a single candidate, but it has 10^8 columns: the
    # budget also bounds n, so it is refused before it is built.
    for mode in ("projective", "full"):
        for k, n in (("40", "40"), ("40", "1000000"), ("1", "100000000")):
            proc = run_cli(
                "search", "--field", "2", "--k", k, "--n", n, "--mode", mode,
                timeout=60, preexec_fn=limit_memory,
            )
            assert proc.returncode == 2
            assert proc.stderr.startswith("budget exceeded: ")


def test_expect_hamming_r6_is_bounded():
    # The walk over its 63 columns ran without end; the subspace lattice of
    # GF(2)^6 has 2,825 members.
    proc = run_cli("expect", "--field", "2", "--code", "hamming", "--r", "6", timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"value {expectation_hamming(2, 6)} ")


@pytest.mark.parametrize(
    "argv",
    [
        ("--field", "2", "--code", "hamming", "--r", "7"),
        ("--field", "3", "--code", "hamming", "--r", "6"),
        ("--field", "1031", "--code", "rs", "--n", "30", "--k", "20"),
    ],
    ids=["2-7", "3-6", "rs-1031-30-20"],
)
def test_expect_past_the_level_budget_exits_two(argv):
    # Neither dual lattice is kept (GF(2)^7, GF(3)^6, GF(1031)^10), and the
    # level count refuses the independent 4-subsets of the 127 binary
    # points, the 3-subsets of the 364 ternary points and the 6-subsets of
    # the RS [30,20] kernel's 30 columns. The walk ran without end on the
    # Hamming codes and past 40 s on RS [30,20].
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    proc = run_cli("expect", *argv, timeout=60, preexec_fn=limit_memory)
    assert proc.returncode == 2
    assert proc.stderr.startswith("budget exceeded: ")
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("expect", "--field", "4", "--code", "simplex", "--k", "7"),
        ("expect", "--field", "1031", "--code", "rs", "--n", "1032", "--k", "2", "--method", "dual"),
        ("expect", "--field", "65537", "--code", "rs", "--n", "1032", "--k", "2", "--method", "dual"),
    ],
    ids=["simplex-4-7", "rs-1031-dual", "rs-65537-dual"],
)
def test_walk_past_the_recursion_limit_exits_two(argv):
    # The primal lattice GF(4)^7 is not kept and n - k > k, so the
    # full-rank walk, which recurses once per column, would run out of
    # stack on the 5,461 columns. The dual side of RS [1032,2]
    # has 1,030 kernel rows: over GF(1031) and over GF(65537) alike the
    # level count refuses their independent 1-subsets (over 2^25 basis
    # cells) before it reduces any.
    proc = run_cli(*argv, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("budget exceeded: ")
    assert "Traceback" not in proc.stderr


def test_rs_past_two_to_the_sixteen_is_bounded():
    # GF(65537) is one element past 2^16. Its exact value exits 2 from the
    # level budget (the independent 5-subsets of the kernel's 40 columns),
    # and its simulation runs on the vector lanes, not trial by trial.
    code = ("--field", "65537", "--code", "rs", "--n", "40", "--k", "30")
    start = time.perf_counter()
    proc = run_cli("expect", *code, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("budget exceeded: ")
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    proc = run_cli("simulate", *code, "--trials", "2000", "--format", "json", timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 10
    report = json.loads(proc.stdout)
    assert abs(report["mean"] - float(mds_bound(40, 30))) < 5 * report["std_error"]


def test_search_past_the_recursion_limit_reads_the_tail_table():
    # GF(65537)^1 is not kept, yet the search reads its one candidate of
    # 2,000 columns from the tail table, with no walk to run out of stack.
    start = time.perf_counter()
    proc = run_cli("search", "--field", "65537", "--k", "1", "--n", "2000", timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 10
    assert json.loads(proc.stdout)["minimum"] == "1/1"


def test_walk_below_the_recursion_limit_still_runs(capsys):
    assert main(["search", "--field", "65537", "--k", "1", "--n", "400"]) == 0
    assert json.loads(capsys.readouterr().out)["minimum"] == "1/1"


@pytest.mark.parametrize(
    "argv,value",
    [
        (("--field", "3", "--code", "simplex", "--k", "5"), expectation_simplex(3, 5)),
        (("--field", "5", "--code", "simplex", "--k", "4"), expectation_simplex(5, 4)),
        (("--field", "3", "--code", "hamming", "--r", "5"), expectation_hamming(3, 5)),
    ],
    ids=["simplex-3-5", "simplex-5-4", "hamming-3-5"],
)
def test_expect_on_the_largest_kept_lattices_is_bounded(argv, value):
    # The smaller side of each code is GF(3)^5 or GF(5)^4, whose lattices are
    # kept. A subset walk there never ends: a hyperplane of GF(3)^5 holds 40
    # of the simplex code's 121 columns.
    proc = run_cli("expect", *argv, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"value {value} ")


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


def test_grid_range_without_a_prime_power_is_a_usage_error():
    proc = run_cli("asymptotics", "--family", "simplex", "--k", "3", "--q-grid", "14..15")
    assert proc.returncode == 1
    assert proc.stderr == "usage error: empty grid '14..15'\n"
    assert proc.stdout == ""


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


def _usage_error(capsys, *argv):
    """main(argv) in this process: exit code 1, nothing on stdout, a usage error on stderr."""
    assert main(list(argv)) == 1, argv
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: "), (argv, err)


def test_nonpositive_budget_is_a_usage_error(capsys):
    for budget in ("-5", "0"):
        _usage_error(capsys, "search", "--field", "2", "--k", "2", "--n", "3", "--budget", budget)


def test_nonpositive_counts_are_usage_errors(capsys):
    simplex = ("--field", "2", "--code", "simplex", "--k", "3")
    for argv in (
        ("expect", *simplex, "--trials", "0"),
        ("expect", *simplex, "--method", "mc", "--trials", "0"),
        ("simulate", *simplex, "--trials", "0"),
        ("search", "--field", "2", "--k", "2", "--n", "3", "--jobs", "0"),
    ):
        _usage_error(capsys, *argv)


def test_flags_a_command_does_not_read_are_usage_errors(capsys):
    for argv in (
        ("bound", "--n", "7", "--k", "4", "--jobs", "2"),
        ("figure1", "--field", "7"),
        ("verify", "--budget", "5"),
        ("search", "--field", "2", "--k", "2", "--n", "3", "--format", "csv"),
        ("expect", "--field", "2", "--code", "simplex", "--k", "3", "--format", "csv"),
        ("asymptotics", "--family", "simplex", "--k", "3", "--q-grid", "2", "--format", "plain"),
    ):
        _usage_error(capsys, *argv)


def test_usage_errors_exit_one(capsys):
    for argv in (
        ("expect", "--field", "2"),  # no --code
        ("expect", "--field", "6", "--code", "simplex", "--k", "3"),
        ("nonsense",),
        ("bound", "--n", "7", "--k", "4", "--digits", "0"),
        ("expect", "--field", "2", "--code", "simplex"),  # no --k
        ("search", "--k", "2", "--n", "3"),  # no --field
    ):
        assert main(list(argv)) == 1, argv
        assert capsys.readouterr().out == ""


def test_verify_command_passes():
    proc = run_cli("verify")
    assert proc.returncode == 0
    assert proc.stdout == (
        "ok closed-form simplex [7,3] GF(2)\n"
        "ok closed-form hamming [7,4] GF(2)\n"
        "ok mds equality rs [5,2] GF(5)\n"
        "ok duality identity hamming [7,4] GF(2)\n"
        "ok projective reduction (2,2,3) (2,2,4) (3,2,3)\n"
        "ok simulation path agreement [7,3] GF(2)\n"
        "ok gap nonnegativity simplex k=3\n"
    )
