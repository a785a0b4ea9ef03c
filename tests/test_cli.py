import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import disjunct
from conftest import mds_weight_distribution, write_code
from disjunct import bounds
from disjunct.bounds import eps_cw_rosenthal
from disjunct.cli import main
from disjunct.codes import load_design, rs_code
from disjunct.textio import read_matrix, write_matrix
from disjunct.errors import MAX_OPS
from disjunct.galois import Field
from disjunct import measure
from disjunct.instances import fano, ks_rs
from disjunct.measure import comp_decode, run_tests


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fano_blocks_file(tmp_path):
    path = tmp_path / "fano.blocks"
    write_matrix(path, fano())
    return str(path)


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_construct_ks_rs(runner, tmp_path):
    out = tmp_path / "ks.txt"
    result = invoke(runner, ["construct", "--family", "ks-rs", "--q", "8", "--k", "3", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert (payload["M"], payload["N"], payload["w"]) == (56, 512, 7)
    assert payload["min_distance"] == 10
    assert len(payload["digest"]) == 64
    assert out.exists()


def test_construct_bch_cw_empty_table(runner, tmp_path):
    out = tmp_path / "bch.txt"
    result = invoke(
        runner,
        ["construct", "--family", "bch-cw", "--m", "6", "--delta", "5", "--w", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    # the [63,51] code has minimum distance 5, so its weight-3 layer is empty
    assert payload["M"] == 63 and payload["N"] == 0
    assert "warning" in payload


def test_construct_bch_cw_nonempty(runner, tmp_path):
    out = tmp_path / "bch633.txt"
    result = invoke(
        runner,
        ["construct", "--family", "bch-cw", "--m", "6", "--delta", "3", "--w", "3", "--out", str(out)],
    )
    payload = json.loads(result.output)
    assert payload["N"] == 651 and payload["w"] == 3


def test_construct_design_passthrough(runner, tmp_path, fano_blocks_file):
    out = tmp_path / "fano.txt"
    result = invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(out)])
    payload = json.loads(result.output)
    assert payload["M"] == 7 and payload["N"] == 7


def test_spectra_matrix_and_code(runner, tmp_path, fano_blocks_file):
    matrix_path = tmp_path / "fano.txt"
    invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(matrix_path)])
    result = invoke(runner, ["spectra", "--in", str(matrix_path)])
    payload = json.loads(result.output)
    assert payload["dual_distance"] == 3
    assert all(not v.startswith("-") for v in payload["dual"])  # Delsarte nonnegativity

    code_path = tmp_path / "rs52.txt"
    write_code(code_path, rs_code(Field(5, 1), 2))
    result = invoke(runner, ["spectra", "--in", str(code_path), "--kind", "code"])
    payload = json.loads(result.output)
    assert payload["dual_distance"] == 3


def test_spectra_code_takes_the_linear_route_past_the_budget(runner, tmp_path):
    # RS(16,4) has N=65536 words, past the 10^4 words the pair loop may compare
    code_path = tmp_path / "rs164.txt"
    write_code(code_path, rs_code(Field(2, 4), 4))
    result = invoke(runner, ["spectra", "--in", str(code_path), "--kind", "code"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["N"] == 65536 and payload["dual_distance"] == 5
    assert payload["counts"] == [65536 * a for a in mds_weight_distribution(16, 15, 4)]


def test_bound_families(runner):
    result = invoke(runner, ["bound", "--family", "cw-l2", "--M", "63", "--w", "3", "--t", "5"])
    payload = json.loads(result.output)
    assert abs(payload["epsilon"] - 125 / 992) < 1e-12
    result = invoke(runner, ["bound", "--family", "rs-asymptotic", "--q", "64", "--t", "2", "--ell", "4"])
    payload = json.loads(result.output)
    assert abs(payload["epsilon"] - 0.016792181078649392) < 1e-12
    result = invoke(
        runner,
        ["bound", "--family", "cw-minkowski", "--M", "1024", "--w", "32", "--t", "8", "--ell", "auto", "--dprime", "5"],
    )
    payload = json.loads(result.output)
    assert payload["ell_selected"] in (2, 4)


@pytest.mark.parametrize(
    "family,given",
    [
        ("nonbinary", ["--n", "7"]),
        ("nonbinary", ["--q", "8"]),
        ("cw-minkowski", ["--w", "32"]),
        ("cw-rosenthal", ["--M", "1024"]),
    ],
)
def test_bound_ell_auto_missing_params_exit_2(runner, family, given):
    args = ["bound", "--family", family, "--t", "2", "--ell", "auto", "--dprime", "5", *given]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{family} needs" in result.output


def test_bound_ell_auto_names_skipped_ells(runner):
    # ell=2 fails both M preconditions of the Rosenthal bound at M=200, w=10, t=3
    base = ["bound", "--family", "cw-rosenthal", "--M", "200", "--w", "10", "--t", "3"]
    result = runner.invoke(main, [*base, "--ell", "auto", "--dprime", "9"])
    assert result.exit_code == 0
    assert result.stderr.splitlines() == [
        "note: ell=2 skipped: M >= 4*w^2*t/ell^2, M >= w + 2*e*w^2/ell"
    ]
    payload = json.loads(result.stdout)
    assert payload.pop("ell_selected") == 4
    explicit = runner.invoke(main, [*base, "--ell", "4"])
    assert explicit.stderr == "" and payload == json.loads(explicit.stdout)

    # no ell is admissible: the error names each one with its failed preconditions
    args = ["bound", "--family", "nonbinary", "--q", "8", "--n", "7", "--t", "9", "--ell", "auto", "--dprime", "5"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and result.stdout == ""
    assert (
        "(ell=2: t <= q, t < q (finite bound); ell=4: t <= q, t < q (finite bound))"
        in result.stderr
    )


def test_bound_ell_auto_evaluates_each_ell_once(runner, monkeypatch):
    calls = []

    def counted(m_len, w, t, ell, dprime=None):
        calls.append(ell)
        return eps_cw_rosenthal(m_len, w, t, ell, dprime)

    monkeypatch.setattr(bounds, "eps_cw_rosenthal", counted)
    args = ["bound", "--family", "cw-rosenthal", "--M", "200", "--w", "10", "--t", "3", "--ell", "auto", "--dprime", "9"]
    assert runner.invoke(main, args).exit_code == 0
    assert calls == [2, 4, 6, 8]


@pytest.mark.parametrize("q", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "family,given",
    [
        ("nonbinary", ["--n", "7"]),
        ("cw-minkowski", ["--M", "63", "--w", "3"]),
        ("cw-rosenthal", ["--M", "63", "--w", "3"]),
        ("cw-l2", ["--M", "63", "--w", "3"]),
        ("rs-asymptotic", []),
    ],
)
def test_bound_rejects_a_non_finite_q(runner, q, family, given):
    # an infinite or NaN q would print Infinity or NaN, which is not JSON
    args = ["bound", "--family", family, "--q", q, "--t", "2", "--ell", "2", *given]
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ")


def test_bound_rosenthal_huge_weight_is_no_overflow(runner):
    # 4*w^2*t/ell^2 and 2*e*w^2/ell overflow a double at w = 10^200
    args = ["bound", "--family", "cw-rosenthal", "--M", "10", "--w", str(10**200), "--t", "1", "--ell", "2"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["preconditions_met"] is False and payload["log_epsilon"] is None
    assert payload["preconditions"]["M >= 4*w^2*t/ell^2"] is False
    assert payload["preconditions"]["M >= w + 2*e*w^2/ell"] is False


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "rs-asymptotic", "--q", "64", "--t", "2", "--ell", "1000"],
        ["--family", "cw-l2", "--M", str(10**400), "--w", "1", "--t", str(10**400 - 2)],
    ],
)
def test_bound_epsilon_past_the_largest_double_is_inf(runner, args):
    # log epsilon is above 709.8 in both, where math.exp raises OverflowError
    result = runner.invoke(main, ["bound", *args])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["epsilon"] == "inf" and payload["log_epsilon"] > 709.8 and payload["trivial"] is True


@pytest.mark.parametrize("ell", [["--ell", "2"], ["--ell", "auto", "--dprime", "5"]])
def test_bound_nonbinary_rejects_a_fractional_q(runner, ell):
    # the alphabet size is an integer; 7.5 must not be answered for q = 7
    args = ["bound", "--family", "nonbinary", "--q", "7.5", "--n", "6", "--t", "2", *ell]
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and result.stdout == ""
    assert "integer alphabet size --q, got 7.5" in result.stderr


ELL_FAMILIES = [  # each family that takes an ell, with parameters that meet its preconditions at t = 2
    ("nonbinary", ["--q", "16", "--n", "15"]),
    ("cw-minkowski", ["--M", "1024", "--w", "32"]),
    ("cw-rosenthal", ["--M", "200", "--w", "10"]),
    ("rs-asymptotic", ["--q", "64"]),
]


@pytest.mark.parametrize("family,given", ELL_FAMILIES)
def test_bound_ell_past_the_budget_is_an_input_error(runner, family, given):
    # ell/2 + 1 terms are charged before the evaluation; at 2*10^400, ell/2 overflowed a double
    for ell, env in ((str(2 * 10**400), {}), ("2000", {"DISJUNCT_MAX_OPS": "1000"})):
        result = runner.invoke(main, ["bound", "--family", family, *given, "--t", "2", "--ell", ell], env=env)
        assert result.exit_code == 2 and result.stdout == "", result.exc_info
        assert result.stderr.startswith(f"error: {family} bound, ell/2 + 1 terms: ")
    assert runner.invoke(main, ["bound", "--family", family, *given, "--t", "2", "--ell", "2000"]).exit_code == 0


@pytest.mark.parametrize("family,given", ELL_FAMILIES)
def test_bound_ell_past_a_double_is_an_input_error(runner, family, given):
    # under a budget of 10^500 the ell/2 + 1 terms of ell = 2*10^400 are allowed, and ell / 2 raised
    # OverflowError; refused before any evaluation, whatever the family
    env = {"DISJUNCT_MAX_OPS": "1" + "0" * 500}
    result = runner.invoke(main, ["bound", "--family", family, *given, "--t", "2", "--ell", str(2 * 10**400)], env=env)
    assert result.exit_code == 2 and result.stdout == "", result.exc_info
    assert result.stderr == "error: ell of 1330 bits is past the range of a double\n"
    assert runner.invoke(main, ["bound", "--family", family, *given, "--t", "2", "--ell", "2000"], env=env).exit_code == 0


def test_bound_rs_asymptotic_past_a_double_power(runner):
    # ell = 10^300 is a double and its ell/2 + 1 terms are within a budget of 10^500, but ell**1.5
    # raised OverflowError; 2.13*ell^1.5 is then past every double, so the condition is False
    env = {"DISJUNCT_MAX_OPS": "1" + "0" * 500}
    args = ["bound", "--family", "rs-asymptotic", "--q", "32", "--t", "2", "--ell", str(10**300)]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, result.exc_info
    assert json.loads(result.stdout)["preconditions"]["q > 2.13*ell^1.5*sqrt(t) + t"] is False


def test_bound_ell_auto_charges_the_whole_scan_first(runner, monkeypatch):
    # sum over even ell < 2000 of ell/2 + 1 is 500,499 terms; past the budget nothing is evaluated
    def no_evaluation(*args):
        raise AssertionError("evaluated before the scan was charged")

    base = ["bound", "--family", "cw-minkowski", "--M", "100", "--w", "3", "--t", "2", "--ell", "auto"]
    assert runner.invoke(main, [*base, "--dprime", "2000"], env={"DISJUNCT_MAX_OPS": "500499"}).exit_code == 0
    monkeypatch.setattr(bounds, "eps_cw", no_evaluation)
    result = runner.invoke(main, [*base, "--dprime", "2000"], env={"DISJUNCT_MAX_OPS": "500498"})
    assert result.exit_code == 2 and result.stderr == (
        "error: even-ell scan below the dual distance, ell/2 + 1 terms each: 500499 operations "
        "exceed budget 500498 (DISJUNCT_MAX_OPS)\n")
    start = time.perf_counter()  # the scan was quadratic in d': 200,000 ran past a minute
    assert runner.invoke(main, [*base, "--dprime", "200000"]).exit_code == 2
    assert time.perf_counter() - start < 1.0
    # a count past the digit limit of int text is named by its bits
    result = runner.invoke(main, [*base, "--dprime", str(10**3000)])
    assert result.exit_code == 2 and ": 2^19928 or more operations exceed budget" in result.stderr


def test_params_calculators(runner):
    result = invoke(runner, ["params", "--family", "hermitian", "--q0", "3", "--r", "9"])
    payload = json.loads(result.output)
    assert payload["M"] == 243 and payload["dprime_lower_bound"] == 5
    result = invoke(runner, ["params", "--family", "suzuki", "--m", "1", "--r", "32"])
    payload = json.loads(result.output)
    assert payload["M"] == 512 and payload["dprime_lower_bound"] == 6


def test_params_hermitian_checks_r_before_factoring_q0(runner, monkeypatch):
    # a 16-digit prime q0 would take seconds of trial division; the r-range error needs none
    def no_factoring(n):
        raise AssertionError(f"prime_power({n}) called before the range check")

    monkeypatch.setattr(bounds, "prime_power", no_factoring)
    result = runner.invoke(main, ["params", "--family", "hermitian", "--q0", "1000000000000037", "--r", "5"])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith("error: r=5 outside [1000000000000073000000000001330, ")


@pytest.mark.parametrize("args", [
    ["--family", "suzuki", "--m", "4000", "--r", "5"],
    ["--family", "hermitian", "--q0", str(10**800 + 1), "--r", "5"],
    ["--family", "suzuki", "--m", "2400", "--r", str(2**7300)],  # a valid r, below q^2 = 2^9602
])
def test_params_past_the_digit_limit_is_an_input_error(runner, args):
    # the range error or the JSON would write an int of more than 4300 digits, a ValueError
    result = runner.invoke(main, ["params", *args])
    assert result.exit_code == 2 and result.stdout == "", result.exc_info
    assert result.stderr.count("\n") == 1 and "integers of more than 4300 digits" in result.stderr


def test_params_hermitian_trial_division_is_charged(runner):
    # q0 = 10^12 + 39 is prime: 10^6 trial divisions, and 10^18 + 3 would take 10^9
    for q0, budget in ((10**12 + 39, "100000"), (10**18 + 3, "1000000")):
        start = time.perf_counter()
        result = runner.invoke(main, ["params", "--family", "hermitian", "--q0", str(q0), "--r", str(q0 * q0)],
                               env={"DISJUNCT_MAX_OPS": budget})
        assert result.exit_code == 2 and time.perf_counter() - start < 1.0
        assert result.stderr.startswith("error: trial divisions toward the square root: ")
    result = runner.invoke(main, ["params", "--family", "hermitian", "--q0", str(10**12 + 39), "--r", "5"])
    assert result.exit_code == 2 and result.stderr.startswith("error: r=5 outside")


def test_simulate_exact_and_bounds_table(runner, tmp_path, fano_blocks_file):
    matrix_path = tmp_path / "fano.txt"
    invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(matrix_path)])
    result = invoke(runner, ["simulate", "--matrix", str(matrix_path), "--t", "2", "--exact"])
    payload = json.loads(result.output)
    assert payload["report"]["p_a"] == "0/1"
    formulas = {entry["formula"] for entry in payload["bounds"]}
    assert "cw-l2" in formulas  # applicable: measured dual distance 3 > 2


def test_simulate_monte_carlo_byte_identical(runner, tmp_path, fano_blocks_file):
    matrix_path = tmp_path / "fano.txt"
    invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(matrix_path)])
    args = ["simulate", "--matrix", str(matrix_path), "--t", "2", "--trials", "5000", "--seed", "99"]
    first = invoke(runner, args).output
    second = invoke(runner, args).output
    assert first == second


def test_simulate_decode_mode_and_trial_dump(runner, tmp_path, fano_blocks_file):
    matrix_path = tmp_path / "fano.txt"
    invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(matrix_path)])
    dump = tmp_path / "trials.csv"
    result = invoke(
        runner,
        ["simulate", "--matrix", str(matrix_path), "--t", "2", "--trials", "50",
         "--decode", "--dump-trials", str(dump)],
    )
    payload = json.loads(result.output)
    assert payload["report"]["false_negatives"] == 0
    assert payload["report"]["violations"] == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "trial,defectives,false_positives"
    assert len(lines) == 51
    assert all(line.endswith(",0") for line in lines[1:])


def test_trial_dump_matches_report_and_replay(runner, tmp_path):
    # KS(8,3) is 3-disjunct; at t=5 most trials have false positives
    matrix_path = tmp_path / "ks83.txt"
    invoke(runner, ["construct", "--family", "ks-rs", "--q", "8", "--k", "3", "--out", str(matrix_path)])
    dump = tmp_path / "trials.csv"
    result = invoke(
        runner,
        ["simulate", "--matrix", str(matrix_path), "--t", "5", "--trials", "500",
         "--decode", "--dump-trials", str(dump)],
    )
    report = json.loads(result.output)["report"]
    rows = [line.split(",") for line in dump.read_text().strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(500))
    assert sum(int(r[2]) for r in rows) == report["violations"] > 0
    matrix = read_matrix(matrix_path)
    for _, defectives, fp in rows[:40]:
        picks = [int(v) for v in defectives.split()]
        decoded = set(comp_decode(matrix, run_tests(matrix, picks)))
        assert len(decoded - set(picks)) == int(fp)


def test_trial_dump_decodes_each_chunk_once(runner, tmp_path, monkeypatch):
    # the report and the CSV read one pass of the decoder
    matrix = ks_rs(4, 2)
    write_matrix(tmp_path / "ks42.txt", matrix)
    calls = []
    comp_counts = measure._comp_counts
    monkeypatch.setattr(measure, "_comp_counts", lambda *a: calls.append(1) or comp_counts(*a))
    trials = 20000
    chunk = measure._decode_chunk_size(matrix.num_columns, matrix.length)
    args = ["simulate", "--matrix", str(tmp_path / "ks42.txt"), "--t", "3", "--trials", str(trials), "--decode"]
    reports = []
    for extra in ([], ["--dump-trials", str(tmp_path / "trials.csv")]):
        calls.clear()
        reports.append(invoke(runner, args + extra).output)
        assert len(calls) == -(-trials // chunk) == 5, extra
    assert reports[0] == reports[1]
    assert len((tmp_path / "trials.csv").read_text().splitlines()) == trials + 1


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_decode_rejects_nonpositive_trials(runner, tmp_path, fano_blocks_file, trials):
    matrix_path = tmp_path / "fano.txt"
    invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(matrix_path)])
    for mode in ([], ["--decode"], ["--exact"]):  # checked before the mode branch
        result = runner.invoke(main, ["simulate", "--matrix", str(matrix_path), "--t", "2", "--trials", trials] + mode)
        assert result.exit_code == 2 and result.stdout == "", mode
        assert result.stderr == "error: trials must be >= 1\n", mode


@pytest.mark.parametrize(
    "extra,why",
    [
        (["--exact", "--decode"], "--exact and --decode are two modes"),
        (["--dump-trials", "DUMP"], "--dump-trials writes the trials of --decode"),
        (["--exact", "--dump-trials", "DUMP"], "--dump-trials writes the trials of --decode"),
        (["--decode", "--interval", "clopper-pearson"], "applies to the Monte Carlo probe only"),
        (["--exact", "--interval", "clopper-pearson"], "applies to the Monte Carlo probe only"),
    ],
)
def test_simulate_rejects_flags_its_mode_ignores(runner, tmp_path, fano_blocks_file, extra, why):
    dump = tmp_path / "trials.csv"
    args = ["simulate", "--matrix", fano_blocks_file, "--t", "2", "--trials", "10"]
    result = runner.invoke(main, args + [str(dump) if a == "DUMP" else a for a in extra])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ") and why in result.stderr
    assert not dump.exists()


def test_corrupt_matrix_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 3 2\n0 1\n")
    result = runner.invoke(main, ["simulate", "--matrix", str(bad), "--t", "1"])
    assert result.exit_code == 2
    # a duplicate column; w+1 points next to w-1
    for body in ("6 3 2\n0 1\n2 3\n0 1\n", "6 3 2\n0 1 2\n3\n4 5\n"):
        bad.write_text(body)
        for args in (["spectra", "--in", str(bad)], ["simulate", "--matrix", str(bad), "--t", "1"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2 and result.stdout == "", (body, args)


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    # importing scipy.stats costs about a second, scipy.special about 0.35 s: the CLI loads
    # neither at start-up, and `simulate` loads scipy only for a Clopper-Pearson interval
    write_matrix(tmp_path / "fano.txt", fano())
    code = "\n".join([
        "import sys",
        "from click.testing import CliRunner",
        "from disjunct.cli import main",
        "print('scipy.stats' in sys.modules)",
        "args = ['simulate', '--matrix', sys.argv[1], '--t', '2', '--trials', '50']",
        "for extra in ([], ['--decode'], ['--interval', 'clopper-pearson']):",
        "    result = CliRunner().invoke(main, args + extra)",
        "    print(result.exit_code, 'scipy' in sys.modules, result.output.count('interval_method'))",
    ])
    src = str(Path(disjunct.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "fano.txt")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines() == ["False", "0 False 1", "0 False 1", "0 True 1"]


def test_construct_design_of_a_weight_zero_file(runner, tmp_path):
    # the canonical file of one empty support on 3 points; it was read as the block (0, 1, 3)
    blocks, out = tmp_path / "w0.blocks", tmp_path / "w0.txt"
    digest = write_matrix(blocks, load_design([()], length=3))
    result = invoke(runner, ["construct", "--family", "design", "--in", str(blocks), "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert (payload["M"], payload["N"], payload["w"], payload["digest"]) == (3, 1, 0, digest)
    assert payload["min_distance"] is None and out.read_bytes() == blocks.read_bytes() == b"3 1 0\n\n"


def test_construct_design_of_an_empty_layer(runner, tmp_path):
    # BCH(63, 5) has no weight-3 word; its layer file "63 0 3" was read back as weight 0, "63 0 0"
    layer, out = tmp_path / "layer.txt", tmp_path / "again.txt"
    args = ["construct", "--family", "bch-cw", "--m", "6", "--delta", "5", "--w", "3", "--out", str(layer)]
    built = json.loads(invoke(runner, args).stdout)
    again = json.loads(invoke(runner, ["construct", "--family", "design", "--in", str(layer), "--out", str(out)]).stdout)
    assert out.read_bytes() == layer.read_bytes() == b"63 0 3\n"
    assert (again["M"], again["N"], again["w"], again["digest"]) == (63, 0, 3, built["digest"])


@pytest.mark.parametrize("command", ["spectra", "bound", "params", "simulate"])
def test_out_file_holds_the_printed_bytes(runner, tmp_path, fano_blocks_file, command):
    args = {
        "spectra": ["spectra", "--in", fano_blocks_file],
        "bound": ["bound", "--family", "cw-minkowski", "--M", "63", "--w", "3", "--t", "2", "--ell", "auto",
                  "--dprime", "7"],
        "params": ["params", "--family", "hermitian", "--q0", "3", "--r", "10"],
        "simulate": ["simulate", "--matrix", fano_blocks_file, "--t", "2", "--trials", "500"],
    }[command]
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0, printed.output
    out = tmp_path / "report.json"
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert written.exit_code == 0 and written.stdout == "" and written.stderr == printed.stderr
    assert out.read_bytes() == printed.stdout.encode() and printed.stdout.startswith("{")


def test_empty_matrix_file_roundtrip_and_spectra_rejection(runner, tmp_path):
    out = tmp_path / "empty.txt"
    invoke(
        runner,
        ["construct", "--family", "bch-cw", "--m", "6", "--delta", "5", "--w", "3", "--out", str(out)],
    )

    again = read_matrix(out)
    assert again.num_columns == 0 and again.length == 63
    result = runner.invoke(main, ["spectra", "--in", str(out)])
    assert result.exit_code == 2  # no spectrum of an empty code


def test_missing_required_params_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["construct", "--family", "ks-rs", "--out", str(tmp_path / "x.txt")])
    assert result.exit_code == 2


def test_verify_subsets(runner):
    result = runner.invoke(main, ["verify", "--only", "moments"])
    assert result.exit_code == 0
    assert "all checks passed" in result.output
    result = runner.invoke(main, ["verify", "--only", "fields", "--only", "orthogonality"])
    assert result.exit_code == 0


def test_construct_ks_rs_rejects_non_prime_power(runner, tmp_path):
    out = tmp_path / "x.txt"
    result = runner.invoke(main, ["construct", "--family", "ks-rs", "--q", "6", "--k", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "q=6 is not a prime power" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("mode", [[], ["--decode"], ["--exact"]])
@pytest.mark.parametrize("confidence", ["0", "1", "2", "7"])
def test_simulate_rejects_confidence_outside_unit_interval(runner, tmp_path, fano_blocks_file, mode, confidence):
    args = ["simulate", "--matrix", fano_blocks_file, "--t", "2", "--trials", "10", "--confidence", confidence]
    result = runner.invoke(main, args + mode)
    assert result.exit_code == 2
    assert "confidence must lie strictly between 0 and 1" in result.stderr
    assert result.stdout == ""


_SPECTRA = ["spectra", "--in"]
_SIMULATE = ["simulate", "--t", "2", "--trials", "10", "--matrix"]
_NOT_AN_INTEGER = "DISJUNCT_MAX_OPS='abc' is not an integer"


@pytest.mark.parametrize(
    "env,args,message",
    [
        pytest.param("DISJUNCT_MAX_OPS", ["construct", "--family", "design", "--in"], _NOT_AN_INTEGER,
                     id="construct"),
        pytest.param("DISJUNCT_MAX_OPS", _SPECTRA, _NOT_AN_INTEGER, id="spectra"),
        pytest.param("DISJUNCT_MAX_OPS", _SIMULATE, _NOT_AN_INTEGER, id="simulate"),
        # a retired variable set to garbage is named as retired, not parsed as a budget or ignored
        pytest.param("DISJUNCT_MAX_SPECTRUM_N", _SPECTRA,
                     "DISJUNCT_MAX_SPECTRUM_N was replaced by DISJUNCT_MAX_OPS", id="DISJUNCT_MAX_SPECTRUM_N-args0"),
        pytest.param("DISJUNCT_MAX_SUPPORT_OPS", _SIMULATE,
                     "DISJUNCT_MAX_SUPPORT_OPS was replaced by DISJUNCT_MAX_OPS", id="DISJUNCT_MAX_SUPPORT_OPS-args1"),
        pytest.param("DISJUNCT_MAX_SPECTRUM_N", _SIMULATE,
                     "DISJUNCT_MAX_SPECTRUM_N was replaced by DISJUNCT_MAX_OPS", id="DISJUNCT_MAX_SPECTRUM_N-args2"),
    ],
)
def test_malformed_budget_variable_exits_2(runner, tmp_path, fano_blocks_file, env, args, message):
    out = tmp_path / "out.txt"
    extra = ["--out", str(out)] if args[0] == "construct" else []
    result = runner.invoke(main, [*args, fano_blocks_file, *extra], env={env: "abc"})
    assert result.exit_code == 2 and result.stdout == "" and not out.exists()
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("name", ["DISJUNCT_MAX_SUPPORT_OPS", "DISJUNCT_MAX_ENUM", "DISJUNCT_MAX_SPECTRUM_N"])
def test_retired_budget_variable_exits_2(runner, fano_blocks_file, name):
    # silently ignoring a budget the user set would run with a different one than asked for
    result = runner.invoke(main, ["spectra", "--in", fano_blocks_file], env={name: "100"})
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"error: {name} was replaced by DISJUNCT_MAX_OPS\n"


def test_simulate_exact_over_support_budget_exits_2(runner, fano_blocks_file):
    # exact_pa runs first and holds the walk to the budget, before the relaxation's 7^2 pairs
    args = ["simulate", "--matrix", fano_blocks_file, "--t", "2", "--exact"]
    result = runner.invoke(main, args, env={"DISJUNCT_MAX_OPS": "100"})
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == ("error: walk over C(7,2)*(N-t) (subset, probe) pairs: 105 operations exceed "
                             "budget 100 (DISJUNCT_MAX_OPS)\n")


def test_construct_over_the_pair_budget_writes_no_file(runner, tmp_path):
    # the [31,26] BCH code's weight-3 layer walks C(31,2) = 465 subsets, but min_distance counts
    # 155^2 column pairs; the refusal comes before the matrix file is written
    out = tmp_path / "bch.txt"
    args = ["construct", "--family", "bch-cw", "--m", "5", "--delta", "3", "--w", "3", "--out", str(out)]
    result = runner.invoke(main, args, env={"DISJUNCT_MAX_OPS": "1000"})
    assert result.exit_code == 2 and result.stdout == "" and not out.exists()
    assert result.stderr == ("error: pair count over 155^2 column pairs: 24025 operations exceed "
                             "budget 1000 (DISJUNCT_MAX_OPS)\n")
    assert runner.invoke(main, args, env={"DISJUNCT_MAX_OPS": "24025"}).exit_code == 0 and out.exists()


def test_simulate_exact_past_the_walk_budget_from_one_probe(runner, tmp_path):
    # KS(8,3) at t = 3: C(512,3)*509 pairs are over the default budget, but the inclusion-exclusion
    # counts of one probe (7*2^7 + 3,584 entries) give P_A = 0; the report keeps its keys
    path = tmp_path / "ks83.txt"
    write_matrix(path, ks_rs(8, 3))
    result = runner.invoke(main, ["simulate", "--matrix", str(path), "--t", "3", "--exact"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)["report"]
    assert sorted(report) == ["mode", "p_a", "p_a_float", "pairs", "pairwise_relaxation",
                              "pairwise_relaxation_float", "t"]
    assert report["p_a"] == "0/1" and report["pairs"] == 22_238_720 * 509 > MAX_OPS


def test_simulate_exact_refuses_a_t_past_the_digit_limit(runner, tmp_path, monkeypatch):
    # KS(16,4) at t = 3000: C(N,t)*(N-t) has about 5,300 digits, which json.dumps could not write
    def no_exact_work(*args):
        raise AssertionError("exact work before the digit check")

    path = tmp_path / "ks164.txt"
    write_matrix(path, ks_rs(16, 4))
    monkeypatch.setattr(measure, "exact_pa", no_exact_work)
    result = runner.invoke(main, ["simulate", "--matrix", str(path), "--t", "3000", "--exact"])
    assert result.exit_code == 2 and result.stdout == "", result.exc_info
    assert result.stderr == ("error: --exact at t=3000 gives integers of more than 4300 digits, past the limit "
                             "of int text (sys.get_int_max_str_digits)\n")


def test_simulate_exact_at_large_t_is_fast(runner, tmp_path):
    # KS(16,3) at t = 320: the relaxation's dynamic program took 9.5 s here
    path = tmp_path / "ks163.txt"
    write_matrix(path, ks_rs(16, 3))
    start = time.perf_counter()
    result = runner.invoke(main, ["simulate", "--matrix", str(path), "--t", "320", "--exact"])
    assert result.exit_code == 0 and time.perf_counter() - start < 1.0
    report = json.loads(result.stdout)["report"]
    assert report["p_a"] != "0/1" and report["pairwise_relaxation_float"] > report["p_a_float"]


def test_simulate_skips_bounds_above_half_weight(runner, tmp_path):
    # weight-12 layer of the [15,11] BCH code: w > M/2 has no Hahn transform, so no dual distance
    matrix_path = tmp_path / "bch12.txt"
    built = invoke(runner, ["construct", "--family", "bch-cw", "--m", "4", "--delta", "3", "--w", "12",
                            "--out", str(matrix_path)])
    assert built.exit_code == 0 and json.loads(built.stdout)["N"] == 35
    result = runner.invoke(main, ["simulate", "--matrix", str(matrix_path), "--t", "1", "--trials", "100"])
    assert result.exit_code == 0
    assert result.stderr == "note: bounds skipped: weight 12 outside [0, 15//2]\n"
    payload = json.loads(result.stdout)
    assert payload["bounds"] == [] and payload["report"]["trials"] == 100


@pytest.mark.parametrize("command", ["construct", "spectra"])
def test_huge_alphabet_refused_before_factoring(tmp_path, command):
    # 2^61 - 1 is prime: trial division to its square root would run for hours
    q = (1 << 61) - 1
    code_path = tmp_path / "code.txt"
    code_path.write_text(f"{q} 2 1\n0 0\n")
    args = {
        "construct": ["construct", "--family", "ks-rs", "--q", str(q), "--k", "2",
                      "--out", str(tmp_path / "x.txt")],
        "spectra": ["spectra", "--kind", "code", "--in", str(code_path)],
    }[command]
    src = str(Path(disjunct.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "disjunct.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: field order {q} exceeds limit 65536\n"


def test_rs_symbols_over_the_budget_refused_before_allocating(tmp_path):
    # RS(65536,1) has only 2^16 words, but 65536 * 65535 int32 symbols are 16 GiB; the child's
    # address space is capped at 3 GiB, so a build that tried to allocate them would exit 1 with
    # a MemoryError traceback instead of refusing the input
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "ks.txt"
    args = ["construct", "--family", "ks-rs", "--q", "65536", "--k", "1", "--out", str(out)]
    src = str(Path(disjunct.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "disjunct.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
    assert proc.stderr == ("error: RS(65536,1) enumeration of N*n = 65536^1*65535 symbols: 4294901760 "
                           "operations exceed budget 100000000 (DISJUNCT_MAX_OPS)\n")


@pytest.mark.parametrize("w", [6, 121])
def test_hamming_layer_over_the_budget_refused_before_allocating(tmp_path, w):
    # the [127, 120] Hamming code has 3.7*10^7 words of weight 6 and as many of weight 121: their
    # 6-point supports, or the (N, 127) complement step of w = 121, would outgrow the child's 3 GiB
    # address space and exit 1 with a MemoryError; `construct` charges the meet's matches as the
    # N^2 column pairs of `min_distance` while they are counted (the meet's own charge of w points
    # a pair is checked in test_codes)
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "bch.txt"
    args = ["construct", "--family", "bch-cw", "--m", "7", "--delta", "2", "--w", str(w), "--out", str(out)]
    src = str(Path(disjunct.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "disjunct.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
    assert re.fullmatch(r"error: pair count over \d+\^2 or more column pairs: \d+ operations exceed budget 100000000 "
                        r"\(DISJUNCT_MAX_OPS\)\n", proc.stderr)


@pytest.mark.parametrize("m,delta,w,size", [(5, 5, 13, 195_300), (6, 4, 9, 5_789_350), (5, 2, 13, 6_440_560)])
def test_bch_layer_over_the_pair_budget_refused_while_counted(tmp_path, m, delta, w, size):
    # one syndrome word, so the meet's first-word matches are the layer's columns: it is refused once
    # they pass 10^4, the most whose N^2 pairs `min_distance` may count, before any support is built
    # (these builds took 2-11 s and up to 1.4 GB before `min_distance` refused them)
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "bch.txt"
    args = ["construct", "--family", "bch-cw", "--m", str(m), "--delta", str(delta), "--w", str(w), "--out", str(out)]
    src = str(Path(disjunct.__file__).parent.parent)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "disjunct.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=cap_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
    found = re.fullmatch(r"error: pair count over (\d+)\^2 or more column pairs: (\d+) operations exceed budget "
                         r"100000000 \(DISJUNCT_MAX_OPS\)\n", proc.stderr)
    assert found and 10**4 < int(found[1]) < size and int(found[2]) == int(found[1]) ** 2
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2.0  # CPU seconds of the child


def test_bch_check_rows_over_the_budget_refused_before_allocating(tmp_path):
    # 8190 zeros of GF(2^13) give 8190 * 13 * 8191 int64 check entries, 7 GB, past the child's
    # 3 GiB address space: a build that tried to allocate them would exit 1 with a MemoryError
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "bch.txt"
    args = ["construct", "--family", "bch-cw", "--m", "13", "--delta", "8191", "--w", "4", "--out", str(out)]
    src = str(Path(disjunct.__file__).parent.parent)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "disjunct.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=cap_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
    assert proc.stderr == ("error: BCH(8191,8191) check rows of 8190*13*8191 entries: 872095770 operations "
                           "exceed budget 100000000 (DISJUNCT_MAX_OPS)\n")
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1.0  # CPU seconds of the child


@pytest.mark.parametrize("command", ["spectra", "probe", "exact", "construct"])
def test_wide_matrix_refused_before_packing(tmp_path, command):
    # the Fano plane's blocks on M = 2^31 - 1 points: packing its 7 columns takes 1.9 GB of words, a
    # per-point degree or start table 16 GiB, past the child's 3 GiB address space, where a command
    # that tried would exit 1 with a MemoryError; the pack's words are charged before it is made
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    wide, out = tmp_path / "wide.txt", tmp_path / "out.txt"
    write_matrix(wide, load_design(fano().columns, length=2**31 - 1))
    args = {
        "spectra": ["spectra", "--in", str(wide)],
        "probe": ["simulate", "--matrix", str(wide), "--t", "2", "--trials", "100"],
        "exact": ["simulate", "--matrix", str(wide), "--t", "2", "--exact"],
        "construct": ["construct", "--family", "design", "--in", str(wide), "--out", str(out)],
    }[command]
    src = str(Path(disjunct.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "disjunct.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
    assert proc.stderr == ("error: bit-packed matrix of 7*33554432 words: 234881024 operations exceed "
                           "budget 100000000 (DISJUNCT_MAX_OPS)\n")


def test_simulate_bounds_follow_spectrum_budget(runner, tmp_path):
    # weight-5 layer of the [31,21] BCH code: N=186, dual distance 3, two admissible bounds at t=4
    matrix_path = tmp_path / "bch5.txt"
    invoke(runner, ["construct", "--family", "bch-cw", "--m", "5", "--delta", "5", "--w", "5", "--out", str(matrix_path)])
    args = ["simulate", "--matrix", str(matrix_path), "--t", "4", "--trials", "200"]
    full = runner.invoke(main, args)
    assert full.exit_code == 0 and full.stderr == ""
    payload = json.loads(full.stdout)
    assert len(payload["bounds"]) == 2
    capped = runner.invoke(main, args, env={"DISJUNCT_MAX_OPS": "10"})
    assert capped.exit_code == 0
    assert capped.stderr.splitlines() == [
        "note: bounds skipped: pair count over 186^2 column pairs: 34596 operations exceed budget 10 "
        "(DISJUNCT_MAX_OPS)"
    ]
    capped_payload = json.loads(capped.stdout)
    assert capped_payload["bounds"] == []
    assert capped_payload["report"] == payload["report"]
