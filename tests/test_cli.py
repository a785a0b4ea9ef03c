import json

import pytest
from click.testing import CliRunner

from disjunct.cli import main
from disjunct.codes import read_matrix, write_code, write_matrix, rs_code
from disjunct.galois import Field
from disjunct.instances import fano
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


def test_params_calculators(runner):
    result = invoke(runner, ["params", "--family", "hermitian", "--q0", "3", "--r", "9"])
    payload = json.loads(result.output)
    assert payload["M"] == 243 and payload["dprime_lower_bound"] == 5
    result = invoke(runner, ["params", "--family", "suzuki", "--m", "1", "--r", "32"])
    payload = json.loads(result.output)
    assert payload["M"] == 512 and payload["dprime_lower_bound"] == 6


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


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_decode_rejects_nonpositive_trials(runner, tmp_path, fano_blocks_file, trials):
    matrix_path = tmp_path / "fano.txt"
    invoke(runner, ["construct", "--family", "design", "--in", fano_blocks_file, "--out", str(matrix_path)])
    result = runner.invoke(
        main, ["simulate", "--matrix", str(matrix_path), "--t", "2", "--decode", "--trials", trials]
    )
    assert result.exit_code == 2
    assert "trials must be >= 1" in result.output


def test_corrupt_matrix_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 3 2\n0 1\n")
    result = runner.invoke(main, ["simulate", "--matrix", str(bad), "--t", "1"])
    assert result.exit_code == 2


def test_empty_matrix_file_roundtrip_and_spectra_rejection(runner, tmp_path):
    out = tmp_path / "empty.txt"
    invoke(
        runner,
        ["construct", "--family", "bch-cw", "--m", "6", "--delta", "5", "--w", "3", "--out", str(out)],
    )
    from disjunct.codes import read_matrix

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


@pytest.mark.parametrize("mode", [[], ["--decode"]])
@pytest.mark.parametrize("confidence", ["0", "1", "2"])
def test_simulate_rejects_confidence_outside_unit_interval(runner, tmp_path, fano_blocks_file, mode, confidence):
    args = ["simulate", "--matrix", fano_blocks_file, "--t", "2", "--trials", "10", "--confidence", confidence]
    result = runner.invoke(main, args + mode)
    assert result.exit_code == 2
    assert "confidence must lie strictly between 0 and 1" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "env,args",
    [
        ("DISJUNCT_MAX_SPECTRUM_N", ["spectra"]),
        ("DISJUNCT_MAX_SUPPORT_OPS", ["simulate", "--t", "2", "--trials", "10"]),
        ("DISJUNCT_MAX_SPECTRUM_N", ["simulate", "--t", "2", "--trials", "10"]),
    ],
)
def test_malformed_budget_variable_exits_2(runner, fano_blocks_file, env, args):
    flag = "--in" if args[0] == "spectra" else "--matrix"
    result = runner.invoke(main, [args[0], flag, fano_blocks_file, *args[1:]], env={env: "abc"})
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"{env}='abc' is not an integer" in result.stderr


def test_simulate_bounds_follow_spectrum_budget(runner, tmp_path):
    # weight-5 layer of the [31,21] BCH code: N=186, dual distance 3, two admissible bounds at t=4
    matrix_path = tmp_path / "bch5.txt"
    invoke(runner, ["construct", "--family", "bch-cw", "--m", "5", "--delta", "5", "--w", "5", "--out", str(matrix_path)])
    args = ["simulate", "--matrix", str(matrix_path), "--t", "4", "--trials", "200"]
    full = runner.invoke(main, args)
    assert full.exit_code == 0 and full.stderr == ""
    payload = json.loads(full.stdout)
    assert len(payload["bounds"]) == 2
    capped = runner.invoke(main, args, env={"DISJUNCT_MAX_SPECTRUM_N": "10"})
    assert capped.exit_code == 0
    assert capped.stderr.splitlines() == [
        "note: bounds skipped: N=186 exceeds exact pair-count budget 10"
    ]
    capped_payload = json.loads(capped.stdout)
    assert capped_payload["bounds"] == []
    assert capped_payload["report"] == payload["report"]
