"""Hypothesis-driven CLI contract: any option combination exits 0, 1 or 2, never a traceback.

Each example runs one subcommand through click's CliRunner with exceptions
caught, so an escaped exception shows up as `result.exception` instead of
aborting the run.  The operations budget is drawn too, including malformed
values of `DISJUNCT_MAX_OPS`.  Small integers probe the edges of each
option; huge ones (to 10^800) probe the budget, float overflow and the
digit limit of int text, with the budget at most 10^6.
"""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_code
from disjunct.cli import main
from disjunct.codes import rs_code
from disjunct.textio import write_matrix
from disjunct.galois import Field
from disjunct.instances import fano, ks_rs

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

small = st.none() | st.integers(-1, 9)
budget = st.sampled_from([None, "abc", "", "0", "10", "100000"])
# a small integer, any integer to 10^6, or 1, 2 or 3 times a power of ten to 10^800
huge = st.integers(-1, 9) | st.integers(-1, 10**6) | st.builds(
    lambda digit, power: digit * 10**power, st.integers(1, 3), st.integers(0, 800))
small_budget = st.sampled_from(["10", "100000", "1000000"])
HUGE = settings(FUZZ, max_examples=500)  # enough draws that every option is huge in some valid call


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"out": str(root / "out.txt"), "dump": str(root / "dump.csv")}
    for name, matrix in (("fano", fano()), ("ks52", ks_rs(5, 2))):
        paths[name] = str(root / f"{name}.txt")
        write_matrix(paths[name], matrix)
    paths["ks163"] = str(root / "ks163.txt")  # N = 4096, so t reaches into the thousands
    write_matrix(paths["ks163"], ks_rs(16, 3))
    paths["rs52"] = str(root / "rs52.code")
    write_code(paths["rs52"], rs_code(Field(5, 1), 2))
    paths["garbage"] = str(root / "garbage.txt")
    with open(paths["garbage"], "w") as fh:
        fh.write("not a matrix\n1 2 x\n")
    paths["binary"] = str(root / "binary.txt")
    with open(paths["binary"], "wb") as fh:
        fh.write(b"\xff\xfe\x00\x01")
    return paths


def _opts(pairs) -> list[str]:
    args = []
    for flag, value in pairs:
        if value is True:
            args.append(flag)
        elif value is not None and value is not False:
            args += [flag, str(value)]
    return args


def _run(args, env) -> dict | None:
    """Run one command; assert the exit-code contract and return its JSON on success.

    The JSON is parsed strictly: Infinity, -Infinity and NaN are not JSON and fail the run.
    """
    result = CliRunner().invoke(main, args, env={k: v for k, v in env.items() if v is not None})
    assert result.exit_code in (0, 1, 2), (args, env, result.output)
    if result.exception is not None:
        assert isinstance(result.exception, SystemExit), (args, env, result.exc_info)
    if result.exit_code == 0 and result.stdout.startswith("{"):
        return json.loads(result.stdout, parse_constant=_not_json)
    return None


def _not_json(name: str):
    raise ValueError(f"{name} is not JSON")


@FUZZ
@given(
    family=st.sampled_from(["ks-rs", "bch-cw", "design"]),
    q=st.none() | st.integers(-1, 7),
    k=st.none() | st.integers(-1, 3),
    m=st.none() | st.integers(-1, 4),
    delta=small,
    w=small,
    design=st.sampled_from([None, "fano", "ks52", "garbage", "binary"]),
    max_ops=budget,
)
def test_construct_fuzz(files, family, q, k, m, delta, w, design, max_ops):
    args = ["construct", "--family", family, "--out", files["out"]]
    args += _opts([("--q", q), ("--k", k), ("--m", m), ("--delta", delta), ("--w", w)])
    args += _opts([("--in", files.get(design))])
    _run(args, {"DISJUNCT_MAX_OPS": max_ops})


@FUZZ
@given(
    src=st.sampled_from(["fano", "ks52", "rs52", "garbage", "binary"]),
    kind=st.sampled_from([None, "matrix", "code"]),
    max_ops=budget,
)
def test_spectra_fuzz(files, src, kind, max_ops):
    args = ["spectra", "--in", files[src]] + _opts([("--kind", kind)])
    _run(args, {"DISJUNCT_MAX_OPS": max_ops})


@FUZZ
@given(
    family=st.sampled_from(["nonbinary", "cw-minkowski", "cw-rosenthal", "cw-l2", "rs-asymptotic"]),
    q=st.none() | st.sampled_from([-1.0, 0.0, 2.0, 4.0, 5.0, 7.5, 16.0, math.inf, math.nan]),
    n=small,
    big_m=st.none() | st.integers(-1, 40),
    w=small,
    t=st.integers(-1, 9),
    ell=st.sampled_from(["auto", "2", "4", "3", "0", "-2", "x"]),
    dprime=small,
)
def test_bound_fuzz(family, q, n, big_m, w, t, ell, dprime):
    args = ["bound", "--family", family, "--t", str(t), "--ell", ell]
    args += _opts([("--q", q), ("--n", n), ("--M", big_m), ("--w", w), ("--dprime", dprime)])
    _run(args, {})


@FUZZ
@given(
    src=st.sampled_from(["fano", "ks52", "rs52", "garbage", "binary"]),
    t=st.integers(-1, 8),
    trials=st.sampled_from([-1, 0, 1, 40]),
    seed=st.sampled_from([0, 20177]),
    mode=st.sampled_from([None, "--exact", "--decode"]),
    confidence=st.none() | st.sampled_from([0.0, 0.5, 0.99, 1.0, 2.0, -0.5]),
    interval=st.sampled_from([None, "wilson", "clopper-pearson"]),
    dump=st.booleans(),
    max_ops=budget,
)
def test_simulate_fuzz(files, src, t, trials, seed, mode, confidence, interval, dump, max_ops):
    args = ["simulate", "--matrix", files[src], "--t", str(t), "--trials", str(trials)]
    args += _opts([("--seed", seed), (mode, mode is not None), ("--confidence", confidence)])
    args += _opts([("--interval", interval), ("--dump-trials", files["dump"] if dump else None)])
    payload = _run(args, {"DISJUNCT_MAX_OPS": max_ops})
    if payload is not None and "confidence" in payload["report"]:
        # a reported confidence level is a probability strictly inside (0, 1)
        assert 0 < payload["report"]["confidence"] < 1, args


@HUGE
@given(
    family=st.sampled_from(["nonbinary", "cw-minkowski", "cw-rosenthal", "cw-l2", "rs-asymptotic"]),
    q=st.sampled_from([2.0, 5.0, 16.0, 1e300]),  # a float option: past 1.8e308 it reads as inf
    n=huge,
    big_m=huge,
    w=huge,
    t=huge,
    ell=st.just("auto") | huge.map(str),
    dprime=st.none() | huge,
    max_ops=small_budget,
)
def test_bound_huge_fuzz(family, q, n, big_m, w, t, ell, dprime, max_ops):
    args = ["bound", "--family", family, "--t", str(t), "--ell", ell]
    args += _opts([("--q", q), ("--n", n), ("--M", big_m), ("--w", w), ("--dprime", dprime)])
    _run(args, {"DISJUNCT_MAX_OPS": max_ops})


@HUGE
@given(
    family=st.sampled_from(["hermitian", "suzuki"]),
    m=huge,
    q0=huge,
    r=huge,
    max_ops=small_budget,
)
def test_params_huge_fuzz(family, m, q0, r, max_ops):
    args = ["params", "--family", family, "--r", str(r)] + _opts([("--m", m), ("--q0", q0)])
    _run(args, {"DISJUNCT_MAX_OPS": max_ops})


@HUGE
@given(
    src=st.sampled_from(["fano", "ks52", "ks163"]),
    t=huge,
    trials=st.sampled_from([1, 40]),  # Monte Carlo is not charged to the budget
    max_ops=small_budget,
)
def test_simulate_exact_huge_fuzz(files, src, t, trials, max_ops):
    args = ["simulate", "--matrix", files[src], "--t", str(t), "--trials", str(trials), "--exact"]
    _run(args, {"DISJUNCT_MAX_OPS": max_ops})
