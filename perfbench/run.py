#!/usr/bin/env python3
"""Benchmark of the disjunct library: construct -> spectra -> simulate, timed per layer.

One run:

    python3 perfbench/run.py --workload sample-ks --seed 20177 --seconds 20 --trace 0

sets up three times or more, runs passes of the workload until --seconds have
passed, checks every output, and prints a report on stderr and, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json, measured with tracing off; with --trace 1 they are the
per-layer metrics, from traced passes.

    python3 perfbench/run.py --all [--out report.json]

runs every workload untraced and traced, one after the other, prints all
end-to-end metrics by name and unit, and writes them with a record of the
machine to --out.

    python3 perfbench/run.py --self-check

runs each workload at a tiny size and checks that the benchmark itself
works: every metric is reported with its unit, outputs repeat for a seed,
another seed passes, and a wrong pinned digest is counted as a failure.

The library is imported from src/ of the checkout this file sits in; no
installation is needed.  Exit code: 0 all checks passed, 1 a check failed,
2 the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Rates the workloads report besides the metrics in BENCHMARK.json, at full
# size; each exists only on the workload that does that kind of work.
RATES = [
    "decode_n4096_trials_per_s",
    "decode_n32768_trials_per_s",
    "probe_trials_per_s",
    "exact_pairs_per_s",
    "construct_cols_per_s",
]


def _cannot_start(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _start() -> dict:
    """Check that the checkout holds the library and the spec; exit 2 otherwise."""
    if not (SRC / "disjunct" / "__init__.py").is_file():
        _cannot_start(f"no library at {SRC / 'disjunct'}; run from a full checkout")
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        _cannot_start(f"cannot read {SPEC_PATH}: {exc}")
    sys.path.insert(0, str(SRC))
    import disjunct

    if Path(disjunct.__file__).resolve().parent != (SRC / "disjunct").resolve():
        _cannot_start(f"imported disjunct from {disjunct.__file__}, not {SRC}")
    return spec


# -- one run -----------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, size: str = "full", pins=None):
    import harness
    import oracles
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    pins = pins or {"digests": oracles.DIGESTS, "seed": oracles.SEED_PINS[size][name]}
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = harness.Context(
        seed=seed,
        params=workload.SIZES[size],
        pins=pins,
        checker=harness.Checker(),
        workdir=str(workdir),
        src=str(SRC),
    )
    try:
        return harness.run_workload(workload, ctx, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(result) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure the run has: the BENCHMARK.json ones, fail ratio, rates."""
    c = result.checker
    out = {
        "wall_s": (median(u.op_s for u in result.untraced), "s"),
        "setup_s": (median(result.setup_s), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MiB"),
        "fail_ratio": (c.failed / max(1, c.attempted), "ratio"),
    }
    for rate, value in result.rates(result.untraced).items():
        out[rate] = (value, "1/s")
    return out


def per_layer(result, names: list[str]) -> dict[str, float]:
    """Self time of each layer's spans and its counters over one set-up plus one pass.

    The set-up part comes from the last set-up; the pass part is the median
    over traced passes.  Names ending in _s are span self times; the rest
    are counters, except the two derived figures below.  The tracing
    overhead is estimated rather than taken as traced minus untraced pass
    time, which on a pass of CLI commands is run-to-run noise larger than
    the overhead itself.
    """
    tracer = result.tracer
    setup = result.setups[-1]
    passes = result.traced
    setup_self = tracer.self_by_name(setup.label)
    pass_self = [tracer.self_by_name(u.label) for u in passes]

    def value(name: str) -> float:
        if name == "bench.trace_overhead_s":
            # per pass: each timed call's span bookkeeping, at the measured cost of one span
            return median(u.traced_ops for u in passes) * result.span_cost_s
        if name == "codes.bch_yield":
            cand = value("codes.bch_candidates")
            return value("codes.bch_kept") / cand if cand else 0.0
        if name.endswith("_s"):
            span = name[:-2]
            return setup_self[span] + median(s[span] for s in pass_self)
        return setup.counts[name] + median(u.counts[name] for u in passes)

    return {name: value(name) for name in names}


def result_line(result, spec: dict) -> dict:
    c = result.checker
    if result.trace:
        wanted = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = {k: v for k, (v, _) in end_to_end(result).items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "correct": c.failed == 0 and result.error is None,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": metrics,
    }


def report(result, spec: dict, args) -> dict:
    """The detailed record of a run: what is printed on stderr and written to --report."""
    c = result.checker
    rep = {
        "workload": result.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": result.trace,
        "attempted": c.attempted,
        "failed": c.failed,
        "failures": c.failures,
        "outputs_sha256": result.fingerprint(),
        "passes": len(result.passes),
        "setup_runs_s": result.setup_s,
        "pass_op_s": [u.op_s for u in result.passes],
        "matrices": {k: v for u in result.setups + result.passes for k, v in u.matrices.items()},
    }
    if result.untraced:
        rep["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(result).items()}
    if result.trace and result.traced:
        rep["wall_s_traced"] = median(u.op_s for u in result.traced)
        rep["per_layer"] = per_layer(result, [m["name"] for m in spec["per_layer"]])
        rep["spans"] = result.tracer.table()
    return rep


def print_report(rep: dict) -> None:
    err = sys.stderr
    print(
        f"workload {rep['workload']} seed {rep['seed']} trace {int(rep['trace'])}: "
        f"{rep['passes']} passes, checks {rep['attempted']} attempted {rep['failed']} failed, "
        f"outputs sha256 {rep['outputs_sha256'][:16]}",
        file=err,
    )
    for name, m in rep.get("end_to_end", {}).items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=err)
    if "spans" in rep:
        print(f"  {'span':34s} {'parent':34s} {'calls':>6s} {'total_s':>9s} {'self_s':>9s}", file=err)
        for row in rep["spans"][:40]:
            print(
                f"  {row['name']:34.34s} {str(row['parent']):34.34s} {row['calls']:6d} "
                f"{row['total_s']:9.4f} {row['self_s']:9.4f}",
                file=err,
            )
        for name, v in rep["per_layer"].items():
            print(f"  {name:34s} {v:.6g}", file=err)


def write_spans(result, seed: int) -> None:
    """Dump the raw spans of a traced run once it has ended."""
    path = WORK / f"spans-{result.workload}-seed{seed}.json"
    path.write_text(json.dumps(result.tracer.spans, default=str))
    print(f"  spans written to {path.relative_to(ROOT)}", file=sys.stderr)


# -- every workload ----------------------------------------------------------------------------


def environment(reports: list[dict]) -> dict:
    """What identifies the machine and software the figures were taken on."""
    import numpy
    import scipy

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_caches_per_core": caches,
        "packed_bytes": {k: v["packed_bytes"] for r in reports for k, v in r["matrices"].items()},
    }


def run_all(args, spec: dict) -> int:
    """Each workload untraced, then traced, as child runs one after the other.

    A child that exits nonzero or leaves no report fails its workload, which
    is then left out of the table, and makes the exit code 1.
    """
    WORK.mkdir(exist_ok=True)
    reports, broken = [], []
    for w in spec["workloads"]:
        pair = []
        for trace in (0, 1):
            path = WORK / f"report-{w['name']}-trace{trace}.json"
            path.unlink(missing_ok=True)  # never read a report left by an earlier run
            cmd = [
                sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--report", str(path),
            ]
            print(f"== {w['name']} trace {trace}", file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
            if proc.returncode != 0 or not path.is_file():
                print(f"FAILED {w['name']} trace {trace}: exit {proc.returncode}", file=sys.stderr, flush=True)
                broken.append(f"{w['name']} trace {trace}")
                break
            pair.append(json.loads(path.read_text()))
        if len(pair) == 2:
            reports.extend(pair)
    table = {}
    for plain, traced in zip(reports[::2], reports[1::2]):
        table[plain["workload"]] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["end_to_end"],
            "per_layer": traced["per_layer"],
            "traced_minus_untraced_wall_s": traced["wall_s_traced"] - plain["end_to_end"]["wall_s"]["value"],
            "spans": traced["spans"],
            "outputs_sha256": plain["outputs_sha256"],
            "traced_outputs_identical": traced["outputs_sha256"] == plain["outputs_sha256"],
        }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "fail_ratio": "ratio"}
    units.update((rate, "1/s") for rate in RATES)
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in table))
    for name, unit in units.items():
        cells = []
        for entry in table.values():
            m = entry["end_to_end"].get(name)
            cells.append(f"{m['value']:14.6g}" if m else f"{'-':>14s}")
        print(f"{name:28s} {unit:6s} " + " ".join(cells))
    rows = [
        ("trace overhead, span cost (s)", lambda e: f"{e['per_layer']['bench.trace_overhead_s']:14.6g}"),
        ("traced - untraced wall_s (s)", lambda e: f"{e['traced_minus_untraced_wall_s']:14.6g}"),
        ("traced outputs identical", lambda e: f"{str(e['traced_outputs_identical']):>14s}"),
    ]
    for label, cell in rows:
        print(f"{label:35s} " + " ".join(cell(e) for e in table.values()))
    print("(traced - untraced wall_s compares two runs, so it carries their run-to-run noise)")
    out = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(reports),
        "workloads": table,
        "failed_runs": broken,
    }
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"written {args.out}", file=sys.stderr)
    ok = not broken and all(e["failed"] == 0 and e["traced_outputs_identical"] for e in table.values())
    return 0 if ok else 1


# -- self-check ------------------------------------------------------------------------------


def self_check(spec: dict) -> int:
    """Tiny runs of every workload that test the benchmark's own machinery."""
    import oracles

    problems = []

    def expect(what: str, ok: bool) -> None:
        print(f"[{'ok' if ok else 'FAIL'}] {what}", file=sys.stderr, flush=True)
        if not ok:
            problems.append(what)

    def metrics_match(line: dict, wanted: list[dict]) -> bool:
        return {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}

    seed = oracles.DEFAULT_SEED
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_one(name, seed, 0, False, "tiny")
        line = result_line(plain, spec)
        expect(f"{name}: untraced run passes its checks", line["correct"])
        expect(f"{name}: prints every end-to-end metric with its unit", metrics_match(line, spec["end_to_end"]))
        traced = run_one(name, seed, 0, True, "tiny")
        line = result_line(traced, spec)
        expect(f"{name}: traced run passes its checks", line["correct"])
        expect(f"{name}: prints every per-layer metric with its unit", metrics_match(line, spec["per_layer"]))
        expect(f"{name}: traced outputs identical to untraced", traced.fingerprint() == plain.fingerprint())
        again = run_one(name, seed, 0, False, "tiny")
        expect(f"{name}: same seed gives identical outputs", again.fingerprint() == plain.fingerprint())
        other = run_one(name, seed + 1, 0, False, "tiny")
        expect(f"{name}: seed {seed + 1} passes every check not pinned to seed {seed}", result_line(other, spec)["correct"])
        if name != "build-exact":  # draws nothing at random; its seed only picks spot checks
            expect(f"{name}: seed {seed + 1} gives other outputs", other.fingerprint() != plain.fingerprint())

    bad = dict(oracles.DIGESTS)
    bad["ks-rs q=8 k=3"] = "0" * 64
    wrong = run_one("build-exact", seed, 0, False, "tiny", {"digests": bad, "seed": {}})
    ratio = end_to_end(wrong)["fail_ratio"][0]
    expect(f"wrong pinned digest counted as a failure (fail_ratio {ratio:.3g})", ratio > 0)
    print("self-check " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"), file=sys.stderr)
    return 0 if not problems else 1


# -- entry point ------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--self-check", action="store_true", help="test the benchmark at a tiny size")
    parser.add_argument("--seed", type=int, default=20177)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="write the detailed run record here")
    parser.add_argument("--out", default=str(WORK / "report.json"), help="where --all writes its record")
    args = parser.parse_args()

    spec = _start()
    if args.self_check:
        return self_check(spec)
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result.passes:
        print(f"error: {args.workload} completed no pass", file=sys.stderr)
        return 1
    rep = report(result, spec, args)
    print_report(rep)
    if result.trace:
        write_spans(result, args.seed)
    if args.report:
        Path(args.report).write_text(json.dumps(rep, indent=2, default=str) + "\n")
    line = result_line(result, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
