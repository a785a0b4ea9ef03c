"""The three workloads: cli-ks16, sample-ks and build-exact.

Each workload has parameters for two sizes ("full" is the benchmark,
"tiny" is for the self-check), a set-up, a pass, and the checks on what
the pass produced.  Spans are named after the per-layer metrics they feed:
span "codes.pack" feeds metric "codes.pack_s".
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

from disjunct import bounds as bnd
from disjunct import codes, instances, measure, rand, spectra
from disjunct.galois import Field, prime_power

import oracles
from harness import Abort, Unit

CLI_TIMEOUT_S = 150


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- calls into the library, each inside its span ---------------------------------


def child_env(ctx) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_check(ctx, unit) -> None:
    """Start a fresh interpreter that imports the CLI: what every command pays first."""
    cmd = [sys.executable, "-c", "import disjunct.cli"]
    with unit.op("cli.import"):
        proc = subprocess.run(
            cmd, cwd=ctx.workdir, env=child_env(ctx), capture_output=True, timeout=CLI_TIMEOUT_S
        )
    ctx.checker.equal("fresh interpreter imports disjunct.cli", proc.returncode, 0)


def build_ks(unit, q: int, k: int, rate: str | None = None):
    """KS(q, k) through Field -> rs_code -> kautz_singleton -> packed -> digest."""
    work = q**k
    with unit.op("galois.tables"):
        fld = Field(*prime_power(q))
        fld.generator  # builds the exp/log tables
    unit.count("galois.elements", q)
    with unit.op("codes.rs_code", rate, work):
        code = codes.rs_code(fld, k)
    with unit.op("codes.ks_map", rate, work):
        matrix = codes.kautz_singleton(code)
    packed = pack(unit, matrix, rate, work)
    with unit.op("codes.digest", rate, work):
        digest = matrix.digest
    unit.matrices[f"ks-rs q={q} k={k}"] = {
        "M": matrix.length,
        "N": matrix.num_columns,
        "w": matrix.weight,
        "packed_bytes": int(packed.nbytes),
    }
    return matrix, digest


def pack(unit, matrix, rate: str | None = None, work: int = 0):
    with unit.op("codes.pack", rate, work):
        packed = matrix.packed
    unit.count("codes.pack_bits", sum(len(c) for c in matrix.columns))
    unit.count("codes.packed_bytes", packed.nbytes)
    return packed


def write_matrix(unit, path: str, matrix) -> str:
    with unit.op("codes.write"):
        digest = codes.write_matrix(path, matrix)
    unit.count("codes.io_bytes", os.path.getsize(path))
    return digest


def read_matrix(unit, path: str):
    with unit.op("codes.read"):
        matrix = codes.read_matrix(path)
    unit.count("codes.io_bytes", os.path.getsize(path))
    return matrix


def bounds_for(unit, matrix, t: int):
    """The constant-weight bound families admissible at the measured dual distance.

    Mirrors what `disjunct simulate` reports: every even ell below the dual
    distance for the Minkowski and Rosenthal forms, plus the second-moment
    bound.  Returns the spectrum and (formula, ell, epsilon) of each bound
    whose preconditions hold.
    """
    with unit.op("spectra.cw_spectrum"):
        spec = spectra.cw_spectrum(matrix)
    unit.count("spectra.cw_pairs", matrix.num_columns**2)
    with unit.op("spectra.dual"):
        d = spectra.dual_spectrum_cw(spec).dual_distance
    dmax = int(d) if d != float("inf") else matrix.weight + 1
    m_len, w = matrix.length, matrix.weight
    found = []
    with unit.op("bounds.eval"):
        reports = [
            (f(m_len, w, t, ell, dmax), ell)
            for ell in range(2, dmax, 2)
            for f in (bnd.eps_cw, bnd.eps_cw_rosenthal)
        ]
        reports.append((bnd.eps_cw_l2(m_len, w, t, dmax), 2))
    for rep, ell in reports:
        if rep.ok:
            found.append((rep.formula, ell, rep.epsilon))
    unit.count("bounds.evaluations", len(reports))
    unit.count("bounds.ok", len(found))
    return spec, found


def bounds_expected(dual_distance, t: int, m_len: int, w: int) -> bool:
    """Whether any bound is admissible: the second-moment bound needs d' > 2 and t*w < M,
    and every other family needs an even ell >= 2 below d', so none applies when d' <= 2."""
    return (dual_distance == "inf" or dual_distance > 2) and t * w < m_len


def replay_draws(unit, seed: int, trials: int, count: int, population: int) -> None:
    """Redraw a sampled call's counter-based draws standalone, labelled as replayed."""
    if unit.tracer is None:
        return
    with unit.replay("rand.sample_distinct"):
        rand.sample_distinct(seed, 0, trials, count, population)
    unit.count("rand.draws", trials * count)


def decode(unit, matrix, t: int, trials: int, seed: int, rate: str | None = None):
    with unit.op("measure.decode", rate, trials):
        rep = measure.simulate_decoding(matrix, t, trials, seed)
    unit.count("measure.decode_trials", trials)
    unit.count("measure.decode_fp", rep.violations)
    unit.count("measure.decode_fn", rep.false_negatives)
    replay_draws(unit, seed, trials, t, matrix.num_columns)
    return rep


def probe(unit, matrix, t: int, trials: int, seed: int, rate: str | None = None):
    with unit.op("measure.probe", rate, trials):
        rep = measure.estimate_pa(matrix, t, trials, seed)
    unit.count("measure.probe_trials", trials)
    unit.count("measure.probe_violations", rep.violations)
    replay_draws(unit, seed, trials, t + 1, matrix.num_columns)
    return rep


def check_decode(ctx, key: str, rep, trials: int, guarantee: int) -> None:
    """Decoding soundness, accounting, and the nonzero guard above the guarantee."""
    c = ctx.checker
    c.equal(f"{key}: false negatives", rep.false_negatives, 0)
    hist = rep.false_positive_histogram
    c.equal(f"{key}: histogram sums to trials", sum(n for _, n in hist), trials)
    c.equal(f"{key}: histogram weights sum to the FP total", sum(v * n for v, n in hist), rep.violations)
    c.check(f"{key}: t above disjunctness guarantee {guarantee}", rep.t > guarantee)
    c.check(f"{key}: false positives nonzero", rep.violations > 0, "0 FPs above the guarantee")
    pin_seed(ctx, key, rep.violations)


def check_probe(ctx, key: str, rep, guarantee: int) -> None:
    c = ctx.checker
    c.check(f"{key}: t above disjunctness guarantee {guarantee}", rep.t > guarantee)
    c.check(f"{key}: violations nonzero", rep.violations > 0, "0 violations above the guarantee")
    pin_seed(ctx, key, rep.violations)


def pin_seed(ctx, key: str, value) -> None:
    if ctx.seed == oracles.DEFAULT_SEED:
        ctx.checker.equal(f"{key}: pinned at seed {oracles.DEFAULT_SEED}", value, ctx.pins["seed"][key])


def pin_digest(ctx, key: str, digest: str) -> None:
    ctx.checker.equal(f"{key}: pinned digest", digest, ctx.pins["digests"][key])


def check_decode_replay(ctx, matrix, t: int, prefix: int, key: str) -> None:
    """FP total of a trial prefix equals a replay of its draws through run_tests + comp_decode."""
    picks = rand.sample_distinct(ctx.seed, 0, prefix, t, matrix.num_columns)
    replayed = 0
    for row in picks.tolist():
        decoded = set(measure.comp_decode(matrix, measure.run_tests(matrix, row)))
        replayed += len(decoded - set(row))
    got = measure.simulate_decoding(matrix, t, prefix, ctx.seed).violations
    ctx.checker.equal(f"{key}: {prefix}-trial prefix equals run_tests+comp_decode replay", got, replayed)
    ctx.checker.check(f"{key}: replayed prefix has false positives", replayed > 0)


def check_probe_replay(ctx, matrix, t: int, prefix: int, key: str) -> None:
    picks = rand.sample_distinct(ctx.seed, 0, prefix, t + 1, matrix.num_columns)
    want = oracles.probe_violations_by_sets(matrix.columns, picks)
    got = measure.estimate_pa(matrix, t, prefix, ctx.seed).violations
    ctx.checker.equal(f"{key}: {prefix}-trial prefix equals set-algebra replay", got, want)


def check_spectrum_report(ctx, key: str, report: dict) -> None:
    c = ctx.checker
    n = report["N"]
    c.equal(f"{key}: pair counts sum to N^2", sum(report["counts"]), n * n)
    c.equal(f"{key}: N pairs at distance 0", report["counts"][0], n)
    bad = [m["r"] for m in report["moment_checks"] if m["below_dual_distance"] and not m["equal"]]
    c.equal(f"{key}: moment identities below the dual distance", bad, [])


# -- cli-ks16 --------------------------------------------------------------------------


class CliKs16:
    """Four commands on KS(16,3), then one `simulate` on a BCH-cw layer.

    The dual distance of a KS image is 2, so no bound is admissible on it and
    `simulate` prints an empty `bounds` list whether or not it computed the
    spectrum.  The BCH-cw layer has dual distance 3, so its `bounds` list is
    nonempty exactly when `simulate` computed the spectrum and evaluated the
    bounds; an empty list there means a fall-through to the spectrum budget.
    """

    NAME = "cli-ks16"
    SIZES = {
        "full": dict(
            q=16, k=3, probe_t=16, probe_trials=200_000, decode_t=12, decode_trials=4000,
            bounds_layer=(6, 3, 3), bounds_t=6, bounds_trials=20_000,
        ),
        "tiny": dict(
            q=8, k=3, probe_t=6, probe_trials=20_000, decode_t=5, decode_trials=500,
            bounds_layer=(5, 3, 3), bounds_t=2, bounds_trials=2000,
        ),
    }
    BOUNDS_PATH = "bch.txt"  # relative to the work directory, like ks.txt

    @staticmethod
    def peak_rss_mb() -> float:
        return _rss_children_mb()

    @staticmethod
    def setup(ctx, unit):
        """The CLI's import cost, and the BCH-cw layer file the bounds command reads."""
        import_check(ctx, unit)
        m, delta, w = ctx.params["bounds_layer"]
        with unit.op("codes.bch_enum"):
            layer = codes.fixed_weight_subcode(codes.bch_code(m, delta), w)
        digest = write_matrix(unit, os.path.join(ctx.workdir, CliKs16.BOUNDS_PATH), layer)
        pin_digest(ctx, f"bch-cw m={m} delta={delta} w={w}", digest)
        _, found = bounds_for(Unit("bounds-oracle", None), layer, ctx.params["bounds_t"])
        ctx.checker.check("bch-cw layer admits a bound", bool(found))
        return {"bounds_count": len(found)}

    @staticmethod
    def run_pass(ctx, unit, inputs, first: bool) -> None:
        p = ctx.params
        q, k = p["q"], p["k"]
        n = q - 1
        path = "ks.txt"  # relative to the work directory, so outputs do not name it
        guarantee = oracles.ks_guarantee(q, k)
        c = ctx.checker

        built = _cli(ctx, unit, "construct", ["--family", "ks-rs", "--q", str(q), "--k", str(k), "--out", path])
        c.equal("cli construct: (M, N, w)", (built["M"], built["N"], built["w"]), (q * n, q**k, n))
        pin_digest(ctx, f"ks-rs q={q} k={k}", built["digest"])

        spec = _cli(ctx, unit, "spectra", ["--in", path])
        check_spectrum_report(ctx, "cli spectra", spec)
        c.equal("cli spectra: counts equal the MDS weight distribution", spec["counts"], oracles.mds_pair_counts(q, n, k))
        dual_distance = spec["dual_distance"]

        sims = {}
        for name, t, trials, flag in [
            ("probe", p["probe_t"], p["probe_trials"], []),
            ("decode", p["decode_t"], p["decode_trials"], ["--decode"]),
        ]:
            args = ["--matrix", path, "--t", str(t), "--trials", str(trials), "--seed", str(ctx.seed), *flag]
            out = _cli(ctx, unit, name, args, command="simulate")
            sims[name] = (path, t, trials, out)
            rep = out["report"]
            c.equal(f"cli {name}: digest matches construct", out["digest"], built["digest"])
            c.equal(f"cli {name}: (t, trials, seed)", (rep["t"], rep["trials"], rep["seed"]), (t, trials, ctx.seed))
            c.equal(
                f"cli {name}: bounds list nonempty iff a bound is admissible at d'={dual_distance}",
                bool(out["bounds"]),
                bounds_expected(dual_distance, t, q * n, n),
            )
            c.check(f"cli {name}: t above disjunctness guarantee {guarantee}", t > guarantee)
            c.check(f"cli {name}: count nonzero", rep["violations"] > 0, "0 above the guarantee")
            if name == "decode":
                c.equal("cli decode: false negatives", rep["false_negatives"], 0)
                hist = rep["false_positive_histogram"]
                c.equal("cli decode: histogram sums to trials", sum(n for _, n in hist), trials)
                c.equal("cli decode: histogram weights sum to the FP total", sum(v * n for v, n in hist), rep["violations"])
                pin_seed(ctx, "cli decode false positives", rep["violations"])
            else:
                pin_seed(ctx, "cli probe violations", rep["violations"])

        t, trials = p["bounds_t"], p["bounds_trials"]
        bch = CliKs16.BOUNDS_PATH
        args = ["--matrix", bch, "--t", str(t), "--trials", str(trials), "--seed", str(ctx.seed)]
        out = _cli(ctx, unit, "bounds", args, command="simulate")
        sims["bounds"] = (bch, t, trials, out)
        c.equal(
            f"cli bounds: simulate on {bch} lists every admissible bound (no spectrum fall-through)",
            len(out["bounds"]),
            inputs["bounds_count"],
        )

        if unit.tracer is not None:
            _replay_cli(ctx, unit, built, spec, sims)


def _replay_cli(ctx, unit, built: dict, spec: dict, sims: dict) -> None:
    """Repeat in-process the library calls each command made, for their layer spans.

    The commands run in child processes that the benchmark cannot see into;
    these replays run after all four, so they do not disturb the commands'
    timings, and their results must equal what the commands printed.
    """
    c = ctx.checker
    q, k = ctx.params["q"], ctx.params["k"]
    with unit.replay("replay:cli.construct"):
        matrix, _ = build_ks(unit, q, k)
        with unit.op("codes.min_distance"):
            matrix.min_distance()
        written = write_matrix(unit, os.path.join(ctx.workdir, "replay.txt"), matrix)
    c.equal("replayed construct digest", written, built["digest"])
    with unit.replay("replay:cli.spectra"):
        matrix = read_matrix(unit, os.path.join(ctx.workdir, sims["probe"][0]))
        pack(unit, matrix)
        with unit.op("spectra.cw_spectrum"):
            sp = spectra.cw_spectrum(matrix)
        unit.count("spectra.cw_pairs", matrix.num_columns**2)
        with unit.op("spectra.report"):
            report = spectra.spectrum_report(sp)
    c.equal("replayed spectra report", report, spec)
    for name, (path, t, trials, out) in sims.items():
        with unit.replay(f"replay:cli.{name}"):
            matrix = read_matrix(unit, os.path.join(ctx.workdir, path))
            with unit.op("codes.digest"):
                matrix.digest
            pack(unit, matrix)
            sampled = decode if name == "decode" else probe
            rep = sampled(unit, matrix, t, trials, ctx.seed)
            _, found = bounds_for(unit, matrix, t)
        c.equal(f"replayed {name} count", rep.violations, out["report"]["violations"])
        c.equal(f"replayed {name} bounds count", len(found), len(out["bounds"]))


def _cli(ctx, unit, name: str, args: list[str], command: str | None = None) -> dict:
    """One `python -m disjunct.cli` command; a nonzero exit or bad JSON is a failed check."""
    cmd = [sys.executable, "-m", "disjunct.cli", command or name, *args]
    with unit.op(f"cli.{name}"):
        proc = subprocess.run(
            cmd, cwd=ctx.workdir, env=child_env(ctx), capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
    unit.count("cli.nonzero_exits", int(proc.returncode != 0))
    if not ctx.checker.check(f"cli {name}: exit 0", proc.returncode == 0, proc.stderr[-2000:]):
        raise Abort(f"cli {name} exited {proc.returncode}")
    unit.output(f"cli {name} stdout", proc.stdout)
    return json.loads(proc.stdout)


# -- sample-ks ---------------------------------------------------------------------------


class SampleKs:
    NAME = "sample-ks"
    SIZES = {
        "full": dict(
            small=(16, 3),
            large=(32, 3),
            decode=[("small", 10, 2000), ("small", 12, 2000), ("small", 16, 2000), ("large", 40, 500)],
            probe=[("small", 14, 100_000), ("small", 16, 100_000), ("small", 20, 100_000)],
            decode_prefix={"small": 256, "large": 32},
            probe_prefix=2000,
        ),
        "tiny": dict(
            small=(8, 3),
            large=(16, 3),
            decode=[("small", 5, 500), ("large", 12, 200)],
            probe=[("small", 6, 20_000)],
            decode_prefix={"small": 16, "large": 8},
            probe_prefix=2000,
        ),
    }

    @staticmethod
    def peak_rss_mb() -> float:
        return _rss_self_mb()

    @staticmethod
    def setup(ctx, unit):
        out = {}
        for role in ("small", "large"):
            q, k = ctx.params[role]
            matrix, digest = build_ks(unit, q, k)
            pin_digest(ctx, f"ks-rs q={q} k={k}", digest)
            out[role] = (q, k, matrix)
        return out

    @staticmethod
    def run_pass(ctx, unit, inputs, first: bool) -> None:
        p = ctx.params
        top_probe = max(p["probe"], key=lambda r: r[1])
        for role, t, trials in p["decode"]:
            q, k, matrix = inputs[role]
            key = f"decode ks-rs q={q} k={k} t={t}"
            rate = f"decode_n{matrix.num_columns}_trials_per_s"
            with unit.span(f"step:{key}"):
                rep = decode(unit, matrix, t, trials, ctx.seed, rate)
            unit.output(key, [rep.violations, rep.false_negatives, rep.false_positive_histogram])
            check_decode(ctx, key, rep, trials, oracles.ks_guarantee(q, k))
            if first and t == max(r[1] for r in p["decode"] if r[0] == role):
                check_decode_replay(ctx, matrix, t, p["decode_prefix"][role], key)
        for role, t, trials in p["probe"]:
            q, k, matrix = inputs[role]
            key = f"probe ks-rs q={q} k={k} t={t}"
            with unit.span(f"step:{key}"):
                rep = probe(unit, matrix, t, trials, ctx.seed, "probe_trials_per_s")
            unit.output(key, rep.violations)
            check_probe(ctx, key, rep, oracles.ks_guarantee(q, k))
            if first and (role, t, trials) == top_probe:
                check_probe_replay(ctx, matrix, t, p["probe_prefix"], key)


# -- build-exact ---------------------------------------------------------------------------


def _small_instance(name: str):
    if name == "fano":
        return instances.fano()
    _, _, q, k = name.split("-")
    return instances.ks_rs(int(q), int(k))


class BuildExact:
    NAME = "build-exact"
    SIZES = {
        "full": dict(
            field=(2, 16),
            rs=(256, 2),
            ks=(32, 3),
            bch=[(6, 3, 3), (6, 5, 5)],
            small=["fano", "ks-rs-4-3", "ks-rs-8-3"],
            exact=[("fano", 2), ("ks-rs-8-3", 2), ("ks-rs-4-3", 4)],
            spot_checks=16,
        ),
        "tiny": dict(
            field=(2, 10),
            rs=(16, 2),
            ks=(8, 3),
            bch=[(4, 3, 3), (5, 3, 3)],
            small=["fano", "ks-rs-4-3", "ks-rs-5-2"],
            exact=[("fano", 2), ("ks-rs-5-2", 2), ("ks-rs-4-3", 3)],
            spot_checks=4,
        ),
    }

    @staticmethod
    def peak_rss_mb() -> float:
        return _rss_self_mb()

    @staticmethod
    def setup(ctx, unit):
        out = {}
        for name in ctx.params["small"]:
            with unit.op("codes.instances"):
                out[name] = _small_instance(name)
            pack(unit, out[name])
        return out

    @staticmethod
    def run_pass(ctx, unit, inputs, first: bool) -> None:
        p = ctx.params
        c = ctx.checker
        work = Path(ctx.workdir)

        fp, fm = p["field"]
        with unit.span(f"step:field GF({fp}^{fm})"):
            with unit.op("galois.tables"):
                fld = Field(fp, fm)
                g = fld.generator
            unit.count("galois.elements", fld.q)
        order = fld.q - 1
        c.check(
            f"GF({fp}^{fm}): generator has order q-1",
            fld.pow(g, order) == 1
            and all(fld.pow(g, order // r) != 1 for r in _prime_factors(order)),
        )
        unit.output("field generator", g)

        q, k = p["rs"]
        key = f"rs q={q} k={k} words"
        with unit.span(f"step:{key}"):
            with unit.op("galois.tables"):
                rs_field = Field(*prime_power(q))
                rs_field.generator
            unit.count("galois.elements", q)
            with unit.op("codes.rs_code"):
                code = codes.rs_code(rs_field, k)
        words_digest = oracles.words_digest(code.words)
        pin_digest(ctx, key, words_digest)
        unit.output(key, words_digest)
        if first:
            _spot_check_rs(ctx, rs_field, code, k, p["spot_checks"])

        q, k = p["ks"]
        key = f"ks-rs q={q} k={k}"
        with unit.span(f"step:{key}"):
            matrix, digest = build_ks(unit, q, k, rate="construct_cols_per_s")
            path = str(work / "ks-roundtrip.txt")
            written = write_matrix(unit, path, matrix)
            back = read_matrix(unit, path)
        pin_digest(ctx, key, digest)
        c.equal(f"{key}: write_matrix digest", written, digest)
        c.equal(f"{key}: read_matrix digest", back.digest, digest)
        c.check(f"{key}: read_matrix columns", back.columns == matrix.columns)
        unit.output(key, digest)
        del matrix, back

        layers = {}
        for m, delta, w in p["bch"]:
            key = f"bch-cw m={m} delta={delta} w={w}"
            with unit.span(f"step:{key}"):
                with unit.op("codes.bch_enum"):
                    layer = codes.fixed_weight_subcode(codes.bch_code(m, delta), w)
                with unit.op("codes.digest"):
                    digest = codes.matrix_digest(layer)
                pack(unit, layer)
            unit.count("codes.bch_candidates", comb(2**m - 1, w))
            unit.count("codes.bch_kept", layer.num_columns)
            pin_digest(ctx, key, digest)
            unit.output(key, digest)
            layers[key] = layer

        relax = {}
        for name, t in p["exact"]:
            matrix = inputs[name]
            key = f"exact {name} t={t}"
            n_cols = matrix.num_columns
            pairs = comb(n_cols, t) * (n_cols - t)
            with unit.span(f"step:{key}"):
                with unit.op("measure.exact_pa", "exact_pairs_per_s", pairs):
                    pa = measure.exact_pa(matrix, t)
                with unit.op("measure.relaxation"):
                    relax[name] = measure.pairwise_relaxation_prob(matrix, t)
                with unit.op("measure.disjunct"):
                    disjunct, witness = measure.is_t_disjunct(matrix, t)
            unit.count("measure.exact_pairs", pairs)
            unit.count("measure.exact_violations", int(pa * pairs))
            unit.output(key, [str(pa), str(relax[name]), disjunct, witness])
            c.equal(f"{key}: pinned P_A", pa, oracles.EXACT_PA[(name, t)])
            c.check(f"{key}: P_A <= pairwise relaxation", pa <= relax[name], f"{pa} > {relax[name]}")
            c.equal(f"{key}: t-disjunct iff P_A = 0", disjunct, pa == 0)
            if witness is not None:
                cover = set().union(*(matrix.columns[j] for j in witness.defectives))
                c.check(f"{key}: witness is a violation", set(matrix.columns[witness.probe]) <= cover)
            guarantee = measure.disjunct_t_guarantee(matrix.weight, matrix.min_distance())
            if guarantee is not None and t > guarantee:
                c.check(f"{key}: P_A nonzero above guarantee {guarantee}", pa > 0)
            if first:
                c.equal(
                    f"{key}: P_A equals inclusion-exclusion oracle",
                    pa,
                    oracles.inclusion_exclusion_pa(matrix.columns, t),
                )

        exact_t = dict(p["exact"])
        for key, matrix in [*layers.items(), *((n, inputs[n]) for n in p["small"])]:
            t = exact_t.get(key, 2)
            with unit.span(f"step:spectra {key}"):
                spec, found = bounds_for(unit, matrix, t)
                with unit.op("spectra.report"):
                    report = spectra.spectrum_report(spec)
            check_spectrum_report(ctx, f"spectra {key}", report)
            dual = report["dual_distance"]
            c.equal(
                f"bounds {key} t={t}: nonempty iff admissible at d'={dual}",
                bool(found),
                bounds_expected(dual, t, matrix.length, matrix.weight),
            )
            if key in relax:
                tightest = min((eps for _, _, eps in found), default=float("inf"))
                c.check(f"bounds {key} t={t}: relaxation <= every epsilon", float(relax[key]) <= tightest + 1e-9)
            unit.output(f"spectra {key}", [report["counts"], report["dual"], found])


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _spot_check_rs(ctx, fld, code, k: int, count: int) -> None:
    """Seed-chosen codewords recomputed by Horner's rule with scalar field operations."""
    q = fld.q
    pick = random.Random(ctx.seed).sample(range(code.size), count)
    for u in pick:
        coeffs = [(u // q**j) % q for j in range(k)]
        want = []
        for x in range(1, q):
            acc = 0
            for a in reversed(coeffs):
                acc = fld.add(fld.mul(acc, x), a)
            want.append(acc)
        ctx.checker.equal(f"rs q={q} k={k}: codeword {u}", code.words[u].tolist(), want)


WORKLOADS = {w.NAME: w for w in (CliKs16, SampleKs, BuildExact)}
