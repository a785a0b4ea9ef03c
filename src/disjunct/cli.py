"""Batch command-line front end: construct, spectra, bound, simulate, verify.

Reports are JSON (sorted keys) so identical run configurations produce
byte-identical output.  Exit codes: 0 success, 1 verification or assertion
failure, 2 input error.  Every exact kernel is held to one operations
budget, 10^8 unless the environment variable DISJUNCT_MAX_OPS sets it; a
value that is not an integer, or a set variable of `RETIRED_BUDGETS`, is
an input error for every command.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb, inf, isfinite

# the library before click: its modules compile from source when no bytecode is cached, and
# compiled after click's import they left every command's resident peak 0.6 MiB higher
from . import bounds as bnd
from . import codes, instances, measure, spectra, textio
from .errors import DisjunctError, InputError, check_printable, ops_budget
from .galois import Field

import click
import numpy as np

DEFAULT_SEED = 20177  # fixed so runs replay; override with --seed
RETIRED_BUDGETS = ("DISJUNCT_MAX_SUPPORT_OPS", "DISJUNCT_MAX_ENUM", "DISJUNCT_MAX_SPECTRUM_N")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


class _Main(click.Group):
    """The command group; an input error from any command prints `error: <message>` and exits 2.
    A retired or malformed budget variable is one, whether or not the command reads the budget."""

    def invoke(self, ctx):
        try:
            for name in RETIRED_BUDGETS:
                if name in os.environ:
                    raise InputError(f"{name} was replaced by DISJUNCT_MAX_OPS")
            ops_budget()
            return super().invoke(ctx)
        except DisjunctError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main() -> None:
    """Group-testing matrices from codes and designs."""


# -- construct -------------------------------------------------------------------


@main.command()
@click.option("--family", type=click.Choice(["ks-rs", "bch-cw", "design"]), required=True)
@click.option("--q", type=int, help="alphabet size (ks-rs)")
@click.option("--k", type=int, help="code dimension (ks-rs)")
@click.option("--m", type=int, help="field exponent, length 2^m - 1 (bch-cw)")
@click.option("--delta", type=int, help="designed distance (bch-cw)")
@click.option("--w", type=int, help="codeword weight (bch-cw)")
@click.option("--in", "in_path", type=click.Path(exists=True), help="block file (design)")
@click.option("--out", type=click.Path(), required=True, help="matrix file to write")
def construct(family, q, k, m, delta, w, in_path, out) -> None:
    """Build a test matrix and write it in the canonical text format."""
    if family == "ks-rs":
        if q is None or k is None:
            raise InputError("ks-rs needs --q and --k")
        matrix = instances.ks_rs(q, k)
    elif family == "bch-cw":
        if m is None or delta is None or w is None:
            raise InputError("bch-cw needs --m, --delta and --w")
        matrix = codes.fixed_weight_subcode(codes.bch_code(m, delta), w)
    else:
        if in_path is None:
            raise InputError("design needs --in")
        matrix = textio.read_design(in_path)
    min_distance = matrix.min_distance()  # under the budget, so before a file is written
    digest = textio.write_matrix(out, matrix)
    payload = {
        "M": matrix.length,
        "N": matrix.num_columns,
        "w": matrix.weight,
        "min_distance": min_distance,
        "digest": digest,
        "file": out,
    }
    if family == "bch-cw" and not matrix.num_columns:
        payload["warning"] = f"no weight-{w} codewords; subcode is empty"
    _emit(payload, None)


# -- spectra ----------------------------------------------------------------------


@main.command("spectra")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--kind", type=click.Choice(["matrix", "code"]), default="matrix")
@click.option("--out", type=click.Path(), help="write JSON here instead of stdout")
def spectra_cmd(in_path, kind, out) -> None:
    """Distance distribution, dual spectrum, dual distance, moment checks."""
    if kind == "matrix":
        spec = spectra.cw_spectrum(textio.read_matrix(in_path))
    else:
        spec = spectra.hamming_spectrum(textio.read_code(in_path))
    _emit(spectra.spectrum_report(spec), out)


# -- bound ------------------------------------------------------------------------


@main.command()
@click.option("--family", type=click.Choice(list(bnd.FAMILIES)), required=True)
@click.option("--q", type=float)
@click.option("--n", type=int)
@click.option("--big-m", "--M", "m_len", type=int, help="matrix length M")
@click.option("--w", type=int)
@click.option("--t", type=int, required=True)
@click.option("--ell", default="2", help="even moment order, or 'auto'")
@click.option("--dprime", type=int, help="dual distance (required for --ell auto)")
@click.option("--out", type=click.Path())
def bound(family, q, n, m_len, w, t, ell, dprime, out) -> None:
    """Evaluate one false-positive bound family."""
    params = {"q": q, "n": n, "M": m_len, "w": w, "t": t}
    reads, evaluate = bnd.FAMILIES[family]
    if any(params[name] is None for name in reads):
        raise InputError(f"{family} needs {' and '.join('--' + name for name in reads)}")
    if q is not None and not isfinite(q):  # JSON has no inf or nan
        raise InputError(f"--q must be finite, got {q}")
    if family == "nonbinary" and not q.is_integer():
        raise InputError(f"nonbinary needs an integer alphabet size --q, got {q}")
    if ell == "auto":
        if dprime is None:
            raise InputError("--ell auto needs --dprime")
        chosen, report, skipped = bnd.best_even_ell(dprime, family, params)
        for skipped_ell, failed in skipped:
            click.echo(f"note: ell={skipped_ell} skipped: {failed}", err=True)
        _emit({**report.to_dict(), "ell_selected": chosen}, out)
        return
    try:
        ell_v = int(ell)
    except ValueError:
        raise InputError(f"--ell must be an even integer or 'auto', got {ell!r}") from None
    _emit(evaluate(params, ell_v, dprime).to_dict(), out)


@main.command()
@click.option("--family", type=click.Choice(["hermitian", "suzuki"]), required=True)
@click.option("--q0", type=int, help="base prime power (hermitian)")
@click.option("--m", type=int, help="exponent with q0 = 2^m (suzuki)")
@click.option("--r", type=int, required=True)
@click.option("--out", type=click.Path())
def params(family, q0, m, r, out) -> None:
    """Parameter calculators for algebraic-curve code families."""
    if family == "hermitian":
        if q0 is None:
            raise InputError("hermitian needs --q0")
        _emit(bnd.hermitian_params(q0, r).to_dict(), out)
    else:
        if m is None:
            raise InputError("suzuki needs --m")
        _emit(bnd.suzuki_params(m, r).to_dict(), out)


# -- simulate ----------------------------------------------------------------------


def _applicable_bounds(matrix: codes.ConstantWeightCode, t: int) -> list[dict]:
    """The constant-weight bounds that hold at the measured dual distance (`bounds.cw_bounds`).

    Without a dual spectrum (a pair count over the budget, an empty matrix, or
    w > M/2, where the Hahn transform is undefined) no dual distance is
    known: the list is empty and a note on stderr says why.
    """
    try:
        d = spectra.dual_spectrum_cw(spectra.cw_spectrum(matrix)).dual_distance
    except DisjunctError as exc:
        click.echo(f"note: bounds skipped: {exc}", err=True)
        return []
    return bnd.cw_bounds(matrix.length, matrix.weight, t, int(d) if d != inf else matrix.weight + 1)


@main.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=True), required=True)
@click.option("--t", type=int, required=True)
@click.option("--trials", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--exact", is_flag=True, help="exhaustive enumeration instead of Monte Carlo")
@click.option("--decode", is_flag=True, help="simulate COMP decoding instead of probing P_A")
@click.option("--confidence", type=float, default=0.99, show_default=True)
@click.option(
    "--interval",
    type=click.Choice(["wilson", "clopper-pearson"]),
    default="wilson",
    show_default=True,
)
@click.option("--dump-trials", type=click.Path(), help="CSV with one row per trial of --decode")
@click.option("--out", type=click.Path())
def simulate(
    matrix_path, t, trials, seed, exact, decode, confidence, interval, dump_trials, out
) -> None:
    """Measure disjunctness violation probability or COMP false positives."""
    if exact and decode:
        raise InputError("--exact and --decode are two modes; pass one")
    if dump_trials and not decode:
        raise InputError("--dump-trials writes the trials of --decode, which was not passed")
    if interval != "wilson" and (exact or decode):
        raise InputError(f"--interval {interval} applies to the Monte Carlo probe only")
    matrix = textio.read_matrix(matrix_path)
    measure._check_t(matrix.num_columns, t, trials)  # every mode, so --exact rejects what the others do
    measure._check_confidence(confidence)
    payload: dict = {"matrix": matrix_path, "digest": matrix.digest}
    if decode:
        chunks = measure._decode_chunks(matrix, t, trials, seed)
        if dump_trials:
            chunks = _dump_decode_trials(chunks, dump_trials)
        payload["report"] = measure._decoding_report(matrix, t, trials, seed, confidence, chunks).to_dict()
    elif exact:
        pairs = comb(matrix.num_columns, t) * (matrix.num_columns - t)
        check_printable(pairs.bit_length(), f"--exact at t={t}")  # P_A's terms are at most `pairs`
        pa = measure.exact_pa(matrix, t)
        relax = measure.pairwise_relaxation_prob(matrix, t)
        payload["report"] = {
            "mode": "exact",
            "t": t,
            "pairs": pairs,
            "p_a": spectra.frac_str(pa),
            "p_a_float": float(pa),
            "pairwise_relaxation": spectra.frac_str(relax),
            "pairwise_relaxation_float": float(relax),
        }
    else:
        report = measure.estimate_pa(
            matrix, t, trials, seed, confidence=confidence, interval=interval
        )
        payload["report"] = report.to_dict()
    payload["bounds"] = _applicable_bounds(matrix, t)
    _emit(payload, out)


def _dump_decode_trials(chunks: measure.Trials, path: str) -> measure.Trials:
    """Pass the decoder's chunks on, writing one CSV row per trial; the file opens at the first chunk."""
    with open(path, "w") as fh:
        fh.write("trial,defectives,false_positives\n")
        trial = 0
        for chunk in chunks:
            picks, fp_counts, _ = chunk
            for row, fp in zip(picks.tolist(), fp_counts.tolist()):
                fh.write(f"{trial},{' '.join(map(str, row))},{fp}\n")
                trial += 1
            yield chunk


# -- verify ------------------------------------------------------------------------


def _verify_fields() -> list[tuple[str, bool]]:
    out = []
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        fld = Field(p, m)
        a, b, c = np.ix_(*[np.arange(fld.q)] * 3)
        ok = np.array_equal(fld.mul(a, fld.add(b, c)), fld.add(fld.mul(a, b), fld.mul(a, c)))
        ok &= bool(np.all(fld.mul(a[1:], fld.inv(a[1:])) == 1))
        out.append((f"field-axioms GF({fld.q})", ok))
    return out


def _verify_orthogonality() -> list[tuple[str, bool]]:
    out = []
    for q, n in [(2, 8), (3, 6), (4, 5)]:
        ok = all(
            sum(
                comb(n, i) * (q - 1) ** i * spectra.krawtchouk(q, n, j, i) * spectra.krawtchouk(q, n, k, i)
                for i in range(n + 1)
            )
            == (q**n * comb(n, j) * (q - 1) ** j if j == k else 0)
            for j in range(n + 1)
            for k in range(n + 1)
        )
        out.append((f"krawtchouk-orthogonality q={q} n={n}", ok))
    for m_len, w in [(7, 3), (10, 5), (14, 6)]:
        ok = all(
            sum(spectra.eberlein(m_len, w, kk, j) * spectra.hahn(m_len, w, i, kk) for kk in range(w + 1))
            == (comb(m_len, w) if i == j else 0)
            for i in range(w + 1)
            for j in range(w + 1)
        )
        out.append((f"hahn-eberlein-orthogonality M={m_len} w={w}", ok))
    return out


def _verify_moments() -> list[tuple[str, bool]]:
    spec = spectra.cw_spectrum(instances.fano())
    out = [("fano dual distance = 3", spectra.dual_spectrum_cw(spec).dual_distance == 3)]
    checks = spectra.moment_checks(spec)
    out += [(f"fano moment identity r={r}", checks[r].equal) for r in (1, 2)]
    checks = spectra.moment_checks(spectra.hamming_spectrum(codes.rs_code(Field(5, 1), 2)))
    return out + [(f"rs(5,2) binomial moment ell={ell}", checks[ell].equal) for ell in (0, 1, 2)]


def _verify_dominance() -> list[tuple[str, bool]]:
    out = []
    cases = [("fano", instances.fano(), (1, 2)), ("ks-rs-5-2", instances.ks_rs(5, 2), (1, 2, 3))]
    for name, matrix, ts in cases:
        for t in ts:
            pa = measure.exact_pa(matrix, t)
            relax = measure.pairwise_relaxation_prob(matrix, t)
            ok = pa <= relax
            applicable = _applicable_bounds(matrix, t)
            for entry in applicable:
                eps = entry["epsilon"]
                if eps is not None and eps != "inf":
                    ok &= float(relax) <= eps + 1e-9
            out.append((f"dominance {name} t={t}", ok))
    return out


def _verify_decoding() -> list[tuple[str, bool]]:
    out = []
    for name, matrix, t in [
        ("fano", instances.fano(), 2),
        ("ks-rs-5-2", instances.ks_rs(5, 2), 3),
        ("path", instances.path(), 3),
    ]:
        rep = measure.simulate_decoding(matrix, t, 1000, DEFAULT_SEED)
        ok = rep.false_negatives == 0
        if name != "path":
            ok &= rep.violations == 0
        out.append((f"decoding {name} t={t}", ok))
    return out


_VERIFY_SECTIONS = {
    "fields": _verify_fields,
    "orthogonality": _verify_orthogonality,
    "moments": _verify_moments,
    "dominance": _verify_dominance,
    "decoding": _verify_decoding,
}


@main.command()
@click.option("--only", multiple=True, type=click.Choice(sorted(_VERIFY_SECTIONS)))
def verify(only) -> None:
    """Run the built-in invariant suite; exit 1 on any failure."""
    sections = list(only) if only else list(_VERIFY_SECTIONS)
    failed = 0
    for section in sections:
        for name, ok in _VERIFY_SECTIONS[section]():
            status = "ok" if ok else "FAIL"
            click.echo(f"[{section}] {name}: {status}")
            failed += 0 if ok else 1
    if failed:
        click.echo(f"{failed} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
