"""Batch command-line front end: construct, spectra, bound, simulate, verify.

Reports are JSON (sorted keys) so identical run configurations produce
byte-identical output.  Exit codes: 0 success, 1 verification or assertion
failure, 2 input error.  Budgets can be overridden with environment
variables DISJUNCT_MAX_SUPPORT_OPS, DISJUNCT_MAX_ENUM,
DISJUNCT_MAX_SPECTRUM_N.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb, inf

import click
import numpy as np

from . import bounds as bnd
from . import codes, instances, measure, spectra
from .errors import DisjunctError, InputError
from .galois import Field

DEFAULT_SEED = 20177  # fixed so runs replay; override with --seed


def _budget(env: str, default: int) -> int:
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{env}={raw!r} is not an integer") from exc


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
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
    try:
        if family == "ks-rs":
            if q is None or k is None:
                raise InputError("ks-rs needs --q and --k")
            matrix = instances.ks_rs(q, k)
        elif family == "bch-cw":
            if m is None or delta is None or w is None:
                raise InputError("bch-cw needs --m, --delta and --w")
            matrix = codes.fixed_weight_subcode(
                codes.bch_code(m, delta), w,
                max_enum=_budget("DISJUNCT_MAX_ENUM", codes.MAX_SUBCODE_ENUM),
            )
        else:
            if in_path is None:
                raise InputError("design needs --in")
            matrix = codes.read_design(in_path)
        digest = codes.write_matrix(out, matrix)
        payload = {
            "M": matrix.length,
            "N": matrix.num_columns,
            "w": matrix.weight,
            "min_distance": matrix.min_distance(),
            "digest": digest,
            "file": out,
        }
        if matrix.warning:
            payload["warning"] = matrix.warning
        _emit(payload, None)
    except DisjunctError as exc:
        _fail_input(str(exc))


# -- spectra ----------------------------------------------------------------------


@main.command("spectra")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--kind", type=click.Choice(["matrix", "code"]), default="matrix")
@click.option("--out", type=click.Path(), help="write JSON here instead of stdout")
def spectra_cmd(in_path, kind, out) -> None:
    """Distance distribution, dual spectrum, dual distance, moment checks."""
    try:
        max_n = _budget("DISJUNCT_MAX_SPECTRUM_N", codes.MAX_SPECTRUM_PAIRS_N)
        if kind == "matrix":
            matrix = codes.read_matrix(in_path)
            spec = spectra.cw_spectrum(matrix, max_size=max_n)
        else:
            code = codes.read_code(in_path)
            spec = spectra.hamming_spectrum(code, max_size=max_n)
        _emit(spectra.spectrum_report(spec), out)
    except DisjunctError as exc:
        _fail_input(str(exc))


# -- bound ------------------------------------------------------------------------


_BOUND_NEEDS = {
    "nonbinary": ("--q", "--n"),
    "cw-minkowski": ("--M", "--w"),
    "cw-rosenthal": ("--M", "--w"),
    "cw-l2": ("--M", "--w"),
    "rs-asymptotic": ("--q",),
}


@main.command()
@click.option("--family", type=click.Choice(list(_BOUND_NEEDS)), required=True)
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
    try:
        given = {"--q": q, "--n": n, "--M": m_len, "--w": w}
        needs = _BOUND_NEEDS[family]
        if any(given[name] is None for name in needs):
            raise InputError(f"{family} needs {' and '.join(needs)}")
        if ell == "auto":
            if dprime is None:
                raise InputError("--ell auto needs --dprime")
            if family == "cw-l2":
                raise InputError("cw-l2 is ell=2 only; no ell to optimize")
            params = {"q": None if q is None else int(q), "n": n, "M": m_len, "w": w, "t": t}
            chosen, report = bnd.best_even_ell(dprime, family, params)
            for skipped, failed in bnd._skipped_ells(bnd._even_ell_reports(dprime, family, params)):
                click.echo(f"note: ell={skipped} skipped: {failed}", err=True)
            payload = report.to_dict()
            payload["ell_selected"] = chosen
            _emit(payload, out)
            return
        try:
            ell_v = int(ell)
        except ValueError:
            raise InputError(f"--ell must be an even integer or 'auto', got {ell!r}") from None
        if family == "nonbinary":
            report = bnd.eps_nonbinary(int(q), n, t, ell_v, dprime)
        elif family == "cw-minkowski":
            report = bnd.eps_cw(m_len, w, t, ell_v, dprime)
        elif family == "cw-rosenthal":
            report = bnd.eps_cw_rosenthal(m_len, w, t, ell_v, dprime)
        elif family == "cw-l2":
            report = bnd.eps_cw_l2(m_len, w, t, dprime)
        else:
            report = bnd.eps_rs(q, t, ell_v)
        _emit(report.to_dict(), out)
    except DisjunctError as exc:
        _fail_input(str(exc))


@main.command()
@click.option("--family", type=click.Choice(["hermitian", "suzuki"]), required=True)
@click.option("--q0", type=int, help="base prime power (hermitian)")
@click.option("--m", type=int, help="exponent with q0 = 2^m (suzuki)")
@click.option("--r", type=int, required=True)
@click.option("--out", type=click.Path())
def params(family, q0, m, r, out) -> None:
    """Parameter calculators for algebraic-curve code families."""
    try:
        if family == "hermitian":
            if q0 is None:
                raise InputError("hermitian needs --q0")
            _emit(bnd.hermitian_params(q0, r).to_dict(), out)
        else:
            if m is None:
                raise InputError("suzuki needs --m")
            _emit(bnd.suzuki_params(m, r).to_dict(), out)
    except DisjunctError as exc:
        _fail_input(str(exc))


# -- simulate ----------------------------------------------------------------------


def _applicable_bounds(
    matrix: codes.ConstantWeightCode, t: int, max_n: int = codes.MAX_SPECTRUM_PAIRS_N
) -> list[dict]:
    """Every bound family whose preconditions hold at the measured dual distance.

    Without a spectrum (over the `max_n` budget, or an empty matrix) no
    dual distance is known: the list is empty and a note on stderr says why.
    """
    try:
        spec = spectra.cw_spectrum(matrix, max_size=max_n)
    except DisjunctError as exc:
        click.echo(f"note: bounds skipped: {exc}", err=True)
        return []
    dual = spectra.dual_spectrum_cw(spec)
    d = dual.dual_distance
    out = []
    dmax = int(d) if d != inf else matrix.weight + 1
    for ell in range(2, dmax, 2):
        for rep in (
            bnd.eps_cw(matrix.length, matrix.weight, t, ell, dmax),
            bnd.eps_cw_rosenthal(matrix.length, matrix.weight, t, ell, dmax),
        ):
            if rep.ok:
                entry = rep.to_dict()
                entry["ell"] = ell
                out.append(entry)
    l2 = bnd.eps_cw_l2(matrix.length, matrix.weight, t, dmax)
    if l2.ok:
        entry = l2.to_dict()
        entry["ell"] = 2
        out.append(entry)
    return out


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
@click.option("--dump-trials", type=click.Path(), help="CSV with one row per trial")
@click.option("--out", type=click.Path())
def simulate(
    matrix_path, t, trials, seed, exact, decode, confidence, interval, dump_trials, out
) -> None:
    """Measure disjunctness violation probability or COMP false positives."""
    try:
        max_ops = _budget("DISJUNCT_MAX_SUPPORT_OPS", measure.MAX_SUPPORT_OPS)
        max_n = _budget("DISJUNCT_MAX_SPECTRUM_N", codes.MAX_SPECTRUM_PAIRS_N)
        matrix = codes.read_matrix(matrix_path)
        payload: dict = {"matrix": matrix_path, "digest": matrix.digest}
        if decode:
            report = measure.simulate_decoding(
                matrix, t, trials, seed, confidence=confidence
            )
            payload["report"] = report.to_dict()
            if dump_trials:
                _dump_decode_trials(matrix, t, trials, seed, dump_trials)
        elif exact:
            pa = measure.exact_pa(matrix, t, max_ops=max_ops)
            relax = measure.pairwise_relaxation_prob(matrix, t, max_ops=max_ops)
            payload["report"] = {
                "mode": "exact",
                "t": t,
                "pairs": comb(matrix.num_columns, t) * (matrix.num_columns - t),
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
        payload["bounds"] = _applicable_bounds(matrix, t, max_n)
        _emit(payload, out)
    except DisjunctError as exc:
        _fail_input(str(exc))


def _dump_decode_trials(matrix, t, trials, seed, path) -> None:
    with open(path, "w") as fh:
        fh.write("trial,defectives,false_positives\n")
        trial = 0
        for picks, fp_counts, _ in measure._decode_chunks(matrix, t, trials, seed):
            for row, fp in zip(picks.tolist(), fp_counts.tolist()):
                fh.write(f"{trial},{' '.join(map(str, row))},{fp}\n")
                trial += 1


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
    out = []
    fano = instances.fano()
    spec = spectra.cw_spectrum(fano)
    d = spectra.dual_spectrum_cw(spec).dual_distance
    out.append(("fano dual distance = 3", d == 3))
    for r in (1, 2):
        ok = spectra.cw_central_moment(spec, r) == spectra.hypergeometric_central_moment(7, 3, r)
        out.append((f"fano moment identity r={r}", ok))
    rs = codes.rs_code(Field(5, 1), 2)
    hs = spectra.hamming_spectrum(rs)
    for ell in (0, 1, 2):
        ok = spectra.central_moment_hamming(hs, ell) == spectra.binomial_central_moment(4, 5, ell)
        out.append((f"rs(5,2) binomial moment ell={ell}", ok))
    return out


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
        ("nested-pair", instances.nested_pair(), 1),
    ]:
        rep = measure.simulate_decoding(matrix, t, 1000, DEFAULT_SEED)
        ok = rep.false_negatives == 0
        if name != "nested-pair":
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
