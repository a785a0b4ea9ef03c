"""Pinned outputs: matrix digests, CLI stdout and stderr, and `--dump-trials` CSV.

These are byte-for-byte pins.  A refactor of the matrix type, the
bit-packing or the containment kernels must leave every one unchanged.
Each `simulate` case runs above the matrix's disjunctness guarantee
(3 for KS(8,3) and KS(5,2), 2 for the BCH-cw layer, 1 for KS(4,3)), so
its counts are nonzero and the pin sees the kernels do real work.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from conftest import write_code
from disjunct import cli, codes, instances, spectra, textio
from disjunct.cli import main
from disjunct.galois import Field

BUNDLED_DIGESTS = {
    "fano": "e749d2e1f50bcbde34a37dddb4460e2cc052e1f41760e8006dd802d86635333c",
    "path": "5c26449c4cdf0c25960f704c6980a55fc2fc30007a4f4bc11f2a107a2f85f5e7",
    "disjoint-pair": "581c72f19eec4ca41429cbe9493194a66fbaea5bfb1f06c0cb056df1e224fe29",
    "ks-rs-5-2": "5688e0e0dc163b930ecbbbdf1acad5ca03dadbccefdbafe355b0549ec4e8cca9",
    "ks-rs-8-3": "ec22aa6c5cbbf48cdb18cc03e98747e48f4cebba14c786296a01fe16802d7c6d",
}

# (matrix file, extra simulate args, (report key, value), sha256 of stdout, sha256 of CSV)
SIMULATE_PINS = [
    (
        "ks83.txt",
        ["--t", "5", "--trials", "3000", "--decode", "--dump-trials", "trials.csv"],
        ("violations", 4698),
        "0d167401c690e19db2446d3ed57d1a2251c2786a00e53327f13346ad60ef7924",
        "0db2a33880d175faf5d57654e532f77a8db48b5d5350d666c7382791a5b7379d",
    ),
    (
        "ks83.txt",
        ["--t", "6", "--trials", "3000"],
        ("violations", 36),
        "83cf278fe4e03ac6866e2258ccaa5506fea7bf319be9a8daab3d830502be7526",
        None,
    ),
    (
        "bch533.txt",
        ["--t", "4", "--trials", "3000", "--decode", "--dump-trials", "trials.csv"],
        ("violations", 7366),
        "2ee42e1722baca083d376c844559fdd8b51e51b93299a38858bae52a84538406",
        "84c5b835813f619ce795e425532966ce0075a28062be5c919ec6f398ff3ec7d0",
    ),
    (
        "bch533.txt",
        ["--t", "4", "--trials", "3000"],
        ("violations", 54),
        "e6470f2ddc65205b14d67fb5fb1ea8436d10a0857015f67eaa4789a028fef567",
        None,
    ),
    (
        "bch533.txt",
        ["--t", "3", "--exact"],
        ("p_a", "49/10659"),
        "1c8f4be4f214da539a36d74ca11a070c861b9fd0dc4e4ea671b0e263d882c2f2",
        None,
    ),
    (
        "ks52.txt",
        ["--t", "4", "--exact"],
        ("pairwise_relaxation", "130/759"),
        "a434ea8a4e6171d95d4a2ef5183a3ea57bb8c1777c043258a67dc40c22438ed2",
        None,
    ),
    (
        "ks43.txt",
        ["--t", "4", "--exact"],
        ("pairwise_relaxation", "38846/66185"),
        "2a615496e4a315187196a739e9d496e37447077a998e73024a2eff4fdc1e59be",
        None,
    ),
]


# sha256 of the ks83-probe stdout without its `ci`, as printed when Wilson's z came from
# scipy's ndtri: the stdlib quantile moved only the last bit of ci[1], nothing else
KS83_PROBE_WITHOUT_CI = "1e04169fd02c4ddd63f9046ff5b69098b33dd1f42200cfd4efdba54964281840"

# sha256 of the stdout of `construct --family ks-rs --q 8 --k 3 --out ks83.txt` and of
# `spectra --in ks83.txt`, as printed when both counted every column pair
KS83_CONSTRUCT = "c6d62110f9042d57c0a47089e0051d0c46d049c9f40f18714f7714986dd82b86"
KS83_SPECTRA = "827cf179375a39bd007a40e91dbb17c03bb41ec1173bc93d7317f0c6d5b572b3"

# sha256 of the stdout of `spectra --kind code --in rs52.txt` (RS(5,2) from `write_code`) and
# of `verify`, as printed when `hamming_spectrum` counted every word pair and `verify` decoded
# the path toy at t = 3
RS52_CODE_SPECTRA = "0101c1fc50d6e914b994748be0550ea69501228063b365f3cd30fc450d866824"
VERIFY = "2f94eaf46b726d718b88ff3f0393fe0b944900198f353ff2739d47c893f2b89b"

# sha256 of the RS(256,2) words as little-endian int32, as built by Horner steps, and the
# digest of the weight-5 layer of the [63,51] BCH code (m=6, delta=5), as built by a walk
# over every 5-subset; both are pinned by the benchmark too
RS256_WORDS = "c12f7d39c69626740bf3a58068afd26dc0b80435a5187eb41d45af5c692190d2"
BCH655_DIGEST = "ecb6437aef02ac1df4464e739aa240e566625b2806efe73c58dc10ba64d14083"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_bundled_matrix_digests():
    got = {name: textio.matrix_digest(matrix) for name, matrix in instances.bundled().items()}
    assert got == BUNDLED_DIGESTS


def test_rs_words_and_bch_layer_pinned():
    words = codes.rs_code(Field(2, 8), 2).words
    assert hashlib.sha256(words.astype("<i4").tobytes()).hexdigest() == RS256_WORDS
    assert codes.fixed_weight_subcode(codes.bch_code(6, 5), 5).digest == BCH655_DIGEST


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    """KS(8,3), KS(5,2), KS(4,3) and the weight-3 layer of the [31,26] BCH code (m=5, delta=3)."""
    d = tmp_path_factory.mktemp("pins")
    for q, k in ((8, 3), (5, 2), (4, 3)):
        textio.write_matrix(d / f"ks{q}{k}.txt", instances.ks_rs(q, k))
    textio.write_matrix(d / "bch533.txt", codes.fixed_weight_subcode(codes.bch_code(5, 3), 3))
    return d


@pytest.mark.parametrize(
    "name,args,field,stdout_sha,csv_sha",
    SIMULATE_PINS,
    ids=["ks83-decode", "ks83-probe", "bch533-decode", "bch533-probe", "bch533-exact", "ks52-exact", "ks43-exact"],
)
def test_simulate_output_pinned(pin_dir, monkeypatch, name, args, field, stdout_sha, csv_sha):
    # relative paths, so the "matrix" field of the report is the same on every machine
    monkeypatch.chdir(pin_dir)
    result = CliRunner().invoke(main, ["simulate", "--matrix", name, *args], catch_exceptions=False)
    assert result.exit_code == 0
    key, value = field
    assert json.loads(result.output)["report"][key] == value
    assert _sha(result.output) == stdout_sha
    if csv_sha is not None:
        assert _sha((pin_dir / "trials.csv").read_text()) == csv_sha


def test_ks83_probe_moves_only_its_interval(pin_dir, monkeypatch):
    monkeypatch.chdir(pin_dir)
    name, args = SIMULATE_PINS[1][:2]
    result = CliRunner().invoke(main, ["simulate", "--matrix", name, *args], catch_exceptions=False)
    payload = json.loads(result.output)
    del payload["report"]["ci"]
    assert _sha(json.dumps(payload, indent=2, sort_keys=True)) == KS83_PROBE_WITHOUT_CI


def test_construct_and_spectra_output_pinned(tmp_path, monkeypatch):
    # the structure route of the spectrum and of min_distance prints what the pair count did
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    built = runner.invoke(main, ["construct", "--family", "ks-rs", "--q", "8", "--k", "3", "--out", "ks83.txt"],
                          catch_exceptions=False)
    assert built.exit_code == 0 and _sha(built.output) == KS83_CONSTRUCT
    spec = runner.invoke(main, ["spectra", "--in", "ks83.txt"], catch_exceptions=False)
    assert spec.exit_code == 0 and _sha(spec.output) == KS83_SPECTRA


def test_code_spectra_and_verify_output_pinned(tmp_path, monkeypatch):
    # RS(5,2) takes the linear-code route; `verify` reaches it through its moment checks
    monkeypatch.chdir(tmp_path)
    write_code("rs52.txt", codes.rs_code(Field(5, 1), 2))
    runner = CliRunner()
    spec = runner.invoke(main, ["spectra", "--kind", "code", "--in", "rs52.txt"], catch_exceptions=False)
    assert spec.exit_code == 0 and _sha(spec.output) == RS52_CODE_SPECTRA
    checked = runner.invoke(main, ["verify"], catch_exceptions=False)
    assert checked.exit_code == 0 and _sha(checked.output) == VERIFY


# (family, its parameter sets): one set whose bounds apply and one whose preconditions fail
BOUND_GRID_FAMILIES = [
    ("nonbinary", [["--q", "16", "--n", "15", "--t", "2"], ["--q", "8", "--n", "7", "--t", "9"]]),
    ("cw-minkowski", [["--M", "1024", "--w", "32", "--t", "8"], ["--M", "20", "--w", "12", "--t", "1"]]),
    ("cw-rosenthal", [["--M", "200", "--w", "10", "--t", "3"], ["--M", "2000000", "--w", "1000", "--t", "3"]]),
    ("cw-l2", [["--M", "63", "--w", "3", "--t", "5"], ["--M", "10", "--w", "5", "--t", "2"]]),
    ("rs-asymptotic", [["--q", "64", "--t", "2"], ["--q", "3", "--t", "5"]]),
]
BOUND_GRID = [
    ["bound", "--family", family, *given, "--ell", ell, *dprime]
    for family, sets in BOUND_GRID_FAMILIES
    for given in sets
    for ell in ("2", "3", "4", "auto")
    for dprime in ([], ["--dprime", "2"], ["--dprime", "5"], ["--dprime", "9"])
]

# sha256 of the JSON list of [args, exit code, stdout, stderr] over BOUND_GRID, as printed
# when `bound` dispatched each family by hand and scanned every ell twice for --ell auto
BOUND_GRID_SHA = "f5a271a5c10f7951a5d8791dd33d8a26532099a9d231fa7012fca28916ab45be"

# (formula, ell) of each `simulate` bounds entry on the BCH-cw layer bch533 at t = 2 with its
# dual distance patched to 5, and sha256 of the entries as JSON, as printed when the list was
# written out family by family
APPLICABLE_ORDER = [
    ("cw-minkowski", 2), ("cw-rosenthal", 2), ("cw-minkowski", 4), ("cw-rosenthal", 4), ("cw-l2", 2),
]
APPLICABLE_SHA = "48944e6616f280e0fce69a966dd03d8568afc139a1b4bdb709c3972f957ac68f"


def test_bound_grid_pinned():
    runner = CliRunner()
    rows = []
    for args in BOUND_GRID:
        result = runner.invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        rows.append([args, result.exit_code, result.stdout, result.stderr])
    assert any("skipped" in row[3] for row in rows) and any(row[1] == 2 for row in rows)
    assert _sha(json.dumps(rows)) == BOUND_GRID_SHA


def test_applicable_bounds_order_pinned(monkeypatch):
    monkeypatch.setattr(spectra, "dual_spectrum_cw", lambda spec: SimpleNamespace(dual_distance=5))
    entries = cli._applicable_bounds(codes.fixed_weight_subcode(codes.bch_code(5, 3), 3), 2)
    assert [(entry["formula"], entry["ell"]) for entry in entries] == APPLICABLE_ORDER
    assert _sha(json.dumps(entries, sort_keys=True)) == APPLICABLE_SHA
