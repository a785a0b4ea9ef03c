"""The benchmark's view of the library: every attribute `perfbench/workloads.py` reads off a
library module or off a built matrix exists, so a rename fails here rather than in a benchmark run."""

import ast
from pathlib import Path

import pytest

from disjunct import bounds, codes, instances, measure, rand, spectra

TREE = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text())
MODULES = {"bnd": bounds, "codes": codes, "instances": instances, "measure": measure, "rand": rand,
           "spectra": spectra}
READS = sorted({
    f"{node.value.id}.{node.attr}"
    for node in ast.walk(TREE)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
})
MATRIX_NAMES = ("matrix", "layer", "back")  # the names the workloads give a built matrix
MATRIX_READS = sorted({
    node.attr
    for node in ast.walk(TREE)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MATRIX_NAMES
})
BUILT = {  # a matrix from each construction the workloads run
    "ks": lambda: instances.ks_rs(4, 2),
    "bch": lambda: codes.fixed_weight_subcode(codes.bch_code(4, 3), 3),
    "instance": instances.fano,
}


def test_workloads_import_the_guarded_modules():
    imported = {alias.asname or alias.name for node in ast.walk(TREE)
                if isinstance(node, ast.ImportFrom) and node.module == "disjunct" for alias in node.names}
    assert imported == set(MODULES)
    assert len(READS) > 20


@pytest.mark.parametrize("name", READS)
def test_workloads_attribute_exists(name):
    module, attr = name.split(".")
    assert hasattr(MODULES[module], attr), f"perfbench/workloads.py reads {name}, which the library lacks"


def test_workloads_read_the_guarded_matrix_attributes():
    # a new read off a matrix joins the guard below, or this fails
    assert MATRIX_READS == ["columns", "digest", "length", "min_distance", "num_columns", "packed", "weight"]


@pytest.mark.parametrize("build", sorted(BUILT))
def test_workloads_matrix_attributes_exist(tmp_path, build):
    matrix = BUILT[build]()
    path = tmp_path / "m.txt"
    codes.write_matrix(path, matrix)
    for built in (matrix, codes.read_matrix(path)):
        missing = [attr for attr in MATRIX_READS if not hasattr(built, attr)]
        assert not missing, f"perfbench/workloads.py reads {missing} off a matrix, which it lacks"
        n_cols, w = built.num_columns, built.weight
        assert built.packed.shape == (n_cols, -(-built.length // 64))
        assert len(built.columns) == n_cols and sum(len(c) for c in built.columns) == n_cols * w
        assert built.digest == codes.matrix_digest(matrix)
        assert built.min_distance() == matrix.min_distance() >= 2
