"""The benchmark's view of the library: every attribute `perfbench/workloads.py` reads off a
library module exists, so a rename fails here rather than in a benchmark run."""

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


def test_workloads_import_the_guarded_modules():
    imported = {alias.asname or alias.name for node in ast.walk(TREE)
                if isinstance(node, ast.ImportFrom) and node.module == "disjunct" for alias in node.names}
    assert imported == set(MODULES)
    assert len(READS) > 20


@pytest.mark.parametrize("name", READS)
def test_workloads_attribute_exists(name):
    module, attr = name.split(".")
    assert hasattr(MODULES[module], attr), f"perfbench/workloads.py reads {name}, which the library lacks"
