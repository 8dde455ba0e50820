"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` names the functions it traces by module and
attribute.  Its own tests sit outside this suite, so a rename or a deletion
in ``src/`` would otherwise only show when a traced benchmark run breaks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from inflectionary.poly import SparsePoly
from inflectionary.roots import SturmChain

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.is_file():
        pytest.skip("perfbench/tracing.py is not present")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for module_name, attr, _span in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            # the tracer reads class attributes from the class's own __dict__
            owner = getattr(module, owner_name)
            assert callable(owner.__dict__.get(fn_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, fn_name, None)), f"{module_name}.{attr}"


def test_sturm_chain_exposes_polys(tracing):
    # the SturmChain counters read each element's ``terms`` through ``polys``
    polys = SturmChain("t", [-2, 0, 1]).polys
    assert polys and all(isinstance(p, SparsePoly) for p in polys)
