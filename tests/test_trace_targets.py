"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` names the functions it traces by module and
attribute.  Its own tests sit outside this suite, so a rename or a deletion
in ``src/`` would otherwise only show when a traced benchmark run breaks.
"""

import importlib

from inflectionary import inflection
from inflectionary.inflection import general_inflection
from inflectionary.poly import SparsePoly
from inflectionary.roots import SturmChain


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


def test_a_traced_build_returns_the_polynomial(tracing):
    # The tracer's one reader of a build's result beyond the poly counters,
    # its general_inflection counter, reads ``result.mu`` and ``result.k``
    # only after a q_template or substitute_polys span under the build; the
    # build expands by minors and runs neither, so it never reads them.
    expected = general_inflection(2, 3)
    with tracing.Tracer() as tracer:
        general_inflection.cache_clear()
        result = inflection.general_inflection(2, 3)
    assert inflection.general_inflection is general_inflection
    assert type(result) is SparsePoly and result == expected
    assert "inflection.general_inflection.repeats" not in tracer.counts
