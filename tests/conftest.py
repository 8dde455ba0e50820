"""One ``hypothesis`` profile and a time bound on every test.

Every property runs without a deadline, from seeds derived from the test
itself and with no example database, so a run replays the same examples on
any machine.  The profile is loaded here, before any test module is
imported, so each ``settings(max_examples=...)`` inherits it.  The seed of a
module-level test hashes its body; for a method, ``hypothesis`` hashes its
decorators too, so editing a method's ``settings`` draws new examples.

The ``tracing`` fixture loads the benchmark's tracer, ``perfbench/tracing.py``,
from its file: it is not a package module, and its ``TARGETS`` name the
functions of ``src/`` that it binds from outside.  The ``product_sums``
fixture spies on the one product kernel, ``poly._product_sum``, and on the
``poly._pack`` calls made inside it.

A regression that makes a loop run forever (a bisection that never narrows,
a remainder sequence that never shrinks) should stop the suite with the
stuck test's traceback, not hang it.  ``faulthandler`` dumps every thread's
stack and exits the process once the bound passes; an exception raised
from a signal handler would not do, since ``hypothesis`` would catch it and
run the hanging example again while shrinking.  The slowest test takes a
few seconds, far inside the bound.
"""

import faulthandler
import importlib.util
import math
import os
from pathlib import Path

import pytest
from hypothesis import settings

TEST_TIME_BOUND_S = 60

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

settings.register_profile("exact", deadline=None, derandomize=True, database=None)
settings.load_profile("exact")

_stderr_fd = None


def pytest_configure(config):
    # pytest captures fd 2 while a test runs and drops the capture when the
    # process exits, so the dump goes to a copy of the real stderr, taken
    # here while capturing is off
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def _time_bound():
    faulthandler.dump_traceback_later(TEST_TIME_BOUND_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def tracing():
    if not TRACING.is_file():
        pytest.skip("perfbench/tracing.py is not present")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def product_sums(monkeypatch):
    """(term pairs, sizes of the boxes packed) of each ``poly._product_sum``
    call the test makes, in call order; both bindings of the kernel, in
    ``poly`` and in ``matrices``, are spied on."""
    from inflectionary import matrices, poly

    sums, running = [], []
    product_sum, pack = poly._product_sum, poly._pack

    def sum_spy(products):
        boxes = []
        sums.append((sum(len(x) * len(y) for x, y, _ in products), boxes))
        running.append(boxes)
        try:
            return product_sum(products)
        finally:
            running.pop()

    def pack_spy(ints, radices, width):
        if running:
            running[-1].append(math.prod(radices))
        return pack(ints, radices, width)

    for module in (poly, matrices):
        monkeypatch.setattr(module, "_product_sum", sum_spy)
    monkeypatch.setattr(poly, "_pack", pack_spy)
    return sums
