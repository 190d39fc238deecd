"""Shared pytest configuration for the suite.

Centralizes the ``REPRO_FULL`` environment gate (paper-scale work:
large-n keygen, full KAT sets, slow examples) as a proper registered
marker, so individual test files stop re-deriving the env check and
``pytest --strict-markers`` passes.

Usage in tests::

    from _env_gate import REPRO_FULL       # branch on the flag
    @pytest.mark.repro_full                 # or skip whole tests

(The flag itself lives in ``tests/_env_gate.py`` — see that module's
docstring for why it cannot live here.)

Spines: the platform picks the Falcon numeric spine (NumPy when it
imports).  The ``scalar_spine`` fixture is the one way tests reach the
private switch that runs the scalar spine on a NumPy host; the ``spine``
fixture runs a test once per spine on top of it.
"""

import pytest

from _env_gate import REPRO_FULL  # noqa: F401  (re-export)

#: Shared skip decorator for the quick tier (kept for files that mix
#: gated and ungated cases in one parametrize).
requires_full = pytest.mark.skipif(
    not REPRO_FULL, reason="paper-scale test; set REPRO_FULL=1")


@pytest.fixture
def scalar_spine():
    """The private ``repro.falcon._scalar_spine`` switch: use it as a
    context manager to run signing, batch verification, keygen and CDT
    block sampling on the scalar spine."""
    from repro.falcon import _scalar_spine

    return _scalar_spine


@pytest.fixture(params=["scalar", "numpy"])
def spine(request, scalar_spine):
    """Run the test on each spine, yielding its name.  ``"scalar"``
    runs inside the switch; ``"numpy"`` runs as the platform does and
    is skipped without NumPy.  Indirect parametrization may also ask
    for ``"auto"``: the platform's own choice, on any host."""
    from repro.falcon import HAVE_NUMPY

    if request.param == "scalar":
        with scalar_spine():
            yield request.param
        return
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("the NumPy spine needs NumPy")
    yield request.param


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "repro_full: paper-scale test, runs only with REPRO_FULL=1")


def pytest_collection_modifyitems(config, items):
    if REPRO_FULL:
        return
    skip = pytest.mark.skip(
        reason="paper-scale test; set REPRO_FULL=1")
    for item in items:
        if "repro_full" in item.keywords:
            item.add_marker(skip)
