"""Keygen known-answer tests: seeded NtruKeys pinned value for value.

The fixtures under ``tests/kats/keygen_*.json`` were generated once
(by ``tests/kats/generate_kats.py``) and committed; every future
refactor of the keygen pipeline — the CDT block sampler, the candidate
filters, NTRUSolve, Babai reduction, on either spine — must keep
reproducing the exact same (f, g, F, G, h), in both the with-NumPy and
without-NumPy CI legs, and on the scalar spine inside the
``scalar_spine`` switch (tests/conftest.py) on a NumPy host.  A
divergence here means the two spines no longer generate the same keys
from the same seed.

The n=256, n=512 and n=1024 vectors run under ``REPRO_FULL=1`` (the
slow gate; Level 3 keygen costs ~100 ms vectorized, ~1 s scalar).
"""

import json
from pathlib import Path

import pytest
from _env_gate import REPRO_FULL

from repro.falcon import generate_keys
from repro.rng import ChaChaSource

KAT_DIR = Path(__file__).parent / "kats"
FULL = REPRO_FULL

KAT_FILES = sorted(KAT_DIR.glob("keygen_*.json"))


def _kats():
    for path in KAT_FILES:
        with open(path, encoding="utf-8") as handle:
            kat = json.load(handle)
        if kat["n"] > 64 and not FULL:
            continue
        yield pytest.param(kat, id=f"n{kat['n']}")


def test_keygen_kat_fixtures_exist():
    names = {path.name for path in KAT_FILES}
    for n in (8, 64, 256, 512, 1024):
        assert any(f"keygen_n{n}_" in name for name in names), names


@pytest.mark.parametrize("kat", _kats())
def test_keygen_kat_default_spine(kat):
    keys = generate_keys(kat["n"], source=ChaChaSource(kat["seed"]))
    assert keys.f == kat["f"]
    assert keys.g == kat["g"]
    assert keys.F == kat["F"]
    assert keys.G == kat["G"]
    assert keys.h == kat["h"]


@pytest.mark.parametrize("spine", ["scalar", "numpy"], indirect=True)
@pytest.mark.parametrize("kat", _kats())
def test_keygen_kat_each_spine(kat, spine):
    keys = generate_keys(kat["n"], source=ChaChaSource(kat["seed"]))
    assert keys.F == kat["F"]
    assert keys.G == kat["G"]
    assert keys.h == kat["h"]


@pytest.mark.parametrize("kat", _kats())
def test_keygen_kat_keys_are_valid(kat):
    keys = generate_keys(kat["n"], source=ChaChaSource(kat["seed"]))
    assert keys.verify_ntru_equation()
