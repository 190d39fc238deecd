"""Known-answer tests: seeded Falcon signatures pinned byte for byte.

The fixtures under ``tests/kats/`` were generated once (seed, PRNG and
backend recorded in each file) and committed; every future refactor of
the numeric spine — scalar or vectorized — must keep reproducing the
exact same signature bytes, in both the with-NumPy and without-NumPy
environments, and on the scalar spine inside the ``scalar_spine``
switch (tests/conftest.py) on a NumPy host.  A silent change here means
a silent change to what the scheme signs, which is exactly what these
vectors exist to catch.

The n=256 vector costs a keygen of ~1s and runs under ``REPRO_FULL=1``.
"""

import json
from contextlib import nullcontext
from pathlib import Path

import pytest
from _env_gate import REPRO_FULL

from repro.falcon import SecretKey

KAT_DIR = Path(__file__).parent / "kats"
FULL = REPRO_FULL

KAT_FILES = sorted(KAT_DIR.glob("falcon_*.json"))


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _kats():
    for path in KAT_FILES:
        kat = _load(path)
        if kat["n"] > 64 and not FULL:
            continue
        yield pytest.param(kat, id=f"n{kat['n']}")


def _regenerate(kat) -> SecretKey:
    return SecretKey.generate(n=kat["n"], seed=kat["seed"],
                              base_backend=kat["base_backend"],
                              prng=kat["prng"])


def test_kat_fixtures_exist():
    assert len(KAT_FILES) >= 3, KAT_FILES


@pytest.mark.parametrize("kat", _kats())
def test_kat_key_generation(kat):
    sk = _regenerate(kat)
    assert sk.keys.h == kat["public_key_h"]


@pytest.mark.parametrize("kat", _kats())
def test_kat_sequential_sign(kat, scalar_spine):
    """One message at a time: ``sign`` on the platform's spine, then
    inside the scalar-spine switch."""
    for switch in (nullcontext, scalar_spine):
        sk = _regenerate(kat)
        with switch():
            for message_hex, expected in zip(kat["messages"],
                                             kat["sign_sequential"]):
                signature = sk.sign(bytes.fromhex(message_hex))
                assert signature.salt.hex() == expected["salt"]
                assert signature.compressed.hex() \
                    == expected["compressed"]


@pytest.mark.parametrize("spine", ["scalar", "numpy"], indirect=True)
@pytest.mark.parametrize("kat", _kats())
def test_kat_batch_sign(kat, spine):
    sk = _regenerate(kat)
    messages = [bytes.fromhex(h) for h in kat["messages"]]
    signatures = sk.sign_many(messages)
    for signature, expected in zip(signatures, kat["sign_many_batch"]):
        assert signature.salt.hex() == expected["salt"]
        assert signature.compressed.hex() == expected["compressed"]


@pytest.mark.parametrize("kat", _kats())
def test_kat_signatures_verify(kat):
    sk = _regenerate(kat)
    messages = [bytes.fromhex(h) for h in kat["messages"]]
    signatures = sk.sign_many(messages)
    assert sk.public_key.verify_many(messages, signatures) \
        == [True] * len(messages)
