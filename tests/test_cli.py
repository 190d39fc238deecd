"""Tests for the command-line tool."""

import json
import re

import pytest

from repro.cli import build_parser, main


def test_compile_command(capsys):
    assert main(["compile", "--sigma", "2", "--precision", "12"]) == 0
    out = capsys.readouterr().out
    assert "gates" in out
    assert "efficient" in out


def test_compile_emit_c(capsys):
    assert main(["compile", "--sigma", "2", "--precision", "10",
                 "--emit", "c"]) == 0
    out = capsys.readouterr().out
    assert "uint64_t" in out
    assert "static inline void sampler" in out


def test_compile_emit_python(capsys):
    assert main(["compile", "--sigma", "2", "--precision", "10",
                 "--emit", "python"]) == 0
    assert "def sampler(inputs, mask):" in capsys.readouterr().out


def test_compile_simple_method(capsys):
    assert main(["compile", "--sigma", "2", "--precision", "10",
                 "--method", "simple"]) == 0
    assert "simple" in capsys.readouterr().out


def test_sample_command(capsys):
    assert main(["sample", "--count", "25", "--seed", "3",
                 "--precision", "16"]) == 0
    values = capsys.readouterr().out.split()
    assert len(values) == 25
    assert all(abs(int(v)) <= 26 for v in values)


def test_sample_deterministic(capsys):
    main(["sample", "--count", "10", "--seed", "5", "--precision", "16"])
    first = capsys.readouterr().out
    main(["sample", "--count", "10", "--seed", "5", "--precision", "16"])
    second = capsys.readouterr().out
    assert first == second


def test_audit_leaky_backend_exits_nonzero(capsys):
    code = main(["audit", "--backend", "cdt-byte-scan",
                 "--calls", "1500", "--precision", "16"])
    assert code == 1
    assert "LEAK" in capsys.readouterr().out


def test_audit_bitsliced_passes(capsys):
    code = main(["audit", "--backend", "bitsliced",
                 "--calls", "6400", "--precision", "16"])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_falcon_command(capsys):
    code = main(["falcon", "--n", "32", "--seed", "4",
                 "--message", "cli test", "--backend", "cdt-binary"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified   : True" in out


def test_audit_bisection_passes(capsys):
    code = main(["audit", "--backend", "cdt-bisection",
                 "--calls", "1500", "--precision", "16"])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_falcon_command_bisection_backend(capsys):
    code = main(["falcon", "--n", "32", "--seed", "4",
                 "--message", "cli test", "--backend", "cdt-bisection"])
    assert code == 0
    assert "verified   : True" in capsys.readouterr().out


def test_ct_leakage_command(capsys, tmp_path):
    import json

    out_path = tmp_path / "leakage.json"
    code = main(["ct-leakage", "--profile", "quick", "--seed", "2026",
                 "--target", "serving-rounds",
                 "--json", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "positive control" in out
    decoded = json.loads(out_path.read_text())
    assert decoded["passed"] is True
    assert decoded["control_caught"] is True
    assert set(decoded["targets"]) == {"serving-rounds"}


def test_sample_prng_and_explicit_width(capsys):
    assert main(["sample", "--count", "12", "--seed", "2",
                 "--precision", "16", "--prng", "chacha8",
                 "--batch-width", "256"]) == 0
    chacha8 = capsys.readouterr().out.split()
    assert len(chacha8) == 12
    assert main(["sample", "--count", "12", "--seed", "2",
                 "--precision", "16", "--prng", "shake256",
                 "--batch-width", "256"]) == 0
    shake = capsys.readouterr().out.split()
    assert len(shake) == 12
    assert chacha8 != shake  # different PRNGs, different streams


@pytest.mark.parametrize("width", ["0", "-8", "auto", "wide"])
def test_sample_rejects_bad_batch_width(capsys, width):
    with pytest.raises(SystemExit) as exit_info:
        main(["sample", "--batch-width", width])
    assert exit_info.value.code == 2
    assert "--batch-width" in capsys.readouterr().err


#: Count, window and degree options that once crashed, raised a
#: traceback or ran a meaningless load: each must be a usage error.
BAD_NUMERIC_INPUT = {
    "serve-tenants-0": ["serve", "--tenants", "0"],
    "serve-clients-0": ["serve", "--requests", "4", "--clients", "0"],
    "serve-shards-0": ["serve", "--shards", "0"],
    "serve-max-batch-0": ["serve", "--max-batch", "0"],
    "serve-queue-depth-0": ["serve", "--queue-depth", "0"],
    "serve-max-wait-negative": ["serve", "--max-wait", "-1"],
    "serve-n-6": ["serve", "--n", "6"],
    "serve-requests-negative": ["serve", "--requests", "-2"],
    "serve-watermark-negative": ["serve", "--watermark", "-1"],
    "serve-deadline-negative": ["serve", "--deadline", "-1"],
    "serve-rate-limit-negative": ["serve", "--listen", "127.0.0.1:0",
                                  "--rate-limit", "-1"],
    "ledger-keys-0": ["ledger", "append", "--dir", "ld", "--keys", "0"],
    "ledger-block-size-0": ["ledger", "append", "--dir", "ld",
                            "--block-size", "0"],
    "ledger-capacity-0": ["ledger", "append", "--dir", "ld",
                          "--capacity", "0"],
    "ledger-records-negative": ["ledger", "append", "--dir", "ld",
                                "--records", "-3"],
    "falcon-n-100": ["falcon", "--n", "100"],
    "falcon-n-0": ["falcon", "--n", "0"],
    "keygen-workers-0": ["keygen", "--workers", "0"],
    "keygen-n-2": ["keygen", "--n", "2"],
    "compile-precision-0": ["compile", "--precision", "0"],
    "compile-tail-cut-0": ["compile", "--tail-cut", "0"],
    "compile-sigma-negative": ["compile", "--sigma", "-1"],
    "sample-precision-1": ["sample", "--precision", "1"],
    "sample-sigma-0": ["sample", "--sigma", "0"],
    "sample-sigma-inf": ["sample", "--sigma", "inf"],
    "sample-sigma-negative": ["sample", "--precision", "16", "--count",
                              "6", "--seed", "1", "--sigma", "-2"],
    "sample-count-negative": ["sample", "--count", "-5"],
    "audit-precision-0": ["audit", "--backend", "cdt-binary",
                          "--precision", "0"],
    "serve-provision-negative": ["serve", "--provision", "-3"],
    "serve-verify-share-negative": ["serve", "--verify-share", "-2"],
    "serve-chaos-max-per-site-negative": ["serve", "--chaos",
                                          "--chaos-max-per-site", "-1"],
    "serve-chaos-claim-rate-above-1": ["serve", "--chaos",
                                       "--chaos-claim-rate", "2.5"],
    "serve-chaos-drop-rate-nan": ["serve", "--chaos",
                                  "--chaos-drop-rate", "nan"],
    "serve-token-empty-secret": ["serve", "--listen", "127.0.0.1:0",
                                 "--token", "alice="],
    "serve-listen-port-99999": ["serve", "--listen", "127.0.0.1:99999"],
    "serve-connect-port-65536": ["serve", "--connect",
                                 "127.0.0.1:65536"],
    "keygen-count-0": ["keygen", "--count", "0"],
}


@pytest.mark.parametrize("argv", BAD_NUMERIC_INPUT.values(),
                         ids=BAD_NUMERIC_INPUT.keys())
def test_numeric_options_reject_bad_values(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


@pytest.mark.parametrize("backend,calls", [("bitsliced", "255"),
                                           ("cdt-binary", "3")])
def test_audit_rejects_too_few_calls(capsys, backend, calls):
    assert main(["audit", "--backend", backend, "--calls", calls]) == 2
    err = capsys.readouterr().err
    assert "--calls must be at least" in err
    assert len(err.strip().splitlines()) == 1


def test_falcon_command_prng_choice(capsys):
    code = main(["falcon", "--n", "32", "--seed", "4",
                 "--message", "cli test", "--backend", "cdt-binary",
                 "--prng", "shake128"])
    assert code == 0
    assert "verified   : True" in capsys.readouterr().out


def test_keygen_command(capsys):
    assert main(["keygen", "--n", "8", "--count", "2",
                 "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "keys/s" in out
    assert "memory only" in out


def test_keygen_command_persists(capsys, tmp_path):
    store_dir = str(tmp_path / "keys")
    assert main(["keygen", "--n", "8", "--count", "2", "--seed", "4",
                 "--keystore", store_dir]) == 0
    out = capsys.readouterr().out
    assert store_dir in out
    assert len(list((tmp_path / "keys").glob("*.skey"))) >= 1


def test_serve_command(capsys):
    assert main(["serve", "--n", "8", "--requests", "12",
                 "--clients", "4", "--tenants", "2", "--shards", "2",
                 "--watermark", "1", "--verify-share", "4"]) == 0
    out = capsys.readouterr().out
    assert "requests/s" in out
    assert "coalesced rounds" in out
    assert "signed / verified" in out
    assert "memory only" in out


def test_serve_command_persists(capsys, tmp_path):
    store_dir = str(tmp_path / "serving")
    assert main(["serve", "--n", "8", "--requests", "6",
                 "--clients", "2", "--tenants", "2",
                 "--provision", "1", "--verify-share", "0",
                 "--keystore", store_dir]) == 0
    out = capsys.readouterr().out
    assert store_dir in out
    assert (tmp_path / "serving" / "shard-00").is_dir()
    assert (tmp_path / "serving" / "shard-01").is_dir()


def test_serve_listen_drives_the_load_over_the_wire(capsys):
    assert main(["serve", "--n", "8", "--requests", "6", "--clients",
                 "2", "--tenants", "2", "--verify-share", "2",
                 "--listen", "127.0.0.1:0"]) == 0
    out = capsys.readouterr().out
    assert "listening on 127.0.0.1:" in out
    rows = _table_rows(out)
    assert rows["net frames / served"] == "9 / 9"  # 6 signs, 3 verifies
    assert rows["availability"] == "100.000%"


def test_serve_connect_drives_an_external_server(capsys):
    """Client mode against a server this test runs on a thread of its
    own (stdlib only); the load must reach that server."""
    import asyncio
    import threading

    from repro.falcon.serving import (NetServer, ShardedKeyStore,
                                      SigningService)

    ready = threading.Event()
    state = {}

    async def serve():
        store = ShardedKeyStore(shards=1, master_seed=5)
        async with SigningService(store, n=8) as service:
            server = NetServer(service, tokens={"tenant-0": b"zero",
                                                "tenant-1": b"one"})
            await server.start("127.0.0.1", 0)
            state["port"], state["stop"] = server.port, asyncio.Event()
            state["loop"] = asyncio.get_running_loop()
            ready.set()
            await state["stop"].wait()
            await server.stop(stop_service=False)
            state["served"] = server.metrics.served

    thread = threading.Thread(target=asyncio.run, args=(serve(),))
    thread.start()
    try:
        assert ready.wait(30)
        code = main(["serve", "--n", "8", "--requests", "4",
                     "--clients", "2", "--tenants", "2",
                     "--verify-share", "0",
                     "--token", "tenant-0=zero", "--token", "tenant-1=one",
                     "--connect", f"127.0.0.1:{state['port']}"])
    finally:
        if "loop" in state:
            state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(30)
    assert code == 0
    rows = _table_rows(capsys.readouterr().out)
    assert rows["availability"] == "100.000%"
    assert state["served"] == 4


def test_serve_chaos_with_every_claim_failing(capsys):
    """Every keystore claim fails, so no request is served; the run
    reports that instead of raising."""
    assert main(["serve", "--n", "8", "--requests", "4", "--tenants",
                 "2", "--chaos", "--chaos-claim-rate", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chaos: seeded fault plan")
    assert _table_rows(out)["availability"] == "0.000%"


def _ledger(tmp_path, action, *extra):
    return main(["ledger", action, "--dir", str(tmp_path / "ld"),
                 "--n", "8", *extra])


def _table_rows(out: str) -> dict:
    """``metric -> value`` from a printed two-column table."""
    rows = (re.split(r"\s{2,}", line.strip(), maxsplit=1)
            for line in out.splitlines())
    return {row[0]: row[1] for row in rows if len(row) == 2}


def test_ledger_command_round_trip(capsys, tmp_path):
    assert _ledger(tmp_path, "append", "--keys", "2", "--records", "6",
                   "--block-size", "3") == 0
    appended = _table_rows(capsys.readouterr().out)
    assert appended["records committed"] == "6"
    assert appended["chain height"] == "2"
    assert _ledger(tmp_path, "verify") == 0
    audited = _table_rows(capsys.readouterr().out)
    assert audited["verdict"] == "OK"
    assert (audited["blocks"], audited["records"]) == ("2", "6")
    assert _ledger(tmp_path, "stats") == 0
    stats = _table_rows(capsys.readouterr().out)
    assert (stats["height"], stats["records_committed"]) == ("2", "6")


def test_ledger_append_commits_before_a_small_mempool_fills(capsys,
                                                            tmp_path):
    assert _ledger(tmp_path, "append", "--keys", "2", "--records", "5",
                   "--capacity", "2") == 0
    appended = _table_rows(capsys.readouterr().out)
    assert appended["records committed"] == "5"
    assert appended["chain height"] == "3"


@pytest.mark.parametrize("action", ["append", "verify", "stats"])
def test_ledger_command_reports_a_tampered_file(capsys, tmp_path,
                                                action):
    assert _ledger(tmp_path, "append", "--keys", "2", "--records", "6",
                   "--block-size", "3") == 0
    capsys.readouterr()
    path = tmp_path / "ld" / "ledger.jsonl"
    lines = path.read_text().splitlines()
    payload = json.loads(lines[0])
    message = payload["records"][0]["msg"]
    flipped = "0" if message[0] != "0" else "1"
    payload["records"][0]["msg"] = flipped + message[1:]
    lines[0] = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert _ledger(tmp_path, action) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: block 0: records_root does not "
                            "match records\n")
    assert captured.out == ""


def test_parser_rejects_unknown_prng():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sample", "--prng", "aesni"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_choice():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compile", "--method", "magic"])
