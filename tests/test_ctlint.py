"""Tests for the constant-time taint linter (``repro.ctlint``).

Four layers:

* **positive controls**: every rule in the catalogue fires on its
  planted fixture line (``tests/ctlint_fixtures/``) and stays silent
  on the clean twin — a linter that silently stops detecting a rule
  fails here, not just in the CI gate;
* **taint-engine units**: decorator seeding, registry seeding,
  declassifiers, aliasing, via :func:`repro.ctlint.lint_source`;
* **suppression / baseline machinery**: allow vs vartime statuses,
  missing-reason and unused-suppression meta rules, module
  exemptions, baseline round-trip and staleness;
* **the repo gate itself**: ``src/repro`` lints clean against the
  committed baseline, and the static verdict per sampler backend
  agrees with the dynamic (dudect) verdict table — the
  ``constant_time`` flag every leakage report keys on.
"""

import json
import re
from pathlib import Path

import pytest

from repro.baselines import SAMPLER_BACKENDS
from repro.cli import main
from repro.ctlint import (
    ASYNC_RULES,
    CT_RULES,
    DEFAULT_REGISTRY,
    RULES,
    LintReport,
    lint_paths,
    lint_source,
    scope_verdict,
)
from repro.ctlint.annotations import secret_params

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "ctlint_fixtures"
BASELINE = REPO_ROOT / "benchmarks" / "reports" / "CTLINT_baseline.json"

_PLANT_RE = re.compile(r"#\s*PLANT:\s*([\w-]+)")


def planted_lines(fixture: Path) -> list[tuple[str, int]]:
    """(rule, line) pairs for every ``# PLANT: <rule>`` tag."""
    out = []
    for number, line in enumerate(fixture.read_text().splitlines(), 1):
        match = _PLANT_RE.search(line)
        if match:
            out.append((match.group(1), number))
    return out


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(path.read_text(), str(path))


# -- positive controls -------------------------------------------------------

def test_every_planted_ct_rule_fires():
    findings = lint_fixture("ct_planted.py")
    located = {(f.rule, f.line) for f in findings}
    plants = planted_lines(FIXTURES / "ct_planted.py")
    assert plants, "fixture lost its PLANT tags"
    for rule, line in plants:
        assert (rule, line) in located, \
            f"{rule} did not fire on ct_planted.py:{line}"
    # the planted corpus exercises every CT rule at least once
    assert {rule for rule, _ in plants} == set(CT_RULES)


def test_every_planted_async_rule_fires():
    findings = lint_fixture("async_planted.py")
    located = {(f.rule, f.line) for f in findings}
    plants = planted_lines(FIXTURES / "async_planted.py")
    for rule, line in plants:
        assert (rule, line) in located, \
            f"{rule} did not fire on async_planted.py:{line}"
    assert {rule for rule, _ in plants} == set(ASYNC_RULES)


def test_clean_twins_are_silent():
    for name in ("ct_clean.py", "async_clean.py"):
        findings = lint_fixture(name)
        assert findings == [], \
            f"{name} should lint clean, got {[f.as_dict() for f in findings]}"


def test_planted_findings_all_gate():
    findings = lint_fixture("ct_planted.py")
    assert findings and all(f.status == "open" for f in findings)


# -- taint engine units ------------------------------------------------------

def test_decorator_seeds_taint():
    findings = lint_source(
        "from repro.ctlint.annotations import secret_params\n"
        "@secret_params('key')\n"
        "def f(key, n):\n"
        "    return key / n\n")
    assert [f.rule for f in findings] == ["vartime-div"]


def test_registry_call_seeds_taint():
    findings = lint_source(
        "def f(sampler):\n"
        "    draw = sampler.sample()\n"
        "    return draw ** 2\n")
    assert [f.rule for f in findings] == ["vartime-pow"]


def test_declassifier_launders_taint():
    findings = lint_source(
        "from repro.ctlint.annotations import secret_params\n"
        "@secret_params('key')\n"
        "def f(key):\n"
        "    size = len(key)\n"
        "    return size / 2\n")
    assert findings == []


def test_alias_of_vartime_callable_is_tracked():
    findings = lint_source(
        "import math\n"
        "from repro.ctlint.annotations import secret_params\n"
        "@secret_params('key')\n"
        "def f(key):\n"
        "    e = math.exp\n"
        "    return e(key)\n")
    assert [f.rule for f in findings] == ["vartime-call"]


def test_taint_flows_through_assignment_chain():
    findings = lint_source(
        "from repro.ctlint.annotations import secret_params\n"
        "@secret_params('key')\n"
        "def f(key, table):\n"
        "    masked = key & 0xFF\n"
        "    widened = [masked + i for i in range(4)]\n"
        "    return table[widened[0]]\n")
    assert "secret-index" in {f.rule for f in findings}


def test_secret_attribute_suffix_seeds_taint():
    findings = lint_source(
        "def f(sk):\n"
        "    return sk.keys.f[0] / 3\n")
    assert [f.rule for f in findings] == ["vartime-div"]


def test_runtime_decorator_records_and_merges_names():
    @secret_params("a")
    @secret_params("b")
    def f(a, b):  # pragma: no cover - never called
        return a + b

    assert set(f.__ct_secret_params__) == {"a", "b"}
    with pytest.raises(ValueError):
        secret_params()
    with pytest.raises(ValueError):
        secret_params("")


# -- suppression machinery ---------------------------------------------------

def test_suppression_statuses_and_meta_rules():
    findings = lint_fixture("suppressed.py")
    by_rule = {f.rule: f for f in findings}
    assert by_rule["secret-branch"].status == "allowed"
    assert by_rule["vartime-div"].status == "vartime"
    assert by_rule["secret-ternary"].status == "allowed"
    assert by_rule["suppression-missing-reason"].status == "open"
    assert by_rule["unused-suppression"].status == "open"
    report = LintReport(findings=findings)
    assert not report.gate_ok  # the meta findings gate


def test_module_exemption():
    source = (
        "# ct: exempt(ct): fixture module fully reviewed\n"
        "from repro.ctlint.annotations import secret_params\n"
        "@secret_params('key')\n"
        "def f(key):\n"
        "    return key / 3\n")
    assert lint_source(source) == []
    # A reasonless exemption does not exempt: the pack still runs AND
    # the pragma itself is flagged.
    reasonless = source.replace(": fixture module fully reviewed", ":")
    rules = {f.rule for f in lint_source(reasonless)}
    assert rules == {"vartime-div", "suppression-missing-reason"}


def test_exempt_ct_keeps_async_pack():
    findings = lint_source(
        "# ct: exempt(ct): reviewed\n"
        "import time\n"
        "async def f():\n"
        "    time.sleep(1)\n")
    assert [f.rule for f in findings] == ["async-blocking-call"]


# -- baseline ----------------------------------------------------------------

def test_baseline_roundtrip(tmp_path):
    fixture = FIXTURES / "ct_planted.py"
    report = lint_paths([fixture])
    assert not report.gate_ok
    baseline_path = tmp_path / "baseline.json"
    report.write_baseline(baseline_path)
    entries = LintReport.load_baseline(baseline_path)
    rebaselined = lint_paths([fixture], baseline=entries,
                             baseline_path=str(baseline_path))
    assert rebaselined.gate_ok
    assert all(f.status == "baselined" for f in rebaselined.findings)
    assert rebaselined.stale_baseline == []


def test_baseline_staleness_is_surfaced_not_gating(tmp_path):
    fixture = FIXTURES / "ct_planted.py"
    report = lint_paths([fixture])
    entries = report.baseline_entries()
    entries.append({"path": "gone.py", "rule": "vartime-div",
                    "scope": "f", "snippet": "x / y",
                    "reason": "stale"})
    rebaselined = lint_paths([fixture], baseline=entries)
    assert rebaselined.gate_ok
    assert len(rebaselined.stale_baseline) == 1


# -- the repo gate -----------------------------------------------------------

@pytest.fixture(scope="module")
def repo_report():
    entries = LintReport.load_baseline(BASELINE)
    return lint_paths([SRC_REPRO], baseline=entries,
                      baseline_path=str(BASELINE))


#: Ceilings on the waived findings in ``src/repro``: CT waivers may only
#: shrink.  Lower a ceiling in the change that removes a waiver; a
#: change that adds one has to raise a ceiling here, in its diff.
MAX_ALLOWED = 17
MAX_VARTIME = 22
MAX_BASELINED = 2


def test_src_repro_gates_clean(repo_report):
    open_findings = [f.as_dict() for f in repo_report.open_findings]
    assert repo_report.gate_ok, open_findings
    assert repo_report.stale_baseline == []
    counts = repo_report.counts()
    assert counts["allowed"] <= MAX_ALLOWED, counts
    assert counts["vartime"] <= MAX_VARTIME, counts
    assert counts["baselined"] <= MAX_BASELINED, counts


#: Where each registered backend's draw path lives: (module path
#: suffix, class-scope prefix or None for whole-module).  adapters.py
#: hosts both a leaky and a constant-time backend, hence class scopes.
BACKEND_SCOPES = {
    "cdt-byte-scan": [("baselines/byte_scan.py", None)],
    "cdt-binary": [("baselines/cdt.py", None)],
    "cdt-linear": [("baselines/linear_scan.py", None)],
    "cdt-bisection": [("baselines/bisection.py", None)],
    "knuth-yao": [("baselines/adapters.py", "KnuthYaoIntegerSampler"),
                  ("core/knuth_yao.py", None)],
    "bitsliced": [("baselines/adapters.py", "BitslicedIntegerSampler"),
                  ("core/sampler.py", "BitslicedSampler")],
}


def test_backend_scope_map_covers_registry():
    assert set(BACKEND_SCOPES) == set(SAMPLER_BACKENDS)


def test_bernoulli_sampler_lints_variable_time(repo_report):
    """BernoulliSampler (standalone, not in the adapter registry)
    advertises ``constant_time = False``; the linter agrees."""
    from repro.baselines.bernoulli import BernoulliSampler

    assert not BernoulliSampler.constant_time
    assert scope_verdict(repo_report.findings,
                         "baselines/bernoulli.py") == "variable-time"


@pytest.mark.parametrize("backend", sorted(BACKEND_SCOPES))
def test_lint_verdict_agrees_with_dudect_table(backend, repo_report):
    """Static verdict == dynamic verdict, per backend.

    The dudect/leakage harness classifies each backend through its
    ``constant_time`` flag (the measured verdict table pins that flag).
    The linter must reach the same conclusion statically: every leaky
    backend carries at least one acknowledged-variable-time finding in
    its draw path, every constant-time backend carries none (allow
    waivers assert reviewed constant-timeness and do not count).
    """
    verdicts = [scope_verdict(repo_report.findings, suffix, prefix)
                for suffix, prefix in BACKEND_SCOPES[backend]]
    static = ("variable-time" if "variable-time" in verdicts
              else "constant-time")
    dynamic = ("constant-time" if SAMPLER_BACKENDS[backend].constant_time
               else "variable-time")
    assert static == dynamic, (backend, verdicts)


# -- CLI ---------------------------------------------------------------------

def test_cli_exits_nonzero_on_planted_fixture(tmp_path):
    code = main(["ct-lint", str(FIXTURES / "ct_planted.py"),
                 "--baseline", str(tmp_path / "absent.json")])
    assert code == 1


def test_cli_exits_zero_on_clean_fixture(tmp_path, capsys):
    code = main(["ct-lint", str(FIXTURES / "ct_clean.py"),
                 "--baseline", str(tmp_path / "absent.json")])
    assert code == 0
    assert "gate: PASS" in capsys.readouterr().out


def test_cli_repo_gate_with_committed_baseline(capsys):
    code = main(["ct-lint", str(SRC_REPRO), "--baseline", str(BASELINE)])
    assert code == 0
    assert "gate: PASS" in capsys.readouterr().out


def test_cli_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["ct-lint", str(FIXTURES / "suppressed.py"),
                 "--baseline", str(tmp_path / "absent.json"),
                 "--json", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["gate_ok"] is False
    rules = {f["rule"] for f in payload["findings"]}
    assert "suppression-missing-reason" in rules
    assert {"rule", "path", "line", "scope", "status",
            "message"} <= set(payload["findings"][0])


def test_cli_list_rules(capsys):
    assert main(["ct-lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fixture = str(FIXTURES / "ct_planted.py")
    assert main(["ct-lint", fixture, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    capsys.readouterr()
    assert main(["ct-lint", fixture, "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().out


def test_default_registry_is_extensible():
    extended = DEFAULT_REGISTRY.replace(
        secret_returning=DEFAULT_REGISTRY.secret_returning | {"mystery"})
    findings = lint_source(
        "def f(source, table):\n"
        "    value = mystery(source)\n"
        "    return table[value]\n",
        registry=extended)
    assert [f.rule for f in findings] == ["secret-index"]
