"""Unit tests for the whole-program C-rule checker
(repro.analysis.staticcheck).

Each rule gets positive cases (must flag) and negative cases (must stay
silent) stated as inline programs written to a temp ``src/pkg/``
layout.  The committed fixtures under ``tests/fixtures/staticcheck/``
pin the deadlock-cycle / clean-diamond behavior and a byte-exact golden
findings corpus; CLI coverage (exit codes, --strict, JSON and SARIF
output) is marked ``staticcheck`` for the tier-1 lint gate.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.linter import format_report
from repro.analysis.staticcheck import check_paths, format_json, format_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "staticcheck"


def check_source(tmp_path, source, **kwargs):
    root = tmp_path / "src" / "pkg"
    root.mkdir(parents=True, exist_ok=True)
    (root / "mod.py").write_text(textwrap.dedent(source))
    return check_paths([tmp_path / "src"], **kwargs)


def codes(tmp_path, source, **kwargs):
    return [f.code for f in check_source(tmp_path, source, **kwargs).active]


class TestC001WaitWhileHolding:
    def test_timeout_under_kernel_lock_flagged(self, tmp_path):
        assert codes(tmp_path, """
            from repro.simkernel import Lock

            class W:
                def __init__(self, sim):
                    self.sim = sim
                    self.lock = Lock(sim)

                def work(self):
                    yield self.lock.acquire()
                    yield self.sim.timeout(1.0)
                    self.lock.release()
        """) == ["C001"]

    def test_release_before_wait_clean(self, tmp_path):
        assert codes(tmp_path, """
            from repro.simkernel import Lock

            class W:
                def __init__(self, sim):
                    self.sim = sim
                    self.lock = Lock(sim)

                def work(self):
                    yield self.lock.acquire()
                    self.lock.release()
                    yield self.sim.timeout(1.0)
        """) == []


class TestC002LockOrder:
    def test_deadlock_cycle_fixture_flagged(self):
        result = check_paths([FIXTURES / "deadlock_cycle.py"])
        assert {f.code for f in result.active} == {"C002"}

    def test_clean_diamond_fixture_silent(self):
        result = check_paths([FIXTURES / "clean_diamond.py"])
        assert result.active == []


class TestC003ModuleMutableState:
    def test_dict_write_from_sim_code_flagged(self, tmp_path):
        assert codes(tmp_path, """
            CACHE = {}

            def proc(sim, key):
                yield sim.timeout(1)
                CACHE[key] = sim.now
        """) == ["C003"]

    def test_list_append_from_sim_helper_flagged(self, tmp_path):
        assert codes(tmp_path, """
            EVENTS = []

            def record(what):
                EVENTS.append(what)

            def proc(sim):
                yield sim.timeout(1)
                record("tick")
        """) == ["C003"]

    def test_local_shadow_clean(self, tmp_path):
        assert codes(tmp_path, """
            CACHE = {}

            def proc(sim):
                CACHE = {}
                yield sim.timeout(1)
                CACHE["x"] = 1
        """) == []

    def test_write_outside_sim_reachable_code_clean(self, tmp_path):
        assert codes(tmp_path, """
            CACHE = {}

            def setup():
                CACHE["x"] = 1
        """) == []

    def test_hb_carrier_marker_exempts_definition(self, tmp_path):
        assert codes(tmp_path, """
            CACHE = {}  # repro: hb-carrier[guarded by module lock, test-only]

            def proc(sim, key):
                yield sim.timeout(1)
                CACHE[key] = sim.now
        """) == []


class TestC004OrphanedEvents:
    def test_dropped_timeout_expression_flagged(self, tmp_path):
        assert codes(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)
                yield sim.timeout(0.1)
        """) == ["C004"]

    def test_bound_but_never_used_flagged(self, tmp_path):
        assert codes(tmp_path, """
            def proc(sim):
                pending = sim.event()
                yield sim.timeout(0.1)
        """) == ["C004"]

    def test_yielded_timeout_clean(self, tmp_path):
        assert codes(tmp_path, """
            def proc(sim):
                yield sim.timeout(5.0)
        """) == []

    def test_stored_event_clean(self, tmp_path):
        assert codes(tmp_path, """
            class W:
                def __init__(self, sim):
                    self.sim = sim

                def proc(self):
                    self.done = self.sim.event()
                    yield self.sim.timeout(0.1)
        """) == []

    def test_recorder_event_is_not_a_kernel_event(self, tmp_path):
        # Regression: EventRecorder.event records a k8s Event object;
        # only sim-like receivers create kernel events.
        assert codes(tmp_path, """
            class Kubelet:
                def __init__(self, sim, recorder):
                    self.sim = sim
                    self.recorder = recorder

                def proc(self, pod):
                    yield self.sim.timeout(0.1)
                    self.recorder.event(pod, "Started", "ok")
        """) == []


class TestC005UnfencedWrites:
    def test_unfenced_transaction_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class SyncerHA:
                def __init__(self, client):
                    self.client = client

                def takeover(self):
                    yield self.client.transaction([], [])
        """) == ["C005"]

    def test_raw_store_write_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class StoreCoordinator:
                def __init__(self, store):
                    self.store = store

                def apply(self, rec):
                    yield self.store.put(rec.key, rec.value)
        """) == ["C005"]

    def test_fenced_transaction_clean(self, tmp_path):
        assert codes(tmp_path, """
            class SyncerHA:
                def __init__(self, client):
                    self.client = client

                def takeover(self, fence):
                    yield self.client.transaction([], [], fencing=fence)
        """) == []

    def test_non_leader_class_clean(self, tmp_path):
        assert codes(tmp_path, """
            class PlainWriter:
                def __init__(self, client):
                    self.client = client

                def write(self):
                    yield self.client.transaction([], [])
        """) == []


class TestSuppressionsAndStrict:
    def test_inline_allow_suppresses(self, tmp_path):
        result = check_source(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)  # repro: allow[C004] intentionally dropped
                yield sim.timeout(0.1)
        """)
        assert result.active == []
        assert [f.code for f in result.suppressed] == ["C004"]

    def test_strict_flags_stale_c_suppression(self, tmp_path):
        result = check_source(tmp_path, """
            def quiet():
                return 1  # repro: allow[C004] nothing here anymore
        """, strict=True)
        assert [f.code for f in result.stale] == ["C000"]
        assert not result.ok

    def test_strict_ignores_d_code_suppressions(self, tmp_path):
        # D-code staleness belongs to the determinism linter.
        result = check_source(tmp_path, """
            import time

            def wall():
                return time.time()  # repro: allow[D001] boundary code
        """, strict=True)
        assert result.stale == []
        assert result.ok

    def test_allowlist_entry_matches_and_strict_prunes_stale(
            self, tmp_path):
        allowlist = [("pkg/mod.py", "C004", "dropped-elsewhere"),
                     ("pkg/gone.py", "C001", "obsolete")]
        result = check_source(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)
                yield sim.timeout(0.1)
        """, allowlist=allowlist, strict=True)
        assert [f.code for f in result.allowlisted] == ["C004"]
        assert [f.code for f in result.stale] == ["C000"]
        assert "gone.py" in result.stale[0].message


class TestGoldenCorpus:
    def test_findings_match_expected_byte_exact(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = check_paths(
            ["tests/fixtures/staticcheck/findings_corpus.py"])
        got = "\n".join(f.format() for f in result.active) + "\n"
        expected = (FIXTURES / "findings_corpus.expected").read_text()
        assert got == expected

    def test_corpus_covers_every_rule(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = check_paths(
            ["tests/fixtures/staticcheck/findings_corpus.py"])
        assert {f.code for f in result.active} == {
            "C001", "C002", "C003", "C004", "C005"}


@pytest.mark.staticcheck
class TestTreeClean:
    def test_source_tree_passes_strict(self, monkeypatch):
        from repro.analysis.linter import load_allowlist
        monkeypatch.chdir(REPO_ROOT)
        allowlist = load_allowlist("analysis-allowlist.txt")
        result = check_paths(["src/repro"], allowlist=allowlist,
                             strict=True)
        assert result.ok, format_report(result)


@pytest.mark.staticcheck
class TestCli:
    def _run(self, argv, capsys):
        from repro.analysis.__main__ import main
        code = main(argv)
        return code, capsys.readouterr().out

    def test_exit_2_on_findings_and_text_report(self, capsys,
                                                monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = self._run(
            ["staticcheck",
             "tests/fixtures/staticcheck/findings_corpus.py"], capsys)
        assert code == 2
        assert "C001" in out and "files checked" in out

    def test_exit_0_on_clean_fixture(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, _out = self._run(
            ["staticcheck",
             "tests/fixtures/staticcheck/clean_diamond.py"], capsys)
        assert code == 0

    def test_json_format_parses_and_carries_findings(self, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = self._run(
            ["staticcheck", "--format", "json",
             "tests/fixtures/staticcheck/findings_corpus.py"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert {f["code"] for f in payload["findings"]} == {
            "C001", "C002", "C003", "C004", "C005"}

    def test_sarif_format_is_valid_sarif_2_1(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = self._run(
            ["staticcheck", "--format", "sarif",
             "tests/fixtures/staticcheck/findings_corpus.py"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"C001", "C002", "C003", "C004", "C005"} <= rule_ids
        assert all(r["ruleId"].startswith("C") for r in run["results"])

    def test_rules_subcommand_lists_both_packs(self, capsys):
        code, out = self._run(["rules"], capsys)
        assert code == 0
        assert "D-pack" in out and "C-pack" in out
        for rule in ("D001", "D006", "C001", "C005"):
            assert rule in out

    def test_missing_path_is_usage_error(self, capsys):
        from repro.analysis.__main__ import main
        code = main(["staticcheck", "no/such/tree"])
        assert code == 1


class TestFormatters:
    def test_json_includes_suppressed_bucket(self, tmp_path):
        result = check_source(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)  # repro: allow[C004] cancelled elsewhere
                yield sim.timeout(0.1)
        """)
        payload = json.loads(format_json(result))
        assert payload["findings"] == []
        assert [f["code"] for f in payload["suppressed"]] == ["C004"]

    def test_sarif_lines_are_one_indexed(self, tmp_path):
        result = check_source(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)
                yield sim.timeout(0.1)
        """)
        payload = json.loads(format_sarif(result))
        region = payload["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
