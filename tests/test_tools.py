"""Tests for the developer tooling: pipeline viewer and CLI."""

import json
import pathlib

import pytest

from repro.asm import assemble
from repro.core import Machine, perfect_memory_config
from repro.tools.cli import main
from repro.tools.pipeview import PipelineTracer, trace_pipeline

LOOP = """
_start:
    li t0, 3
loop:
    addi t0, t0, -1
    bgtsq t0, r0, loop
    nop
    nop
    halt
"""


def make_machine(source=LOOP):
    machine = Machine(perfect_memory_config())
    machine.load_program(assemble(source))
    return machine


class TestPipelineTracer:
    def test_stage_progression(self):
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(8)
        first = tracer.rows[0]
        # the first instruction walks F R A M W on consecutive cycles
        cycles = sorted(first.cells)
        letters = [first.cells[c] for c in cycles]
        assert letters[:5] == ["F", "R", "A", "M", "W"]
        assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))

    def test_one_instruction_per_cycle_enters(self):
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(6)
        entries = [min(row.cells) for row in tracer.rows if row.cells]
        assert entries == sorted(entries)
        assert len(set(entries)) == len(entries)

    def test_squashed_slots_marked(self):
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(30)
        squashed_rows = [row for row in tracer.rows if row.squashed]
        assert squashed_rows, "final-iteration slots should be squashed"
        rendered = tracer.render()
        assert "x" in rendered or "f" in rendered

    def test_repeated_pcs_get_separate_rows(self):
        """Regression: CPython id() reuse must not merge loop iterations."""
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(30)
        loop_rows = [row for row in tracer.rows if row.pc == 1]
        assert len(loop_rows) == 3  # three iterations of the loop body
        for row in loop_rows:
            cycles = sorted(row.cells)
            assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))

    def test_stall_cycles_render_dots(self):
        from repro.core import MachineConfig

        machine = Machine(MachineConfig())  # real Icache: cold misses stall
        machine.load_program(assemble(LOOP))
        tracer = PipelineTracer(machine)
        tracer.step(12)
        assert "." in tracer.render()

    def test_trace_pipeline_convenience(self):
        text = trace_pipeline(make_machine(), cycles=10)
        assert "legend" in text
        assert "addi" in text


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", """
        _start:
            li t0, 21
            add t0, t0, t0
            li a0, 0x3FFFF0
            st t0, 0(a0)
            halt
        """)
        assert main(["run", path, "--ideal", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "console: [42]" in out
        assert "CPI" in out

    def test_run_with_trace(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", LOOP)
        assert main(["run", path, "--ideal", "--trace", "8"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_compile_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.spl", """
        program t;
        begin write(6 * 7); end.
        """)
        assert main(["compile", path, "--ideal"]) == 0
        assert "console: [42]" in capsys.readouterr().out

    def test_compile_emit_asm(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.spl",
                           "program t; begin write(1); end.")
        assert main(["compile", path, "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out

    def test_compile_listing(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.spl",
                           "program t; begin write(1); end.")
        assert main(["compile", path, "--listing"]) == 0
        assert "halt" in capsys.readouterr().out

    def test_disasm_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", "_start: nop\nhalt")
        assert main(["disasm", path]) == 0
        out = capsys.readouterr().out
        assert "nop" in out and "halt" in out

    def test_workload_command(self, capsys):
        assert main(["workload", "fib", "--ideal"]) == 0
        assert "console: [610]" in capsys.readouterr().out

    def test_nonhalting_program_reports_failure(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", "_start: br _start\nnop\nnop")
        assert main(["run", path, "--ideal",
                     "--max-cycles", "1000"]) == 1


class TestCheckBenchFile:
    def _write(self, tmp_path, payload):
        import json

        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        return path

    def _complete(self):
        return {"sweep": {"jobs": 2, "ok": 2},
                "experiments": {"e/1": {"status": "ok"},
                                "e/2": {"status": "retried-ok"}}}

    def test_complete_file_passes(self, tmp_path):
        from repro.tools.check_results import GATES

        assert GATES["--bench-file"].run(self._write(tmp_path, self._complete())) == []

    def test_missing_section_is_named(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._complete()
        del payload["sweep"]
        failures = GATES["--bench-file"].run(self._write(tmp_path, payload))
        assert any("section 'sweep' is missing" in f for f in failures)

    def test_missing_key_is_named(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._complete()
        del payload["sweep"]["jobs"]
        failures = GATES["--bench-file"].run(self._write(tmp_path, payload))
        assert any("section 'sweep' is missing key 'jobs'" in f
                   for f in failures)

    def test_failed_jobs_fail_the_gate(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = {"sweep": {"jobs": 4, "ok": 1},
                   "experiments": {"e/1": {"status": "crashed"},
                                   "e/2": {"status": "timeout"}}}
        failures = GATES["--bench-file"].run(self._write(tmp_path, payload))
        assert any("job 'e/1' did not complete (status 'crashed')" in f
                   for f in failures)
        assert any("job 'e/2' did not complete (status 'timeout')" in f
                   for f in failures)
        assert any("reports 1 of 4 jobs ok" in f for f in failures)

    @pytest.mark.parametrize("status,code", [("retried-ok", 0),
                                             ("crashed", 1)])
    def test_bench_exit_code_agrees_with_the_gate(self, tmp_path,
                                                  monkeypatch, status, code):
        # `repro bench` and --bench-file judge the same statuses ok
        from repro.tools.check_results import GATES

        payload = self._complete()
        payload["experiments"]["e/2"]["status"] = status
        payload["host"] = {"workers": 2}
        monkeypatch.setattr("repro.harness.bench.collect",
                            lambda **kwargs: payload)
        assert main(["bench", "--quick"]) == code
        gate = GATES["--bench-file"].run(self._write(tmp_path, payload))
        assert (gate == []) == (code == 0)

    def test_partial_write_is_not_a_keyerror(self, tmp_path):
        from repro.tools.check_results import GATES

        path = tmp_path / "bench.json"
        path.write_text('{"sweep": {"jo')     # torn write
        failures = GATES["--bench-file"].run(path)            # must not raise
        assert failures and "not valid JSON" in failures[0]

    def test_experiment_rows_need_status(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._complete()
        payload["experiments"]["e/2"] = {"duration_s": 1.0}
        failures = GATES["--bench-file"].run(self._write(tmp_path, payload))
        assert any("row 'e/2' has no 'status'" in f for f in failures)

    def test_missing_file_is_reported(self, tmp_path):
        from repro.tools.check_results import GATES

        failures = GATES["--bench-file"].run(tmp_path / "nope.json")
        assert failures and "does not exist" in failures[0]


class TestCheckFuzzFile:
    def _write(self, tmp_path, payload):
        import json

        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(payload))
        return path

    def _clean(self):
        return {"schema": 1,
                "config": {"seeds": 2, "modes": ["isa"], "quick": True,
                           "mutation": None, "chaos_rate": 0.0},
                "totals": {"jobs": 2, "completed": 2, "ok": 2,
                           "diverged": 0, "harness_failures": 0},
                "complete": True,
                "divergences": []}

    def test_clean_report_passes(self, tmp_path):
        from repro.tools.check_results import GATES

        assert GATES["--fuzz-file"].run(self._write(tmp_path, self._clean())) == []

    def test_missing_file_is_reported(self, tmp_path):
        from repro.tools.check_results import GATES

        failures = GATES["--fuzz-file"].run(tmp_path / "nope.json")
        assert failures and "does not exist" in failures[0]

    def test_missing_totals_key_is_named(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._clean()
        del payload["totals"]["diverged"]
        failures = GATES["--fuzz-file"].run(self._write(tmp_path, payload))
        assert any("missing key 'diverged'" in f for f in failures)

    def test_incomplete_campaign_fails_with_resume_hint(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._clean()
        payload["complete"] = False
        payload["totals"]["completed"] = 1
        failures = GATES["--fuzz-file"].run(self._write(tmp_path, payload))
        assert any("incomplete" in f and "resume" in f for f in failures)

    def test_unexplained_divergence_fails(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._clean()
        payload["totals"]["diverged"] = 1
        payload["totals"]["ok"] = 1
        failures = GATES["--fuzz-file"].run(self._write(tmp_path, payload))
        assert any("unexplained model divergence" in f for f in failures)

    def test_mutation_divergence_is_explained(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._clean()
        payload["config"]["mutation"] = "sra-logical"
        payload["totals"]["diverged"] = 1
        payload["totals"]["ok"] = 1
        assert GATES["--fuzz-file"].run(self._write(tmp_path, payload)) == []

    def test_harness_failures_fail(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._clean()
        payload["totals"]["harness_failures"] = 1
        failures = GATES["--fuzz-file"].run(self._write(tmp_path, payload))
        assert any("failed in the harness" in f for f in failures)

    def test_missed_mutation_fails_the_self_test(self, tmp_path):
        from repro.tools.check_results import GATES

        payload = self._clean()
        payload["config"]["mutation"] = "sra-logical"
        failures = GATES["--fuzz-file"].run(self._write(tmp_path, payload))
        assert any("failed its self-test" in f for f in failures)


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: the committed artifact each report gate must pass on
COMMITTED_ARTIFACTS = {
    "--bench-file": "BENCH_pipeline.json",
    "--metrics-file": "METRICS_summary.json",
    "--fuzz-file": "FUZZ_campaign.json",
    "--jit": "BENCH_pipeline.json",
    "--multi": "BENCH_pipeline.json",
    "--checkpoint": "CHECKPOINT_campaign.json",
    "--devices": "DEVICES_results.json",
}


def _committed(name):
    return json.loads((REPO_ROOT / name).read_text())


def _first(rows):
    return rows[sorted(rows)[0]]


class TestGateTable:
    def test_every_gate_has_a_committed_artifact(self):
        from repro.tools.check_results import GATES

        assert set(COMMITTED_ARTIFACTS) == set(GATES)

    @pytest.mark.parametrize("flag", sorted(COMMITTED_ARTIFACTS))
    def test_committed_artifact_passes_its_gate(self, flag):
        from repro.tools.check_results import GATES

        path = REPO_ROOT / COMMITTED_ARTIFACTS[flag]
        assert GATES[flag].run(path) == []

    @pytest.mark.parametrize("flag, tamper, expected", [
        ("--checkpoint",
         lambda p: p["corruption"].update(cases=["x"]),
         "corruption case 'x' is not an object"),
        ("--devices",
         lambda p: _first(p["demos"]).update(jit=None),
         "['jit'] must be objects"),
        ("--fuzz-file",
         lambda p: p.update(config=[]),
         "section 'config' is not an object"),
        ("--devices",
         lambda p: p["summary"].update(harness_failures=3),
         "'harness_failures' is not a list"),
        ("--jit",
         lambda p: _first(p["jit"]["workloads"]).update(speedup="fast"),
         "speedup 'fast' is below"),
        ("--multi",
         lambda p: p["multi"].update(failures=2),
         "'failures' is not a list"),
    ], ids=["corruption-case-string", "devices-jit-null", "fuzz-config-list",
            "devices-harness-int", "jit-speedup-string", "multi-failures-int"])
    def test_tampered_report_fails_by_name(self, tmp_path, flag, tamper,
                                           expected):
        from repro.tools.check_results import GATES

        payload = _committed(COMMITTED_ARTIFACTS[flag])
        tamper(payload)
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(payload))
        failures = GATES[flag].run(path)                # must not raise
        assert any(expected in failure for failure in failures), failures


def _finding_and_harness_failure(payload):
    payload["summary"].update(violated=1, unhandled_jobs=1)


def _failed_demo_and_harness_failure(payload):
    payload["summary"]["harness_failures"] = ["x: RuntimeError: boom"]
    _first(payload["demos"])["jit"]["ok"] = False


class TestCampaignExitCodes:
    """Each campaign command exits with its report's verdict: a finding
    (2) outranks a harness failure (1)."""

    @pytest.mark.parametrize("argv, module, runner, artifact, tamper", [
        (["faults"], "repro.faults.campaign", "run_campaign",
         "FAULTS_campaign.json", _finding_and_harness_failure),
        (["faults", "--multi-nodes", "3"], "repro.faults.multi",
         "run_multi_campaign", "FAULTS_multi.json",
         _finding_and_harness_failure),
        (["devices"], "repro.harness.devices", "run_devices_gate",
         "DEVICES_results.json", _failed_demo_and_harness_failure),
        (["checkpoint"], "repro.checkpoint.campaign", "run_campaign",
         "CHECKPOINT_campaign.json",
         lambda p: p["corruption"].update(cases=[])),
    ], ids=["faults", "faults-multi-nodes", "devices",
            "checkpoint-zero-corruption-cases"])
    def test_finding_exits_two(self, monkeypatch, capsys, argv, module,
                               runner, artifact, tamper):
        import importlib

        payload = _committed(artifact)
        tamper(payload)
        payload["report_path"] = artifact
        monkeypatch.setattr(importlib.import_module(module), runner,
                            lambda **kwargs: payload)
        assert main(argv) == 2
        assert capsys.readouterr().err.strip()
