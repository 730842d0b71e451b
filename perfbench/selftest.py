"""Tests of the benchmark itself.

Run with ``python3 -m pytest -q perfbench/selftest.py`` from the repository
root.  The file name keeps it out of the default test collection: the
traced runs below take a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _bindings() -> dict:
    """Every attribute the tracer may replace, by identity."""
    import numpy
    import scipy.integrate

    import etalab.cli

    owners = [numpy.fft, numpy.linalg, scipy.integrate]
    for name, module in list(sys.modules.items()):
        if name == "etalab" or name.startswith("etalab."):
            owners.append(module)
            owners += [v for v in vars(module).values()
                       if isinstance(v, type)
                       and v.__module__.startswith("etalab")]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("HANDLERS", k): v for k, v in etalab.cli.HANDLERS.items()})
    return snap


def test_wrappers_are_restored_after_a_traced_run(capsys):
    import etalab.cli

    before = _bindings()
    tracer = tracing.Tracer("selftest")
    tracer.install()
    try:
        assert tracer.call("cli.main", etalab.cli.main, ["gap"]) == 0
        # its quadratures are in etalab.pairing, not etalab.eta
        assert tracer.call("cli.main", etalab.cli.main,
                           ["oracle-compare"]) == 0
        assert "eta.quad.calls" not in tracer.counts
        assert tracer.call("cli.main", etalab.cli.main, ["eta"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed
    assert after.keys() == before.keys()
    metrics = tracing.pass_metrics([{"spans": tracer.spans,
                                     "counts": tracer.counts}])
    assert metrics["operators.gap_certificate.calls"] >= 1
    assert metrics["eta.quad.calls"] > 0
    assert metrics["cli.main.self_s"] > 0.0


def test_untraced_run_imports_no_tracing_code():
    out = ROOT / ".perfbench" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    mark = out / "mark"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "launch.py"),
         str(mark), "-", "--", "oracle-compare"],
        cwd=ROOT, env=run.child_env(run.thread_cap()), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "etalab.cli" in imported
    assert "tracing" not in imported
    assert json.loads(proc.stdout)["command"] == "oracle-compare"
    assert float(mark.read_text()) > 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_traced_runs(workload):
    counts = [row["name"] for row in SPEC["per_layer"]
              if row["unit"] in ("count", "ratio")]
    results = []
    for _ in range(2):
        # one untraced and one traced pass
        record = run.measure(workload, 1, 0, True)
        assert record["passes"] == 2
        result = run.result_line([record], SPEC)
        assert result["correct"]
        assert set(result["metrics"]) == {r["name"] for r in SPEC["per_layer"]}
        lines = run.summarize(record, SPEC)
        assert any(line.strip().startswith("cli.main") for line in lines)
        results.append({k: result["metrics"][k]["value"] for k in counts})
    assert results[0] == results[1]


def _pass(wall: float, failed: bool, calls: int) -> run.Pass:
    proc = run.Proc("cmd", wall, 0.1, 1, "", ["exit code 1"] if failed
                    else [], None)
    dump = {"spans": [["cli.main", 0.0, wall, -1]],
            "counts": {"eta.quad.calls": calls}}
    return run.Pass(wall, [proc], [dump])


def test_layer_metrics_leave_out_pairs_with_a_failed_process():
    passes = [_pass(1.0, False, 0), _pass(1.5, False, 7),
              _pass(1.0, True, 0), _pass(0.5, False, 100),
              _pass(2.0, False, 0), _pass(2.5, False, 9)]
    metrics = run._layer_metrics(passes)["metrics"]
    assert metrics["eta.quad.calls"] == 8
    assert metrics["trace.overhead_s"] == 0.5


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _higher_eta_report(value: complex, error: float) -> bytes:
    doc = {"schema": "etalab-report/1", "command": "higher-eta",
           "config": {"tolerances.tol": 1e-6},
           "result": {"value": {"re": value.real, "im": value.imag},
                      "error": error, "converged": True,
                      "threshold_verdict": True},
           "certification": {}, "failures": []}
    return (json.dumps(doc, indent=2) + "\n").encode()


HIGHER = workloads.commands("higher2d", 0)[0]


def test_gate_accepts_a_value_within_its_certified_error():
    report = _higher_eta_report(workloads.TWO_I_OVER_PI + 5e-8, 1e-7)
    problems, budget = workloads.check_report(HIGHER, 0, report)
    assert problems == []
    assert math.isclose(budget, 0.1)


def test_gate_flags_a_value_moved_beyond_its_certified_error():
    report = _higher_eta_report(workloads.TWO_I_OVER_PI + 2e-7, 1e-7)
    problems, _ = workloads.check_report(HIGHER, 0, report)
    assert len(problems) == 1
    assert "beyond its certified error" in problems[0]


def test_gate_flags_a_run_that_exits_1():
    report = _higher_eta_report(workloads.TWO_I_OVER_PI, 1e-7)
    problems, _ = workloads.check_report(HIGHER, 1, report)
    assert problems == ["exit code 1"]


def test_gate_flags_text_after_the_report_and_false_verdicts():
    report = _higher_eta_report(workloads.TWO_I_OVER_PI, 1e-7)
    problems, _ = workloads.check_report(
        HIGHER, 0, report + b"certificate failed: x\n")
    assert problems == ["stdout is not exactly one JSON document"]
    doc = json.loads(report)
    doc["result"]["converged"] = False
    problems, _ = workloads.check_report(HIGHER, 0, json.dumps(doc).encode())
    assert problems == ["result.converged is false"]


def _write_runs(directory: Path, failed: int, wall: float):
    directory.mkdir()
    for seed in range(3):
        record = {"workload": "sweep", "trace": 0, "workload_seed": seed,
                  "environment": {"nproc": 2}, "attempted": 9,
                  "failed": failed, "reports": {},
                  "metrics": {row["name"]: wall + seed * 1e-3
                              for row in SPEC["end_to_end"]}}
        (directory / f"{seed}.json").write_text(json.dumps(record))


def test_compare_flags_a_change_with_more_failed_processes(tmp_path, capsys):
    _write_runs(tmp_path / "base", 0, 10.0)
    # faster, because its processes fail early
    _write_runs(tmp_path / "change", 1, 5.0)
    assert compare.main([str(tmp_path / "base"),
                         str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "0/27 -> 3/27" in out
    assert "REGRESSION" in out
    assert "every run better" not in out


def test_compare_accepts_the_same_code(tmp_path):
    _write_runs(tmp_path / "a", 0, 10.0)
    _write_runs(tmp_path / "b", 0, 10.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


# ---------------------------------------------------------------------------
# the definition file
# ---------------------------------------------------------------------------


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layers.json").read_text())
    assert list(layer_map) == [row["name"] for row in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "boundary",
             "--seed", "0", "--seconds", str(SPEC["run_seconds"]),
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
