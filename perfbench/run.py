"""Closed-loop benchmark of the etalab command-line tool.

usage: python3 perfbench/run.py --workload {boundary,higher2d,sweep,all}
                                [--seed N] [--seconds S] [--trace {0,1}]

One client runs each workload's commands back to back, one fresh process
per command, as a researcher does at a shell: the next command starts when
the previous one has exited.  A *pass* is one run of the workload's command
list; passes repeat until the next one would end after ``--seconds``.  The
benchmark itself is a single process without threads.  BLAS pools are
capped at the number of usable CPUs, set before each child starts.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` and ``setup_s`` (spawn to entry of ``etalab.cli.main``, summed
over a pass) as medians over passes, ``peak_rss_mb`` over all processes,
and ``budget_used``, the largest certified error over requested tolerance.
With ``--trace 1`` untraced and traced passes alternate.  It reports the
per-layer metrics of the traced passes with their span tree, and the
tracing overhead as the median wall-time difference of adjacent pairs.

Every process goes through the correctness gate of ``workloads.py``.  A
summary, the environment and the SHA-256 of every report are printed
before the last line and written to ``.perfbench/runs/``.  The last line is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAUNCH = HERE / "launch.py"

#: A run stops starting processes, and kills a running one, this long
#: after it began, so that it always ends within three minutes.
HARD_LIMIT_S = 165.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class RunTimeout(Exception):
    pass


@dataclass
class Proc:
    """One finished CLI process."""

    label: str
    wall: float
    setup: float
    rss_kb: int
    sha256: str
    problems: list
    budget: float | None


@dataclass
class Pass:
    wall: float = 0.0
    procs: list = field(default_factory=list)
    dumps: list = field(default_factory=list)


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env(cap: int) -> dict:
    """The environment of every child: the checkout's sources first on the
    path and the BLAS pools capped.  ``etalab.cli`` applies
    ``ETALAB_THREADS`` only after NumPy has loaded, so the pool variables
    are set here, to the same value, before the interpreter starts."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["ETALAB_THREADS"] = str(cap)
    for var in THREAD_VARS:
        env[var] = str(cap)
    # fixed string hashing, so that traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    # the probe warms the bytecode cache of the checkout, so that no child
    # compiles etalab and compile time never counts as set-up
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list, env: dict, tmp: Path, deadline: float):
    """Run ``launch.py args`` to completion.

    Returns (exit code, wall seconds, setup seconds or None, ru_maxrss in
    KiB, stdout bytes, stderr text).  The child is killed and reaped if the
    run's deadline passes or the benchmark is interrupted.
    """
    out, err, mark = tmp / "stdout", tmp / "stderr", tmp / "mark"
    mark.unlink(missing_ok=True)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunTimeout
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    argv = [sys.executable, str(LAUNCH), *args]
    started = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)])
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = bool(select.select([pidfd], [], [], remaining)[0])
        finally:
            os.close(pidfd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    if not exited:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    ended = time.monotonic()
    if not exited:
        raise RunTimeout
    setup = float(mark.read_text()) - started if mark.exists() else None
    return (os.waitstatus_to_exitcode(status), ended - started, setup,
            usage.ru_maxrss, out.read_bytes(),
            err.read_text(errors="replace"))


def probe(env: dict, tmp: Path, deadline: float) -> dict:
    """Import etalab.cli once (which also warms the bytecode cache) and
    read the versions of the stack; refuse an etalab from elsewhere."""
    code, _, _, _, out, err = spawn(["--probe"], env, tmp, deadline)
    if code != 0:
        raise SystemExit(f"perfbench: cannot import etalab.cli from {SRC}:\n"
                         f"{err}")
    info = json.loads(out)
    if not Path(info.pop("etalab")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: etalab is not imported from {SRC}")
    return {"nproc": os.cpu_count(), "thread_cap": thread_cap(),
            "platform": platform.machine(), **info,
            "pythonhashseed": env["PYTHONHASHSEED"]}


def run_pass(cmds, env, tmp, deadline, trace_dir: Path | None,
             index: int) -> Pass:
    result = Pass()
    started = time.monotonic()
    for i, cmd in enumerate(cmds):
        trace = str(trace_dir / f"p{index}-c{i}.json") if trace_dir else "-"
        code, wall, setup, rss, out, err = spawn(
            [str(tmp / "mark"), trace, "--", *cmd.argv], env, tmp, deadline)
        problems, budget = workloads.check_report(cmd, code, out)
        if problems and err.strip():
            problems.append("stderr: " + err.strip().splitlines()[-1])
        result.procs.append(Proc(
            cmd.label, wall, wall if setup is None else setup, rss,
            hashlib.sha256(out).hexdigest(), problems, budget))
        if trace_dir and code == 0:
            result.dumps.append(json.loads(Path(trace).read_text()))
    result.wall = time.monotonic() - started
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run passes of one workload for ``seconds``; return its record."""
    run_start = time.monotonic()
    deadline = run_start + HARD_LIMIT_S
    wseed = workloads.workload_seed(seed)
    cmds = workloads.commands(workload, wseed)
    tag = f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
    tmp = OUT / "tmp" / tag
    tmp.mkdir(parents=True, exist_ok=True)
    trace_dir = OUT / "trace" / tag if traced else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(thread_cap())
    try:
        environment = probe(env, tmp, deadline)
        begin = time.monotonic()
        passes = []
        timed_out = False
        kinds = (None, trace_dir) if traced else (None,)
        try:
            while True:
                for kind in kinds:
                    passes.append(run_pass(cmds, env, tmp, deadline, kind,
                                           len(passes)))
                pace = statistics.median(p.wall for p in passes)
                if time.monotonic() - begin + pace > seconds:
                    break
        except RunTimeout:
            timed_out = True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
    if not passes:
        raise SystemExit(f"perfbench: {workload} finished no pass within "
                         f"{HARD_LIMIT_S:g} s")
    procs = [proc for p in passes for proc in p.procs]
    failed = sum(1 for proc in procs if proc.problems)
    record = {
        "workload": workload, "seed": seed, "workload_seed": wseed,
        "trace": int(traced), "seconds": seconds,
        "environment": environment,
        "passes": len(passes), "timed_out": timed_out,
        "attempted": len(procs) + int(timed_out),
        "failed": failed + int(timed_out),
        "pass_wall_s": [p.wall for p in passes],
        "process_samples": [[proc.label, proc.wall, proc.setup, proc.rss_kb]
                            for proc in procs],
        "reports": _report_hashes(procs),
        "problems": [f"{proc.label}: {msg}" for proc in procs
                     for msg in proc.problems],
    }
    if traced:
        record.update(_layer_metrics(passes))
    else:
        record["metrics"] = _end_to_end(passes, procs)
    return record


def _report_hashes(procs) -> dict:
    """SHA-256 of each command's report; several values mean the reports
    of one command differed between passes."""
    hashes: dict = {}
    for proc in procs:
        seen = hashes.setdefault(proc.label, [])
        if proc.sha256 not in seen:
            seen.append(proc.sha256)
    return hashes


def _end_to_end(passes, procs) -> dict:
    budgets = [proc.budget for proc in procs if proc.budget is not None]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(sum(proc.setup for proc in p.procs)
                                     for p in passes),
        "peak_rss_mb": max(proc.rss_kb for proc in procs) / 1024.0,
        "budget_used": max([workloads.BUDGET_FLOOR, *budgets]),
    }


def _layer_metrics(passes) -> dict:
    """Per-layer metrics of a traced run, whose passes alternate untraced
    and traced.  A pair of adjacent passes in which any process failed is
    left out whole, so that no pass contributes partial counts."""
    import tracing

    pairs = [(u, t) for u, t in zip(passes[0::2], passes[1::2])
             if not any(proc.problems for proc in u.procs + t.procs)]
    if not pairs:
        return {"metrics": {}, "span_tree": {}, "counts_repeat": False}
    traced = [t for _, t in pairs]
    per_pass = [tracing.pass_metrics(p.dumps) for p in traced]
    keys = sorted(set().union(*per_pass))
    metrics = {key: statistics.median(m.get(key, 0) for m in per_pass)
               for key in keys}
    counts = [{k: v for k, v in m.items() if isinstance(v, int)}
              for m in per_pass]
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in pairs)
    tree = tracing.span_tree([d for p in traced for d in p.dumps])
    n = len(traced)
    return {
        "metrics": metrics,
        "counts_repeat": all(c == counts[0] for c in counts),
        "span_tree": {path: [calls / n, total / n, self_s / n]
                      for path, (calls, total, self_s)
                      in sorted(tree.items())},
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def summarize(record: dict, spec: dict) -> list[str]:
    """Human-readable lines for one workload run."""
    lines = [f"workload {record['workload']}  seed {record['seed']} "
             f"(workload seed {record['workload_seed']})  "
             f"passes {record['passes']}  processes {record['attempted']}"]
    metrics = record["metrics"]
    if record["trace"]:
        lines.append(f"span tree (per pass: calls, total s, self s); "
                     f"counts repeat across passes: "
                     f"{record['counts_repeat']}")
        for path, (calls, total, self_s) in record["span_tree"].items():
            depth = path.count("/")
            lines.append(f"  {'  ' * depth}{path.rsplit('/', 1)[-1]:<32} "
                         f"{calls:>10.1f} {total:>10.4f} {self_s:>10.4f}")
        for row in spec["per_layer"]:
            lines.append(f"{row['name']:<46} {metrics.get(row['name'], 0):.6g}"
                         f" {row['unit']}")
    else:
        n = record["passes"]
        for row in spec["end_to_end"]:
            note = f" (median of {n})" if row["name"] in ("wall_s",
                                                          "setup_s") else ""
            lines.append(f"{row['name']:<14} {metrics[row['name']]:.6g} "
                         f"{row['unit']}{note}")
        lines.append(f"{'failed_frac':<14} "
                     f"{record['failed'] / record['attempted']:.6g} "
                     f"({record['failed']}/{record['attempted']})")
    for problem in record["problems"]:
        lines.append(f"FAILED {problem}")
    lines.append("environment " + json.dumps(record["environment"],
                                              sort_keys=True))
    lines.append("reports " + json.dumps(record["reports"], sort_keys=True))
    return lines


def result_line(records: list, spec: dict) -> dict:
    """The result line; with several workloads the metric names
    carry the workload as a prefix."""
    rows = spec["per_layer"] if records[0]["trace"] else spec["end_to_end"]
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for row in rows:
            metrics[prefix + row["name"]] = {
                "value": record["metrics"].get(row["name"], 0),
                "unit": row["unit"]}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"]
                                                    for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "etalab" / "cli.py").is_file():
        print(f"perfbench: no etalab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    for name in names:
        record = measure(name, args.seed, seconds, bool(args.trace))
        records.append(record)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (runs / f"{name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
                ".json").write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(summarize(record, spec)), flush=True)
    print(json.dumps(result_line(records, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
