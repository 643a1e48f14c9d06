"""Benchmark of randloc: three CLI workloads, end-to-end metrics and a traced
per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady-ladder --seed 1 --seconds 25 --trace 0

With `--trace 0` rounds of the workload's CLI invocations run for `--seconds`,
each round in a fresh job process (job.py), and this process checks every
round's output and prints the end-to-end metrics. With `--trace 1` every
workload runs one traced round, the per-layer metrics come from their spans,
and one untraced round of the named workload gives the tracing overhead. The
last stdout line is the JSON result.
Outputs go to `.perfbench_work/` under the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")
SETUP_PROBES = 4  # set-up-only processes per run, besides each round's own set-up
RUN_BUDGET_S = 170.0


class JobError(RuntimeError):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so job.py's READY stamp compares with it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_job(job_args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run job.py to its end; return (set-up seconds, its JSON record or None)."""
    cmd = [sys.executable, str(HERE / "job.py"), *job_args]
    t_spawn = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise JobError(f"job timed out: {' '.join(job_args)}") from None
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise JobError(f"job exited with code {proc.returncode}: {' '.join(job_args)}")
    setup_s = float(ready[0].split()[1]) - t_spawn
    record = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return setup_s, record


def account(wl: workloads.Workload, rounds: list[dict], cache: dict) -> tuple[int, int]:
    """Attempted and failed operations of some rounds: every CLI invocation and
    every output check. Round outputs are removed once checked."""
    attempted = failed = 0
    for rnd in rounds:
        out = Path(rnd["out"])
        for call in rnd["calls"]:
            attempted += 1
            if call["rc"] != 0:
                failed += 1
                print(f"FAILED {wl.name} {call['label']}: rc={call['rc']} {call['error']}",
                      file=sys.stderr)
        run_dirs = {inv.label: out / inv.subcommand / inv.label for inv in wl.invocations}
        try:
            results = checks.run_checks(wl.name, run_dirs, cache)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            results = [(name, False, f"could not check: {exc!r}")
                       for name in checks.NAMES[wl.name]]
        for name, ok, detail in results:
            attempted += 1
            failed += not ok
            print(f"{'ok' if ok else 'FAILED'} {name}: {detail}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
    return attempted, failed


def _result(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def timed(name: str, seed: int, seconds: float, reduced: bool, cache: dict) -> str:
    """End-to-end metrics of one workload, measured with tracing off: rounds,
    each in a fresh job process, until `seconds` have passed."""
    deadline = _now() + RUN_BUDGET_S
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", name, "--seed", str(seed)] + (["--reduced"] if reduced else [])
    setups = [run_job(common + ["--setup-only", "--out", str(work)], deadline)[0]
              for _ in range(SETUP_PROBES)]
    rounds = []
    start = _now()
    while not rounds or _now() - start < seconds:
        setup_s, record = run_job(common + ["--out", str(work / f"round{len(rounds)}")], deadline)
        setups.append(setup_s)
        rounds.append(record)
    wl = workloads.build(name, seed, reduced)
    attempted, failed = account(wl, rounds, cache)

    def median_s(labels):
        return statistics.median(
            sum(c["seconds"] for c in r["calls"] if c["label"] in labels) for r in rounds)

    main_s = median_s(wl.main_calls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
        "main_call_s": (main_s, "s"),
    }
    figure = main_s if wl.figure_work is None else wl.figure_work / main_s
    print(f"{name} seed={seed}: rounds={len(rounds)} attempted={attempted} failed={failed} "
          + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
          + f" {wl.figure_name}={figure:.6g} {wl.figure_unit}")
    print(f"{name} median seconds per call: "
          + " ".join(f"{inv.label}={median_s((inv.label,)):.3f}" for inv in wl.invocations)
          + "; round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    return _result(attempted, failed, metrics)


def traced(name: str, seed: int, reduced: bool, cache: dict) -> str:
    """Per-layer metrics from one traced round of every workload, so that every
    layer is measured; the tracing overhead is the traced minus an untraced
    round of `name`."""
    deadline = _now() + RUN_BUDGET_S
    attempted = failed = 0
    jobs, walls = [], {}
    extra = ["--seed", str(seed)] + (["--reduced"] if reduced else [])
    for wname, trace in [(name, False)] + [(n, True) for n in workloads.NAMES]:
        work = WORK_DIR / f"{'traced' if trace else 'plain'}-{wname}"
        shutil.rmtree(work, ignore_errors=True)
        args = ["--workload", wname, "--out", str(work / "round0"), *extra]
        if trace:
            args += ["--trace", "--spans", str(work / "spans.json")]
        _, record = run_job(args, deadline)
        a, f = account(workloads.build(wname, seed, reduced), [record], cache)
        attempted, failed = attempted + a, failed + f
        walls[wname, trace] = record["wall_s"]
        if trace:
            with open(work / "spans.json", encoding="utf-8") as fh:
                jobs.append((json.load(fh), record["wall_s"]))
    metrics = tracing.derive(jobs, walls[name, True] - walls[name, False])
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return _result(attempted, failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small workload sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "randloc" / "__init__.py").is_file():
        print(f"error: no randloc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cache: dict = {}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        if args.trace:
            print(traced(names[0], args.seed, args.reduced, cache))
            return 0
        for name in names:
            print(timed(name, args.seed, args.seconds, args.reduced, cache))
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
