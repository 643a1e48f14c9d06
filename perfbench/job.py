"""One round of a workload, in one fresh process.

Started by run.py from the root of a checkout. It imports `randloc` from the
checkout's `src/`, builds the workload's invocations and prints
`READY <CLOCK_MONOTONIC seconds>`, the end of set-up. It then runs every
invocation once, in order, through `randloc.cli.main` in this process, and
prints as its last stdout line a JSON record of every call's time and exit
code and the process's peak RSS. With `--trace` the spans of every call are
written to `--spans` at the end.

Before each invocation the program's lru caches are cleared, so every call
pays for its deposit tables as a separate `randloc` process would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _clear_caches(modules) -> None:
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output root of this round")
    parser.add_argument("--reduced", action="store_true", help="small sizes, for tests")
    parser.add_argument("--setup-only", action="store_true", help="stop after READY")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="span file written with --trace")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import randloc
    import randloc.cli

    if not Path(randloc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported randloc from {randloc.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = [m for name, m in sys.modules.items() if name.startswith("randloc.")]
    workload = workloads.build(args.workload, args.seed, args.reduced)
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    calls = []
    start = time.perf_counter()
    try:
        for inv in workload.invocations:
            _clear_caches(modules)
            error = ""
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = randloc.cli.main([*inv.argv, "--out", args.out])
            except (Exception, SystemExit) as exc:  # counted as a failed operation
                rc, error = None, repr(exc)
            calls.append({"label": inv.label, "seconds": time.perf_counter() - t0,
                          "rc": rc, "error": error})
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"wall_s": wall_s, "out": args.out, "calls": calls, "peak_rss_mb": peak_mb}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
