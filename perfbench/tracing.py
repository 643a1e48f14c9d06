"""Spans around the public calls of each randloc layer, and the per-layer
metrics derived from them.

The program is not changed: `Tracer.install` swaps each traced function for a
wrapper in every module namespace the program looks it up from, and
`uninstall` puts the originals back. A span is (name, start, end, parent
index, attrs); spans stay in memory and are written out once, at the end of
the traced job. Spans are appended when a call starts, so a parent always
precedes its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time

# (namespace the program looks the name up in, name). A function looked up
# from two modules is wrapped in both, and a call passes through exactly one
# wrapper, so no span is counted twice.
TARGETS = (
    ("randloc.cli", "main"),
    ("randloc.cli", "solve_steady"),
    ("randloc.cli", "residual_steady"),
    ("randloc.cli", "evolve_transient"),
    ("randloc.cli", "residual_resummed"),
    ("randloc.cli", "run_steady"),
    ("randloc.cli", "run_transient"),
    ("randloc.cli", "empirical_density"),
    ("randloc.cli", "convergence_study"),
    ("randloc.cli", "posterior_moments"),
    ("randloc.cli", "write_table"),
    ("randloc.cli", "write_density"),
    ("randloc.cli", "write_trajectory"),
    ("randloc.meanfield", "collision_kernel"),
    ("randloc.meanfield", "drift_shift"),
    ("randloc.csvio", "write_table"),
    ("randloc.gaussoracle", "posterior_moments"),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('randloc.')}.{fn.__name__}"


def _call_attrs(name: str, fn):
    """Attributes recorded at the start of a call, by span name."""
    if name == "udist.collision_kernel":
        return lambda args, kwargs: {"n": (args[0] if args else kwargs["p"]).grid.n_nodes,
                                     "rss0": _maxrss_kb()}
    if name in ("popmc.run_steady", "popmc.run_transient"):
        sig = inspect.signature(fn)

        def events(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            return {"events": bound["M"] * bound["tau_end"] / 2.0}

        return events
    if name == "csvio.write_table":
        sig = inspect.signature(fn)

        def rows(args, kwargs):
            columns = sig.bind(*args, **kwargs).arguments["columns"]
            return {"rows": len(next(iter(columns.values()))) if columns else 0}

        return rows
    return None


class Tracer:
    """Records spans while installed. One tracer per traced job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        attrs_of = _call_attrs(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   attrs_of(args, kwargs) if attrs_of else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if rec[4] is not None and "rss0" in rec[4]:
                    rec[4]["rss1"] = _maxrss_kb()

        return wrapper

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _layer_metrics(spans: list[list]) -> dict[str, float]:
    """Sums of one traced job's spans, before ratios are formed."""
    dur = [end - start for _, start, end, _, _ in spans]
    child_s = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
            root[i] = root[parent]
    names = [s[0] for s in spans]

    def total(name, values=dur):
        return sum(v for v, n in zip(values, names) if n == name)

    self_s = [d - c for d, c in zip(dur, child_s)]
    out = {k: 0.0 for k in (
        "kernel_calls", "kernel_s", "kernel_pairs", "first_s", "first_rss_kb",
        "steady_iters", "transient_steps", "resummed_kernel_calls")}
    seen: set[tuple[int, int]] = set()
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        if name != "udist.collision_kernel":
            continue
        out["kernel_calls"] += 1
        out["kernel_s"] += dur[i]
        out["kernel_pairs"] += attrs["n"] ** 2
        # The first call on a grid within one CLI invocation builds the tables.
        if (root[i], attrs["n"]) not in seen:
            seen.add((root[i], attrs["n"]))
            out["first_s"] += dur[i]
            out["first_rss_kb"] += attrs["rss1"] - attrs["rss0"]
        parent_name = names[parent] if parent >= 0 else ""
        if parent_name == "meanfield.solve_steady":
            out["steady_iters"] += 1
        elif parent_name == "meanfield.evolve_transient":
            out["transient_steps"] += 1
        elif parent_name == "meanfield.residual_resummed":
            out["resummed_kernel_calls"] += 1
    out.update(
        drift_calls=names.count("udist.drift_shift"),
        drift_s=total("udist.drift_shift"),
        steady_solves=names.count("meanfield.solve_steady"),
        steady_self_s=total("meanfield.solve_steady", self_s),
        residual_steady_s=total("meanfield.residual_steady"),
        transient_self_s=total("meanfield.evolve_transient", self_s),
        resummed_s=total("meanfield.residual_resummed"),
        events=sum(s[4]["events"] for s in spans
                   if s[0] in ("popmc.run_steady", "popmc.run_transient")),
        run_s=total("popmc.run_steady") + total("popmc.run_transient"),
        histogram_s=total("popmc.empirical_density"),
        rows=sum(s[4]["rows"] for s in spans if s[0] == "csvio.write_table"),
        write_s=total("csvio.write_table"),
        posterior_calls=names.count("gaussoracle.posterior_moments"),
        posterior_s=total("gaussoracle.posterior_moments"),
        invocations=names.count("cli.main"),
        main_s=total("cli.main"),
        cli_self_s=total("cli.main", self_s),
    )
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(traced: list[tuple[list[list], float]],
           overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over traced jobs given as (spans, round wall seconds).

    `overhead_s` is a traced round's wall time minus an untraced one's.
    """
    sums: dict[str, float] = {}
    for spans, _ in traced:
        for key, value in _layer_metrics(spans).items():
            sums[key] = sums.get(key, 0.0) + value
    wall = sum(w for _, w in traced)
    s = sums
    metrics = {
        "udist.kernel_calls": (s["kernel_calls"], "count"),
        "udist.kernel_s": (s["kernel_s"], "s"),
        "udist.kernel_ns_per_pair": (_ratio(s["kernel_s"] * 1e9, s["kernel_pairs"]), "ns"),
        "udist.kernel_first_call_s": (s["first_s"], "s"),
        "udist.first_call_rss_mb": (s["first_rss_kb"] / 1024.0, "MB"),
        "udist.drift_calls": (s["drift_calls"], "count"),
        "udist.drift_s": (s["drift_s"], "s"),
        "meanfield.steady_solves": (s["steady_solves"], "count"),
        "meanfield.steady_iters": (s["steady_iters"], "count"),
        "meanfield.steady_self_s": (s["steady_self_s"], "s"),
        "meanfield.residual_steady_s": (s["residual_steady_s"], "s"),
        "meanfield.transient_steps": (s["transient_steps"], "count"),
        "meanfield.step_self_us": (_ratio(s["transient_self_s"] * 1e6, s["transient_steps"]), "us"),
        "meanfield.resummed_s": (s["resummed_s"], "s"),
        "meanfield.resummed_kernel_calls": (s["resummed_kernel_calls"], "count"),
        "popmc.events": (s["events"], "count"),
        "popmc.run_s": (s["run_s"], "s"),
        "popmc.events_per_s": (_ratio(s["events"], s["run_s"]), "events/s"),
        "popmc.histogram_s": (s["histogram_s"], "s"),
        "csvio.rows": (s["rows"], "count"),
        "csvio.write_s": (s["write_s"], "s"),
        "csvio.rows_per_s": (_ratio(s["rows"], s["write_s"]), "rows/s"),
        "gaussoracle.posterior_calls": (s["posterior_calls"], "count"),
        "gaussoracle.posterior_s": (s["posterior_s"], "s"),
        "cli.invocations": (s["invocations"], "count"),
        "cli.self_s": (s["cli_self_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.uncovered_share": (_ratio(wall - s["main_s"], wall), "fraction"),
    }
    return {k: (int(v) if unit == "count" else v, unit) for k, (v, unit) in metrics.items()}
