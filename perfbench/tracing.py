"""In-process spans at the boundaries between symwalk's layers.

The traced run executes the workload's commands in this process through
``symwalk.cli.main``, so it drives exactly the public functions the CLI
drives, in the CLI's own order.  Before each command every ``symwalk``
module is dropped from ``sys.modules`` and imported again, which empties
every module-level cache (dimension table, Murnaghan-Nakayama memo,
permutation tables) as a fresh process would.

Spans come from this file only: each boundary function below is replaced,
in every symwalk module namespace that refers to it, by a wrapper that
times the call.  A function missing from the package is skipped, so the
traced run keeps working while later changes reshape the modules; the
metrics of a vanished boundary then read 0.  Spans are aggregated in
memory per name (calls, total and self time) and printed when the run
ends.  A span's self time is its duration minus the time of the spans it
encloses.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import statistics
import sys
import time

from workloads import argv_value

# (home module, function, span name); calls from every module, the home
# module included, go through the wrapper
BOUNDARIES = (
    ("partitions", "partitions", "partitions.enumerate"),
    ("partitions", "enumerate_partitions", "partitions.enumerate"),
    ("partitions", "dimension", "partitions.dimension"),
    ("characters", "char_ratio", "characters.ratio"),
    ("spectra", "spectrum", "spectra.spectrum"),
    ("distances", "l2_discrete", "distances.l2"),
    ("distances", "l2_continuous", "distances.l2"),
    ("distances", "class_walk_profile", "distances.profile"),
    ("distances", "chi_square_of", "distances.definitional"),
    ("distances", "tv_of", "distances.definitional"),
    ("bounds", "theorem_bound", "bounds.theorem"),
    ("bounds", "rt_discrete_terms", "bounds.lemma"),
    ("bounds", "rt_continuous_terms", "bounds.lemma"),
    ("bounds", "ttr_bound_sum", "bounds.ttr_sum"),
    ("bounds", "ttr_bound_sum_continuous", "bounds.ttr_sum"),
    ("bounds", "matching_tail", "bounds.matching_tail"),
    ("group_oracle", "element_measure", "group_oracle.measure"),
    ("group_oracle", "lazy_mix", "group_oracle.measure"),
    ("group_oracle", "convolution_powers_upto", "group_oracle.powers"),
    ("group_oracle", "convolve", "group_oracle.convolve"),
    ("group_oracle", "continuous_law", "group_oracle.continuous_law"),
    ("group_oracle", "operator_eigenvalues", "group_oracle.eigvals"),
    ("montecarlo", "sample_walk", "montecarlo.sample"),
    ("cli", "fmt_real", "cli.format"),
    ("cli", "_write_csv", "cli.format"),
    ("cli", "_write_json", "cli.format"),
)

# ``partitions.partitions`` is a recursive generator: its own recursion
# stays unwrapped, and callers elsewhere get the partitions enumerated
# eagerly inside the span, in the same order
_GENERATORS = {("partitions", "partitions")}

STEP_KINDS = ("ttr", "rt", "ri", "class", "lazy")

# per-layer metric name -> unit, in the order the traced run prints them
LAYER_METRICS = {
    "partitions.enumerate_s": "s",
    "partitions.count": "count",
    "partitions.dimension_s": "s",
    "partitions.dimension_calls": "count",
    "characters.ratio_s": "s",
    "characters.ratio_calls": "count",
    "characters.cache_entries": "count",
    "spectra.spectrum_s": "s",
    "spectra.builds": "count",
    "spectra.entries": "count",
    "spectra.distinct_eigenvalues": "count",
    "spectra.distinct_ratio": "ratio",
    "distances.l2_s": "s",
    "distances.points": "count",
    "distances.terms": "count",
    "distances.point_ms_p50": "ms",
    "distances.profile_s": "s",
    "distances.definitional_s": "s",
    "bounds.theorem_s": "s",
    "bounds.checks": "count",
    "bounds.failed_checks": "count",
    "bounds.lemma_s": "s",
    "bounds.ttr_sum_s": "s",
    "bounds.matching_tail_s": "s",
    "group_oracle.measure_s": "s",
    "group_oracle.convolve_s": "s",
    "group_oracle.convolutions": "count",
    "group_oracle.continuous_law_s": "s",
    "group_oracle.poisson_terms": "count",
    "group_oracle.eigvals_s": "s",
    "montecarlo.sample_s": "s",
    "montecarlo.row_steps": "count",
    **{f"montecarlo.row_step_ns.{kind}": "ns" for kind in STEP_KINDS},
    "cli.format_s": "s",
    "cli.unattributed_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# time metrics: metric -> the spans whose self time it sums
_SELF_TIME = {
    "partitions.enumerate_s": ("partitions.enumerate",),
    "partitions.dimension_s": ("partitions.dimension",),
    "characters.ratio_s": ("characters.ratio",),
    "spectra.spectrum_s": ("spectra.spectrum",),
    "distances.l2_s": ("distances.l2",),
    "distances.profile_s": ("distances.profile",),
    "distances.definitional_s": ("distances.definitional",),
    "bounds.theorem_s": ("bounds.theorem",),
    "bounds.lemma_s": ("bounds.lemma",),
    "bounds.ttr_sum_s": ("bounds.ttr_sum",),
    "bounds.matching_tail_s": ("bounds.matching_tail",),
    "group_oracle.measure_s": ("group_oracle.measure",),
    "group_oracle.convolve_s": ("group_oracle.powers", "group_oracle.convolve"),
    "group_oracle.continuous_law_s": ("group_oracle.continuous_law",),
    "group_oracle.eigvals_s": ("group_oracle.eigvals",),
    "montecarlo.sample_s": ("montecarlo.sample",),
    "cli.format_s": ("cli.format",),
}

# call-count metrics: metric -> span
_CALLS = {
    "partitions.dimension_calls": "partitions.dimension",
    "characters.ratio_calls": "characters.ratio",
    "spectra.builds": "spectra.spectrum",
    "distances.points": "distances.l2",
    "group_oracle.convolutions": "group_oracle.convolve",
}


class Tracer:
    """Span aggregates for one pass over a workload's commands."""

    def __init__(self) -> None:
        self._stack: list[list[int]] = []  # per open span: ns covered by its children
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.l2_ns: list[int] = []
        self.partitions = 0
        self.poisson_terms = 0
        self.spectra: list = []  # built spectra, counted after the command
        self.l2_spectra: list = []  # the spectrum of every l2 point

    def wrap(self, name: str, fn, eager: bool = False):
        def traced(*args, **kwargs):
            frame = [0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                agg = self.spans.setdefault(name, [0, 0, 0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
            self._observe(name, args, result, elapsed)
            return iter(result) if eager else result

        return traced

    def _observe(self, name: str, args: tuple, result, elapsed: int) -> None:
        if name == "partitions.enumerate":
            self.partitions += len(result)
        elif name == "spectra.spectrum":
            self.spectra.append(result)
        elif name == "distances.l2":
            self.l2_ns.append(elapsed)
            self.l2_spectra.append(args[0] if args else None)
        elif name == "group_oracle.continuous_law" and isinstance(result, tuple):
            self.poisson_terms += int(result[1])

    def self_ns(self, *names: str) -> int:
        return sum(self.spans.get(name, (0, 0, 0))[2] for name in names)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]


def install(tracer: Tracer, modules: dict) -> None:
    """Route every symwalk reference to a boundary function through a span."""
    for home_name, func, span in BOUNDARIES:
        home = modules.get(home_name)
        original = getattr(home, func, None)
        if original is None:
            continue
        generator = (home_name, func) in _GENERATORS
        wrapped = tracer.wrap(span, original, eager=generator)
        for module in modules.values():
            if generator and module is home:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def fresh_symwalk() -> dict:
    """Import symwalk anew, as a fresh process would; short name -> module."""
    for name in [m for m in sys.modules if m == "symwalk" or m.startswith("symwalk.")]:
        del sys.modules[name]
    importlib.import_module("symwalk.cli")
    return {
        name.rsplit(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("symwalk.")
    }


def run_command(argv: list[str], tracer: Tracer | None):
    """One CLI command in this process: (wall s, exit code, stdout, modules)."""
    modules = fresh_symwalk()
    if tracer is not None:
        install(tracer, modules)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = modules["cli"].main(list(argv))
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, code, out.getvalue(), modules


def _spectrum_counts(spec, cache: dict) -> tuple[int, int]:
    """(nontrivial blocks, distinct nontrivial eigenvalues) of a spectrum,
    or (0, 0) for a spectrum of another shape than today's."""
    key = id(spec)
    if key not in cache:
        try:
            eigenvalues = [e.eigenvalue for e in spec.nontrivial()]
            cache[key] = (len(eigenvalues), len(set(eigenvalues)))
        except (AttributeError, TypeError):
            cache[key] = (0, 0)
    return cache[key]


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    commands: list[list[str]],
    payloads: list,
    cache_entries: int,
    sample_s_by_command: list[float],
) -> dict:
    """Per-layer metrics of one traced pass (untraced timings filled later)."""
    out = {metric: tracer.self_ns(*spans) / 1e9 for metric, spans in _SELF_TIME.items()}
    out.update({metric: tracer.calls(span) for metric, span in _CALLS.items()})
    cache: dict = {}
    built = [_spectrum_counts(s, cache) for s in tracer.spectra]
    entries = sum(blocks for blocks, _ in built)
    distinct = sum(d for _, d in built)
    out["partitions.count"] = tracer.partitions
    out["characters.cache_entries"] = cache_entries
    out["spectra.entries"] = entries
    out["spectra.distinct_eigenvalues"] = distinct
    out["spectra.distinct_ratio"] = distinct / entries if entries else 0.0
    out["distances.terms"] = sum(_spectrum_counts(s, cache)[0] for s in tracer.l2_spectra)
    out["distances.point_ms_p50"] = statistics.median(tracer.l2_ns) / 1e6 if tracer.l2_ns else 0.0
    out["group_oracle.poisson_terms"] = tracer.poisson_terms

    rows = [r for p in payloads if p and "results" in p for r in p["results"]]
    out["bounds.checks"] = len(rows)
    out["bounds.failed_checks"] = sum(1 for r in rows if r.get("pass") is not True)

    steps = {kind: 0 for kind in STEP_KINDS}
    step_s = {kind: 0.0 for kind in STEP_KINDS}
    for argv, sample_s in zip(commands, sample_s_by_command):
        if "simulate" not in argv:
            continue
        n = int(argv_value(argv, "--n"))  # every simulate command runs t = nlogn
        kind = argv_value(argv, "--walk").split(":")[0]
        rows_x_steps = int(argv_value(argv, "--N")) * math.ceil(n * math.log(n))
        steps[kind] += rows_x_steps
        step_s[kind] += sample_s
    out["montecarlo.row_steps"] = sum(steps.values())
    for kind in STEP_KINDS:
        out[f"montecarlo.row_step_ns.{kind}"] = step_s[kind] * 1e9 / steps[kind] if steps[kind] else 0.0

    attributed = sum(agg[2] for agg in tracer.spans.values()) / 1e9
    out["cli.unattributed_s"] = wall_s - attributed
    out["trace.traced_wall_s"] = wall_s
    return out


def span_table(tracer: Tracer) -> list[str]:
    """The aggregated spans of one pass, one line each."""
    lines = []
    for name, (calls, total, self_) in sorted(tracer.spans.items()):
        lines.append(f"span {name:30s} calls={calls:<8d} total_s={total / 1e9:.6f} self_s={self_ / 1e9:.6f}")
    return lines
