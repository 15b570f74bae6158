"""symwalk benchmark: CLI workloads, end-to-end metrics and a traced run.

Usage, from the root of a symwalk checkout:

    python3 perfbench/run.py --workload profile-curves --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, summary table

``--trace 0`` runs each command of the workload as ``python -m symwalk.cli``
in a fresh interpreter, one after another, in passes over the command list
until ``--seconds`` is used up (at least one pass), and reports

* ``setup_s``: median time for a fresh interpreter to import symwalk.cli,
  sampled twice before every pass;
* ``wall_s``: wall time of one pass over the command list, process starts
  included, taken as the sum over the commands of each command's median
  wall time across passes, so one slow moment spoils one sample only;
* ``peak_rss_mb``: median over passes of the largest max-RSS among the
  pass's command processes.

``--trace 1`` runs the same commands in this process with spans at the
layer boundaries (see tracing.py), alternating traced and untraced passes,
and reports the per-layer metrics of the median traced pass.

Every command's exit code and payload are checked against
``reference/<workload>.json`` (rules in compare.py).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the checkout has no symwalk
source or reference to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from compare import compare, parse_payload
from workloads import WORKLOADS, command_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# SYMWALK_THREADS overrides --threads, whose default is os.cpu_count(); the
# BLAS pins keep numpy's eigensolver in the oracle suite on one thread, so
# the workload does not change with the machine's core count.  Children may
# write bytecode (PYTHONDONTWRITEBYTECODE is dropped), as an installed
# package has it, so setup_s does not depend on the caller's environment.
PINNED_ENV = {
    "SYMWALK_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES_PER_PASS = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], env: dict):
    """Run ``python args`` to completion: (wall s, exit code, stdout, max RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    stderr: list[bytes] = []
    drain = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    drain.start()
    stdout = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, proc.returncode, stdout.decode(), usage.ru_maxrss / 1024.0


def machine_facts() -> dict:
    try:
        import mpmath.libmp

        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = None

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "mpmath_backend": backend,
        "machine": platform.machine(),
        "pinned_env": PINNED_ENV,
    }


def load_reference(name: str) -> list[dict]:
    path = HERE / "reference" / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


class Checker:
    """Counts commands attempted and those disagreeing with the reference."""

    def __init__(self, reference: list[dict]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, index: int, argv: list[str], code: int, stdout: str):
        payload = parse_payload(stdout)
        problems = compare(self.reference[index], code, payload, argv)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"MISMATCH {' '.join(argv)}: {'; '.join(problems[:3])}", flush=True)
        return payload


def measure_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, Checker]:
    commands = command_lines(WORKLOADS[name], seed)
    checker = Checker(load_reference(name))
    env = child_env()
    spawn(["-c", "import symwalk.cli"], env)  # writes bytecode, untimed
    started = time.perf_counter()
    setup, peaks, pass_costs = [], [], []
    walls: list[list[float]] = [[] for _ in commands]
    while True:
        pass_start = time.perf_counter()
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setup.append(spawn(["-c", "import symwalk.cli"], env)[0])
        peak = 0.0
        for i, argv in enumerate(commands):
            seconds_used, code, stdout, rss = spawn(["-m", "symwalk.cli", *argv], env)
            checker.check(i, argv, code, stdout)
            walls[i].append(seconds_used)
            peak = max(peak, rss)
        peaks.append(peak)
        pass_costs.append(time.perf_counter() - pass_start)
        if time.perf_counter() - started + statistics.median(pass_costs) > seconds:
            break
    print(f"{name}: {len(peaks)} passes, {len(setup)} setup samples, "
          f"pass walls {[round(sum(w), 3) for w in zip(*walls)]}")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(w) for w in walls),
        "peak_rss_mb": statistics.median(peaks),
    }
    return metrics, checker


def measure_layers(name: str, seed: int, seconds: float) -> tuple[dict, Checker]:
    import tracing

    os.environ.update(PINNED_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    commands = command_lines(WORKLOADS[name], seed)
    checker = Checker(load_reference(name))

    def one_pass(traced: bool):
        tracer = tracing.Tracer() if traced else None
        wall, payloads, sample_s, cache_entries = 0.0, [], [], 0
        for i, argv in enumerate(commands):
            before = tracer.self_ns("montecarlo.sample") if tracer else 0
            seconds_used, code, stdout, modules = tracing.run_command(argv, tracer)
            wall += seconds_used
            payloads.append(checker.check(i, argv, code, stdout))
            if tracer:
                sample_s.append((tracer.self_ns("montecarlo.sample") - before) / 1e9)
                size = getattr(modules.get("characters"), "character_cache_size", None)
                cache_entries = max(cache_entries, size() if size else 0)
        if not tracer:
            return wall, payloads, None
        metrics = tracing.layer_metrics(tracer, wall, commands, payloads, cache_entries, sample_s)
        return wall, payloads, (metrics, tracer)

    started = time.perf_counter()
    untraced, traced, pair_costs = [], [], []
    while True:
        pair_start = time.perf_counter()
        order = (False, True) if len(pair_costs) % 2 == 0 else (True, False)
        for flag in order:
            wall, payloads, extra = one_pass(flag)
            (traced if flag else untraced).append((wall, payloads, extra))
        pair_costs.append(time.perf_counter() - pair_start)
        if time.perf_counter() - started + statistics.median(pair_costs) > seconds:
            break
    # tracing must not perturb a single payload
    for (_, plain, _), (_, seen, _) in zip(untraced, traced):
        for argv, a, b in zip(commands, plain, seen):
            if a != b:
                checker.failed += 1
                print(f"MISMATCH traced payload differs: {' '.join(argv)}")
    traced.sort(key=lambda item: item[0])
    metrics, tracer = traced[(len(traced) - 1) // 2][2]
    untraced_wall = statistics.median(item[0] for item in untraced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.traced_wall_s"] / untraced_wall - 1.0
    print(f"{name}: {len(traced)} traced and {len(untraced)} untraced passes")
    for line in tracing.span_table(tracer):
        print(line)
    return {m: metrics[m] for m in tracing.LAYER_METRICS}, checker


def result_line(metrics: dict, units: dict, checker: Checker) -> dict:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "symwalk" / "cli.py").is_file():
        print(f"perfbench: no symwalk source at {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(machine_facts(), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            if args.trace:
                import tracing

                metrics, checker = measure_layers(name, args.seed, args.seconds)
                units = tracing.LAYER_METRICS
            else:
                metrics, checker = measure_end_to_end(name, args.seed, args.seconds)
                units = END_TO_END_UNITS
        except (FileNotFoundError, ImportError) as exc:
            print(f"perfbench: cannot measure {name}: {exc}", file=sys.stderr)
            return 2
        for metric, value in metrics.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
        print(f"{name} failed_frac {failed_frac:.6g} ratio ({checker.failed} of {checker.attempted} commands)", flush=True)
        results[name] = result_line(metrics, units, checker)

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
