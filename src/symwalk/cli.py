"""Command-line surface: distance profiles, bound sweeps, simulations.

The CLI parses, dispatches and writes.  ``walks.WalkSpec.profile_blocks``
decides which curves a profile draws on S_n or A_n (the CLI only knows that
the ttr bound sum, ``ttr-bound``, is an S_n curve), ``bounds`` owns every
theorem and lemma constant and comparison, ``group_oracle.oracle_checks``
the oracle suite's, and ``montecarlo.SimConfig`` checks every simulate
input; each ``verify`` row is one ``bounds.BoundReport``.  Every file
embeds a run manifest (command, parameters, seed, version, wall time); CSV
has a header row, '.' decimals and scientific notation below 1e-4 and from
1e16 up (times included), and JSON is one object with "manifest" and
"results".  A profile's odd-step walk (rt, ttr, ri, an odd lazy walk, an
odd class in continuous time) has no A_n curve: --group an exits 2.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments (such
as a non-integer discrete time, an out-of-range c or n, a negative seed, a
thread count below 1 or not an integer, or a --precision outside 53..4096
bits) or an output path that cannot be written, 3 resource guard tripped,
4 internal error (an unexpected exception, reported on one stderr line).
SYMWALK_THREADS overrides --threads.

Layering: profiles (ttr and ri included) and the spectral sweeps import
only the spectral layers; the oracle suite and ``simulate`` each load
their module (``group_oracle``, ``montecarlo``) through one lazy import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import mpmath
from mpmath import mp

from . import __version__, bounds, distances, walks
from .errors import ResourceGuardError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# working precision bounds in bits: a float's 53 up to a bounded cost
MIN_PRECISION = 53
MAX_PRECISION = 4096

SUITES = (*bounds.THEOREMS, "lemmas", "oracle")
PROFILE_KINDS = ("rt", "ttr", "ri", "ttr-bound", "class", "lazy")
PROFILE_WALKS = walks.syntax(*PROFILE_KINDS)


# ---------------------------------------------------------------------------
# formatting and manifests
# ---------------------------------------------------------------------------

def fmt_real(x, sig: int = 12) -> str:
    """Decimal rendering: fixed notation, switching to scientific below 1e-4."""
    x = mp.mpf(x)
    if x == 0:
        return "0.0"
    if mp.isnan(x):
        return "nan"
    if abs(x) < mp.mpf("1e-4") or abs(x) >= mp.mpf("1e16"):
        return mpmath.nstr(x, sig, min_fixed=1, max_fixed=0)
    return mpmath.nstr(x, sig, min_fixed=-(10**6), max_fixed=10**6)


def time_value(t) -> int | float:
    """A profile time as written: an integral time below 1e16 as an int,
    any other as a float, so a huge time is never spelt out in full digits."""
    t = float(t)
    return int(t) if t.is_integer() and abs(t) < 1e16 else t


def fmt_time(t) -> str:
    """A profile time in CSV: an integer, or ``fmt_real`` from 1e16 up as for d2."""
    value = time_value(t)
    return str(value) if isinstance(value, int) else fmt_real(value)


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int | None
    version: str = __version__
    wall_time_s: float = 0.0
    stream_version: int | None = None  # simulate: which random draws make a step

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "wall_time_s": round(self.wall_time_s, 3),
        }
        if self.stream_version is not None:
            out["stream_version"] = self.stream_version
        return out


def _emit(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: str, manifest: RunManifest, header: list[str], rows: list[list[str]]) -> None:
    lines = ["# manifest: " + json.dumps(manifest.as_dict(), sort_keys=True)]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path: str, manifest: RunManifest, results) -> None:
    payload = {"manifest": manifest.as_dict(), "results": results}
    _emit(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# small parsers
# ---------------------------------------------------------------------------

def parse_range(text: str) -> range:
    """Either a single integer or an inclusive 'a..b' range."""
    if text.count("..") > 1:
        raise ValueError(f"range {text!r} is not of the form a..b")
    a, dots, b = text.partition("..")
    lo = int(a)
    hi = int(b) if dots else lo
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _time_grid(spec_text: str, n: int, walk: str, mode: str) -> list[float]:
    if spec_text != "auto":
        return [walks.eval_time_expr(tok, n) for tok in spec_text.split(",")]
    scale = n if walk in ("ttr", "ttr-bound") else n / 2
    t_ref = scale * (math.log(n) + 2)
    top = 1.3 * t_ref
    if mode == "discrete":
        grid = sorted({int(round(top * i / 24)) for i in range(25)})
        return [float(t) for t in grid]
    return [top * i / 24 for i in range(25)]


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    started = time.perf_counter()
    n, prec = args.n, args.precision
    if n < 1:  # before the grid, whose auto times take log(n)
        raise ValueError(f"--n must be at least 1, got {n}")
    # the grid is checked once, before any spectrum is built
    times = distances.check_times(_time_grid(args.t_grid, n, args.walk, args.mode), args.mode)
    if args.walk == "ttr-bound":  # the ttr bound sum is not a walk: an S_n curve
        if args.group != "sn":
            raise ValueError("ttr-bound is a symmetric-group curve; use --group sn")
        walk, curves = args.walk, (("sn", bounds.ttr_bound_spectrum(n)),)
    else:
        spec = walks.WalkSpec.parse(args.walk, kinds=PROFILE_KINDS)
        walk, curves = str(spec), spec.profile_blocks(n, args.group, args.mode)
    rows = [row for group, blocks in curves
            for row in distances.spectrum_profile(blocks, group, args.mode, times, prec)]

    manifest = RunManifest(
        "profile",
        {
            "walk": args.walk,
            "n": n,
            "group": args.group,
            "mode": args.mode,
            "t_grid": args.t_grid,
            "precision": prec,
        },
        seed=None,
        wall_time_s=time.perf_counter() - started,
    )
    header = ["walk", "group", "n", "t", "d2", "log10_d2_sq"]
    csv_rows = [
        [walk, r.group, str(n), fmt_time(r.t), fmt_real(r.d2), fmt_real(r.log10_d2_sq)]
        for r in rows
    ]
    if args.format == "csv":
        _write_csv(args.out, manifest, header, csv_rows)
    else:
        results = [
            {
                "walk": walk,
                "group": r.group,
                "n": n,
                "t": time_value(r.t),
                "d2": fmt_real(r.d2),  # decimal string: survives sub-float64 tails
                "log10_d2_sq": float(r.log10_d2_sq),
            }
            for r in rows
        ]
        _write_json(args.out, manifest, results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_check(suite: str, ns: range, cs) -> None:
    """The suite's check of the whole ``--n`` range, run before any work:
    the least and largest n, and for the bound-sum and spectral suites the
    summed work over the range (``bounds.check_bound_sweep``,
    ``walks.check_spectral_sweep``)."""
    if suite == "lemmas":
        bounds.check_lemma_ns(ns)
    elif suite == "oracle":
        from .group_oracle import check_oracle_ns

        check_oracle_ns(ns)
    else:
        bounds.check_theorem(suite, ns, cs)


def _suite_task(payload) -> list[bounds.BoundReport]:
    suite, n, cs, prec = payload
    if suite == "lemmas":
        return bounds.lemma_checks(n, prec)
    if suite == "oracle":
        from .group_oracle import oracle_checks

        return oracle_checks(n, prec)
    return bounds.theorem_bounds(suite, n, cs, prec)


def requested_threads(env_value: str | None, flag: int) -> int:
    """The worker count asked for: SYMWALK_THREADS when set, else --threads."""
    if env_value:
        try:
            threads = int(env_value)
        except ValueError:
            raise ValueError(f"SYMWALK_THREADS must be an integer, got {env_value!r}") from None
    else:
        threads = flag
    if threads < 1:
        raise ValueError(f"the thread count must be at least 1, got {threads}")
    return threads


def worker_count(requested: int, tasks: int, cpus: int) -> int:
    """Processes to start: no more than requested, tasks or usable CPUs."""
    return max(1, min(requested, tasks, cpus))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_verify(args) -> int:
    started = time.perf_counter()
    ns = parse_range(args.n)
    if args.c is not None and args.suite in ("lemmas", "oracle"):
        raise ValueError(f"--c applies to the theorem suites only, not to {args.suite}")
    cs = None if args.c is None else [float(x) for x in args.c.split(",")]
    _suite_check(args.suite, ns, cs)
    threads = args.effective_threads
    workers = worker_count(threads, len(ns), _usable_cpus())
    tasks = [(args.suite, n, cs, args.precision) for n in ns]
    if workers > 1:
        # processes, not threads: mpmath keeps the working precision in its
        # one global mp context, so mp.workprec is not thread-safe
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_suite_task, tasks))
    else:
        parts = map(_suite_task, tasks)
    reports = [report for part in parts for report in part]
    manifest = RunManifest(
        "verify",
        {
            "suite": args.suite,
            "n": args.n,
            "c": args.c,
            "precision": args.precision,
            "threads": threads,
        },
        seed=None,
        wall_time_s=time.perf_counter() - started,
    )
    _write_json(args.out, manifest, [report.as_dict() for report in reports])
    failed = sum(not report.passed for report in reports)
    if failed:
        print(f"symwalk verify: {failed} of {len(reports)} checks failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from . import montecarlo

    started = time.perf_counter()
    cfg = montecarlo.SimConfig(args.walk, args.n, args.t, args.j, args.N, args.seed)
    result = montecarlo.fixed_point_tv_lower(cfg, progress=True)
    manifest = RunManifest(
        "simulate",
        {"walk": args.walk, "n": args.n, "t": args.t, "j": args.j, "N": args.N},
        seed=args.seed,
        wall_time_s=time.perf_counter() - started,
        stream_version=montecarlo.STREAM_VERSION,
    )
    header = ["walk", "n", "t", "j", "n_samples", "seed", "tv_lower", "std_err", "u_exact"]
    row = [
        args.walk,
        str(args.n),
        str(cfg.t),
        str(args.j),
        str(args.N),
        str(args.seed),
        fmt_real(result.estimate),
        fmt_real(result.std_err),
        fmt_real(result.u_exact),
    ]
    _write_csv(args.out, manifest, header, [row])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symwalk",
        description="Exact spectral analysis of random walks on S_n and A_n.",
    )
    parser.add_argument("--precision", type=int, default=128, metavar="BITS",
                        help="working precision in bits, 53..4096 (default 128)")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes for sweeps (SYMWALK_THREADS overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="distance curve of one walk")
    p.add_argument("--walk", required=True, help=PROFILE_WALKS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sn", "an"), default="sn")
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--t-grid", default="auto", dest="t_grid",
                   help="'auto' or comma-separated expressions in n, nlogn, numbers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="run a verification sweep")
    v.add_argument("--suite", choices=SUITES, required=True)
    v.add_argument("--n", required=True, help="single value or inclusive a..b range")
    v.add_argument("--c", default=None,
                   help="theorem suites only: comma-separated finite c (default: least c, +1, +2)")
    v.add_argument("--out", default="-", help="output path ('-' for stdout)")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo TV lower bound")
    s.add_argument("--walk", default="ttr", help=walks.syntax(*walks.SYNTAX))
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--t", required=True, help="time expression, e.g. 'nlogn-3n'")
    s.add_argument("--j", type=int, default=4, help="fixed-point threshold")
    s.add_argument("--N", type=int, required=True, help="trajectory count (>= 1000)")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default="-", help="output path ('-' for stdout)")
    s.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not MIN_PRECISION <= args.precision <= MAX_PRECISION:
        parser.error(f"--precision must lie in {MIN_PRECISION}..{MAX_PRECISION} bits")
    try:
        args.effective_threads = requested_threads(os.environ.get("SYMWALK_THREADS"), args.threads)
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"symwalk: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"symwalk: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except Exception as exc:
        print(f"symwalk: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
