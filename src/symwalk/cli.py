"""Command-line surface: distance profiles, bound sweeps, simulations.

The CLI parses, dispatches and writes; ``bounds`` owns every constant and
comparison, and each ``verify`` row is one ``bounds.BoundReport``. Every
file embeds a run manifest (command, parameters, seed, version, wall time);
CSV has a header row, '.' decimals and scientific notation below 1e-4, and
JSON is one object with "manifest" and "results".

Exit codes: 0 success, 1 verification failure, 2 invalid arguments (such
as a non-integer discrete time, an out-of-range c or n, or a thread count
below 1 or not an integer) or an output path that cannot be written, 3
resource guard tripped, 4 internal error (an unexpected exception,
reported on one stderr line). SYMWALK_THREADS overrides --threads.

Layering: profiles and the spectral sweeps load neither numpy nor the
brute-force oracle; only the oracle suite and ``simulate`` import them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import mpmath
from mpmath import mp

from . import __version__, bounds, distances, spectra, walks
from .errors import ResourceGuardError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

SUITES = ("rt-discrete", "rt-continuous", "ttr", "four-cycle", "lemmas", "oracle")
PROFILE_KINDS = ("rt", "ttr-bound", "class", "lazy")
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

_TOKEN_RE = re.compile(r"\d+\.?\d*(?:[eE][+\-]?\d+)?|nlogn|n|[+\-*]")


def eval_time_expr(expr: str, n: int) -> float:
    """Evaluate a time expression in the tokens nlogn, n, numbers, + - *.

    Numbers may carry an exponent ("1e3", "2.5E-1").  Juxtaposition
    multiplies, so "nlogn-3n" and "0.5*nlogn+2" both work.
    """
    text = expr.replace("−", "-").replace("·", "*").replace(" ", "")
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse time expression {expr!r} at {text[pos:]!r}")
        tokens.append(m.group())
        pos = m.end()

    def value_of(tok: str) -> float:
        if tok == "n":
            return float(n)
        if tok == "nlogn":
            return n * math.log(n)
        return float(tok)

    # fold juxtaposition into explicit products, then evaluate + and - over products
    total = 0.0
    sign = 1.0
    product: float | None = None
    for tok in tokens:
        if tok in "+-":
            if product is None:
                if tok == "-":
                    sign = -sign
                    continue
                raise ValueError(f"misplaced operator in {expr!r}")
            total += sign * product
            product = None
            sign = 1.0 if tok == "+" else -1.0
        elif tok == "*":
            if product is None:
                raise ValueError(f"misplaced '*' in {expr!r}")
        else:
            v = value_of(tok)
            product = v if product is None else product * v
    if product is None:
        raise ValueError(f"empty time expression {expr!r}")
    value = total + sign * product
    if not math.isfinite(value):
        raise ValueError(f"time expression {expr!r} is not finite")
    return value


def parse_range(text: str) -> list[int]:
    """Either a single integer or an inclusive 'a..b' range."""
    if ".." in text:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _time_grid(spec_text: str, n: int, walk: str, mode: str) -> list[float]:
    if spec_text != "auto":
        return [eval_time_expr(tok, n) for tok in spec_text.split(",")]
    t_ref = n * (math.log(n) + 2) if walk == "ttr-bound" else (n / 2) * (math.log(n) + 2)
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
    times = _time_grid(args.t_grid, n, args.walk, args.mode)

    if args.walk == "ttr-bound":
        if args.group != "sn":
            raise ValueError("ttr-bound is a symmetric-group curve")
        rows = distances.spectrum_profile(bounds.ttr_bound_spectrum(n), args.mode, times, prec)
    else:
        spec = walks.WalkSpec.parse(args.walk, kinds=PROFILE_KINDS)
        q = spec.class_measure(n)
        if spec.kind == "rt" and args.group != "sn":
            raise ValueError("the random transposition walk lives on S_n")
        rows = distances.class_walk_profile(q, args.group, args.mode, times, prec)

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

    def fmt_time(t) -> str:
        return str(int(t)) if float(t).is_integer() else fmt_real(t)

    csv_rows = [
        [r.walk, r.group, str(r.n), fmt_time(r.t), fmt_real(r.d2), fmt_real(r.log10_d2_sq)]
        for r in rows
    ]
    if args.format == "csv":
        _write_csv(args.out, manifest, header, csv_rows)
    else:
        results = [
            {
                "walk": r.walk,
                "group": r.group,
                "n": r.n,
                "t": int(r.t) if float(r.t).is_integer() else float(r.t),
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

ORACLE_WALKS = ("rt", "ttr", "ri", "class:3", "class:4", "lazy:3:1/2")
_ORACLE_DISCRETE_T = 12
_ORACLE_CONTINUOUS_T = (0.5, 1.0, 2.0, 4.0)
_ORACLE_TOL = 1e-8


def _oracle_check(n: int, walk: str, prec: int) -> bounds.BoundReport:
    """Spectral formulas against definitional chi-square from exact convolution,
    at the discrete times 0.._ORACLE_DISCRETE_T and the continuous ones."""
    import numpy as np

    from . import group_oracle

    walk_spec = walks.WalkSpec.parse(walk)
    qel = walk_spec.element_measure(n)
    powers = group_oracle.convolution_powers_upto(qel, _ORACLE_DISCRETE_T)
    laws = [group_oracle.continuous_law(qel, t, tail_tol=1e-14)[0] for t in _ORACLE_CONTINUOUS_T]
    q = walk_spec.class_measure(n)
    if q is None:
        # ttr and ri have no class measure: use the dense operator's eigenvalues
        nontrivial = group_oracle.operator_eigenvalues(qel)[1:]
        spectral = [math.sqrt(float(np.sum(nontrivial ** (2 * t)))) for t in range(len(powers))]
        spectral += [math.sqrt(float(np.sum(np.exp(-2 * t * (1 - nontrivial)))))
                     for t in _ORACLE_CONTINUOUS_T]
    else:
        blocks = spectra.spectrum(q, "sn").blocks
        spectral = distances.l2_curve(blocks, range(len(powers)), "discrete", prec)
        spectral += distances.l2_curve(blocks, _ORACLE_CONTINUOUS_T, "continuous", prec)
    chi2 = [distances.chi_square_of(dist) for dist in powers]
    tv_ok = all(2 * distances.tv_of(dist) <= x + 1e-12 for dist, x in zip(powers, chi2))
    chi2 += [distances.chi_square_of(h, normalized=False) for h in laws]
    worst = max(abs(x - float(y)) for x, y in zip(chi2, spectral))
    return bounds.BoundReport(f"oracle:{walk}", n, None, _ORACLE_TOL, worst, tv_inequality=tv_ok)


def _suite_task(payload) -> list[bounds.BoundReport]:
    suite, n, cs, prec = payload
    if suite == "lemmas":
        return bounds.lemma_checks(n, prec)
    if suite == "oracle":
        from . import group_oracle

        if n > group_oracle.MAX_DENSE_N:
            raise ResourceGuardError(
                f"oracle verification is capped at n <= {group_oracle.MAX_DENSE_N}"
            )
        fitting = [w for w in ORACLE_WALKS if sum(walks.WalkSpec.parse(w).cycles) <= n]
        return [_oracle_check(n, walk, prec) for walk in fitting]
    walk = suite.replace("-", "_")  # the suite's row of bounds.THEOREMS
    if cs is None:  # the theorem's least c and the next two
        cs = [float(bounds.THEOREMS[walk].min_c + k) for k in range(3)]
    return bounds.theorem_bounds(walk, n, cs, prec)


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
    cs = [float(x) for x in args.c.split(",")] if args.c else None
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
    t = int(math.ceil(eval_time_expr(args.t, args.n)))
    result = montecarlo.fixed_point_tv_lower(
        args.n, t, args.j, args.N, args.seed, walk=args.walk, progress=True
    )
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
        str(t),
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
                        help="working precision in bits (default 128)")
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
                   help="comma-separated finite c values (default: the theorem's least c, +1, +2)")
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
    if args.precision < 53:
        parser.error("--precision must be at least 53 bits")
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
