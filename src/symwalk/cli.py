"""Command-line surface: distance profiles, bound sweeps, simulations.

The CLI parses, dispatches and writes.  ``walks.WalkSpec.profile_blocks``
decides which curves a profile draws on S_n or A_n (the CLI only knows that
the ttr bound sum, ``ttr-bound``, is an S_n curve), ``bounds`` owns every
theorem and lemma constant and comparison, ``group_oracle.oracle_checks``
the oracle suite's, and ``montecarlo.SimConfig`` checks every simulate
input; each ``verify`` row is one ``bounds.BoundReport``.  Each command
hands ``write_run``, the one writer, its params and one list of typed
rows.  Every file embeds a run manifest (command, parameters, seed,
version, wall time from dispatch); CSV has a header row of the row keys,
'.' decimals and scientific notation below 1e-4 and from 1e16 up (times
included), and JSON is one object with "manifest" and "results".  An
empty CSV field or JSON null is a d2 whose decimal exponent has more than
15 digits, or in JSON a non-finite number (CSV writes -inf).  A profile's
odd-step walk (rt, ttr, ri, an odd lazy walk, an odd class in continuous
time) has no A_n curve: --group an exits 2.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments (such
as a non-integer discrete time, an out-of-range c or n, a negative seed, a
thread count below 1 or not an integer, or a --precision outside 53..4096
bits) or an output path that cannot be written, 3 resource guard tripped,
4 internal error (an unexpected exception, reported on one stderr line).
SYMWALK_THREADS overrides --threads; with neither, verify runs one
process for a sweep whose work is below POOL_MIN_WORK of its cap and one
per usable CPU above it, and the manifest records the count it ran.

Layering: importing this module loads only the walk parser and the exact
spectral layers below it, neither mpmath, numpy nor ``dataclasses``; each
command imports what it runs when it runs.  A profile, the ttr bound sum
included (``spectra.ttr_bound_spectrum``), loads ``distances`` alone, whose
sums run in Python integers, so it loads neither mpmath nor ``bounds``; a
theorem or lemma sweep loads ``bounds``, whose tables and constants run on
the same integer kernel, so it loads neither mpmath nor numpy; the oracle
suite loads ``group_oracle``, whose convolutions on conjugation orbits run
in Python integers, so it loads neither either; only ``simulate`` loads
numpy, with ``montecarlo``, and never mpmath.  No command loads
``dataclasses``.
Numbers are formatted with integers and the ``decimal`` module, exactly as
``mpmath.nstr`` would write them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, walks
from .errors import ResourceGuardError

if TYPE_CHECKING:
    from .bounds import BoundReport

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# working precision bounds in bits: a float's 53 up to a bounded cost
MIN_PRECISION = 53
MAX_PRECISION = 4096
# past this many exponent digits (~300 for d2 at t = 1e300) a number is written as no value
MAX_EXPONENT_DIGITS = 15

# bounds.THEOREMS, then the lemma and oracle suites; a literal, so that
# parsing the flags loads no bound
SUITES = ("rt-discrete", "rt-continuous", "ttr", "four-cycle", "random-insertion",
          "lemmas", "oracle")
PROFILE_KINDS = ("rt", "ttr", "ri", "ttr-bound", "class", "lazy")
PROFILE_WALKS = walks.syntax(*PROFILE_KINDS)
# the summed work of a sweep, over its suite's cap, from which a verify
# without --threads or SYMWALK_THREADS starts one worker per usable CPU.
# On 2 CPUs (x86-64, Python 3.11), two workers against one took 0.75
# against 0.70 s for rt-discrete --n 15..33 (0.027 of the cap) and 0.44
# against 0.40 s for lemmas --n 14..160 (0.034), but 1.16 against 1.47 s
# for rt-discrete --n 30..38 (0.062) and 0.32 against 0.66 s for lemmas
# --n 14..200 (0.067)
POOL_MIN_WORK = 0.05


# ---------------------------------------------------------------------------
# formatting and manifests
# ---------------------------------------------------------------------------

def fmt_real(x, sig: int = 12) -> str | None:
    """Decimal rendering: fixed notation, switching to scientific below 1e-4
    and from 1e16 up; None for a number whose decimal exponent has more than
    MAX_EXPONENT_DIGITS digits, which no reader of the file can use.

    The text is ``mpmath.nstr``'s at mpmath's default 53 bits: ``sig``
    digits rounded half up from the exact value, trailing zeros stripped to
    at least one decimal.  An int or float is rounded exactly by
    ``decimal``; a ``distances.Dyadic`` is first rounded to 53 bits, as
    mpmath converts it, and then written as that float or, out of the float
    range, as its product with a power of two in 40-digit ``decimal``."""
    if not isinstance(x, (int, float)):
        x = x.rounded(53)
        top = x.man.bit_length() + x.exp  # 2^(top - 1) <= x < 2^top
        if -1000 < top < 1000:
            x = math.ldexp(x.man, x.exp)
        elif abs(top) > 4 * 10**MAX_EXPONENT_DIGITS:  # past 1.2 * 10^MAX_EXPONENT_DIGITS
            return None
        else:
            ctx = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)
            return _layout(ctx.multiply(Decimal(x.man), ctx.power(2, x.exp)), "e", sig)
    if x == 0:
        return "0.0"
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return _layout(Decimal(x), "e" if abs(x) < 1e-4 or abs(x) >= 1e16 else "f", sig)


def _layout(d: Decimal, layout: str, sig: int) -> str | None:
    """``d`` rounded half up to ``sig`` digits and written in ``layout``
    ("e" or "f") as fmt_real writes it."""
    d = Context(prec=sig, rounding=ROUND_HALF_UP, Emin=MIN_EMIN, Emax=MAX_EMAX).plus(d)
    mantissa, e, exponent = f"{d:{layout}}".partition("e")
    if len(exponent.lstrip("+-")) > MAX_EXPONENT_DIGITS:
        return None
    whole, _, fraction = mantissa.partition(".")
    return f"{whole}.{fraction.rstrip('0') or '0'}{e}{exponent}"


def time_value(t) -> int | float:
    """A profile time as written: an integral time below 1e16 as an int,
    any other as a float, so a huge time is never spelt out in full digits."""
    t = float(t)
    return int(t) if t.is_integer() and abs(t) < 1e16 else t


class RunManifest(NamedTuple):
    command: str
    params: dict
    seed: int | None = None
    version: str = __version__
    wall_time_s: float = 0.0
    stream_version: int | None = None  # simulate: which random draws make a step

    def as_dict(self) -> dict:
        out = self._asdict()
        out["wall_time_s"] = round(self.wall_time_s, 3)
        if self.stream_version is None:
            del out["stream_version"]
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


def _csv_cell(value) -> str:
    """A CSV field: a string as it is, an int in full, any other number by
    ``fmt_real``, and no value (None) as an empty field."""
    if isinstance(value, (str, int)):  # no bool reaches a CSV row
        return str(value)
    return "" if value is None else fmt_real(value) or ""


def _json_value(value):
    """A JSON value: a non-finite float as null, any other value as it is."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_csv(path: str, manifest: RunManifest, rows: list[dict]) -> None:
    lines = ["# manifest: " + json.dumps(manifest.as_dict(), sort_keys=True)]
    lines.append(",".join(rows[0]))
    lines.extend(",".join(_csv_cell(value) for value in row.values()) for row in rows)
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path: str, manifest: RunManifest, rows: list[dict]) -> None:
    results = [{key: _json_value(value) for key, value in row.items()} for row in rows]
    payload = {"manifest": manifest.as_dict(), "results": results}
    _emit(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_run(args, params: tuple[str, ...], rows: list[dict], **manifest) -> None:
    """The one writer of every command: a manifest of the flags named in
    ``params`` (and any further ``RunManifest`` field), timed from dispatch,
    and the typed rows, in ``args.format`` to ``args.out``."""
    manifest = RunManifest(args.command, {name: getattr(args, name) for name in params},
                           wall_time_s=time.perf_counter() - args.started, **manifest)
    (_write_csv if args.format == "csv" else _write_json)(args.out, manifest, rows)


# ---------------------------------------------------------------------------
# small parsers
# ---------------------------------------------------------------------------

def parse_range(text: str) -> range:
    """--n of verify: either a single integer or an inclusive 'a..b' range."""
    a, dots, b = text.partition("..")
    try:
        lo = int(a)
        hi = int(b) if dots else lo  # a second '..' leaves b no integer
    except ValueError:
        raise ValueError(
            f"--n must be an integer or an inclusive a..b range, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"--n {text!r} is an empty range")
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
    from . import distances

    n, prec = args.n, args.precision
    if n < 1:  # before the grid, whose auto times take log(n)
        raise ValueError(f"--n must be at least 1, got {n}")
    # the grid is checked once, before any spectrum is built
    times = distances.check_times(_time_grid(args.t_grid, n, args.walk, args.mode), args.mode)
    if args.walk == "ttr-bound":  # the ttr bound sum is not a walk: an S_n curve
        if args.group != "sn":
            raise ValueError("ttr-bound is a symmetric-group curve; use --group sn")
        from .spectra import ttr_bound_spectrum

        walk, curves = args.walk, (("sn", ttr_bound_spectrum(n)),)
    else:
        spec = walks.WalkSpec.parse(args.walk, kinds=PROFILE_KINDS)
        walk, curves = str(spec), spec.profile_blocks(n, args.group, args.mode)
    rows = [{"walk": walk, "group": r.group, "n": n, "t": time_value(r.t),
             "d2": fmt_real(r.d2),  # decimal string: survives sub-float64 tails
             "log10_d2_sq": r.log10_d2_sq}
            for group, blocks in curves
            for r in distances.spectrum_profile(blocks, group, args.mode, times, prec)]
    write_run(args, ("walk", "n", "group", "mode", "t_grid", "precision"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_check(suite: str, ns: range, cs) -> float:
    """The suite's check of the whole ``--n`` range, run before any work:
    the least and largest n, and for the bound-sum and spectral suites the
    summed work over the range (``bounds.check_bound_sweep``,
    ``walks.check_spectral_sweep``).  Returns that work over its cap, and 0
    for the oracle suite, whose whole range takes about a tenth of a second."""
    from . import bounds

    if suite == "lemmas":
        return bounds.check_lemma_ns(ns)
    if suite == "oracle":
        from .group_oracle import check_oracle_ns

        check_oracle_ns(ns)
        return 0.0
    return bounds.check_theorem(suite, ns, cs)[2]


def _suite_task(payload) -> list[BoundReport]:
    from . import bounds

    suite, n, cs, prec = payload
    if suite == "lemmas":
        return bounds.lemma_checks(n, prec)
    if suite == "oracle":
        from .group_oracle import oracle_checks

        return oracle_checks(n, prec)
    return bounds.theorem_bounds(suite, n, cs, prec)


def requested_threads(env_value: str | None, flag: int | None) -> int | None:
    """The worker count asked for: SYMWALK_THREADS when set, else --threads;
    None when neither is given."""
    if env_value:
        try:
            threads = int(env_value)
        except ValueError:
            raise ValueError(f"SYMWALK_THREADS must be an integer, got {env_value!r}") from None
    else:
        threads = flag
    if threads is not None and threads < 1:
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
    ns = parse_range(args.n)
    if args.c is not None and args.suite in ("lemmas", "oracle"):
        raise ValueError(f"--c applies to the theorem suites only, not to {args.suite}")
    cs = None if args.c is None else [float(x) for x in args.c.split(",")]
    work = _suite_check(args.suite, ns, cs)
    cpus = _usable_cpus()
    requested = args.threads
    if requested is None:  # a pool pays for its start only on a large sweep
        requested = cpus if work >= POOL_MIN_WORK else 1
    args.threads = workers = worker_count(requested, len(ns), cpus)  # the manifest's count
    tasks = [(args.suite, n, cs, args.precision) for n in ns]
    if workers > 1:
        # processes, not threads: the sums run in Python integers under the
        # interpreter lock, so threads would take turns
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_suite_task, tasks))
    else:
        parts = map(_suite_task, tasks)
    reports = [report for part in parts for report in part]
    write_run(args, ("suite", "n", "c", "precision", "threads"),
              [report.as_dict() for report in reports])
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

    cfg = montecarlo.SimConfig(args.walk, args.n, args.t, args.j, args.N, args.seed)
    result = montecarlo.fixed_point_tv_lower(cfg)
    row = {"walk": args.walk, "n": args.n, "t": cfg.t, "j": args.j, "n_samples": args.N,
           "seed": args.seed, "tv_lower": result.estimate, "std_err": result.std_err,
           "u_exact": result.u_exact}
    write_run(args, ("walk", "n", "t", "j", "N"), [row], seed=args.seed,
              stream_version=montecarlo.STREAM_VERSION)
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
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for sweeps (default: 1 for a sweep below "
                             f"{POOL_MIN_WORK:g} of its work cap, else the usable CPUs; "
                             "SYMWALK_THREADS overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="distance curve of one walk")
    p.add_argument("--walk", required=True, help=PROFILE_WALKS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("sn", "an"), default="sn")
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--t-grid", default="auto", dest="t_grid",
                   help="'auto' or comma-separated expressions in n, nlogn, numbers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="run a verification sweep")
    v.add_argument("--suite", choices=SUITES, required=True)
    v.add_argument("--n", required=True, help="single value or inclusive a..b range")
    v.add_argument("--c", default=None,
                   help="theorem suites only: comma-separated finite c (default: least c, +1, +2)")
    v.set_defaults(func=cmd_verify, format="json")

    s = sub.add_parser("simulate", help="Monte Carlo TV lower bound")
    s.add_argument("--walk", default="ttr", help=walks.syntax(*walks.SYNTAX))
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--t", required=True, help="time expression, e.g. 'nlogn-3n'")
    s.add_argument("--j", type=int, default=4, help="fixed-point threshold")
    s.add_argument("--N", type=int, required=True, help="trajectory count (>= 1000)")
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(func=cmd_simulate, format="csv")
    for command in (p, v, s):  # verify writes JSON and simulate CSV, each to --out
        command.add_argument("--out", default="-", help="output path ('-' for stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not MIN_PRECISION <= args.precision <= MAX_PRECISION:
        parser.error(f"--precision must lie in {MIN_PRECISION}..{MAX_PRECISION} bits")
    try:
        args.threads = requested_threads(os.environ.get("SYMWALK_THREADS"), args.threads)
        args.started = time.perf_counter()  # the one timing of the run, read by write_run
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
