"""The walk model: one parser of walk strings and time expressions for every path.

A walk string names the step measure of a walk on S_n, for an n given later:

    rt | ttr | ri       random transposition, transpose top with random, random insertion
    class:<parts>       uniform on the conjugacy class with cycle lengths <parts>
    lazy:<parts>:<eps>  hold with probability eps, else a class:<parts> step

<parts> lists positive integers, at least one above 1 (fixed points may be
written as 1s or left out); <eps> is a fraction or decimal in (0, 1) such as
1/2, 0.25 or 5e-2; ``str`` of a parsed walk gives its canonical string.
``WalkSpec.class_measure`` is the one builder of a class walk at a given n,
for the spectra, the theorems and the brute-force oracle alike; it caps n at
MAX_SPECTRAL_N before anything of size n is built.  ``WalkSpec.blocks`` is
the one spectral source of every walk kind: the class-measure spectrum for
rt, class and lazy, and the exact ``spectra.ttr_blocks`` and
``spectra.ri_blocks`` for the two walks that are not class walks, which
live on S_n only (ri capped at MAX_RI_N).  This module imports the spectral
model only: the oracle and the sampler import it, never the reverse.

A time expression such as "nlogn-3n" gives a time as a function of n
(``eval_time_expr``): profile grids and the simulate step count use it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import spectra
from .characters import CycleType
from .errors import ResourceGuardError
from .partitions import partition_counts
from .spectra import Blocks, ClassMeasure

#: the syntax of each walk kind, in the order help texts list them
SYNTAX = {"rt": "rt", "ttr": "ttr", "ri": "ri",
          "class": "class:<parts>", "lazy": "lazy:<parts>:<eps>"}
_CYCLE_LENGTH = re.compile(r"[1-9][0-9]*")
# at most three exponent digits: Fraction expands "1e-999999999" to a billion digits
_EPS_TEXT = re.compile(r"[0-9./]+(?:[eE][+-]?[0-9]{1,3})?")
# time expressions: greedy tokens (a character that starts none is its own,
# invalid token), and the token shape they must have, with f a factor: terms
# of factors joined by juxtaposition or one '*', joined by + or -, each term
# after any number of minus signs
_TOKEN_RE = re.compile(r"\d+\.?\d*(?:[eE][+\-]?\d+)?|nlogn|n|[+\-*]|.")
_TIME_SHAPE = re.compile(r"-*f(?:\*?f)*(?:[+\-]-*f(?:\*?f)*)*")
#: largest n of a class measure or a ttr spectrum: p(60) = 966,467 diagrams
#: per spectrum build
MAX_SPECTRAL_N = 60
#: most diagrams, summed p(n) over the --n range, that a sweep of class-measure
#: spectra builds: about two builds at MAX_SPECTRAL_N
MAX_SPECTRAL_SWEEP = 2 * 10**6
#: largest n of an ri spectrum: the build walks every horizontal strip of
#: every diagram, and took 7.6 to 7.8 s at n = 40 and 10.8 s at n = 41 on one core
#: of a 2-CPU x86-64 machine (Python 3.11)
MAX_RI_N = 40


def syntax(*kinds: str) -> str:
    """Help text listing the walk strings of ``kinds``; other names as given."""
    return " | ".join(SYNTAX.get(kind, kind) for kind in kinds)


@dataclass(frozen=True)
class WalkSpec:
    """A parsed walk string: ``cycles`` holds the cycle lengths above 1,
    non-increasing (empty for rt, ttr, ri), ``eps`` a lazy walk's holding
    probability."""

    kind: str  # "rt" | "ttr" | "ri" | "class" | "lazy"
    cycles: CycleType = ()
    eps: Fraction | None = None

    @classmethod
    def parse(cls, text: str, kinds: tuple[str, ...] = tuple(SYNTAX)) -> WalkSpec:
        """Parse a walk string; raises ValueError on any malformed one.

        ``kinds`` lists what the caller accepts, as named in its help text;
        an unknown kind is reported against that list.
        """
        kind, *fields = text.split(":")
        if kind not in SYNTAX or kind not in kinds:
            raise ValueError(f"walk {text!r} is not one of {syntax(*kinds)}")
        if len(fields) != SYNTAX[kind].count(":"):
            raise ValueError(f"walk {text!r} does not have the form {SYNTAX[kind]}")
        if not fields:
            return cls(kind)
        lengths = fields[0].split(",")
        if not all(_CYCLE_LENGTH.fullmatch(x) for x in lengths):
            raise ValueError(f"cycle lengths in walk {text!r} must be positive integers")
        cycles = tuple(sorted((int(x) for x in lengths if x != "1"), reverse=True))
        if not cycles:
            raise ValueError(f"walk {text!r}: the identity class does not drive a walk")
        if kind == "class":
            return cls(kind, cycles)
        try:
            eps = Fraction(fields[1]) if _EPS_TEXT.fullmatch(fields[1]) else None
        except (ValueError, ZeroDivisionError):
            eps = None
        if eps is None or not 0 < eps < 1:
            raise ValueError(f"eps in walk {text!r} must be a number strictly between 0 and 1")
        return cls(kind, cycles, eps)

    def __str__(self) -> str:
        """The canonical walk string, e.g. "class:3,2" or "lazy:3:1/2"."""
        parts = ",".join(map(str, self.cycles))
        forms = {"class": f"class:{parts}", "lazy": f"lazy:{parts}:{self.eps}"}
        return forms.get(self.kind, self.kind)

    def cycle_type(self, n: int) -> CycleType:
        """The step class's cycle type in S_n, fixed points included as 1s;
        rt steps in the class of transpositions."""
        cycles = (2,) if self.kind == "rt" else self.cycles
        fixed = n - sum(cycles)
        if fixed < 0:
            raise ValueError(f"class {cycles} does not fit in S_{n}")
        return cycles + (1,) * fixed

    def class_measure(self, n: int) -> ClassMeasure | None:
        """The step measure as a class measure holding 1/n (rt), eps (lazy) or
        0 (class); None for ttr and ri, which are not class measures."""
        if self.kind in ("ttr", "ri"):
            return None
        check_spectral_n(n)
        cycles = self.cycle_type(n)
        hold = Fraction(1, n) if self.kind == "rt" else self.eps or Fraction(0)
        return ClassMeasure(n, cycles, hold)

    def blocks(self, n: int, group: str = "sn") -> Blocks:
        """The nontrivial spectrum of the walk on S_n or A_n at n, each cap
        checked before any diagram is enumerated: ``spectra.spectrum`` of the
        class measure, or the ttr and ri blocks, which exist on S_n only since
        those walks step by both parities."""
        if self.kind not in ("ttr", "ri"):
            return spectra.spectrum(self.class_measure(n), group)
        if group != "sn":
            raise ValueError(f"the {self} walk steps by both parities and lives on S_n only")
        if n < 2:
            raise ValueError(f"the {self} walk needs n >= 2, got {n}")
        if self.kind == "ttr":
            check_spectral_n(n, "ttr spectra")
            return spectra.ttr_blocks(n)
        check_spectral_n(n, "ri spectra", MAX_RI_N)
        return spectra.ri_blocks(n)


def check_spectral_n(n: int, what: str = "class measures", cap: int = MAX_SPECTRAL_N) -> None:
    """The cap on a spectrum, checked before anything of size n is built."""
    if n > cap:
        raise ResourceGuardError(f"{what} are capped at n <= {cap}, got n = {n}")


def check_spectral_sweep(ns: range) -> None:
    """The caps on a sweep of class-measure spectra over the non-empty range
    ``ns``: the largest n within MAX_SPECTRAL_N, then the work, counted in
    diagrams as the sum of p(n) over ``ns``, within MAX_SPECTRAL_SWEEP.
    Both are checked before any diagram is enumerated."""
    check_spectral_n(ns[-1])
    counts = partition_counts(ns[-1])
    work = sum(counts[n] for n in ns)
    if work > MAX_SPECTRAL_SWEEP:
        raise ResourceGuardError(f"spectral sweeps are capped at {MAX_SPECTRAL_SWEEP} diagrams "
                                 f"(the sum of p(n) over --n), got {work}")


def eval_time_expr(expr: str, n: int) -> float:
    """Evaluate a time expression: signed terms, each a product of the
    factors nlogn, n and numbers.

    Numbers may carry an exponent ("1e3", "2.5E-1").  Juxtaposition
    multiplies, so "nlogn-3n" and "0.5*nlogn+2" both work; a '*' stands
    between two factors, so "2*-3", "3**2" and "5*" are rejected.
    """
    text = expr.replace("−", "-").replace("·", "*").replace(" ", "")
    tokens = _TOKEN_RE.findall(text)
    shape = "".join(t if t in "+-*" else "f" if t[0] in "0123456789n" else "?" for t in tokens)
    if not _TIME_SHAPE.fullmatch(shape):
        raise ValueError(f"cannot parse time expression {expr!r}")
    total, sign, product, previous = 0.0, 1.0, 1.0, "+"
    for tok in tokens + ["+"]:  # the closing "+" ends the last term
        if tok in "+-" and previous not in "+-":
            total += sign * product
            sign, product = 1.0, 1.0
        if tok == "-":
            sign = -sign
        elif tok == "nlogn":
            product *= n * math.log(n)
        elif tok not in "+*":
            product *= float(n if tok == "n" else tok)
        previous = tok
    if not math.isfinite(total):
        raise ValueError(f"time expression {expr!r} is not finite")
    return total
