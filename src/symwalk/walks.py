"""The walk model: one parser of walk strings and time expressions for every path.

A walk string names the step measure of a walk on S_n, for an n given later:

    rt | ttr | ri       random transposition, transpose top with random, random insertion
    class:<parts>       uniform on the conjugacy class with cycle lengths <parts>
    lazy:<parts>:<eps>  hold with probability eps, else a class:<parts> step

<parts> lists positive integers, at least one above 1 (fixed points may be
written as 1s or left out); <eps> is a fraction or decimal in (0, 1) such as
1/2, 0.25 or 5e-2; ``str`` of a parsed walk gives its canonical string.

A parsed ``WalkSpec`` is the one walk model of the spectra, the theorems,
the brute-force oracle and the sampler.  A class walk (rt, class, lazy)
is its class at n, ``cycle_type``, and its holding probability, ``hold``.
``blocks`` is the one spectral source of every walk kind on S_n: the
class-walk ``spectra.spectrum``, and the exact ``spectra.ttr_blocks`` and
``spectra.ri_blocks`` for the two walks that are not class walks; each
kind's cap in SPECTRAL_CAPS is checked before anything of size n is
built.  ``profile_blocks`` is the only code that decides what a walk is on
A_n.  This module imports the spectral model only: the oracle and the
sampler import it, never the reverse.

A time expression such as "nlogn-3n" gives a time as a function of n
(``eval_time_expr``): profile grids and the simulate step count use it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from . import spectra
from .characters import CycleType, is_even_class
from .errors import ResourceGuardError
from .partitions import partition_counts
from .spectra import Blocks

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
#: largest n of a class-walk spectrum: p(60) = 966,467 diagrams per build
MAX_SPECTRAL_N = 60
#: most diagrams, summed p(n) over the --n range, that a sweep of class-walk
#: spectra builds: about two builds at MAX_SPECTRAL_N
MAX_SPECTRAL_SWEEP = 2 * 10**6
#: largest n of each walk kind's spectrum.  The ttr build prices every corner
#: of every diagram, and the ri build walks every horizontal strip of every
#: diagram; on one core of a 2-CPU x86-64 machine (Python 3.11) they took
#: 4.1 s at n = 50 (ttr) and 6.5 s at n = 40 (ri), median of 3 builds
SPECTRAL_CAPS = {"rt": MAX_SPECTRAL_N, "class": MAX_SPECTRAL_N, "lazy": MAX_SPECTRAL_N,
                 "ttr": 50, "ri": 40}


def syntax(*kinds: str) -> str:
    """Help text listing the walk strings of ``kinds``; other names as given."""
    return " | ".join(SYNTAX.get(kind, kind) for kind in kinds)


class WalkSpec(NamedTuple):
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

    def hold(self, n: int) -> Fraction:
        """A class walk's holding probability: 1/n (rt), eps (lazy) or 0 (class)."""
        return Fraction(1, n) if self.kind == "rt" else self.eps or Fraction(0)

    def check_n(self, n: int) -> None:
        """Raise ValueError unless the walk steps on S_n: ttr and ri need
        n >= 2, and a class walk's class must fit (``cycle_type``)."""
        if self.kind not in ("ttr", "ri"):
            self.cycle_type(n)
        elif n < 2:
            raise ValueError(f"the {self} walk needs n >= 2, got {n}")

    def blocks(self, n: int) -> Blocks:
        """The nontrivial spectrum of the walk on S_n, its kind's cap in
        SPECTRAL_CAPS checked before anything of size n is built: the class
        walk's ``spectra.spectrum``, or the exact ttr and ri blocks."""
        check_spectral_n(self.kind, n)
        self.check_n(n)
        if self.kind == "ttr":
            return spectra.ttr_blocks(n)
        if self.kind == "ri":
            return spectra.ri_blocks(n)
        return spectra.spectrum(self.cycle_type(n), self.hold(n))

    def profile_blocks(self, n: int, group: str, mode: str) -> tuple[tuple[str, Blocks], ...]:
        """The (group label, blocks) pairs of the walk's profile on ``group``,
        one distance curve each; the only code that decides what a walk is
        on A_n.

        On S_n, the walk's blocks.  A walk whose step is even (a class or
        lazy walk on an even class) lives on A_n, with the folded blocks
        ``spectra.alternating_blocks``.  A pure odd class alternates between
        the cosets of A_n, so in discrete time its A_n profile is the walk
        q*q on A_n (row time t means 2t raw steps), followed by the raw S_n
        blocks.  Any other A_n request raises ValueError before any diagram
        is enumerated.
        """
        if group == "sn":
            return (("sn", self.blocks(n)),)
        if group != "an":
            raise ValueError(f"unknown group {group!r}")
        if self.kind in ("class", "lazy") and is_even_class(self.cycles):
            return (("an", spectra.alternating_blocks(self.blocks(n))),)
        if self.kind == "class" and mode == "discrete":
            blocks = self.blocks(n)
            # q*q is an even walk: the sign diagram's -1 squares to the 1 the fold removes
            squared = spectra.group_blocks((beta * beta, m) for beta, m in blocks)
            return (("an", spectra.alternating_blocks(squared)), ("sn", blocks))
        raise ValueError(f"the {self} walk takes odd steps, and on A_n only a pure class walk "
                         "in discrete time has a profile; use --group sn")


def check_spectral_n(kind: str, n: int) -> None:
    """The cap in SPECTRAL_CAPS on a spectrum of the walk kind ``kind``,
    checked before anything of size n is built."""
    cap = SPECTRAL_CAPS[kind]
    if n > cap:
        what = f"{kind} spectra" if kind in ("ttr", "ri") else "class measures"
        raise ResourceGuardError(f"{what} are capped at n <= {cap}, got n = {n}")


def check_spectral_sweep(ns: range) -> float:
    """The caps on a sweep of class-measure spectra over the non-empty range
    ``ns``: the largest n within MAX_SPECTRAL_N, then the work, counted in
    diagrams as the sum of p(n) over ``ns``, within MAX_SPECTRAL_SWEEP.
    Both are checked before any diagram is enumerated; returns the work
    over the cap."""
    check_spectral_n("class", ns[-1])
    counts = partition_counts(ns[-1])
    work = sum(counts[n] for n in ns)
    if work > MAX_SPECTRAL_SWEEP:
        raise ResourceGuardError(f"spectral sweeps are capped at {MAX_SPECTRAL_SWEEP} diagrams "
                                 f"(the sum of p(n) over --n), got {work}")
    return work / MAX_SPECTRAL_SWEEP


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
