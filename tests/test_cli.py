import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import symwalk
from symwalk import bounds, cli, montecarlo, spectra, walks
from symwalk.montecarlo import MAX_SIMULATE_N

GOLDEN_RT5_ROWS = [
    "rt,sn,5,0,10.9087121146,2.07554696139",
    "rt,sn,5,1,3.38821486922,1.05994188806",
    "rt,sn,5,2,1.64510425202,0.432386849728",
    "rt,sn,5,6,0.192675821621,-1.43034556078",
]

GOLDEN_LAZY_AN_ROWS = [
    "lazy:3:1/2,an,5,0,7.68114574787,1.77085201164",
    "lazy:3:1/2,an,5,2,2.87646771108,0.917719006694",
]


def run(argv):
    return cli.main(argv)


def read_lines(path):
    return path.read_text().strip().split("\n")


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def read_json(text):
    """Parse strictly: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_not_json)


def test_eval_time_expr():
    n = 200
    assert walks.eval_time_expr("nlogn-3n", n) == pytest.approx(n * math.log(n) - 3 * n)
    assert walks.eval_time_expr("0.5*nlogn+2n", n) == pytest.approx(0.5 * n * math.log(n) + 400)
    assert walks.eval_time_expr("12", n) == 12
    assert walks.eval_time_expr("n", n) == 200
    assert walks.eval_time_expr("2n", 7) == 14
    assert walks.eval_time_expr("-n+nlogn", 10) == pytest.approx(10 * math.log(10) - 10)
    with pytest.raises(ValueError):
        walks.eval_time_expr("n^2", 5)
    with pytest.raises(ValueError):
        walks.eval_time_expr("", 5)
    # a '*' that is not followed by a factor is rejected, not skipped
    for bad in ("2*-3", "n*-1+20", "3**2", "5*"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            walks.eval_time_expr(bad, 5)


def test_eval_time_expr_exponent_literals():
    assert walks.eval_time_expr("1e3", 5) == 1000
    assert walks.eval_time_expr("2.5E-1n", 8) == 2
    assert walks.eval_time_expr("1e+2-n", 10) == 90
    for bad in ("1e", "1e400", "1e400-1e400"):
        with pytest.raises(ValueError):
            walks.eval_time_expr(bad, 5)


def test_parse_range():
    assert list(cli.parse_range("15..18")) == [15, 16, 17, 18]
    assert list(cli.parse_range("7")) == [7]
    assert len(cli.parse_range("1..1000000000")) == 10**9  # a range, not a list
    with pytest.raises(ValueError):
        cli.parse_range("9..5")
    with pytest.raises(ValueError, match="an inclusive a..b range, got '1..2..3'"):
        cli.parse_range("1..2..3")


def test_fmt_real():
    assert cli.fmt_real(0) == "0.0"
    assert cli.fmt_real(26.8141750871234) == "26.8141750871"
    assert "e-5" in cli.fmt_real(2.68e-5)
    assert "e" not in cli.fmt_real(0.000123)


def nstr_reference(x, sig: int = 12) -> str | None:
    """What fmt_real wrote through mpmath for every float or mpf input:
    ``mpmath.nstr`` at 53 bits in scientific layout below 1e-4 and from 1e16
    up, fixed layout between, and no value past 15 exponent digits."""
    x = mp.mpf(x)
    if x == 0:
        return "0.0"
    if mp.isnan(x):
        return "nan"
    if abs(x) < mp.mpf("1e-4") or abs(x) >= mp.mpf("1e16"):
        text = mpmath.nstr(x, sig, min_fixed=1, max_fixed=0)
        return text if len(text.partition("e")[2].lstrip("+-")) <= 15 else None
    return mpmath.nstr(x, sig, min_fixed=-(10**6), max_fixed=10**6)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@settings(max_examples=1000)
def test_fmt_real_writes_floats_as_mpmath_does(x):
    assert cli.fmt_real(x) == nstr_reference(x)


def decimal_ties() -> list[float]:
    """Dyadic m * 2^k whose exact decimal has 13 significant digits, the last
    a 5: halfway between two 12-digit numbers, in both layouts."""
    ties = [float(T * 10**k) for T in (10**12 + 5, 5555555555555, 9999999999995)
            for k in range(5)]  # m = T * 5^k < 2^53, up to about 1e17
    for k in range(1, 19):  # m * 2^-k = m * 5^k / 10^k, from about 1e12 down to 4e-6
        lo, hi = -(-10**12 // 5**k) | 1, (10**13 - 1) // 5**k
        ties += [math.ldexp(m, -k) for m in range(lo, hi + 1, 2)[:: max(1, (hi - lo) // 20)]]
    return ties


def test_fmt_real_layout_edges_and_ties_match_mpmath():
    cases = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, sys.float_info.max,
             sys.float_info.min, 9999999999999.5, 0.99999999999951]
    for edge in (1e-4, 1e16):  # where the layout switches, and the floats either side
        below = above = edge
        for _ in range(4):
            below, above = math.nextafter(below, 0), math.nextafter(above, math.inf)
            cases += [below, above]
        cases.append(edge)
    ties = decimal_ties()
    for x in ties:
        digits = Decimal(x).normalize().as_tuple().digits
        assert len(digits) == 13 and digits[-1] == 5, x
    assert min(ties) < 1e-4 and max(ties) >= 1e16
    cases += ties
    for x in cases + [-x for x in cases]:
        assert cli.fmt_real(x) == nstr_reference(x), x


def test_fmt_real_writes_dyadics_as_mpmath_does():
    # a profile's d2 is written from its exact binary value with no mpmath:
    # the text must be nstr's of the same value converted to an mpf
    import random

    from symwalk.distances import Dyadic

    rng = random.Random(7)
    cases = [(rng.getrandbits(rng.randint(1, 300)) | 1, rng.randint(-lo, lo))
             for lo in (1100, 20000, 10**7, 10**30) for _ in range(150)]
    for x in decimal_ties():  # 12-digit half-way values, all within the float range
        num, den = x.as_integer_ratio()
        cases.append((num, 1 - den.bit_length()))
    # the 13-digit ties T * 10^k out of the float range, near ties once rounded to 53 bits
    cases += [(T * 5**k, k) for T in (10**12 + 5, 9999999999995) for k in (330, 1000, 1050)]
    # decimal exponents of 15 and 16 digits: 2^e is about 10^(10^15) at e = 3.3219e15
    edge = int(10**15 / math.log10(2))
    cases += [(rng.getrandbits(60) | 1, sign * edge + shift)
              for sign in (1, -1) for shift in range(-300, 300, 7)]
    for man, exp in cases:
        assert cli.fmt_real(Dyadic(man, exp)) == nstr_reference(mp.mpf((man, exp))), (man, exp)
    assert cli.fmt_real(Dyadic(0)) == "0.0"


def test_profile_golden_csv(tmp_path):
    out = tmp_path / "rt5.csv"
    assert run(["profile", "--walk", "rt", "--n", "5", "--mode", "discrete",
                "--t-grid", "0,1,2,6", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0].startswith("# manifest: ")
    manifest = read_json(lines[0].split("# manifest: ", 1)[1])
    assert manifest["command"] == "profile" and manifest["version"]
    assert manifest["params"]["walk"] == "rt"
    assert lines[1] == "walk,group,n,t,d2,log10_d2_sq"
    assert lines[2:] == GOLDEN_RT5_ROWS
    # t = 0 row is sqrt(n! - 1)
    d2_at_zero = float(lines[2].split(",")[4])
    assert d2_at_zero == pytest.approx(math.sqrt(119), rel=1e-11)


def test_profile_golden_an_lazy(tmp_path):
    out = tmp_path / "lazy.csv"
    assert run(["profile", "--walk", "lazy:3:1/2", "--n", "5", "--group", "an",
                "--mode", "continuous", "--t-grid", "0,2", "--out", str(out)]) == 0
    assert read_lines(out)[2:] == GOLDEN_LAZY_AN_ROWS


def test_profile_json_format(tmp_path):
    out = tmp_path / "rt5.json"
    assert run(["profile", "--walk", "rt", "--n", "5", "--mode", "discrete",
                "--t-grid", "0,1", "--format", "json", "--out", str(out)]) == 0
    payload = read_json(out.read_text())
    assert set(payload) == {"manifest", "results"}
    assert payload["results"][0]["walk"] == "rt"
    assert payload["results"][0]["t"] == 0 and payload["results"][0]["n"] == 5
    assert float(payload["results"][0]["d2"]) == pytest.approx(math.sqrt(119), rel=1e-11)
    assert payload["results"][1]["log10_d2_sq"] == pytest.approx(1.05994188806, rel=1e-9)
    # a time from 1e16 up is written as d2 is, never as a 301-digit integer
    argv = ["profile", "--walk", "rt", "--n", "5", "--mode", "continuous", "--t-grid", "1e300,3"]
    assert run(argv + ["--format", "json", "--out", str(out)]) == 0
    results = read_json(out.read_text())["results"]
    assert [r["t"] for r in results] == [1e300, 3] and type(results[0]["t"]) is float
    csv = tmp_path / "huge.csv"
    assert run(argv + ["--out", str(csv)]) == 0
    assert [line.split(",")[3] for line in read_lines(csv)[2:]] == ["1.0e+300", "3"]


@pytest.mark.parametrize("argv", [
    ["--walk", "rt", "--n", "2", "--t-grid", "0,1"],
    ["--walk", "ttr-bound", "--n", "1"],
    ["--walk", "class:2", "--n", "2", "--group", "an", "--mode", "discrete"],
])
def test_profile_json_is_strict_where_d2_is_zero(argv, tmp_path):
    # log10 d2^2 is -inf at d2 = 0: null in JSON, -inf in CSV
    out, csv = tmp_path / "p.json", tmp_path / "p.csv"
    assert run(["profile", *argv, "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    results = read_json(out.read_text())["results"]
    assert any(r["d2"] == "0.0" for r in results)
    for r in results:
        assert (r["log10_d2_sq"] is None) == (r["d2"] == "0.0"), r
    assert run(["profile", *argv, "--out", str(csv)]) == cli.EXIT_OK
    rows = [line.split(",") for line in read_lines(csv)[2:]]
    assert [row[5] == "-inf" for row in rows] == [r["d2"] == "0.0" for r in results]


def test_profile_d2_exponent_is_bounded(tmp_path):
    # d2 at t = 1e300 and 1e20 has a decimal exponent of over 15 digits: no
    # value, while log10_d2_sq (about -3.47e299 at t = 1e300) is still written
    argv = ["profile", "--walk", "rt", "--n", "5", "--mode", "continuous",
            "--t-grid", "1e300,1e20,1e6,3"]
    csv, out = tmp_path / "p.csv", tmp_path / "p.json"
    assert run(argv + ["--out", str(csv)]) == cli.EXIT_OK
    rows = [line.split(",") for line in read_lines(csv)[2:]]
    assert all(len(field) <= 32 for row in rows for field in row)
    assert [row[4] for row in rows[:2]] == ["", ""]
    assert rows[2][4].endswith("e-173718")  # t = 1e6: d2 is still written
    assert all(math.isfinite(float(row[5])) for row in rows)
    assert run(argv + ["--format", "json", "--out", str(out)]) == cli.EXIT_OK
    results = read_json(out.read_text())["results"]
    assert [r["d2"] is None for r in results] == [True, True, False, False]
    assert all(math.isfinite(r["log10_d2_sq"]) for r in results)


@pytest.mark.parametrize("argv", [
    ["--walk", "rt", "--n", "6", "--t-grid", "0,1,5,40"],
    ["--walk", "class:3", "--n", "7", "--group", "an", "--mode", "continuous",
     "--t-grid", "0,0.5,2.25,1e6"],
    ["--walk", "ttr-bound", "--n", "12"],  # the auto grid
])
def test_profile_csv_and_json_carry_the_same_rows(argv, tmp_path):
    csv, out = tmp_path / "p.csv", tmp_path / "p.json"
    assert run(["profile", *argv, "--out", str(csv)]) == cli.EXIT_OK
    assert run(["profile", *argv, "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    lines = read_lines(csv)
    header, rows = lines[1].split(","), [line.split(",") for line in lines[2:]]
    results = read_json(out.read_text())["results"]
    assert len(rows) == len(results) > 1
    for row, result in zip(rows, results):
        cells = dict(zip(header, row))
        assert set(cells) == set(result)
        assert [cells[k] for k in ("walk", "group", "d2")] == [result[k] for k in ("walk", "group", "d2")]
        assert int(cells["n"]) == result["n"] and float(cells["t"]) == result["t"]
        assert float(cells["log10_d2_sq"]) == pytest.approx(result["log10_d2_sq"], rel=1e-11)


def test_profile_rerun_payload_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["profile", "--walk", "class:3", "--n", "6", "--mode", "discrete",
            "--t-grid", "0,3,9"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert read_lines(a)[1:] == read_lines(b)[1:]  # manifest differs in wall time only


def test_profile_auto_grid(tmp_path):
    out = tmp_path / "auto.csv"
    assert run(["profile", "--walk", "ttr-bound", "--n", "30", "--mode", "discrete",
                "--out", str(out)]) == 0
    lines = read_lines(out)
    assert len(lines) > 10
    # the curve crosses below sqrt(2) by the end of the auto grid
    last_d2 = float(lines[-1].split(",")[4])
    assert last_d2 < math.sqrt(2)


def test_profile_continuous_auto_crosses_threshold(tmp_path):
    # the rt curve is at or below 1 from t = (n/2)(log n + 2) onwards
    out = tmp_path / "rt20.csv"
    n = 20
    assert run(["profile", "--walk", "rt", "--n", str(n), "--mode", "continuous",
                "--t-grid", "auto", "--out", str(out)]) == 0
    threshold = (n / 2) * (math.log(n) + 2)
    seen_past_threshold = False
    for line in read_lines(out)[2:]:
        fields = line.split(",")
        t, d2 = float(fields[3]), float(fields[4])
        if t >= threshold:
            seen_past_threshold = True
            assert d2 <= 1.0
    assert seen_past_threshold


def test_verify_rt_discrete_suite(tmp_path):
    out = tmp_path / "rt.json"
    assert run(["verify", "--suite", "rt-discrete", "--n", "15..16", "--c", "0",
                "--out", str(out)]) == 0
    payload = read_json(out.read_text())
    assert [r["n"] for r in payload["results"]] == [15, 16]
    for r in payload["results"]:
        assert r["pass"] and r["computed"] <= r["guaranteed"] == 2.0


def test_profile_invalid_args(tmp_path):
    assert run(["profile", "--walk", "bogus", "--n", "5"]) == cli.EXIT_BAD_ARGS
    assert run(["profile", "--walk", "class:9", "--n", "5"]) == cli.EXIT_BAD_ARGS


def test_verify_ttr_suite(tmp_path):
    out = tmp_path / "ttr.json"
    assert run(["verify", "--suite", "ttr", "--n", "5..10", "--c", "0,1",
                "--out", str(out)]) == 0
    payload = read_json(out.read_text())
    assert len(payload["results"]) == 12
    assert all(r["pass"] for r in payload["results"])
    assert payload["results"][0]["name"] == "ttr"


def test_verify_exit_code_on_failure(tmp_path):
    # the phi_1 lemma bound is genuinely violated at n = 15, which makes a
    # stable fixture for the non-zero exit contract
    out = tmp_path / "lem.json"
    assert run(["verify", "--suite", "lemmas", "--n", "15",
                "--out", str(out)]) == cli.EXIT_VERIFY_FAILED
    payload = read_json(out.read_text())
    failed = [r for r in payload["results"] if not r["pass"]]
    assert [r["name"] for r in failed] == ["lemma:phi1"]


def test_verify_oracle_suite(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["verify", "--suite", "oracle", "--n", "4", "--out", str(out)]) == 0
    payload = read_json(out.read_text())
    names = {r["name"] for r in payload["results"]}
    from symwalk.group_oracle import ORACLE_WALKS

    assert names == {f"oracle:{w}" for w in ORACLE_WALKS}
    assert all(r["pass"] for r in payload["results"])


def test_verify_oracle_small_n_runs_the_walks_that_fit(tmp_path):
    # class:4 does not fit in S_3; the other walks still run
    out = tmp_path / "oracle3.json"
    assert run(["verify", "--suite", "oracle", "--n", "3", "--out", str(out)]) == cli.EXIT_OK
    names = [r["name"] for r in read_json(out.read_text())["results"]]
    assert names == ["oracle:rt", "oracle:ttr", "oracle:ri", "oracle:class:3",
                     "oracle:lazy:3:1/2"]


def test_verify_oracle_ttr_ri_compare_exact_blocks(tmp_path, monkeypatch):
    # the ttr and ri rows compare the definitional distance with the exact
    # blocks of spectra.ttr_blocks and spectra.ri_blocks, so wrong ones fail
    for name in ("ttr_blocks", "ri_blocks"):
        exact = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda n, exact=exact: tuple(
            (beta * Fraction(999999, 1000000), m) for beta, m in exact(n)))
    out = tmp_path / "oracle.json"
    argv = ["verify", "--suite", "oracle", "--n", "4", "--out", str(out)]
    assert run(argv) == cli.EXIT_VERIFY_FAILED
    failed = {r["name"] for r in read_json(out.read_text())["results"] if not r["pass"]}
    assert failed == {"oracle:ttr", "oracle:ri"}


def test_verify_oracle_ttr_ri_check_continuous_time(tmp_path, monkeypatch):
    # negated eigenvalues leave every discrete reference sum of beta^(2t)
    # unchanged, so only the continuous-time comparison can catch them
    for name in ("ttr_blocks", "ri_blocks"):
        exact = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda n, exact=exact: tuple(
            (-beta, m) for beta, m in exact(n)))
    out = tmp_path / "oracle.json"
    argv = ["verify", "--suite", "oracle", "--n", "4", "--out", str(out)]
    assert run(argv) == cli.EXIT_VERIFY_FAILED
    failed = {r["name"] for r in read_json(out.read_text())["results"] if not r["pass"]}
    assert failed == {"oracle:ttr", "oracle:ri"}


def test_verify_oracle_solves_no_dense_eigenproblem(tmp_path, monkeypatch):
    # every oracle row, ttr and ri included, checks exact blocks against the
    # orbit powers: none of the tests' references is reached, and no numpy
    # is loaded (test_each_command_loads_only_its_layers[verify-oracle])
    from symwalk import group_oracle

    def no_reference(*args, **kwargs):
        raise AssertionError("a test reference reached by the oracle suite")

    for reference in ("convolve", "certify_blocks", "form_dominates"):
        monkeypatch.setattr(group_oracle, reference, no_reference)
    out = tmp_path / "oracle.json"
    argv = ["--threads", "1", "verify", "--suite", "oracle", "--n", "2..6", "--out", str(out)]
    assert run(argv) == cli.EXIT_OK
    results = read_json(out.read_text())["results"]
    assert len(results) == 3 + 5 + 3 * 6 and all(r["pass"] for r in results)


VERDICT_KEYS = {"name", "n", "c", "guaranteed", "computed", "pass"}


@pytest.mark.parametrize(
    "suite, n, detail",
    [("rt-continuous", "10", "threshold_time"), ("lemmas", "10", None),
     ("oracle", "4", "tv_inequality")],
)
def test_verify_row_shape(suite, n, detail, tmp_path):
    # every suite writes BoundReport rows; only theorem rows carry t
    out = tmp_path / "rows.json"
    assert run(["verify", "--suite", suite, "--n", n, "--out", str(out)]) == cli.EXIT_OK
    rows = read_json(out.read_text())["results"]
    assert rows
    for row in rows:
        if detail == "threshold_time":
            assert set(row) == VERDICT_KEYS | {"t", "details"}
            assert row["details"] == {"threshold_time": row["t"]}
        elif detail == "tv_inequality":
            assert set(row) == VERDICT_KEYS | {"details"} and row["c"] is None
            assert row["details"]["tv_inequality"] is True  # a JSON bool, not 1.0
        else:
            assert set(row) == VERDICT_KEYS and row["c"] is None


@pytest.mark.parametrize("suite, n, cs", [("ttr", "5", [0.0, 1.0, 2.0]),
                                          ("rt-continuous", "10", [2.0, 3.0, 4.0])])
def test_verify_default_c_starts_at_least_c(suite, n, cs, tmp_path):
    out = tmp_path / "c.json"
    assert run(["verify", "--suite", suite, "--n", n, "--out", str(out)]) == cli.EXIT_OK
    assert [r["c"] for r in read_json(out.read_text())["results"]] == cs
    assert f'"c": {cs[0]!r}' in out.read_text()  # written as a float


def test_verify_ttr_n1_threshold_time_zero(tmp_path):
    # t = ceil(1 * (log 1 + 0)) = 0 is a threshold time, not a missing one
    out = tmp_path / "ttr1.json"
    assert run(["verify", "--suite", "ttr", "--n", "1", "--out", str(out)]) == cli.EXIT_OK
    first = read_json(out.read_text())["results"][0]
    assert first["t"] == first["details"]["threshold_time"] == 0.0
    assert first["pass"] is True


@pytest.mark.parametrize(
    "suite, n, c",
    [("rt-continuous", "10", "nan"), ("ttr", "5", "inf"), ("rt-discrete", "15", "1e400"),
     ("rt-continuous", "10", "inf"), ("lemmas", "5", None), ("lemmas", "5..12", None),
     ("lemmas", "14", "7"), ("oracle", "3", "nan"), ("rt-discrete", "15", ""),
     ("lemmas", "14", ""), ("rt-discrete", "15..16..17", None)],
)
def test_verify_rejects_bad_c_and_small_lemma_n(suite, n, c, tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["verify", "--suite", suite, "--n", n, "--out", str(out)]
    assert run(argv + (["--c", c] if c is not None else [])) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err.startswith("symwalk: invalid arguments:") and err.count("\n") == 1, err
    assert not out.exists()


def test_verify_resource_guard(tmp_path):
    assert run(["verify", "--suite", "oracle", "--n", "8",
                "--out", str(tmp_path / "x.json")]) == cli.EXIT_RESOURCE


def test_oracle_size_guard_runs_before_any_convolution(tmp_path, monkeypatch, capsys):
    # n = 7 is within the step-law cap, so only the suite's own guard,
    # checked before any walk, keeps the rt convolutions from running
    from symwalk import group_oracle

    def no_convolutions(law, orbits, t_max):
        raise AssertionError("convolution made before the oracle size guard")

    monkeypatch.setattr(group_oracle, "orbit_powers", no_convolutions)
    out = tmp_path / "x.json"
    assert run(["verify", "--suite", "oracle", "--n", "7", "--out", str(out)]) == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == "symwalk: resource guard: oracle verification is capped at n <= 6, got n = 7\n"
    assert not out.exists()


def test_oracle_rejects_n_below_two_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["verify", "--suite", "oracle", "--n", "1", "--out", str(out)]) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err == "symwalk: invalid arguments: --n must be at least 2 for the oracle suite, got 1\n"
    assert not out.exists()


def test_internal_error_exit_code(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_profile", crash)
    assert run(["profile", "--walk", "rt", "--n", "5"]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "symwalk: internal error: RuntimeError: boom\n"


def test_verify_threads_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMWALK_THREADS", "1")
    out = tmp_path / "ttr.json"
    assert run(["--threads", "4", "verify", "--suite", "ttr", "--n", "5..6",
                "--out", str(out)]) == 0
    payload = read_json(out.read_text())
    assert payload["manifest"]["params"]["threads"] == 1


def test_verify_process_pool_gives_the_serial_rows(tmp_path, monkeypatch):
    # the rows, Dyadic and Fraction values in BoundReport tuples, cross the
    # process boundary by pickle
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.delenv("SYMWALK_THREADS", raising=False)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    # --threads 1 and 2, then no --threads: 14..17 is 1e-4 of the lemma
    # sweep cap, below POOL_MIN_WORK, so it runs in this process, and with
    # the crossover at 0 on every usable CPU; the manifest says which
    results, threads = [], []
    for flags, least in ((["--threads", "1"], 1), (["--threads", "2"], 1), ([], 1), ([], 0)):
        monkeypatch.setattr(cli, "POOL_MIN_WORK", least)
        out = tmp_path / "lemmas.json"
        status = run(flags + ["verify", "--suite", "lemmas", "--n", "14..17", "--out", str(out)])
        assert status == cli.EXIT_VERIFY_FAILED  # phi1 fails from n = 15 on, by design
        payload = read_json(out.read_text())
        results.append(payload["results"])
        threads.append(payload["manifest"]["params"]["threads"])
    assert pools == [2, 2] and threads == [1, 2, 1, 2]
    assert all(rows == results[0] for rows in results) and len(results[0]) == 4 * 6


def test_thread_settings_rejected(tmp_path, monkeypatch):
    argv = ["verify", "--suite", "ttr", "--n", "5", "--out", str(tmp_path / "x.json")]
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("SYMWALK_THREADS", bad)
        assert run(argv) == cli.EXIT_BAD_ARGS, bad
    monkeypatch.delenv("SYMWALK_THREADS")
    assert run(["--threads", "0"] + argv) == cli.EXIT_BAD_ARGS
    assert run(["--threads", "-3"] + argv) == cli.EXIT_BAD_ARGS
    assert not (tmp_path / "x.json").exists()


def test_requested_threads():
    assert cli.requested_threads(None, 3) == 3
    assert cli.requested_threads(None, None) is None  # the sweep's work decides
    assert cli.requested_threads("2", None) == 2
    assert cli.requested_threads("", 3) == 3
    assert cli.requested_threads("2", 8) == 2
    for env, flag in (("x", 1), ("0", 4), (None, 0), (None, -1)):
        with pytest.raises(ValueError):
            cli.requested_threads(env, flag)


def test_worker_count_clamp():
    assert cli.worker_count(64, 8, 2) == 2
    assert cli.worker_count(64, 3, 16) == 3
    assert cli.worker_count(4, 10, 16) == 4
    assert cli.worker_count(10**6, 1, 10**6) == 1


def test_discrete_grid_rejects_fractional_times(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["profile", "--walk", "rt", "--n", "5", "--mode", "discrete",
                "--t-grid", "1.5,2.9", "--out", str(out)]) == cli.EXIT_BAD_ARGS
    assert run(["profile", "--walk", "ttr-bound", "--n", "5", "--mode", "discrete",
                "--t-grid", "nlogn", "--out", str(out)]) == cli.EXIT_BAD_ARGS
    assert not out.exists()
    # integral values written as decimals or exponents are fine
    assert run(["profile", "--walk", "rt", "--n", "5", "--mode", "discrete",
                "--t-grid", "2.0,1e1", "--out", str(out)]) == cli.EXIT_OK
    assert [line.split(",")[3] for line in read_lines(out)[2:]] == ["2", "10"]


def test_bad_time_grid_is_rejected_before_the_spectrum(tmp_path, monkeypatch, capsys):
    def no_build(cycles, hold):
        raise AssertionError("spectrum built for a bad time grid")

    monkeypatch.setattr(spectra, "spectrum", no_build)
    out = tmp_path / "x.csv"
    assert run(["profile", "--walk", "rt", "--n", "30", "--mode", "discrete",
                "--t-grid", "1.5", "--out", str(out)]) == cli.EXIT_BAD_ARGS
    assert "discrete time 1.5 " in capsys.readouterr().err
    assert run(["profile", "--walk", "class:3", "--n", "9", "--group", "an",
                "--mode", "continuous", "--t-grid", "2,-n", "--out", str(out)]) == cli.EXIT_BAD_ARGS
    assert "continuous time -9.0 " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_is_bad_args(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert run(["profile", "--walk", "rt", "--n", "4", "--t-grid", "1",
                "--out", str(missing)]) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, absent",
    [(None, ("mpmath", "numpy", "dataclasses")),
     (["profile", "--walk", "lazy:3:1/2", "--n", "5", "--group", "an", "--t-grid", "0,1"],
      ("mpmath", "numpy", "dataclasses", "symwalk.bounds", "symwalk.group_oracle",
       "symwalk.montecarlo")),
     (["profile", "--walk", "ttr-bound", "--n", "6", "--mode", "continuous",
       "--t-grid", "0,1,1e300"],
      ("mpmath", "numpy", "dataclasses", "symwalk.bounds", "symwalk.group_oracle",
       "symwalk.montecarlo")),
     (["verify", "--suite", "rt-discrete", "--n", "15"],
      ("mpmath", "numpy", "dataclasses", "symwalk.group_oracle", "symwalk.montecarlo")),
     (["verify", "--suite", "lemmas", "--n", "14"],
      ("mpmath", "numpy", "dataclasses", "symwalk.group_oracle", "symwalk.montecarlo")),
     (["verify", "--suite", "ttr", "--n", "10"],
      ("mpmath", "numpy", "dataclasses", "symwalk.group_oracle", "symwalk.montecarlo")),
     (["verify", "--suite", "oracle", "--n", "4"],
      ("mpmath", "numpy", "dataclasses", "symwalk.montecarlo")),
     (["simulate", "--walk", "class:3", "--n", "6", "--t", "2", "--N", "1000", "--seed", "1"],
      ("mpmath", "dataclasses", "symwalk.bounds", "symwalk.distances", "symwalk.group_oracle",
       "numpy.random", "secrets", "hashlib", "_hashlib"))],
    ids=["import", "profile", "profile-ttr-bound", "verify-rt-discrete", "verify-lemmas",
         "verify-ttr", "verify-oracle", "simulate"],
)
def test_each_command_loads_only_its_layers(argv, absent, tmp_path):
    # the import loads no reals, no arrays and no dataclasses; a profile (which
    # parses its walk string), the ttr bound sum included, sums in integers and
    # never loads mpmath, the bounds, numpy, the oracle or the sampler; a
    # theorem or lemma sweep runs the bounds in integers too, with neither
    # mpmath nor numpy; the oracle suite convolves in integers, with neither; a
    # simulation needs numpy and the exact u(A_j), never mpmath, the distance
    # and bound layers or numpy.random (whose seeding loads hashlib and
    # OpenSSL); no command loads dataclasses
    src = str(Path(symwalk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, symwalk.cli; "
    if argv is not None:
        code += f"assert symwalk.cli.main({argv + ['--out', str(tmp_path / 'x.csv')]!r}) == 0; "
    code += f"print(sorted(m for m in {absent!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_suites_are_the_theorems_then_lemmas_and_oracle():
    # a literal in the CLI, so that parsing the flags loads no bound
    assert cli.SUITES == (*bounds.THEOREMS, "lemmas", "oracle")


def test_spectral_layers_load_neither_mpmath_nor_numpy():
    # exact combinatorics needs no reals: the spectra, the ttr and ri block
    # sources and the walk parser stand below the distance layer and never
    # import the oracle
    src = str(Path(symwalk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, symwalk.spectra, symwalk.walks; "
        "from symwalk.spectra import ri_blocks, ttr_blocks; "
        "from symwalk.walks import WalkSpec; "
        "assert ttr_blocks(5) == WalkSpec('ttr').blocks(5); "
        "assert ri_blocks(5) == WalkSpec('ri').blocks(5); "
        "print(sorted(m for m in ('mpmath', 'numpy', 'symwalk.group_oracle') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["profile", "simulate"])
@pytest.mark.parametrize(
    "walk",
    ["class:3:junk", "lazy:3:1/2:junk", "lazy:3", "lazy:3:1/0", "lazy:3:1e400", "class:",
     "class:3,,2", "class:0,3"],
)
def test_malformed_walk_is_bad_args(command, walk, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = [command, "--walk", walk, "--n", "6", "--out", str(out)]
    if command == "profile":
        argv += ["--t-grid", "0,1"]
    else:
        argv += ["--t", "3", "--N", "1000", "--seed", "1"]
    assert run(argv) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err.startswith("symwalk: invalid arguments:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--walk", "ttr", "--n", "15", "--t", "n+5", "--j", "3",
            "--N", "2000", "--seed", "11"]
    assert run(argv + ["--out", str(out_a)]) == 0
    assert run(argv + ["--out", str(out_b)]) == 0
    lines = read_lines(out_a)
    assert lines[1] == "walk,n,t,j,n_samples,seed,tv_lower,std_err,u_exact"
    assert lines[2].startswith("ttr,15,20,3,2000,11,")
    assert lines[2] == read_lines(out_b)[2]  # same seed, same payload
    fields = lines[2].split(",")
    assert float(fields[8]) == pytest.approx(0.0803013970761, rel=1e-9)


def test_simulate_minimum_samples(tmp_path, capsys):
    assert run(["simulate", "--walk", "ttr", "--n", "10", "--t", "5", "--j", "2",
                "--N", "500", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == cli.EXIT_BAD_ARGS
    # the library's check is the only one
    assert capsys.readouterr().err == (
        "symwalk: invalid arguments: --N must be at least 1000 for the std-error column, got 500\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [(["profile", "--walk", "rt", "--n", "0"], "--n"),
     (["simulate", "--walk", "rt", "--n", "10", "--t", "5", "--N", "1000", "--seed", "-1"],
      "--seed"),
     (["simulate", "--walk", "rt", "--n", "0", "--t", "5", "--N", "1000", "--seed", "1"], "--n"),
     (["simulate", "--walk", "rt", "--n", "10", "--t", "-5", "--N", "1000", "--seed", "1"],
      "--t"),
     (["simulate", "--walk", "rt", "--n", "0", "--t", "nlogn", "--N", "1000", "--seed", "1"],
      "--n"),
     (["simulate", "--walk", "rt", "--n", "5", "--t", "3", "--j", "9", "--N", "1000",
       "--seed", "1"], "--j"),
     (["verify", "--suite", "rt-discrete", "--n", "15..x"], "--n"),
     (["verify", "--suite", "rt-discrete", "--n", "9..5"], "--n")],
)
def test_bad_flag_message_names_the_flag(argv, flag, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err.startswith(f"symwalk: invalid arguments: {flag} ") and err.count("\n") == 1, err
    assert not out.exists()


def test_simulate_size_cap_is_resource_guard(tmp_path, capsys, monkeypatch):
    # the cap runs before anything of size n is built, such as a class's cycle type
    def no_cycle_type(self, n):
        raise AssertionError("cycle type built before the size guard")

    monkeypatch.setattr(walks.WalkSpec, "cycle_type", no_cycle_type)
    out = tmp_path / "x.csv"
    for walk, n in (("rt", MAX_SIMULATE_N + 1), ("class:3", 2 * 10**9)):
        assert run(["simulate", "--walk", walk, "--n", str(n), "--t", "1", "--N", "1000",
                    "--seed", "1", "--out", str(out)]) == cli.EXIT_RESOURCE == 3, walk
        err = capsys.readouterr().err
        assert err.startswith("symwalk: resource guard:") and err.count("\n") == 1, err
        assert not out.exists()


def test_simulate_work_cap_is_resource_guard(tmp_path, capsys, monkeypatch):
    # N x t row steps are capped after --N, before any step is taken
    def no_step(self, rng):
        raise AssertionError("simulation stepped past the work cap")

    monkeypatch.setattr(montecarlo._Stepper, "step", no_step)
    out = tmp_path / "x.csv"
    for t, steps in (("1e12", "1e+12"), ("1e300", "1e+300")):  # the step count is never spelt out
        assert run(["simulate", "--walk", "rt", "--n", "10", "--t", t, "--N", "1000",
                    "--seed", "1", "--out", str(out)]) == cli.EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err == ("symwalk: resource guard: simulation is capped at --N x --t <= "
                       f"{montecarlo.MAX_ROW_STEPS} row steps, got 1000 x {steps}\n")
        assert not out.exists()


def test_simulate_position_cap_is_resource_guard(tmp_path, capsys, monkeypatch):
    # N x n positions are capped right after N x t: at --t 0 no step bounds the run,
    # which would otherwise build and count blocks for hours
    def no_step(self, rng):
        raise AssertionError("simulation stepped past the position cap")

    def no_block(n, m):
        raise AssertionError("block built past the position cap")

    monkeypatch.setattr(montecarlo._Stepper, "step", no_step)
    monkeypatch.setattr(montecarlo, "new_block", no_block)
    out = tmp_path / "x.csv"
    assert run(["simulate", "--walk", "rt", "--n", "10", "--t", "0", "--N", "1000000000000",
                "--seed", "1", "--out", str(out)]) == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == ("symwalk: resource guard: simulation is capped at --N x --n <= "
                   f"{montecarlo.MAX_ROW_STEPS} positions, got 1000000000000 x 10\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["profile", "--walk", "rt", "--n", "120", "--t-grid", "1"],
     ["--threads", "1", "verify", "--suite", "rt-discrete", "--n", "120"],
     ["profile", "--walk", "class:3", "--n", "2000000000"]],
)
def test_spectral_size_cap_is_resource_guard(argv, tmp_path, capsys, monkeypatch):
    # the n cap of every class measure runs before any diagram is enumerated
    def no_partitions(n):
        raise AssertionError("partitions enumerated past the size cap")

    monkeypatch.setattr(spectra, "partitions", no_partitions)
    out = tmp_path / "x.out"
    started = time.perf_counter()
    assert run(argv + ["--out", str(out)]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err == ("symwalk: resource guard: class measures are capped at "
                   f"n <= {walks.MAX_SPECTRAL_N}, got n = {argv[argv.index('--n') + 1]}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, err",
    [(["verify", "--suite", "rt-discrete", "--n", "50..61"],
      f"class measures are capped at n <= {walks.MAX_SPECTRAL_N}, got n = 61"),
     (["verify", "--suite", "oracle", "--n", "2..7"],
      "oracle verification is capped at n <= 6, got n = 7"),
     (["verify", "--suite", "ttr", "--n", "1..1000000000"],
      f"bound sums are capped at n <= {bounds.MAX_BOUND_N}, got n = 1000000000"),
     # every n is within its cap, but the sums of n^2 and of p(n) are not
     (["verify", "--suite", "ttr", "--n", "1..2000"],
      f"bound-sum sweeps are capped at {bounds.MAX_BOUND_SWEEP} (the sum of n^2 over --n), "
      "got 2668667000"),
     (["verify", "--suite", "lemmas", "--n", "1900..2000"],
      f"bound-sum sweeps are capped at {bounds.MAX_BOUND_SWEEP} (the sum of n^2 over --n), "
      "got 384138350"),
     (["verify", "--suite", "rt-discrete", "--n", "15..60"],
      f"spectral sweeps are capped at {walks.MAX_SPECTRAL_SWEEP} diagrams "
      "(the sum of p(n) over --n), got 6638841")],
)
def test_verify_checks_the_whole_range_before_any_work(argv, err, tmp_path, capsys,
                                                       monkeypatch):
    # the top of the range is checked before the first n is worked on
    from symwalk import group_oracle

    def no_work(*args):
        raise AssertionError("work done before the range was checked")

    monkeypatch.setattr(spectra, "partitions", no_work)
    monkeypatch.setattr(group_oracle, "orbit_powers", no_work)
    monkeypatch.setattr(bounds, "lemma_weight", no_work)
    monkeypatch.setattr(spectra, "lemma_weight", no_work)
    out = tmp_path / "x.json"
    started = time.perf_counter()
    assert run(["--threads", "1"] + argv + ["--out", str(out)]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == f"symwalk: resource guard: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["profile", "--walk", "ttr-bound", "--n", "2001", "--t-grid", "1"],
     ["verify", "--suite", "ttr", "--n", "2001"],
     ["verify", "--suite", "lemmas", "--n", "2001"],
     ["verify", "--suite", "lemmas", "--n", "14..5000"]],
)
def test_bound_sum_cap_is_resource_guard(argv, tmp_path, capsys, monkeypatch):
    # the cap runs before any factorial weight of a bound sum or term table
    def no_weight(n, j):
        raise AssertionError("weight computed past the bound-sum cap")

    monkeypatch.setattr(bounds, "lemma_weight", no_weight)
    monkeypatch.setattr(spectra, "lemma_weight", no_weight)
    out = tmp_path / "x.out"
    started = time.perf_counter()
    assert run(["--threads", "1"] + argv + ["--out", str(out)]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - started < 1.0
    n = argv[argv.index("--n") + 1].split("..")[-1]
    assert capsys.readouterr().err == ("symwalk: resource guard: bound sums are capped at "
                                       f"n <= {bounds.MAX_BOUND_N}, got n = {n}\n")
    assert not out.exists()


def least_n(suite):
    if suite == "lemmas":
        return min(min_n for _, min_n, _ in bounds.LEMMAS)
    return 2 if suite == "oracle" else bounds.THEOREMS[suite].min_n


@pytest.mark.parametrize("suite", cli.SUITES)
def test_every_suite_runs_at_its_least_n(suite, tmp_path):
    out = tmp_path / "x.json"
    argv = ["--threads", "1", "verify", "--suite", suite, "--n", str(least_n(suite)),
            "--out", str(out)]
    assert run(argv) in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)
    assert read_json(out.read_text())["results"]


def test_simulate_manifest_records_stream_version(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["simulate", "--walk", "class:3", "--n", "8", "--t", "4", "--j", "2",
                "--N", "1000", "--seed", "3", "--out", str(out)]) == 0
    manifest = read_json(read_lines(out)[0][len("# manifest: "):])
    assert manifest["stream_version"] == 3
    assert "stream_version" not in cli.RunManifest("profile", {}, seed=None).as_dict()


@pytest.mark.parametrize("walk", ["bogus"])
def test_profile_unknown_walk_lists_profile_walks(walk, capsys):
    assert run(["profile", "--walk", walk, "--n", "5"]) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err == f"symwalk: invalid arguments: walk {walk!r} is not one of {cli.PROFILE_WALKS}\n"
    assert cli.PROFILE_WALKS == "rt | ttr | ri | ttr-bound | class:<parts> | lazy:<parts>:<eps>"


@pytest.mark.parametrize("walk", ["ttr", "ri"])
def test_profile_ttr_ri_exact_curves(walk, tmp_path):
    # the profile rows are the exact blocks of WalkSpec.blocks, in both modes
    from symwalk import distances

    blocks = walks.WalkSpec(walk).blocks(6)
    for mode, grid in (("discrete", "0,1,5"), ("continuous", "0.5,3")):
        out = tmp_path / f"{walk}-{mode}.csv"
        assert run(["profile", "--walk", walk, "--n", "6", "--mode", mode, "--t-grid", grid,
                    "--out", str(out)]) == cli.EXIT_OK
        rows = [line.split(",") for line in read_lines(out)[2:]]
        times = [float(t) for t in grid.split(",")]
        want = distances.l2_curve(blocks, times, mode, 128)
        assert [row[:3] for row in rows] == [[walk, "sn", "6"]] * len(times)
        assert [row[4] for row in rows] == [cli.fmt_real(d) for d in want]


# the A_n rule: per walk, the row labels in discrete and in continuous time
# (one label per curve at one time), or None where --group an exits 2
AN_RULE = {
    "rt": (None, None),
    "class:2": (["an", "sn"], None),
    "class:3": (["an"], ["an"]),
    "class:4": (["an", "sn"], None),
    "lazy:2:1/2": (None, None),
    "lazy:3:1/2": (["an"], ["an"]),
    "ttr": (None, None),
    "ri": (None, None),
    "ttr-bound": (None, None),
}


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("group", ["sn", "an"])
@pytest.mark.parametrize("walk", list(AN_RULE))
def test_profile_group_rule(walk, group, mode, tmp_path, capsys, monkeypatch):
    # every walk has an S_n profile; on A_n an even step folds, a pure odd
    # class in discrete time reports q*q and then the raw S_n rows, and every
    # other walk is refused before any diagram is enumerated
    labels = ["sn"] if group == "sn" else AN_RULE[walk][mode == "continuous"]
    if labels is None:
        def no_partitions(n):
            raise AssertionError("partitions enumerated for a refused group")

        monkeypatch.setattr(spectra, "partitions", no_partitions)
    out = tmp_path / "x.csv"
    code = run(["profile", "--walk", walk, "--n", "6", "--group", group, "--mode", mode,
                "--t-grid", "1", "--out", str(out)])
    if labels is None:
        assert code == cli.EXIT_BAD_ARGS and not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("use --group sn\n"), err
    else:
        assert code == cli.EXIT_OK
        assert [line.split(",")[1] for line in read_lines(out)[2:]] == labels


@pytest.mark.parametrize("walk, cap", [("ttr", 50), ("ri", 40)])
def test_profile_ttr_ri_size_cap_is_resource_guard(walk, cap, tmp_path, capsys, monkeypatch):
    # the cap runs before any diagram is enumerated
    def no_partitions(n):
        raise AssertionError("partitions enumerated past the size cap")

    monkeypatch.setattr(spectra, "partitions", no_partitions)
    out = tmp_path / "x.csv"
    started = time.perf_counter()
    assert run(["profile", "--walk", walk, "--n", str(cap + 1), "--t-grid", "1",
                "--out", str(out)]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (f"symwalk: resource guard: {walk} spectra are capped at "
                                       f"n <= {cap}, got n = {cap + 1}\n")
    assert not out.exists()


def test_precision_flag_guard():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--precision", "16", "verify", "--suite", "ttr", "--n", "5"])
    assert exc.value.code == 2


def test_precision_is_capped_before_the_spectrum(tmp_path, monkeypatch, capsys):
    from symwalk import distances

    out = tmp_path / "x.csv"
    argv = ["profile", "--walk", "rt", "--n", "5", "--t-grid", "1", "--out", str(out)]
    assert run(["--precision", str(cli.MAX_PRECISION)] + argv) == cli.EXIT_OK
    assert len(read_lines(out)) == 3

    def no_build(cycles, hold):
        raise AssertionError("spectrum built at a rejected precision")

    monkeypatch.setattr(spectra, "spectrum", no_build)
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        run(["--precision", str(cli.MAX_PRECISION + 1)] + argv)
    assert exc.value.code == cli.EXIT_BAD_ARGS
    assert "--precision must lie in 53..4096 bits" in capsys.readouterr().err
    assert not out.exists()
