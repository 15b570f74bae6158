import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symwalk
from symwalk import cli

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


def test_eval_time_expr():
    n = 200
    assert cli.eval_time_expr("nlogn-3n", n) == pytest.approx(n * math.log(n) - 3 * n)
    assert cli.eval_time_expr("0.5*nlogn+2n", n) == pytest.approx(0.5 * n * math.log(n) + 400)
    assert cli.eval_time_expr("12", n) == 12
    assert cli.eval_time_expr("n", n) == 200
    assert cli.eval_time_expr("2n", 7) == 14
    assert cli.eval_time_expr("-n+nlogn", 10) == pytest.approx(10 * math.log(10) - 10)
    with pytest.raises(ValueError):
        cli.eval_time_expr("n^2", 5)
    with pytest.raises(ValueError):
        cli.eval_time_expr("", 5)


def test_eval_time_expr_exponent_literals():
    assert cli.eval_time_expr("1e3", 5) == 1000
    assert cli.eval_time_expr("2.5E-1n", 8) == 2
    assert cli.eval_time_expr("1e+2-n", 10) == 90
    for bad in ("1e", "1e400", "1e400-1e400"):
        with pytest.raises(ValueError):
            cli.eval_time_expr(bad, 5)


def test_parse_range():
    assert cli.parse_range("15..18") == [15, 16, 17, 18]
    assert cli.parse_range("7") == [7]
    with pytest.raises(ValueError):
        cli.parse_range("9..5")


def test_fmt_real():
    assert cli.fmt_real(0) == "0.0"
    assert cli.fmt_real(26.8141750871234) == "26.8141750871"
    assert "e-5" in cli.fmt_real(2.68e-5)
    assert "e" not in cli.fmt_real(0.000123)


def test_profile_golden_csv(tmp_path):
    out = tmp_path / "rt5.csv"
    assert run(["profile", "--walk", "rt", "--n", "5", "--mode", "discrete",
                "--t-grid", "0,1,2,6", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0].split("# manifest: ", 1)[1])
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
    payload = json.loads(out.read_text())
    assert set(payload) == {"manifest", "results"}
    assert payload["results"][0]["walk"] == "rt"
    assert payload["results"][0]["t"] == 0 and payload["results"][0]["n"] == 5
    assert float(payload["results"][0]["d2"]) == pytest.approx(math.sqrt(119), rel=1e-11)
    assert payload["results"][1]["log10_d2_sq"] == pytest.approx(1.05994188806, rel=1e-9)


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
    payload = json.loads(out.read_text())
    assert [r["n"] for r in payload["results"]] == [15, 16]
    for r in payload["results"]:
        assert r["pass"] and r["computed"] <= r["guaranteed"] == 2.0


def test_profile_invalid_args(tmp_path):
    assert run(["profile", "--walk", "bogus", "--n", "5"]) == cli.EXIT_BAD_ARGS
    assert run(["profile", "--walk", "rt", "--n", "5", "--group", "an"]) == cli.EXIT_BAD_ARGS
    assert run(["profile", "--walk", "class:9", "--n", "5"]) == cli.EXIT_BAD_ARGS


def test_verify_ttr_suite(tmp_path):
    out = tmp_path / "ttr.json"
    assert run(["verify", "--suite", "ttr", "--n", "5..10", "--c", "0,1",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 12
    assert all(r["pass"] for r in payload["results"])
    assert payload["results"][0]["name"] == "ttr"


def test_verify_exit_code_on_failure(tmp_path):
    # the phi_1 lemma bound is genuinely violated at n = 15, which makes a
    # stable fixture for the non-zero exit contract
    out = tmp_path / "lem.json"
    assert run(["verify", "--suite", "lemmas", "--n", "15",
                "--out", str(out)]) == cli.EXIT_VERIFY_FAILED
    payload = json.loads(out.read_text())
    failed = [r for r in payload["results"] if not r["pass"]]
    assert [r["name"] for r in failed] == ["lemma:phi1"]


def test_verify_oracle_suite(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["verify", "--suite", "oracle", "--n", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    names = {r["name"] for r in payload["results"]}
    assert names == {f"oracle:{w}" for w in cli.ORACLE_WALKS}
    assert all(r["pass"] for r in payload["results"])


def test_verify_oracle_small_n_runs_the_walks_that_fit(tmp_path):
    # class:4 does not fit in S_3; the other walks still run
    out = tmp_path / "oracle3.json"
    assert run(["verify", "--suite", "oracle", "--n", "3", "--out", str(out)]) == cli.EXIT_OK
    names = [r["name"] for r in json.loads(out.read_text())["results"]]
    assert names == ["oracle:rt", "oracle:ttr", "oracle:ri", "oracle:class:3",
                     "oracle:lazy:3:1/2"]


def test_verify_oracle_ri_compares_operator_eigenvalues(tmp_path, monkeypatch):
    # ttr and ri have no class measure; their rows compare the definitional
    # distance with the dense operator's eigenvalues, so wrong ones fail
    from symwalk import group_oracle

    exact = group_oracle.operator_eigenvalues
    monkeypatch.setattr(group_oracle, "operator_eigenvalues", lambda q: exact(q) * (1 - 1e-6))
    out = tmp_path / "oracle.json"
    argv = ["verify", "--suite", "oracle", "--n", "4", "--out", str(out)]
    assert run(argv) == cli.EXIT_VERIFY_FAILED
    failed = {r["name"] for r in json.loads(out.read_text())["results"] if not r["pass"]}
    assert failed == {"oracle:ttr", "oracle:ri"}


def test_verify_oracle_ttr_ri_check_continuous_time(tmp_path, monkeypatch):
    # negated eigenvalues leave every discrete reference sum of beta^(2t)
    # unchanged, so only the continuous-time comparison can catch them
    from symwalk import group_oracle

    exact = group_oracle.operator_eigenvalues
    monkeypatch.setattr(group_oracle, "operator_eigenvalues", lambda q: -exact(q))
    out = tmp_path / "oracle.json"
    argv = ["verify", "--suite", "oracle", "--n", "4", "--out", str(out)]
    assert run(argv) == cli.EXIT_VERIFY_FAILED
    failed = {r["name"] for r in json.loads(out.read_text())["results"] if not r["pass"]}
    assert failed == {"oracle:ttr", "oracle:ri"}


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
    rows = json.loads(out.read_text())["results"]
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
    assert [r["c"] for r in json.loads(out.read_text())["results"]] == cs
    assert f'"c": {cs[0]!r}' in out.read_text()  # written as a float


def test_verify_ttr_n1_threshold_time_zero(tmp_path):
    # t = ceil(1 * (log 1 + 0)) = 0 is a threshold time, not a missing one
    out = tmp_path / "ttr1.json"
    assert run(["verify", "--suite", "ttr", "--n", "1", "--out", str(out)]) == cli.EXIT_OK
    first = json.loads(out.read_text())["results"][0]
    assert first["t"] == first["details"]["threshold_time"] == 0.0
    assert first["pass"] is True


@pytest.mark.parametrize(
    "suite, n, c",
    [("rt-continuous", "10", "nan"), ("ttr", "5", "inf"), ("rt-discrete", "15", "1e400"),
     ("rt-continuous", "10", "inf"), ("lemmas", "5", None), ("lemmas", "5..12", None)],
)
def test_verify_rejects_bad_c_and_small_lemma_n(suite, n, c, tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["verify", "--suite", suite, "--n", n, "--out", str(out)]
    assert run(argv + (["--c", c] if c else [])) == cli.EXIT_BAD_ARGS
    assert capsys.readouterr().err.startswith("symwalk: invalid arguments:")
    assert not out.exists()


def test_verify_resource_guard(tmp_path):
    assert run(["verify", "--suite", "oracle", "--n", "8",
                "--out", str(tmp_path / "x.json")]) == cli.EXIT_RESOURCE


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
    payload = json.loads(out.read_text())
    assert payload["manifest"]["params"]["threads"] == 1


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
    from symwalk import distances

    def no_build(q, group="sn"):
        raise AssertionError("spectrum built for a bad time grid")

    monkeypatch.setattr(distances, "spectrum", no_build)
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


def test_cli_import_loads_neither_numpy_nor_oracle(tmp_path):
    # neither the import nor a profile run (which parses its walk string)
    # may load numpy, the oracle or the sampler
    src = str(Path(symwalk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["profile", "--walk", "lazy:3:1/2", "--n", "5", "--group", "an",
            "--t-grid", "0,1", "--out", str(tmp_path / "p.csv")]
    code = (
        "import sys, symwalk.cli; "
        f"assert symwalk.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in ('numpy', 'symwalk.group_oracle', 'symwalk.montecarlo') "
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
        "symwalk: invalid arguments: need at least 1000 trajectories for the std-error column\n")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_manifest_records_stream_version(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["simulate", "--walk", "class:3", "--n", "8", "--t", "4", "--j", "2",
                "--N", "1000", "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads(read_lines(out)[0][len("# manifest: "):])
    assert manifest["stream_version"] == 2
    assert "stream_version" not in cli.RunManifest("profile", {}, seed=None).as_dict()


@pytest.mark.parametrize("walk", ["bogus", "ttr", "ri"])
def test_profile_unknown_walk_lists_profile_walks(walk, capsys):
    assert run(["profile", "--walk", walk, "--n", "5"]) == cli.EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert err == f"symwalk: invalid arguments: walk {walk!r} is not one of {cli.PROFILE_WALKS}\n"
    assert cli.PROFILE_WALKS == "rt | ttr-bound | class:<parts> | lazy:<parts>:<eps>"


def test_precision_flag_guard():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--precision", "16", "verify", "--suite", "ttr", "--n", "5"])
    assert exc.value.code == 2
