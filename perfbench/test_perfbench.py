"""Self-tests of the benchmark: comparator, metric names, tracing.

Run from the root of a checkout:

    python3 -m pytest -q perfbench          # or
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from compare import compare, parse_payload  # noqa: E402
from make_reference import REFERENCE_SEED  # noqa: E402
from run import END_TO_END_UNITS, SRC, load_reference  # noqa: E402
from workloads import WORKLOADS, command_lines  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _entry(workload: str, needle: str) -> dict:
    for entry in load_reference(workload):
        if needle in " ".join(entry["argv"]):
            return copy.deepcopy(entry)
    raise KeyError(needle)


def _problems(entry: dict, payload=None, exit_code=None) -> list[str]:
    return compare(
        entry,
        entry["exit_code"] if exit_code is None else exit_code,
        entry["payload"] if payload is None else payload,
        entry["argv"],
    )


class ComparatorTest(unittest.TestCase):
    def test_reference_agrees_with_itself(self):
        for name in WORKLOADS:
            for entry in load_reference(name):
                self.assertEqual(_problems(entry), [], entry["argv"])

    def test_rejects_d2_perturbed_by_1e_9(self):
        entry = _entry("profile-curves", "--walk rt --n 22")
        col = entry["payload"]["header"].index("d2")
        got = copy.deepcopy(entry["payload"])
        got["rows"][7][col] = repr(float(got["rows"][7][col]) * (1 + 1e-9))
        self.assertTrue(_problems(entry, got))
        got["rows"][7][col] = repr(float(entry["payload"]["rows"][7][col]) * (1 + 1e-12))
        self.assertEqual(_problems(entry, got), [])

    def test_rejects_flipped_pass(self):
        entry = _entry("verify-sweep", "rt-discrete")
        got = copy.deepcopy(entry["payload"])
        got["results"][0]["pass"] = not got["results"][0]["pass"]
        self.assertTrue(_problems(entry, got))

    def test_rejects_wrong_exit_code(self):
        entry = _entry("verify-sweep", "lemmas")
        self.assertEqual(entry["exit_code"], 1)  # 86 phi1 failures by design
        self.assertTrue(_problems(entry, exit_code=0))

    def test_oracle_rounding_error_compares_by_verdict(self):
        entry = _entry("verify-sweep", "oracle")
        got = copy.deepcopy(entry["payload"])
        got["results"][0]["computed"] *= 3
        self.assertEqual(_problems(entry, got), [])
        got["results"][0]["computed"] = 2 * got["results"][0]["guaranteed"]
        self.assertTrue(_problems(entry, got))

    def test_accepts_reseeded_simulate_within_tolerance(self):
        entry = _entry("montecarlo-sim", "--walk class:3")
        header = entry["payload"]["header"]
        row = dict(zip(header, entry["payload"]["rows"][0]))
        se = float(row["std_err"])
        seed = "12345"
        argv = entry["argv"][:-1] + [seed]

        def payload(shift: float, u_exact: str | None = None):
            got = copy.deepcopy(entry["payload"])
            got["manifest"]["seed"] = int(seed)
            values = dict(row, seed=seed, tv_lower=repr(float(row["tv_lower"]) + shift))
            if u_exact is not None:
                values["u_exact"] = u_exact
            got["rows"] = [[values[col] for col in header]]
            return got

        inside = 3 * math.sqrt(2) * se
        self.assertEqual(compare(entry, 0, payload(inside), argv), [])
        self.assertTrue(compare(entry, 0, payload(6 * math.sqrt(2) * se), argv))
        self.assertTrue(compare(entry, 0, payload(0.0, u_exact="0.1"), argv))
        self.assertTrue(compare(entry, 0, payload(0.0), entry["argv"]))  # wrong seed

    def test_parse_drops_wall_time(self):
        text = (
            '# manifest: {"command": "profile", "params": {}, "seed": null, "wall_time_s": 1.5}\n'
            "walk,group,n,t,d2,log10_d2_sq\nrt,sn,6,0,1.0,0.0\n"
        )
        payload = parse_payload(text)
        self.assertNotIn("wall_time_s", payload["manifest"])
        self.assertEqual(payload["rows"], [["rt", "sn", "6", "0", "1.0", "0.0"]])
        self.assertIsNone(parse_payload("Traceback (most recent call last):"))


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            self.bench = json.load(fh)

    def test_metric_names_and_units(self):
        emitted = {**END_TO_END_UNITS, **tracing.LAYER_METRICS}
        declared = self.bench["end_to_end"] + self.bench["per_layer"]
        for name, unit in emitted.items():
            self.assertTrue(NAME_RE.fullmatch(name), name)
            self.assertTrue(UNIT_RE.fullmatch(unit), unit)
        for metric in declared:
            self.assertEqual(emitted[metric["name"]], metric["unit"])
        for workload in self.bench["workloads"]:
            self.assertTrue(NAME_RE.fullmatch(workload["name"]), workload["name"])
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]], list(END_TO_END_UNITS))
        self.assertEqual([m["name"] for m in self.bench["per_layer"]], list(tracing.LAYER_METRICS))
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(WORKLOADS))

    def test_reference_matches_workload_commands(self):
        for name, workload in WORKLOADS.items():
            argvs = [entry["argv"] for entry in load_reference(name)]
            self.assertEqual(argvs, command_lines(workload, REFERENCE_SEED))


class TracingTest(unittest.TestCase):
    def setUp(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def test_traced_payload_equals_untraced(self):
        argv = ["profile", "--walk", "class:2", "--n", "7", "--group", "an", "--mode", "discrete"]
        _, code, plain, _ = tracing.run_command(argv, None)
        tracer = tracing.Tracer()
        _, traced_code, traced, _ = tracing.run_command(argv, tracer)
        self.assertEqual(code, traced_code)
        self.assertEqual(parse_payload(plain), parse_payload(traced))
        for span in ("partitions.enumerate", "characters.ratio", "spectra.spectrum",
                     "distances.l2", "distances.profile", "cli.format"):
            self.assertGreater(tracer.calls(span), 0, span)
        self.assertEqual(tracer.partitions, 15)  # p(7)


if __name__ == "__main__":
    unittest.main()
