"""Write reference/<workload>.json: each command's exit code and payload.

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/make_reference.py

The payload is the parsed CLI output with the manifest's wall_time_s
removed.  Monte Carlo commands are recorded at the seeds that benchmark
seed REFERENCE_SEED derives; compare.py accepts other seeds within the
sampler's own standard errors.
"""

from __future__ import annotations

import json
import sys

from compare import parse_payload
from run import HERE, child_env, spawn
from workloads import WORKLOADS, command_lines

REFERENCE_SEED = 0


def main() -> int:
    env = child_env()
    for name, workload in WORKLOADS.items():
        entries = []
        for argv in command_lines(workload, REFERENCE_SEED):
            _, code, stdout, _ = spawn(["-m", "symwalk.cli", *argv], env)
            payload = parse_payload(stdout)
            if payload is None:
                print(f"{' '.join(argv)}: output does not parse", file=sys.stderr)
                return 1
            entries.append({"argv": argv, "exit_code": code, "payload": payload})
            print(f"{name}: exit {code} {' '.join(argv)}")
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": REFERENCE_SEED, "commands": entries}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
