"""Tier-1 gate: run the Tier-1 tests and pass only when the tests that fail
are exactly the acceptance criteria that fail by design.

Criteria 07 (the phi_1 envelope), 08 (the insertion constants) and 10 (the
monotone trend) document where the paper's constants do not hold, so they
fail on working code.  Any other failure or error fails the gate, and so
does one of the three starting to pass, or going missing: the documents
that cite them then need updating.

Usage, from anywhere:  python scripts/tier1_gate.py
Exit status 0 when the gate passes, 1 when it does not.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# JUnit names (class name, then test name) of the by-design failures.
EXPECTED_FAILURES = {
    "tests.test_acceptance.test_criterion_07_technical_lemma_sweeps",
    "tests.test_acceptance.test_criterion_08_eigenfunction_certificates",
    "tests.test_acceptance.test_criterion_10_continuous_vs_discrete_divergence",
}


def failed_tests(junit_xml: Path) -> tuple[set[str], int]:
    """JUnit names of the cases that failed or errored, and the number of cases."""
    cases = list(ET.parse(junit_xml).getroot().iter("testcase"))
    failed = {f"{c.get('classname')}.{c.get('name')}" for c in cases
              if c.find("failure") is not None or c.find("error") is not None}
    return failed, len(cases)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={junit}"]
        status = subprocess.run(cmd, cwd=ROOT).returncode
        if not junit.is_file():
            print(f"tier1 gate: pytest exited {status} without a JUnit report", file=sys.stderr)
            return 1
        failed, total = failed_tests(junit)
    unexpected = sorted(failed - EXPECTED_FAILURES)
    passing = sorted(EXPECTED_FAILURES - failed)
    for test in unexpected:
        print(f"tier1 gate: unexpected failure: {test}", file=sys.stderr)
    for test in passing:
        print(f"tier1 gate: expected to fail but did not (passed or missing): {test}",
              file=sys.stderr)
    if status not in (0, 1):
        print(f"tier1 gate: pytest exited {status}", file=sys.stderr)
    ok = not unexpected and not passing and status in (0, 1)
    print(f"tier1 gate: {'pass' if ok else 'FAIL'}: {total} tests, {len(failed)} failed "
          f"({len(EXPECTED_FAILURES)} by design)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
