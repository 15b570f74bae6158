"""Parse CLI payloads and compare them with the stored reference.

Rules, applied to every command the benchmark runs:

* the exit code must equal the reference exit code (``verify --suite
  lemmas`` exits 1 by design, and that is its reference);
* the manifest must carry the reference ``command`` and ``params``; other
  manifest keys (wall time, version, added fields) are ignored;
* profile and verify values must agree to a relative ``REL_TOL``, strings
  that are not numbers and ``pass`` verdicts must match exactly; keys the
  reference does not have are ignored, so a payload may grow;
* in ``oracle:`` verify rows, ``computed`` is the worst rounding error of the
  spectral route against the brute-force oracle; only its verdict against
  ``guaranteed`` is compared, because any correct reordering of a sum moves
  it;
* ``simulate`` must report the requested seed, match ``u_exact`` and the
  configuration columns exactly, and have
  ``|tv_lower - ref| <= SIM_SIGMAS * sqrt(se^2 + se_ref^2)``, so a re-seeded
  or re-streamed sampler passes while a wrong law does not.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-10
SIM_SIGMAS = 5.0


def parse_payload(stdout: str):
    """CLI stdout as a dict with ``manifest`` plus ``results`` (JSON output)
    or ``header``/``rows`` (CSV output); ``None`` if it does not parse."""
    text = stdout.strip()
    try:
        if text.startswith("{"):
            payload = json.loads(text)
        else:
            lines = text.splitlines()
            prefix = "# manifest: "
            if not lines or not lines[0].startswith(prefix):
                return None
            payload = {
                "manifest": json.loads(lines[0][len(prefix):]),
                "header": lines[1].split(","),
                "rows": [line.split(",") for line in lines[2:]],
            }
    except (ValueError, IndexError):
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("manifest"), dict):
        return None
    payload["manifest"].pop("wall_time_s", None)
    return payload


def _number(x):
    """x as a float when it is a number or a numeric string, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_values(ref, got, where: str = "") -> list[str]:
    """Differences between a reference value and a payload value."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(compare_values(value, got[key], f"{where}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare_values(r, g, f"{where}[{i}]"))
        return out
    a, b = _number(ref), _number(got)
    if a is not None and b is not None:
        return [] if _close(a, b) else [f"{where}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def _compare_verify_rows(ref_rows: list, got_rows) -> list[str]:
    if not isinstance(got_rows, list) or len(got_rows) != len(ref_rows):
        return ["results: row count differs"]
    out = []
    for i, (ref, got) in enumerate(zip(ref_rows, got_rows)):
        where = f"results[{i}]"
        if not isinstance(got, dict):
            out.append(f"{where}: expected an object")
            continue
        if str(ref.get("name", "")).startswith("oracle:"):
            ref = dict(ref)
            ref_within = ref.pop("computed") <= ref["guaranteed"]
            computed, guaranteed = _number(got.get("computed")), _number(got.get("guaranteed"))
            got_within = None not in (computed, guaranteed) and computed <= guaranteed
            if got_within != ref_within:
                out.append(f"{where}.computed: verdict against guaranteed differs")
        out.extend(compare_values(ref, got, where))
    return out


def _compare_simulate(ref: dict, got: dict, seed: str) -> list[str]:
    header = ref["header"]
    if got.get("header") != header or len(got.get("rows", [])) != 1:
        return ["simulate: header or row count differs"]
    r = dict(zip(header, ref["rows"][0]))
    g = dict(zip(header, got["rows"][0]))
    out = []
    for col in ("walk", "n", "t", "j", "n_samples", "u_exact"):
        if g.get(col) != r[col]:
            out.append(f"simulate.{col}: {g.get(col)!r} != {r[col]!r}")
    if g.get("seed") != seed or str(got["manifest"].get("seed")) != seed:
        out.append(f"simulate.seed: expected {seed}")
    try:
        tv, se = float(g["tv_lower"]), float(g["std_err"])
        tv_ref, se_ref = float(r["tv_lower"]), float(r["std_err"])
    except (KeyError, ValueError):
        return out + ["simulate: tv_lower/std_err not numeric"]
    allowed = SIM_SIGMAS * math.sqrt(se * se + se_ref * se_ref)
    if not abs(tv - tv_ref) <= allowed:
        out.append(f"simulate.tv_lower: |{tv} - {tv_ref}| > {allowed:.3g}")
    return out


def compare(ref_entry: dict, exit_code: int, payload, argv: list[str]) -> list[str]:
    """Every way one command's result disagrees with its reference entry."""
    out = []
    if exit_code != ref_entry["exit_code"]:
        out.append(f"exit code {exit_code} != {ref_entry['exit_code']}")
    if payload is None:
        return out + ["payload does not parse"]
    ref = ref_entry["payload"]
    for key in ("command", "params"):
        out.extend(compare_values(ref["manifest"][key], payload["manifest"].get(key), f"manifest.{key}"))
    if "simulate" in argv:
        return out + _compare_simulate(ref, payload, argv[argv.index("--seed") + 1])
    if "results" in ref:
        return out + _compare_verify_rows(ref["results"], payload.get("results"))
    return out + compare_values(
        {"header": ref["header"], "rows": ref["rows"]},
        {"header": payload.get("header"), "rows": payload.get("rows")},
    )
