"""Correctness checks on the program's outputs.

Each check takes parsed outputs and returns a list of failure messages; an
empty list means the output is correct. The benchmark counts an operation
whose check fails as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import inputs

STABLE = "stable"
CERTIFIED = "certified-stable"
DISCONJUGATE_CERTIFIED = "disconjugate-certified"
NOT_DISCONJUGATE = "not-disconjugate"
CRITERIA = ("krein", "guseinov-kaymakcalan", "guseinov-zafer", "guseinov-zafer-boundary",
            "wang", "main", "main-boundary")
ROTATION_TRACE_TOL = 1e-6
# Reference rows whose |trace| lies this close to 2 are too near the
# stable/unstable boundary for their verdict to be pinned.
REFERENCE_BOUNDARY_BAND = 1e-6
REFERENCE_COLUMNS = ("verdict", *CRITERIA)
LAYER_SHARE_TOL = 0.05
REFERENCE_SEED = 0
REFERENCE_CSV = Path(__file__).resolve().parent / "reference" / f"sweep_seed{REFERENCE_SEED}.csv"


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def sweep_row_failures(row: dict, det_expected: float) -> list[str]:
    """Status ok, det equal to prod(alpha^2), and no certificate on a
    verdict other than stable."""
    out = []
    if row.get("status") != "ok":
        return [f"status {row.get('status')!r}"]
    try:
        det = float(row["det"])
    except (KeyError, ValueError):
        return [f"det {row.get('det')!r} is not a number"]
    if not abs(det - det_expected) <= 1e-12 * max(1.0, abs(det_expected)):
        out.append(f"det {det!r} != prod(alpha^2) {det_expected!r}")
    certified = [c for c in CRITERIA if row.get(c) == CERTIFIED]
    if certified and row.get("verdict") != STABLE:
        out.append(f"{','.join(certified)} certified but verdict {row.get('verdict')!r}")
    return out


def alpha_sq_product(doc: dict) -> float:
    return math.prod(float(imp["alpha"]) ** 2 for imp in doc.get("impulses", []))


def sweep_failures(rows: list[dict], descriptor: dict, points: int) -> list[str]:
    """Per-row checks plus the row count; one message per failed row."""
    det_expected = alpha_sq_product(descriptor)
    out = [f"row {i}: {'; '.join(msgs)}"
           for i, row in enumerate(rows)
           if (msgs := sweep_row_failures(row, det_expected))]
    if len(rows) != points:
        out.append(f"{len(rows)} rows, expected {points}")
    return out


def reference_failures(rows: list[dict], reference: list[dict]) -> list[str]:
    """Verdict and criterion conclusions must match the stored reference."""
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    out = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        cols = REFERENCE_COLUMNS
        if abs(abs(float(ref["trace"])) - 2.0) <= REFERENCE_BOUNDARY_BAND:
            cols = cols[1:]
        diff = [c for c in cols if row.get(c) != ref[c]]
        if diff:
            out.append(f"row {i}: " + ", ".join(f"{c} {row.get(c)!r} != {ref[c]!r}"
                                                for c in diff))
    return out


def selftest_failures(exit_code: int, doc: dict | None) -> list[str]:
    """Exit 0 and no violations or Lyapunov failures; one message per problem."""
    out = []
    if exit_code != 0:
        out.append(f"exit code {exit_code}")
    if doc is None:
        return out + ["no JSON summary"]
    for mode in ("force-main", "force-guseinov-zafer"):
        for v in doc.get(mode, {}).get("violations", ["missing"]):
            out.append(f"{mode} violation {v}")
    for f in doc.get("lyapunov", {}).get("failures", ["missing"]):
        out.append(f"lyapunov failure {f}")
    return out


def window_failures(test_status: str, oracle: str) -> list[str]:
    if test_status == DISCONJUGATE_CERTIFIED and oracle == NOT_DISCONJUGATE:
        return ["certified window called not-disconjugate by the oracle"]
    return []


def probe_failures(probe: dict, test_status: str, sup: float, oracle: str) -> list[str]:
    """Closed-form probe: expected sup value, certificate and oracle verdict."""
    out = window_failures(test_status, oracle)
    if probe["sup"] is not None and not abs(sup - probe["sup"]) <= 1e-9 * probe["sup"]:
        out.append(f"{probe['name']}: sup {sup!r}, expected {probe['sup']!r}")
    if probe["certified"] is not None and (test_status == DISCONJUGATE_CERTIFIED) != probe["certified"]:
        out.append(f"{probe['name']}: test status {test_status!r}")
    if probe["oracle"] is not None and oracle != probe["oracle"]:
        out.append(f"{probe['name']}: oracle {oracle!r}, expected {probe['oracle']!r}")
    return out


def rotation_trace_error(doc: dict, period: float) -> float:
    """|trace - 2 cos T| for the rotation a = 0, b = c = 1."""
    return abs(doc["monodromy"]["trace"] - 2.0 * math.cos(period))


def rotation_failures(doc: dict, period: float) -> list[str]:
    err = rotation_trace_error(doc, period)
    if not err <= ROTATION_TRACE_TOL:
        return [f"rotation T={period:g}: trace error {err:.3g} > {ROTATION_TRACE_TOL:g}"]
    return []


def simulate_failures(rows: list[dict], periods: int, samples: int, matrix, y0) -> list[str]:
    """Row count, and the final row against M**periods @ y0 from analyze's matrix."""
    if len(rows) != periods * samples + 1:
        return [f"{len(rows)} rows, expected {periods * samples + 1}"]
    final = np.array([float(rows[-1]["x"]), float(rows[-1]["u"])])
    ref = np.linalg.matrix_power(np.asarray(matrix, dtype=float), periods) @ np.asarray(y0, float)
    err = float(np.max(np.abs(final - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if not err <= 1e-6 * scale:
        return [f"final row {final.tolist()} differs from M^{periods} y0 {ref.tolist()} "
                f"by {err:.3g}"]
    return []


def det_drift(doc: dict) -> float:
    m = doc["monodromy"]
    return abs(m["det_integrated"] - m["det"]) / max(1.0, abs(m["det"]))


def layer_share_failures(share: float) -> list[str]:
    """The package layers' self times must cover the traced wall time within
    LAYER_SHARE_TOL; a lower share means the wrappers miss part of the work."""
    if not abs(share - 1.0) <= LAYER_SHARE_TOL:
        return [f"package layer self times sum to {share:.4f} of the traced wall time"]
    return []


# -- checks on one pass's output files ------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, and every failure message; any
    message makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    log: list[str] = field(default_factory=list)

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(failures))
        self.log.extend(failures)


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def read_csv(path) -> list[dict]:
    try:
        return parse_csv(Path(path).read_text(encoding="utf-8"))
    except OSError:
        return []


def sweep_rows(plan) -> list[dict]:
    """The grid's rows in order: the row sweeps' outputs, concatenated."""
    return [row for path in plan["outputs"] for row in read_csv(path)]


def check_sweep(plan, codes, seed, tally) -> dict:
    rows = sweep_rows(plan)
    failures = sweep_failures(rows, plan["descriptor"], plan["items"])
    failures += [f"row sweep {i} exit code {code}" for i, code in enumerate(codes) if code != 0]
    if seed == REFERENCE_SEED:
        failures += [f"reference {m}" for m in reference_failures(rows, read_csv(REFERENCE_CSV))]
    tally.add(plan["items"], failures)
    verdicts = [r.get("verdict") for r in rows]
    return {"stable": verdicts.count("stable"), "unstable": verdicts.count("unstable")}


def check_selftest(plan, codes, seed, tally) -> dict:
    per_unit = plan["items"] // len(plan["outputs"])
    for path, code in zip(plan["outputs"], codes):
        tally.add(per_unit, selftest_failures(code, read_json(path)))
    return {}


def check_long_horizon(plan, codes, seed, tally) -> dict:
    acc = {"trace_err_max": 0.0, "det_drift_max": 0.0, "err_over_estimate_max": 0.0}
    for name, path, code in zip(plan["names"], plan["outputs"], codes):
        if name == "simulate":
            continue
        doc = read_json(path)
        if code != 0 or doc is None:
            tally.add(1, [f"{name}: exit code {code}"])
            continue
        failures = []
        acc["det_drift_max"] = max(acc["det_drift_max"], det_drift(doc))
        period = plan["rotations"].get(name)
        if period is not None:
            failures = rotation_failures(doc, period)
            err = rotation_trace_error(doc, period)
            acc["trace_err_max"] = max(acc["trace_err_max"], err)
            acc["err_over_estimate_max"] = max(acc["err_over_estimate_max"],
                                               err / doc["monodromy"]["error_estimate"])
        tally.add(1, failures)
    ref = read_json(plan["simulate_reference"])
    sim_code = codes[plan["names"].index("simulate")]
    if sim_code != 0 or ref is None:
        failures = [f"simulate: exit code {sim_code}, reference analyze "
                    f"{'missing' if ref is None else 'ok'}"]
    else:
        failures = simulate_failures(
            read_csv(plan["outputs"][plan["names"].index("simulate")]),
            inputs.SIMULATE_PERIODS, inputs.SIMULATE_SAMPLES,
            ref["monodromy"]["matrix"], (1.0, 0.0))
    tally.add(1, failures)
    return acc


CLI_CHECKS = {"sweep": check_sweep, "selftest": check_selftest,
              "long_horizon": check_long_horizon}


def check_windows(population, results, tally) -> None:
    for w, r in zip(population, results):
        failures = [r["error"]] if "error" in r else window_failures(r["status"], r["oracle"])
        tally.add(1, [f"window [{w['t1']:.4g}, {w['t2']:.4g}]: {m}" for m in failures])
    missing = len(population) - len(results)
    tally.add(max(missing, 0), ["missing window results"] * max(missing, 0))


def check_probes(probes, results, tally) -> None:
    for probe, r in zip(probes, results):
        failures = ([r["error"]] if "error" in r else
                    probe_failures(probe, r["status"], r["sup"], r["oracle"]))
        tally.add(1, failures)
