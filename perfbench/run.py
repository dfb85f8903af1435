"""Layered benchmark for impulse-floquet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs built from the seed by perfbench/inputs.py):
    sweep         CLI `sweep --workers 1` on a 21x21 grid over one seeded descriptor
    selftest      CLI `selftest --n 50 --seed N --workers 1`
    windows       40 seeded (system, window) pairs through disconjugacy_test and
                  disconjugacy_oracle, one worker process per pass
    long_horizon  CLI `analyze` on rotations at T = 1, 50, 1000 and on a
                  high-frequency system, then `simulate --periods 1000`

With --trace 0 one worker process runs the workload in passes until --seconds
have gone by, pinned to one core. A pass is a list of units, each timed on
its own: one CLI call through `cli.main` (a sweep row, a selftest of 5
systems per mode, an analyze or the simulate) or one window; each pass ends
with one fresh interpreter importing the CLI module, also timed. Meanwhile a
thread on the same core times a small fixed reference computation every
25 ms (perfbench/hostspeed.py), and every time is taken in reference seconds,
relative to the samples inside it, so that the load other tenants put on a
shared host shows much less as a change in the program. items_per_s divides
the workload's items by the mean pass time and setup_s is the fastest fresh
import. peak_rss_mb is the worker's peak resident memory. The package's
bytecode is written before any timing, so imports load it rather than
compile the source. With --trace 1 one worker process runs a warm-up pass,
an untraced pass and a traced pass, and reports the per-layer metrics,
unadjusted. Every output is checked; the last line of standard output is the
JSON result. Run files (inputs, outputs, spans) go to .perfbench_run/ at the
repository root.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import checks, hostspeed, inputs, spans  # noqa: E402

SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
DEFAULT_SEED = checks.REFERENCE_SEED
IMPORTTIME_REPEATS = 3
JOB_TIMEOUT_S = 150.0
WORKLOADS = ("sweep", "selftest", "windows", "long_horizon")
CLI_ENTRY = "import sys; from impulse_floquet.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}
ACCURACY_UNITS = {"propagation.trace_err_max": "abs", "propagation.det_drift_max": "rel",
                  "propagation.err_over_estimate_max": "ratio"}
SETUP_UNITS = {"setup.import_numpy_s": "s", "setup.import_scipy_s": "s",
               "setup.import_package_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    names = list(spans.layer_metrics([]))
    names += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_share",
              "trace.self_sum_share"]
    units = dict(SETUP_UNITS)
    for name in names:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_s") or name == "descriptors.s":
            units[name] = "s"
        elif name.endswith(("_calls", "_points")) or name == "descriptors.calls":
            units[name] = "count"
        else:
            units[name] = "ratio"
    units.update(ACCURACY_UNITS)
    return units


def child_env() -> dict[str, str]:
    """Single-threaded children that import the package from this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "IMPULSE_FLOQUET_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def compile_sources() -> None:
    """Write the bytecode of the package and of the benchmark before any
    timing, so that timed imports load it instead of compiling the source."""
    for path in (SRC / "impulse_floquet", Path(__file__).resolve().parent):
        compileall.compile_dir(str(path), quiet=1)


@dataclass
class Job:
    code: int
    wall_s: float
    rss_mb: float


def run_process(args: list[str], stderr_path: Path) -> Job:
    """Run one child to completion; wall time, exit code and peak RSS."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_ENTRY, *argv]


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def tail_rank(n: int) -> tuple[float, int]:
    """The highest percentile with at least 10 samples beyond it, and its
    index in sorted order."""
    index = max(0, n - 11)
    return 100.0 * (index + 1) / n, index


# -- workload plans ----------------------------------------------------------

def plan_sweep(seed: int, d: Path) -> dict:
    doc = inputs.sweep_descriptor(seed)
    jobs, outputs = [], []
    for i, row in enumerate(inputs.sweep_rows(doc)):
        write_json(d / f"sweep_row{i}.json", row)
        outputs.append(str(d / f"sweep_row{i}.csv"))
        jobs.append(inputs.sweep_row_argv(str(d / f"sweep_row{i}.json"), outputs[-1]))
    return {"kind": "cli", "items": inputs.SWEEP_POINTS, "descriptor": doc,
            "jobs": jobs, "outputs": outputs}


def plan_selftest(seed: int, d: Path) -> dict:
    outputs = [str(d / f"selftest{k}.json") for k in range(inputs.SELFTEST_UNITS)]
    return {"kind": "cli", "items": inputs.selftest_systems(), "outputs": outputs,
            "jobs": [inputs.selftest_argv(seed, k, path) for k, path in enumerate(outputs)]}


def plan_windows(seed: int, d: Path) -> dict:
    return {"kind": "windows", "items": inputs.WINDOW_COUNT,
            "population": inputs.windows_population(seed), "probes": inputs.window_probes()}


def plan_long_horizon(seed: int, d: Path) -> dict:
    jobs, names, outputs = [], [], []
    for job in inputs.long_horizon_jobs(seed):
        path = d / f"{job['name']}.json"
        write_json(path, job["descriptor"])
        outputs.append(str(d / f"{job['name']}.out.json"))
        jobs.append(["analyze", "--input", str(path), "--output", outputs[-1]])
        names.append(job["name"])
    sim = inputs.simulate_descriptor(seed)
    write_json(d / "simulate.json", sim)
    outputs.append(str(d / "simulate.csv"))
    jobs.append(["simulate", "--input", str(d / "simulate.json"), "--periods",
                 str(inputs.SIMULATE_PERIODS), "--samples-per-period",
                 str(inputs.SIMULATE_SAMPLES), "--output", outputs[-1]])
    names.append("simulate")
    reference = str(d / "simulate_analyze.json")
    check_jobs = [["analyze", "--input", str(d / "simulate.json"), "--output", reference]]
    return {"kind": "cli", "items": len(jobs), "jobs": jobs, "names": names,
            "outputs": outputs, "check_jobs": check_jobs, "simulate_reference": reference,
            "rotations": {job["name"]: job["rotation_period"]
                          for job in inputs.long_horizon_jobs(seed)
                          if job["rotation_period"] is not None}}


PLANS = {"sweep": plan_sweep, "selftest": plan_selftest, "windows": plan_windows,
         "long_horizon": plan_long_horizon}


# -- measurement ---------------------------------------------------------------

def measure_importtime(d: Path) -> dict[str, float]:
    """Self import time per module family from `python -X importtime`."""
    samples = {name: [] for name in SETUP_UNITS}
    families = {"setup.import_numpy_s": "numpy", "setup.import_scipy_s": "scipy",
                "setup.import_package_s": "impulse_floquet"}
    for _ in range(IMPORTTIME_REPEATS):
        err = d / "importtime.err"
        run_process([sys.executable, "-X", "importtime", "-c", "import impulse_floquet.cli"], err)
        totals = dict.fromkeys(samples, 0.0)
        for line in err.read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue
            module = parts[2].strip()
            for metric, family in families.items():
                if module == family or module.startswith(family + "."):
                    totals[metric] += self_us * 1e-6
        for metric in samples:
            samples[metric].append(totals[metric])
    return {metric: statistics.median(v) for metric, v in samples.items()}


def end_to_end_metrics(items: int, unit_s: list[list[float]], setup_s: list[float],
                       rss_mb: float) -> dict[str, float]:
    """Mean pass time and fastest fresh import, both in reference seconds."""
    pass_s = sum(map(sum, unit_s)) / len(unit_s[0])
    return {"setup_s": min(setup_s), "peak_rss_mb": rss_mb,
            "items_per_s": items / pass_s}


def run_untraced(workload: str, plan: dict, d: Path, seconds: float, tally: checks.Tally,
                 lines: list[str]) -> dict:
    write_json(d / "plan.json", plan)
    job = run_process([sys.executable, "-m", "perfbench.worker", "measure", str(d / "plan.json"),
                       str(d / "result.json"), str(seconds)], d / "worker.err")
    result = checks.read_json(d / "result.json") if job.code == 0 else None
    if result is None:
        tally.add(plan["items"], [f"measure worker exit code {job.code}"])
        return {}
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.log.extend(result["log"])
    samples = result["samples"]
    unit_s = [[hostspeed.reference_seconds(b, samples) for b in blocks]
              for blocks in result["units"]]
    # A fresh import is a child process on the sampler's core, and a sample
    # that the child interrupts reads long; the median leaves those out.
    setup_s = [hostspeed.reference_seconds(b, samples, statistics.median)
               for b in result["setup"]]
    metrics = end_to_end_metrics(plan["items"], unit_s, setup_s, job.rss_mb)
    passes = len(result["extras"])
    wall = sum(t1 - t0 for blocks in result["units"] for t0, t1 in blocks) / passes
    sample_ms = [1e3 * d for _, d in samples]
    lines.append(f"passes: {passes}, units per pass: {len(unit_s)}, worker wall "
                 f"{job.wall_s:.1f} s; unadjusted mean pass {wall:.4f} s; {len(samples)} "
                 f"reference samples, {min(sample_ms):.3f} / {statistics.median(sample_ms):.3f} / "
                 f"{max(sample_ms):.3f} ms min / median / max (nominal "
                 f"{1e3 * hostspeed.REFERENCE_S:g} ms); imports " +
                 ", ".join(f"{t1 - t0:.3f} s ({ref_s:.3f})"
                           for (t0, t1), ref_s in zip(result["setup"], setup_s)))
    lines.extend(workload_figures(workload, plan, unit_s, result["extras"]))
    return metrics


def workload_figures(workload, plan, unit_s, extras) -> list[str]:
    """The workload's own figures, printed by name for reading and not gated:
    in reference seconds, from each unit's mean time."""
    mean = [statistics.fmean(t) for t in unit_s]
    total = sum(mean)
    if workload == "sweep":
        return [f"points_per_s = {plan['items'] / total:.4f} 1/s "
                f"({plan['items']} points in {len(mean)} row sweeps, verdicts {extras[0]})"]
    if workload == "selftest":
        return [f"systems_per_s = {plan['items'] / total:.4f} 1/s "
                f"({plan['items']} systems in {len(mean)} selftests)"]
    if workload == "windows":
        n = len(mean)
        pct, index = tail_rank(n)
        return [f"windows_per_s = {n / total:.4f} 1/s",
                f"window_p50_ms = {1e3 * statistics.median(mean):.4f} ms",
                f"window_tail_ms = {1e3 * sorted(mean)[index]:.4f} ms "
                f"(p{pct:.1f}, n={n} windows, each the mean of {len(unit_s[0])} passes)"]
    acc = extras[0]
    return [f"time_to_solution_s = {sum(mean[:-1]):.4f} s "
            f"(sum of {len(mean) - 1} analyze runs)",
            f"simulate_s = {mean[-1]:.4f} s",
            f"trace_err_max = {acc['trace_err_max']:.6g} abs",
            f"det_drift_max = {acc['det_drift_max']:.6g} rel",
            f"err_over_estimate_max = {acc['err_over_estimate_max']:.6g} ratio"]


def run_traced(workload: str, plan: dict, d: Path, seed: int, tally: checks.Tally,
               lines: list[str]) -> dict:
    metrics = measure_importtime(d)
    write_json(d / "plan.json", plan)
    job = run_process([sys.executable, "-m", "perfbench.worker", "trace", str(d / "plan.json"),
                       str(d / "result.json"), str(d / "spans.json")], d / "worker.err")
    result = checks.read_json(d / "result.json") if job.code == 0 else None
    if result is None:
        tally.add(1, [f"trace worker exit code {job.code}"])
        return metrics
    metrics.update(result["metrics"])
    acc = {}
    if plan["kind"] == "windows":
        checks.check_windows(plan["population"], result["windows"], tally)
        checks.check_probes(plan["probes"], result["probes"], tally)
    else:
        for argv, code in zip(plan.get("check_jobs", []), result["check_exit_codes"]):
            if code != 0:
                tally.log.append(f"check job {argv[0]} exit code {code}")
        acc = checks.CLI_CHECKS[workload](plan, result["exit_codes"], seed, tally)
    for name in ACCURACY_UNITS:
        metrics[name] = acc.get(name.split(".", 1)[1], 0.0)
    tally.log.extend(checks.layer_share_failures(metrics["trace.self_sum_share"]))
    layer_self = [spans.layer_self_metric(layer) for layer in spans.LAYERS]
    top = sorted(layer_self, key=lambda k: -metrics[k])[:4]
    lines.append(f"traced wall {metrics['trace.wall_s']:.3f} s, untraced "
                 f"{metrics['trace.untraced_wall_s']:.3f} s, {result['spans']} spans; "
                 "largest self times: " + ", ".join(f"{k} {metrics[k]:.3f} s" for k in top))
    return metrics


def environment() -> str:
    versions = []
    for name in ("numpy", "scipy"):
        try:
            versions.append(f"{name} {importlib.metadata.version(name)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{name} missing")
    return (f"python {platform.python_version()}, {', '.join(versions)}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


def write_reference(d: Path) -> int:
    """Regenerate the stored sweep reference for the default seed."""
    plan = plan_sweep(DEFAULT_SEED, d)
    codes = [run_process(cli_command(argv), d / "job.err").code for argv in plan["jobs"]]
    rows = checks.sweep_rows(plan)
    if any(codes) or checks.sweep_failures(rows, plan["descriptor"], plan["items"]):
        print("sweep output failed its checks; reference not written", file=sys.stderr)
        return 1
    cols = ["trace", *checks.REFERENCE_COLUMNS]
    text = ",".join(cols) + "\n" + "".join(",".join(r[c] for c in cols) + "\n" for r in rows)
    checks.REFERENCE_CSV.write_text(text, encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the stored sweep reference and exit")
    args = parser.parse_args(argv)

    if not (SRC / "impulse_floquet" / "cli.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    d = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    if args.write_reference:
        return write_reference(d)

    compile_sources()
    plan = {"workload": args.workload, "seed": args.seed, **PLANS[args.workload](args.seed, d)}
    write_json(d / "inputs.json", plan)
    tally = checks.Tally()
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}; {environment()}"]
    if args.trace:
        metrics = run_traced(args.workload, plan, d, args.seed, tally, lines)
        units = per_layer_units()
    else:
        metrics = run_untraced(args.workload, plan, d, args.seconds, tally, lines)
        units = END_TO_END_UNITS
    missing = [name for name in units if name not in metrics]
    if missing:
        tally.log.append(f"metrics not measured: {missing}")
    lines.extend(f"FAIL {msg}" for msg in tally.log[:20])
    lines.extend(f"{name} = {metrics.get(name, math.nan):.6g} {unit}"
                 for name, unit in units.items())
    print("\n".join(lines))
    correct = tally.failed == 0 and not tally.log
    result = {"correct": correct, "attempted": max(1, tally.attempted), "failed": tally.failed,
              "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
