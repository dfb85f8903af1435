"""In-process runner for the benchmark, started as its own interpreter.

    python -m perfbench.worker measure PLAN RESULT SECONDS
        untimed check jobs and probes, then passes over the plan's units until
        SECONDS have gone by, on one core, while a thread takes host-speed
        reference samples. Each unit is timed on its own; each pass ends with
        a fresh-interpreter import, also timed, and its outputs are checked.
    python -m perfbench.worker trace PLAN RESULT SPANS
        a warm-up pass, an untraced pass and a traced pass of the plan's
        workload in this process; writes the spans and the per-layer metrics.

PLAN is the JSON the benchmark wrote: either CLI jobs (argv lists run through
`cli.main`, one unit each) or a windows population (one unit per window).
Check jobs run once, untimed and untraced, to produce reference outputs for
the correctness checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SETUP_START = 3  # fresh-import samples before the first pass; one follows each pass
IMPORT_TIMEOUT_S = 60.0


def _window(system, w) -> dict:
    from impulse_floquet import lyapunov

    try:
        check = lyapunov.disconjugacy_test(system, w["t1"], w["t2"])
        oracle = lyapunov.disconjugacy_oracle(system, w["t1"], w["t2"])
    except (ValueError, RuntimeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"status": check.status, "sup": check.sup_value, "oracle": oracle}


def _windows(systems, population) -> list[dict]:
    return [_window(system, w) for system, w in zip(systems, population)]


def _systems(population):
    from impulse_floquet.descriptors import system_from_descriptor
    return [system_from_descriptor(w["system"]) for w in population]


def _cli_jobs(jobs) -> list[int]:
    from impulse_floquet import cli
    return [cli.main(argv) for argv in jobs]


def _pass(plan, systems):
    if plan["kind"] == "windows":
        return _windows(systems, plan["population"])
    return _cli_jobs(plan["jobs"])


def _units(plan, systems) -> list:
    """The plan's work as zero-argument calls, each timed on its own."""
    if plan["kind"] == "windows":
        return [lambda s=s, w=w: _window(s, w) for s, w in zip(systems, plan["population"])]
    from impulse_floquet import cli
    return [lambda argv=argv: cli.main(argv) for argv in plan["jobs"]]


def fresh_import() -> None:
    """One fresh interpreter importing the CLI module."""
    subprocess.run([sys.executable, "-c", "import impulse_floquet.cli"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   timeout=IMPORT_TIMEOUT_S)


def run_measure(plan, seconds: float) -> dict:
    from perfbench import checks, hostspeed

    tally = checks.Tally()
    systems = None
    if plan["kind"] == "windows":
        systems = _systems(plan["population"])
        checks.check_probes(plan["probes"], _windows(_systems(plan["probes"]), plan["probes"]),
                            tally)
    for argv, code in zip(plan.get("check_jobs", []), _cli_jobs(plan.get("check_jobs", []))):
        if code != 0:
            tally.log.append(f"check job {argv[0]} exit code {code}")

    # The units, the fresh imports and the sampler share one core, so that
    # the samples inside a unit see the load the unit saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with hostspeed.Sampler() as sampler:
        out = _measure_passes(plan, _units(plan, systems), seconds, tally)
    return {**out, "samples": sampler.samples, "attempted": tally.attempted,
            "failed": tally.failed, "log": tally.log}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (t0, time.perf_counter())


def _measure_passes(plan, units, seconds: float, tally) -> dict:
    from perfbench import checks

    setup = [_timed(fresh_import)[1] for _ in range(SETUP_START)]
    times = [[] for _ in units]
    extras = []
    start = time.perf_counter()
    while True:
        results = []
        for unit, unit_times in zip(units, times):
            out, block = _timed(unit)
            results.append(out)
            unit_times.append(block)
        if plan["kind"] == "windows":
            checks.check_windows(plan["population"], results, tally)
            extras.append({})
        else:
            extras.append(checks.CLI_CHECKS[plan["workload"]](plan, results, plan["seed"], tally))
        setup.append(_timed(fresh_import)[1])
        # Stop at the pass boundary nearest to the limit: one more pass runs
        # when it is expected to end less than half a pass past it.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(extras) > seconds:
            break
    return {"units": times, "setup": setup, "extras": extras}


def run_trace(plan, spans_path: str) -> dict:
    from perfbench import spans

    systems = _systems(plan["population"]) if plan["kind"] == "windows" else None
    _pass(plan, systems)  # warm-up: first-call costs would otherwise skew the overhead
    t0 = time.perf_counter()
    _pass(plan, systems)
    untraced = time.perf_counter() - t0

    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        t0 = time.perf_counter()
        with recorder.span("bench.pass"):
            result = _pass(plan, systems)
        traced = time.perf_counter() - t0
    finally:
        spans.uninstall(undo)
    recorder.dump(spans_path)

    metrics = spans.layer_metrics(recorder.spans)
    metrics.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                    "trace.overhead_share": (traced - untraced) / untraced,
                    "trace.self_sum_share": spans.package_share(recorder.spans, traced)})
    out = {"metrics": metrics, "spans": len(recorder.spans)}
    if plan["kind"] == "windows":
        out["windows"] = result
        out["probes"] = _windows(_systems(plan["probes"]), plan["probes"])
    else:
        out["exit_codes"] = result
        out["check_exit_codes"] = _cli_jobs(plan.get("check_jobs", []))
    return out


def main(argv) -> int:
    mode, plan_path, result_path = argv[:3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if mode == "measure":
        result = run_measure(plan, float(argv[3]))
    else:
        result = run_trace(plan, argv[3])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
