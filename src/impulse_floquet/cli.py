"""Command-line front end over JSON system descriptors.

Subcommands: analyze, criteria, sweep, disconjugacy, simulate, selftest.
Exit codes: 0 success, 2 malformed input or invalid system, 3 integration
failure, 4 soundness violation (a certificate contradicted by the oracle or
by direct classification). All file I/O is UTF-8; CSV uses ',' as the
delimiter and '.' as the decimal separator.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import criteria as crit
from .criteria import evaluate_all, evaluate_many
from .descriptors import (DescriptorError, load_system, path_keys, read_descriptor_source,
                          set_descriptor_value, system_from_descriptor)
from .floquet import BOUNDARY_TOL, classify
from .harness import (FORCE_GUSEINOV_ZAFER, FORCE_MAIN, GeneratorSpec, chunked_map,
                      lyapunov_sweep, soundness_sweep)
from .lyapunov import (DISCONJUGATE_CERTIFIED, NOT_DISCONJUGATE,
                       disconjugacy_oracle, disconjugacy_test)
from .piecewise import EvaluationError
from .propagation import DensePath, IntegrationFailureError, monodromies, monodromy
from .system import InvalidSystemError, validate_system
from .tolerances import DEFAULT_TOLERANCES

_STATUS_MARKS = {crit.SATISFIED: "✓", crit.VIOLATED: "✗",
                 crit.MARGINAL: "≈", crit.UNDECIDABLE: "?"}

SWEEP_BASE_COLUMNS = ["trace", "det", "verdict", *crit.CRITERION_ORDER, "status"]
SIMULATE_COLUMNS = ["t", "x", "u", "z", "v"]
_MAX_SWEEP_POINTS = 1_000_000  # cmd_sweep holds every point and the whole CSV in memory
_MAX_SIMULATE_ROWS = 4_000_000  # cmd_simulate peaks at 180-230 B a row (tracemalloc, 10**6 rows)
_SIMULATE_BLOCK = 64  # CSV rows per write; 256 to 4,096 raised peak RSS in long-running processes
_TOL_FLAGS = {"abs": "ODE absolute tolerance", "rel": "ODE relative tolerance",
              "strict": "strictness tolerance for criteria margins"}


def _tolerances(args):
    # a command has the --tol-* flags of the tolerances it reads, and only those
    flags = {name: getattr(args, f"tol_{name}", None) for name in _TOL_FLAGS}
    for name, value in flags.items():
        if value is not None and not 0.0 <= value < math.inf:
            raise DescriptorError(f"--tol-{name} must be finite and >= 0, got {value}")
    return DEFAULT_TOLERANCES.with_overrides(abs_tol=flags["abs"], rel_tol=flags["rel"],
                                             strict=flags["strict"])


def _open_output(args):
    path = getattr(args, "output", "-")
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _emit(args, text: str, blocks=()) -> None:
    """Write text, ended by a newline, then each of `blocks` as it is made."""
    out, close = _open_output(args)
    try:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
        for block in blocks:
            out.write(block)
    finally:
        if close:
            out.close()


def _json(doc) -> str:
    """Strict JSON: every non-finite number is printed as null."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(finite(doc), indent=2, sort_keys=True, allow_nan=False)


def _load_valid_system(args):
    system = load_system(args.input)
    violations = validate_system(system)
    if violations:
        raise InvalidSystemError(violations)
    return system


def _analysis_document(system, tol) -> dict:
    m = monodromy(system, tol)
    verdict = classify(m)
    reports = evaluate_all(system, tol)
    return {
        "tolerances": {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol,
                       "strict": tol.strict, "boundary": BOUNDARY_TOL},
        "monodromy": {
            "matrix": [list(map(float, row)) for row in m.matrix],
            "trace": m.trace,
            "det": m.det,
            "det_integrated": m.det_integrated,
            "multipliers": [{"re": r.real, "im": r.imag} for r in m.multipliers],
            "error_estimate": m.error_estimate,
        },
        "verdict": verdict.to_json(),
        "criteria": [r.to_json() for r in reports],
        "any_certified": crit.any_certified(reports),
    }


def _human_report(doc: dict) -> str:
    lines = []
    m = doc["monodromy"]
    lines.append(f"period map: trace={m['trace']:.12g}  det={m['det']:.12g}"
                 f"  (integrated det {m['det_integrated']:.12g})")
    mults = ", ".join(f"{r['re']:.9g}{r['im']:+.9g}i" for r in m["multipliers"])
    lines.append(f"multipliers: {mults}")
    lines.append(f"verdict: {doc['verdict']['category']}")
    lines.append("criteria:")
    for rep in doc["criteria"]:
        lines.append(f"  {rep['criterion']}: {rep['conclusion']}")
        for cond in rep["conditions"]:
            mark = _STATUS_MARKS.get(cond["status"], "?")
            margin = "" if cond.get("margin") is None else f"  margin={cond['margin']:.6g}"
            note = f"  ({cond['note']})" if cond.get("note") else ""
            lines.append(f"    {mark} {cond['label']}{margin}{note}")
    lines.append(f"any criterion certifies: {'yes' if doc['any_certified'] else 'no'}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    tol = _tolerances(args)
    system = _load_valid_system(args)
    doc = _analysis_document(system, tol)
    if args.format == "human":
        _emit(args, _human_report(doc))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(SWEEP_BASE_COLUMNS[:-1])
        conclusions = {r["criterion"]: r["conclusion"] for r in doc["criteria"]}
        writer.writerow([doc["monodromy"]["trace"], doc["monodromy"]["det"],
                         doc["verdict"]["category"],
                         *(conclusions[c] for c in crit.CRITERION_ORDER)])
        _emit(args, buf.getvalue())
    else:
        _emit(args, _json(doc))
    return 0


def cmd_criteria(args) -> int:
    tol = _tolerances(args)
    system = _load_valid_system(args)
    reports = evaluate_all(system, tol)
    doc = {"criteria": [r.to_json() for r in reports],
           "any_certified": crit.any_certified(reports)}
    if args.format == "human":
        lines = []
        for rep in doc["criteria"]:
            lines.append(f"{rep['criterion']}: {rep['conclusion']}")
            for cond in rep["conditions"]:
                mark = _STATUS_MARKS.get(cond["status"], "?")
                margin = "" if cond.get("margin") is None else f"  margin={cond['margin']:.6g}"
                lines.append(f"  {mark} {cond['label']}{margin}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _json(doc))
    return 0


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    if "=" not in text:
        raise DescriptorError(f"sweep axis {text!r}: expected path=lo:hi:steps")
    path, spec = text.split("=", 1)
    parts = spec.split(":")
    if len(parts) != 3:
        raise DescriptorError(f"sweep axis {text!r}: expected path=lo:hi:steps")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise DescriptorError(f"sweep axis {text!r}: non-numeric bounds or steps")
    if not math.isfinite(hi - lo):  # also a NaN or infinite bound
        raise DescriptorError(f"sweep axis {text!r}: lo, hi and hi - lo must be finite")
    if steps < 2:
        raise DescriptorError(f"sweep axis {text!r}: steps must be >= 2")
    return path.strip(), lo, hi, steps


def _sweep_chunk(job) -> list[list]:
    """CSV rows of consecutive grid points, their period maps and criteria in one call
    each; the points share one parse memo (see `system_from_descriptor`)."""
    doc, points, tol = job
    systems: list = []
    memo: dict = {}
    for assignments in points:
        point = doc
        try:
            for path, value in assignments:
                point = set_descriptor_value(point, path, float(value))
            systems.append(system_from_descriptor(point, memo))
        except (DescriptorError, InvalidSystemError) as exc:
            systems.append(exc)
    made = iter(monodromies([s for s in systems if not isinstance(s, Exception)], tol))
    maps = [s if isinstance(s, Exception) else next(made) for s in systems]
    reports = iter(evaluate_many(
        [s for s, m in zip(systems, maps) if not isinstance(m, Exception)], tol))
    rows = []
    for assignments, m in zip(points, maps):
        values = [v for _, v in assignments]
        outcome = m if isinstance(m, Exception) else next(reports)
        if isinstance(outcome, Exception):
            rows.append([*values, "", "", "", *([""] * len(crit.CRITERION_ORDER)),
                         f"error: {outcome}"])
            continue
        conclusions = {r.criterion: r.conclusion for r in outcome}
        rows.append([*values, m.trace, m.det, classify(m).category,
                     *(conclusions[c] for c in crit.CRITERION_ORDER), "ok"])
    return rows


def cmd_sweep(args) -> int:
    tol = _tolerances(args)
    doc = read_descriptor_source(args.input)
    axes = [_parse_axis(a) for a in args.axes]
    if not 1 <= len(axes) <= 2:
        raise DescriptorError("sweep needs one or two --axes")
    if math.prod(steps for *_, steps in axes) > _MAX_SWEEP_POINTS:
        raise DescriptorError(f"sweep grid of more than {_MAX_SWEEP_POINTS} points")
    for path, lo, _, _ in axes:
        set_descriptor_value(doc, path, lo)
    paths = [p for p, *_ in axes]
    if len({tuple(k for _, k in path_keys(p)) for p in paths}) < len(paths):
        raise DescriptorError(f"sweep axis path {paths[-1]!r} given twice")

    points = [[]]
    for path, *spec in axes:  # row-major: the first axis varies slowest
        points = [[*point, (path, float(v))] for point in points for v in np.linspace(*spec)]
    chunks = chunked_map(_sweep_chunk, points, args.workers, lambda c: (doc, c, tol))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*paths, *SWEEP_BASE_COLUMNS])
    for rows in chunks:
        writer.writerows(rows)
    _emit(args, buf.getvalue())
    return 0


def cmd_disconjugacy(args) -> int:
    if not -math.inf < args.t1 < args.t2 < math.inf:
        raise DescriptorError("disconjugacy needs finite --t1 and --t2 with --t1 < --t2")
    tol = _tolerances(args)
    system = _load_valid_system(args)
    check = disconjugacy_test(system, args.t1, args.t2, tol)
    oracle = disconjugacy_oracle(system, args.t1, args.t2, tol)
    disagreement = (check.status == DISCONJUGATE_CERTIFIED and oracle == NOT_DISCONJUGATE)
    doc = {"t1": args.t1, "t2": args.t2, "test": check.to_json(), "oracle": oracle,
           "disagreement": disagreement}
    _emit(args, _json(doc))
    if disagreement:
        print("soundness violation: certificate contradicted by the oracle",
              file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    periods, m = args.periods, args.samples_per_period
    if periods < 0 or m < 1 or not math.isfinite(args.x0) or not math.isfinite(args.u0):
        raise DescriptorError("simulate needs --periods >= 0, --samples-per-period >= 1 "
                              "and finite --x0 and --u0")
    if periods * m + 1 > _MAX_SIMULATE_ROWS:
        raise DescriptorError(f"simulate of more than {_MAX_SIMULATE_ROWS} rows")
    tol = _tolerances(args)
    system = _load_valid_system(args)
    T = system.period
    rows, prods = np.empty((0, 5)), np.empty(0)
    if periods > 0:
        path = DensePath(system, 0.0, periods * T, tol)
        ts = np.concatenate([np.arange(periods * m) * (T / m), [periods * T]])
        mats, prods = path.sample_matrices(ts)
        y0 = np.array([args.x0, args.u0])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/nan in place
            xs = mats[:, 0, :] @ y0
            us = mats[:, 1, :] @ y0
            rows = np.column_stack([ts, xs, us, xs / prods, us / prods])
    _emit(args, ",".join(SIMULATE_COLUMNS) + "\r\n",
          (_simulate_block(rows[i:i + _SIMULATE_BLOCK], prods[i:i + _SIMULATE_BLOCK])
           for i in range(0, len(rows), _SIMULATE_BLOCK)))
    return 0


def _simulate_block(rows, prods) -> str:
    """csv.writer's bytes (each float's repr, \r\n) of rows (t, x, u, z, v): where the alpha
    product p is +-1, z = x / p and v = u / p are exact, x's and u's text negated for -1."""
    lines = []
    for (t, x, u, z, v), p in zip(rows.tolist(), prods.tolist()):
        x, u = repr(x), repr(u)
        z, v = ((x, u) if p == 1.0 else (repr(z), repr(v)) if p != -1.0 else
                (x[1:] if x[0] == "-" else x if x == "nan" else "-" + x,
                 u[1:] if u[0] == "-" else u if u == "nan" else "-" + u))
        lines.append(f"{t!r},{x},{u},{z},{v}\r\n")
    return "".join(lines)


def cmd_selftest(args) -> int:
    tol = _tolerances(args)
    n = args.n
    if n < 0:
        raise DescriptorError("selftest needs --n >= 0")
    results = {}
    bad = False
    for mode in (FORCE_MAIN, FORCE_GUSEINOV_ZAFER):
        spec = GeneratorSpec(seed=args.seed, mode=mode, margin=1e-3)
        summary = soundness_sweep(spec, n, tol, workers=args.workers)
        doc = summary.to_json()
        doc.pop("records")
        results[mode] = doc
        bad = bad or bool(summary.violations)
    ly = lyapunov_sweep(GeneratorSpec(seed=args.seed, mode=FORCE_MAIN, margin=1e-3),
                        max(1, n // 5), tol, workers=args.workers)
    results["lyapunov"] = ly.to_json()
    bad = bad or bool(ly.failures)
    _emit(args, _json(results))
    if bad:
        print("soundness violation found; see summary", file=sys.stderr)
        return 4
    return 0


def _add_common(p: argparse.ArgumentParser, tols=tuple(_TOL_FLAGS), with_input=True) -> None:
    if with_input:
        p.add_argument("--input", required=True,
                       help="system descriptor path, or - for stdin")
    for name in tols:
        p.add_argument(f"--tol-{name}", type=float, default=None, help=_TOL_FLAGS[name])
    p.add_argument("--output", default="-", help="output path, or - for stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impulse-floquet",
        description="Stability analysis of planar periodic Hamiltonian systems "
                    "with impulsive state jumps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="period map, verdict and all criteria")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv", "human"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("criteria", help="criteria reports only")
    _add_common(p, ("strict",))
    p.add_argument("--format", choices=("json", "human"), default="json")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("sweep", help="grid sweep over descriptor fields, CSV out")
    _add_common(p)
    p.add_argument("--axes", action="append", required=True,
                   metavar="PATH=LO:HI:STEPS",
                   help="sweep axis; repeat for a second axis (row-major order)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("disconjugacy", help="two-zero certificate plus brute-force oracle")
    _add_common(p)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.set_defaults(func=cmd_disconjugacy)

    p = sub.add_parser("simulate", help="multi-period trajectory CSV (t, x, u, z, v)")
    _add_common(p, ("abs", "rel"))
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--samples-per-period", type=int, default=32)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--u0", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="run the validation-harness sweeps")
    _add_common(p, with_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DescriptorError, InvalidSystemError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (IntegrationFailureError, EvaluationError) as exc:  # ODE or quadrature
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
