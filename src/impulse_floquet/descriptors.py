"""JSON system descriptors.

Schema:
    {"period": T,
     "coefficients": {"a": [segments], "b": [...], "c": [...]},
     "impulses": [{"tau": t, "alpha": a, "beta": b}, ...]}

Each segment is {"end": breakpoint, "poly": [c0, c1, ...]} with polynomial
coefficients in the global time variable, ascending degree; the segment ends
must be strictly increasing, below the period but for the last one, which must
equal it, so the segments partition [0, T].
"""

from __future__ import annotations

import json
import math
import re
import sys

from .piecewise import PiecewiseFunction, PolySegment
from .system import ImpulseSchedule, ImpulsiveSystem

_COEFF_NAMES = ("a", "b", "c")
_PATH_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$")


class DescriptorError(ValueError):
    """Malformed system descriptor, with the offending field in the message."""


def _number(doc, path: str) -> float:
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise DescriptorError(f"{path}: expected a number, got {type(doc).__name__}")
    try:
        value = float(doc)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DescriptorError(f"{path}: expected a finite number, got {doc}")
    return value


def _coefficient(segments, period: float, path: str) -> PiecewiseFunction:
    if not isinstance(segments, list) or not segments:
        raise DescriptorError(f"{path}: expected a non-empty list of segments")
    ends = []
    polys = []
    prev = 0.0
    for i, seg in enumerate(segments):
        spath = f"{path}[{i}]"
        if not isinstance(seg, dict):
            raise DescriptorError(f"{spath}: expected an object")
        unknown = set(seg) - {"end", "poly"}
        if unknown:
            raise DescriptorError(f"{spath}: unknown fields {sorted(unknown)}")
        if "end" not in seg or "poly" not in seg:
            raise DescriptorError(f"{spath}: needs 'end' and 'poly'")
        end = _number(seg["end"], f"{spath}.end")
        if end <= prev:
            raise DescriptorError(f"{spath}.end: {end} not greater than previous end {prev}")
        if end >= period and i < len(segments) - 1:
            raise DescriptorError(f"{spath}.end: {end} not below the period {period}")
        if not isinstance(seg["poly"], list) or not seg["poly"]:
            raise DescriptorError(f"{spath}.poly: expected a non-empty coefficient list")
        coeffs = tuple(_number(c, f"{spath}.poly[{j}]") for j, c in enumerate(seg["poly"]))
        ends.append(end)
        polys.append(PolySegment(coeffs))
        prev = end
    eps = 1e-9 * max(1.0, period)
    if abs(ends[-1] - period) > eps:
        raise DescriptorError(f"{path}[{len(ends) - 1}].end: segments must end at the period "
                              f"{period}, got {ends[-1]}")
    return PiecewiseFunction(period, tuple(ends[:-1]), tuple(polys))


def system_from_descriptor(doc: dict, memo: dict | None = None) -> ImpulsiveSystem:
    """The system of a descriptor. Points of one sweep chunk pass one `memo`: a
    coefficient list that is the same object, under the same period, is parsed
    once, and the same parsed coefficients and impulse times reuse the merged
    coefficients of the earlier system. Only what parsed is kept."""
    memo = {} if memo is None else memo
    if not isinstance(doc, dict):
        raise DescriptorError("descriptor: expected a JSON object")
    unknown = set(doc) - {"period", "coefficients", "impulses"}
    if unknown:
        raise DescriptorError(f"descriptor: unknown fields {sorted(unknown)}")
    if "period" not in doc:
        raise DescriptorError("period: missing")
    period = _number(doc["period"], "period")
    if period <= 0.0:
        raise DescriptorError(f"period: must be positive, got {period}")
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, dict) or set(coeffs) != set(_COEFF_NAMES):
        raise DescriptorError("coefficients: expected an object with exactly 'a', 'b', 'c'")
    parsed = []
    for name in _COEFF_NAMES:
        key = (id(coeffs[name]), period, name)  # the list is kept, so its id stays its own
        if key not in memo:
            memo[key] = coeffs[name], _coefficient(coeffs[name], period, f"coefficients.{name}")
        parsed.append(memo[key][1])
    impulses = doc.get("impulses", [])
    if not isinstance(impulses, list):
        raise DescriptorError("impulses: expected a list")
    triples = []
    for i, imp in enumerate(impulses):
        path = f"impulses[{i}]"
        if not isinstance(imp, dict):
            raise DescriptorError(f"{path}: expected an object")
        unknown = set(imp) - {"tau", "alpha", "beta"}
        if unknown:
            raise DescriptorError(f"{path}: unknown fields {sorted(unknown)}")
        for key in ("tau", "alpha", "beta"):
            if key not in imp:
                raise DescriptorError(f"{path}.{key}: missing")
        triples.append((_number(imp["tau"], f"{path}.tau"),
                        _number(imp["alpha"], f"{path}.alpha"),
                        _number(imp["beta"], f"{path}.beta")))
    schedule = ImpulseSchedule.from_triples(period, triples)
    key = (*map(id, parsed), schedule.taus)
    merged = memo[key].coefficients() if key in memo else parsed
    memo[key] = system = ImpulsiveSystem(*merged, schedule)
    return system


def system_to_descriptor(system: ImpulsiveSystem) -> dict:
    coeffs = {}
    for name, f in zip(_COEFF_NAMES, system.coefficients()):
        segs = []
        knots = f.knots
        for i, seg in enumerate(f.segments):
            segs.append({"end": knots[i + 1], "poly": list(seg.coeffs)})
        coeffs[name] = segs
    return {
        "period": system.period,
        "coefficients": coeffs,
        "impulses": [{"tau": imp.tau, "alpha": imp.alpha, "beta": imp.beta}
                     for imp in system.schedule.impulses],
    }


def parse_descriptor_text(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def read_descriptor_source(source: str) -> dict:
    """Descriptor from a file path, '-' for stdin, or an inline JSON object."""
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_descriptor_text(text)


def load_system(source: str) -> ImpulsiveSystem:
    """System from a file path, stdin ('-') or inline JSON."""
    return system_from_descriptor(read_descriptor_source(source))


def path_keys(path: str) -> list[tuple[str, str | int]]:
    """The keys of a path such as 'coefficients.c[0].poly[1]', in order, each with
    the text of the path up to its dotted part: ('coefficients', 'coefficients'),
    ('coefficients.c[0]', 'c'), ('coefficients.c[0]', 0), ..."""
    parts, out = path.split("."), []
    for n, part in enumerate(parts):
        m = _PATH_TOKEN.match(part)
        if not m:
            raise DescriptorError(f"sweep axis path: bad component {part!r}")
        trail = ".".join(parts[:n + 1])
        out += [(trail, key) for key in
                (m.group(1), *(int(x) for x in re.findall(r"\[(\d+)\]", m.group(2))))]
    return out


def set_descriptor_value(doc: dict, path: str, value: float) -> dict:
    """A new descriptor: `doc` with the value at a path such as 'impulses[0].beta' or
    'coefficients.c[0].poly[1]' replaced. The containers along the path are copied;
    `doc` and everything off the path are shared, unchanged."""
    keys = path_keys(path)
    target = root = dict(doc) if isinstance(doc, dict) else doc
    for n, (trail, key) in enumerate(keys):
        if not (isinstance(target, dict) and key in target if isinstance(key, str)
                else isinstance(target, list) and key < len(target)):
            raise DescriptorError(f"sweep axis path {path!r}: no field at {trail}")
        if n == len(keys) - 1:
            target[key] = value
        elif isinstance(target[key], (dict, list)):
            target[key] = type(target[key])(target[key])
        target = target[key]
    return root
