"""Span recording around the calls into each package module, and the per-layer
metrics computed from the span tree.

The recorder wraps the names that calling modules bind (for example
`cli.monodromy` and `harness.monodromy`) and a few class attributes, from
outside the package: nothing inside `src/` changes. Spans are kept in memory
with a parent link and written out when the run ends. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("bench", "cli", "descriptors", "system", "harness", "propagation", "piecewise",
          "criteria", "floquet", "lyapunov")

# A layer's total self time is reported as `<layer>.self_s`, except where the
# layer has a single entry point and its metric is named after it.
LAYER_SELF_METRIC = {"descriptors": "descriptors.s", "system": "system.validate_s",
                     "piecewise": "piecewise.integrate_s", "floquet": "floquet.classify_s"}

def layer_self_metric(layer: str) -> str:
    return LAYER_SELF_METRIC.get(layer, f"{layer}.self_s")


@dataclass(frozen=True)
class EntryPoint:
    """A callable to wrap: `owner` is "module:attr" or "module:Class.method";
    `bound_in` lists the modules whose binding of a function is replaced."""

    span: str
    owner: str
    bound_in: tuple[str, ...] = ()
    count: object = None    # args -> work units recorded on the span
    outcome: object = None  # result -> True when the call was useful


def _len_first(args, kwargs):
    return len(args[1]) if len(args) > 1 else len(kwargs["ts"])


ENTRY_POINTS = (
    # The benchmark calls cli.main and the two disconjugacy calls through
    # their modules, so those bindings are the ones replaced.
    EntryPoint("cli.main", "impulse_floquet.cli:main", ("impulse_floquet.cli",)),
    EntryPoint("descriptors.load", "impulse_floquet.descriptors:load_system",
               ("impulse_floquet.cli",)),
    EntryPoint("descriptors.read", "impulse_floquet.descriptors:read_descriptor_source",
               ("impulse_floquet.cli",)),
    EntryPoint("descriptors.build", "impulse_floquet.descriptors:system_from_descriptor",
               ("impulse_floquet.cli",)),
    EntryPoint("descriptors.set", "impulse_floquet.descriptors:set_descriptor_value",
               ("impulse_floquet.cli",)),
    EntryPoint("system.validate", "impulse_floquet.system:validate_system",
               ("impulse_floquet.cli", "impulse_floquet.propagation")),
    EntryPoint("harness.generate", "impulse_floquet.harness:generate",
               ("impulse_floquet.harness",)),
    EntryPoint("harness.soundness_sweep", "impulse_floquet.harness:soundness_sweep",
               ("impulse_floquet.cli",)),
    EntryPoint("harness.lyapunov_sweep", "impulse_floquet.harness:lyapunov_sweep",
               ("impulse_floquet.cli",)),
    EntryPoint("propagation.monodromy", "impulse_floquet.propagation:monodromy",
               ("impulse_floquet.cli", "impulse_floquet.harness")),
    EntryPoint("propagation.dense_build", "impulse_floquet.propagation:DensePath.__init__"),
    EntryPoint("propagation.dense_sample",
               "impulse_floquet.propagation:DensePath.sample_matrices", count=_len_first),
    EntryPoint("propagation.dense_eval", "impulse_floquet.propagation:DensePath.matrix"),
    EntryPoint("propagation.dense_eval", "impulse_floquet.propagation:DensePath.alpha_product"),
    EntryPoint("piecewise.integrate", "impulse_floquet.piecewise:PiecewiseFunction.integrate"),
    EntryPoint("piecewise.integrate", "impulse_floquet.piecewise:integrate_periodic",
               ("impulse_floquet.lyapunov",)),
    EntryPoint("piecewise.integrate", "impulse_floquet.piecewise:adaptive_integral",
               ("impulse_floquet.criteria", "impulse_floquet.lyapunov")),
    EntryPoint("criteria.evaluate_all", "impulse_floquet.criteria:evaluate_all",
               ("impulse_floquet.cli", "impulse_floquet.harness")),
    # harness reaches these through the module (`crit.check_main`); evaluate_all
    # calls its own references, which stay unwrapped.
    EntryPoint("criteria.check", "impulse_floquet.criteria:check_main",
               ("impulse_floquet.criteria",)),
    EntryPoint("criteria.check", "impulse_floquet.criteria:check_guseinov_zafer",
               ("impulse_floquet.criteria",)),
    EntryPoint("floquet.classify", "impulse_floquet.floquet:classify",
               ("impulse_floquet.cli", "impulse_floquet.harness")),
    EntryPoint("lyapunov.test", "impulse_floquet.lyapunov:disconjugacy_test",
               ("impulse_floquet.cli", "impulse_floquet.lyapunov"),
               outcome=lambda r: r.status == "disconjugate-certified"),
    EntryPoint("lyapunov.oracle", "impulse_floquet.lyapunov:disconjugacy_oracle",
               ("impulse_floquet.cli", "impulse_floquet.lyapunov")),
    EntryPoint("lyapunov.zero_pair", "impulse_floquet.lyapunov:find_zero_pair",
               ("impulse_floquet.harness",), outcome=lambda r: r is not None),
    EntryPoint("lyapunov.verify", "impulse_floquet.lyapunov:lyapunov_verify",
               ("impulse_floquet.harness",)),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    count: int = 0
    useful: bool | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory span store; `stack` holds the ids of the open spans."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, entry: EntryPoint):
        def traced(*args, **kwargs):
            span = self._open(entry.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if entry.count is not None:
                span.count = entry.count(args, kwargs)
            if entry.outcome is not None:
                span.useful = bool(entry.outcome(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in self.spans], fh)


def install(recorder: Recorder, entries=ENTRY_POINTS):
    """Replace every entry point by its traced wrapper; returns an undo list."""
    undo = []
    for entry in entries:
        module_name, attr = entry.owner.split(":")
        owner_module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner_module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, recorder.wrap(original, entry))
            continue
        original = getattr(owner_module, attr)
        wrapper = recorder.wrap(original, entry)
        for target_name in entry.bound_in:
            target = importlib.import_module(target_name)
            if getattr(target, attr) is not original:
                raise RuntimeError(f"{target_name}.{attr} is not {entry.owner}")
            undo.append((target, attr, original))
            setattr(target, attr, wrapper)
    return undo


def uninstall(undo) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other: the covered time is the sum of their durations."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def package_share(spans: list[Span], wall: float) -> float:
    """Share of `wall` covered by the self times of the package layers, that
    is of every layer but the benchmark's own `bench` spans. Time the
    wrappers miss stays in the self time of a `bench` span and lowers it."""
    selfs = self_times(spans)
    return sum(st for s, st in zip(spans, selfs) if s.layer != "bench") / wall


def _entries(spans: list[Span], name: str) -> list[Span]:
    """Spans of `name` not nested in a span of the same name (recursion and
    internal re-entry count once)."""
    return [s for s in spans if s.name == name
            and (s.parent is None or spans[s.parent].name != name)]


def _p50_ms(spans: list[Span]) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times, call counts, per-call medians (of the inclusive
    duration, as the caller sees it) and useful-outcome ratios."""
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    name_self: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        layer_self[s.layer] += st
        name_self[s.name] = name_self.get(s.name, 0.0) + st
    layer_entries = [s for s in spans if s.parent is None
                     or spans[s.parent].layer != s.layer]

    def calls(name):
        return float(len(_entries(spans, name)))

    def entered(layer):
        return float(sum(1 for s in layer_entries if s.layer == layer))

    def share(name):
        calls_ = _entries(spans, name)
        return sum(bool(s.useful) for s in calls_) / len(calls_) if calls_ else 0.0

    m = {layer_self_metric(layer): layer_self[layer] for layer in LAYERS}
    m.update({
        "descriptors.calls": entered("descriptors"),
        "harness.generate_calls": calls("harness.generate"),
        "harness.generate_s": name_self.get("harness.generate", 0.0),
        "harness.generate_p50_ms": _p50_ms(_entries(spans, "harness.generate")),
        "propagation.monodromy_calls": calls("propagation.monodromy"),
        "propagation.monodromy_s": name_self.get("propagation.monodromy", 0.0),
        "propagation.monodromy_p50_ms": _p50_ms(_entries(spans, "propagation.monodromy")),
        "propagation.dense_build_calls": calls("propagation.dense_build"),
        "propagation.dense_build_s": name_self.get("propagation.dense_build", 0.0),
        "propagation.dense_sample_points": float(sum(
            s.count for s in _entries(spans, "propagation.dense_sample"))),
        "propagation.dense_sample_s": name_self.get("propagation.dense_sample", 0.0),
        "propagation.dense_eval_calls": calls("propagation.dense_eval"),
        "propagation.dense_eval_s": name_self.get("propagation.dense_eval", 0.0),
        "piecewise.integrate_calls": entered("piecewise"),
        "criteria.evaluate_all_calls": calls("criteria.evaluate_all"),
        "criteria.evaluate_all_s": name_self.get("criteria.evaluate_all", 0.0),
        "criteria.evaluate_all_p50_ms": _p50_ms(_entries(spans, "criteria.evaluate_all")),
        "floquet.classify_calls": calls("floquet.classify"),
        "lyapunov.test_calls": calls("lyapunov.test"),
        "lyapunov.test_s": name_self.get("lyapunov.test", 0.0),
        "lyapunov.test_p50_ms": _p50_ms(_entries(spans, "lyapunov.test")),
        "lyapunov.oracle_s": name_self.get("lyapunov.oracle", 0.0),
        "lyapunov.oracle_p50_ms": _p50_ms(_entries(spans, "lyapunov.oracle")),
        "lyapunov.zero_pair_calls": calls("lyapunov.zero_pair"),
        "lyapunov.zero_pair_s": name_self.get("lyapunov.zero_pair", 0.0),
        "lyapunov.verify_s": name_self.get("lyapunov.verify", 0.0),
        "lyapunov.pairs_per_scan": share("lyapunov.zero_pair"),
        "lyapunov.certified_share": share("lyapunov.test"),
    })
    return m
