"""Seeded input builders for the benchmark workloads.

Every input is a JSON system descriptor (plus argv or a time window) built
here from the workload seed with numpy's generator. None of them comes from
`impulse_floquet.harness.generate`, so a change to the package's own
generator cannot change another workload's inputs. The same seed always
gives the same inputs.
"""

from __future__ import annotations

import copy
import math

import numpy as np

# The sweep grid: c[0].poly[0] over -1:7 (rows) by impulses[0].beta over -2:2
# (columns), 21 x 21. Each row runs as its own one-axis CLI sweep.
SWEEP_ROW_VALUES = np.linspace(-1.0, 7.0, 21)
SWEEP_COLUMN_AXIS = "impulses[0].beta=-2:2:21"
SWEEP_POINTS = 21 * 21
# The selftest runs as SELFTEST_UNITS CLI selftests of SELFTEST_N systems per
# forced mode, on consecutive generator seeds.
SELFTEST_UNITS = 10
SELFTEST_N = 5
WINDOW_COUNT = 40
ROTATION_PERIODS = (1.0, 50.0, 1000.0)
SIMULATE_PERIODS = 1000
SIMULATE_SAMPLES = 32

# Stream tags keep the workloads' random streams apart for one seed.
_TAGS = {"sweep": 1, "windows": 2, "long_horizon": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], int(seed)])


def _segments(ends, polys) -> list[dict]:
    return [{"end": float(e), "poly": [float(c) for c in p]} for e, p in zip(ends, polys)]


def descriptor(period, a, b, c, impulses=()) -> dict:
    """Descriptor from (ends, polys) pairs per coefficient and impulse triples."""
    return {"period": float(period),
            "coefficients": {"a": _segments(*a), "b": _segments(*b), "c": _segments(*c)},
            "impulses": [{"tau": float(t), "alpha": float(al), "beta": float(be)}
                         for t, al, be in impulses]}


def constant_descriptor(period: float, a: float, b: float, c: float, impulses=()) -> dict:
    one = ([period], [[a]]), ([period], [[b]]), ([period], [[c]])
    return descriptor(period, *one, impulses=impulses)


def quadratic_min(poly, lo: float, hi: float) -> float:
    """Exact minimum of c0 + c1 t + c2 t^2 on [lo, hi]."""
    c0, c1, c2 = (list(poly) + [0.0, 0.0])[:3]
    cands = [lo, hi]
    if c2 != 0.0 and lo < -c1 / (2.0 * c2) < hi:
        cands.append(-c1 / (2.0 * c2))
    return min(c0 + c1 * t + c2 * t * t for t in cands)


def _unit_product_alphas(rng, count: int, lo: float, hi: float) -> list[float]:
    """Signed multipliers whose product is +-1, so det = prod(alpha^2) = 1."""
    alphas = list(rng.uniform(lo, hi, count) * rng.choice([-1.0, 1.0], count))
    alphas[-1] = float(rng.choice([-1.0, 1.0])) / math.prod(alphas[:-1])
    return alphas


def sweep_descriptor(seed: int) -> dict:
    """Three quadratic segments for each of a, b, c on one knot layout, b > 0,
    and two impulses with prod(alpha) = +-1. The sweep axes move c[0].poly[0]
    and impulses[0].beta, so every grid point shares the layout. The seed
    moves the knots, impulse times and small coefficient terms; the ranges are
    narrow so that the integration work per grid varies little between seeds."""
    rng = _rng("sweep", seed)
    T = 1.0
    ends = [T * (1 + rng.uniform(-0.25, 0.25)) / 3, T * (2 + rng.uniform(-0.25, 0.25)) / 3, T]
    a = [[rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1), rng.uniform(-0.05, 0.05)]
         for _ in range(3)]
    b = [[rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1), rng.uniform(-0.05, 0.05)]
         for _ in range(3)]
    c = [[rng.uniform(1.2, 1.8), rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)]
         for _ in range(3)]
    taus = [T * rng.uniform(0.15, 0.45), T * rng.uniform(0.55, 0.85)]
    alphas = _unit_product_alphas(rng, 2, 0.8, 1.25)
    betas = list(rng.uniform(-0.5, 0.5, 2))
    return descriptor(T, (ends, a), (ends, b), (ends, c), zip(taus, alphas, betas))


def sweep_rows(doc: dict) -> list[dict]:
    """The sweep descriptor once per grid row, with c[0].poly[0] set to the
    row's value; the row's CLI sweep moves impulses[0].beta."""
    rows = []
    for value in SWEEP_ROW_VALUES:
        row = copy.deepcopy(doc)
        row["coefficients"]["c"][0]["poly"][0] = float(value)
        rows.append(row)
    return rows


def sweep_row_argv(input_path: str, output_path: str) -> list[str]:
    return ["sweep", "--input", input_path, "--output", output_path, "--workers", "1",
            "--axes", SWEEP_COLUMN_AXIS]


def selftest_argv(seed: int, unit: int, output_path: str) -> list[str]:
    """Selftest unit `unit` of a run: generator seeds seed + SELFTEST_N * unit on."""
    return ["selftest", "--n", str(SELFTEST_N), "--seed", str(seed + SELFTEST_N * unit),
            "--workers", "1", "--output", output_path]


def selftest_systems() -> int:
    """Systems the selftest units analyze: n per forced mode and n // 5 in the
    zero-pair scan, per unit."""
    return SELFTEST_UNITS * (2 * SELFTEST_N + max(1, SELFTEST_N // 5))


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw per equal-width stratum of [lo, hi], in random order.

    Stratified draws keep the population's spread of window lengths and
    positions the same from seed to seed, so run-to-run timing differences
    come from the systems rather than from an unlucky mix of window sizes."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def window_system(rng) -> dict:
    """Positive-b system: 1-3 quadratic segments at amplitude 1.5, b shifted so
    its minimum is at least 0.2, and 0-3 impulses with random signs."""
    T, amp, deg = 1.0, 1.5, 2
    nseg = int(rng.integers(1, 4))
    jitter = rng.uniform(-0.3, 0.3, nseg - 1)
    ends = [T * (i + 1 + jitter[i]) / nseg for i in range(nseg - 1)] + [T]
    scale = 1.0 + np.arange(deg + 1)
    polys = {name: [list(rng.uniform(-amp, amp, deg + 1) / scale) for _ in range(nseg)]
             for name in "abc"}
    lows = [0.0, *ends[:-1]]
    min_b = min(quadratic_min(p, lo, hi) for p, lo, hi in zip(polys["b"], lows, ends))
    if min_b < 0.2:
        polys["b"] = [[p[0] + 0.2 - min_b, *p[1:]] for p in polys["b"]]
    r = int(rng.integers(0, 4))
    taus = [T * (i + 1 + rng.uniform(-0.35, 0.35)) / (r + 1) for i in range(r)]
    alphas = rng.uniform(0.3, 1.7, r) * rng.choice([-1.0, 1.0], r)
    betas = rng.uniform(-1.0, 1.0, r)
    return descriptor(T, *((ends, polys[n]) for n in "abc"), zip(taus, alphas, betas))


def windows_population(seed: int) -> list[dict]:
    """WINDOW_COUNT (system, window) pairs: t1 ~ U(0, 1), length ~ U(0.15, 1.8)."""
    rng = _rng("windows", seed)
    starts = _strata(rng, WINDOW_COUNT, 0.0, 1.0)
    lengths = _strata(rng, WINDOW_COUNT, 0.15, 1.8)
    return [{"system": window_system(rng), "t1": float(t1), "t2": float(t1 + length)}
            for t1, length in zip(starts, lengths)]


def window_probes() -> list[dict]:
    """Windows with closed-form answers: the expected sup of the product, whether
    the test certifies, and the oracle verdict (None where not pinned)."""
    rotation = constant_descriptor(1.0, 0.0, 1.0, 1.0)
    sine = constant_descriptor(2.0, 0.0, 1.0, math.pi ** 2)
    return [
        {"name": "rotation[0,1]", "system": rotation, "t1": 0.0, "t2": 1.0,
         "sup": 1.0, "certified": True, "oracle": None},
        {"name": "sine[0,0.5]", "system": sine, "t1": 0.0, "t2": 0.5,
         "sup": math.pi ** 2 / 4.0, "certified": True, "oracle": None},
        {"name": "sine[0,1.01]", "system": sine, "t1": 0.0, "t2": 1.01,
         "sup": None, "certified": None, "oracle": "not-disconjugate"},
    ]


def high_frequency_descriptor(seed: int) -> dict:
    """Polynomial coefficients with c near 300 over T = 10 (omega * T about 170)
    and one impulse with alpha = +-1; the seed moves only small terms, so the
    integration cost is nearly the same for every seed."""
    rng = _rng("long_horizon", seed)
    T = 10.0
    ends = [T * rng.uniform(0.4, 0.6), T]
    a = [[rng.uniform(-0.2, 0.2), rng.uniform(-0.01, 0.01)] for _ in range(2)]
    b = [[rng.uniform(0.9, 1.1), rng.uniform(-0.005, 0.005)] for _ in range(2)]
    c = [[300.0 + rng.uniform(-10.0, 10.0), rng.uniform(-0.5, 0.5),
          rng.uniform(-0.02, 0.02)] for _ in range(2)]
    impulse = (T * rng.uniform(0.2, 0.35), float(rng.choice([-1.0, 1.0])),
               rng.uniform(-0.5, 0.5))
    return descriptor(T, (ends, a), (ends, b), (ends, c), [impulse])


def simulate_descriptor(seed: int) -> dict:
    """Near-rotation with small polynomial terms and one impulse with alpha = +-1:
    |trace| stays well inside 2, so 1000 periods neither overflow nor decay."""
    rng = _rng("long_horizon", seed + 7919)
    T = 1.0
    ends = [T * rng.uniform(0.3, 0.7), T]
    a = [[rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)] for _ in range(2)]
    b = [[1.0 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)] for _ in range(2)]
    c = [[1.0 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
          rng.uniform(-0.05, 0.05)] for _ in range(2)]
    impulse = (T * rng.uniform(0.15, 0.85), float(rng.choice([-1.0, 1.0])),
               rng.uniform(-0.1, 0.1))
    return descriptor(T, (ends, a), (ends, b), (ends, c), [impulse])


def long_horizon_jobs(seed: int) -> list[dict]:
    """The analyze jobs (rotations at three periods, one high-frequency system)."""
    jobs = [{"name": f"rotation_T{T:g}", "descriptor": constant_descriptor(T, 0.0, 1.0, 1.0),
             "rotation_period": T} for T in ROTATION_PERIODS]
    jobs.append({"name": "high_frequency", "descriptor": high_frequency_descriptor(seed),
                 "rotation_period": None})
    return jobs
