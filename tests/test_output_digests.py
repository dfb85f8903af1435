"""`analyze` and `disconjugacy` JSON bytes and `sweep` CSV bytes: SHA-256 digests
over the stdout of `cli.main` on generated systems of every mode, on the benchmark's
seed-0 disconjugacy windows and on its seed-0 sweep rows, plus one two-axis sweep.
A change that moves one byte of any of these outputs fails here."""

import hashlib
import json

import pytest

from impulse_floquet.descriptors import system_to_descriptor
from impulse_floquet.harness import MODES, GeneratorSpec, generate
from perfbench.inputs import (SWEEP_COLUMN_AXIS, sweep_descriptor, sweep_rows, window_probes,
                              windows_population)

from test_cli import run

# SHA-256 over each call's exit code and stdout, in order (x86-64, numpy 2.4).
# The two forced modes coincide: on seeds 0-9 they generate the same systems.
ANALYZE = {
    "unconstrained": "5cf6b507be5bebd633f77184d682cfd4f20aaf67777e44d64a9900a99c6119d7",
    "impulse-free": "168f7b658adb8a8f17097a3b9de1dbe432357d3e3488b492c35dac82cf303aaa",
    "positive-b": "165d8e609e7fbba2b14423f87b78f2809b46d8def1db04c57e8ac9604d0b2540",
    "force-alpha-product-one": "367c9945ff350e9be1531bf500f4bacd90dcd95824d3318acff4de92df1e822d",
    "force-main": "37106ed19ce693dac7a98a91ccb613b6f31c3536e7b9f497baf35636e39b95e9",
    "force-guseinov-zafer": "37106ed19ce693dac7a98a91ccb613b6f31c3536e7b9f497baf35636e39b95e9",
}
DISCONJUGACY = "1c19051a81925e17466018f02139daa6516ed545258844df54fbf62e84973628"
SWEEP_ROWS = "dc222bb69907be4cf05a743a8298ec72b870f61e3efe7cc98ffdeacd6ed3d6c7"
# c's slope moves on the slow axis and the first impulse time on the fast one, past
# the second impulse at its last value: every chunk point parses c and merges knots
# anew, a and b are parsed once, and each row ends in an error point.
SWEEP_GRID_AXES = ("coefficients.c[0].poly[1]=-0.5:0.5:3", "impulses[0].tau=0.2:0.8:4")
SWEEP_GRID = "ad8891f06b7056c3448a862a591f50bcb6342b812feca3880a4328acee724822"


def _digest(capsys, argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        rc, out, _ = run(capsys, argv)
        h.update(f"{rc}\n{out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", MODES)
def test_analyze_json_matches_the_golden_digest(capsys, mode):
    docs = [system_to_descriptor(generate(GeneratorSpec(seed=seed, mode=mode)))
            for seed in range(10)]
    assert _digest(capsys, [["analyze", "--input", json.dumps(d)] for d in docs]) == ANALYZE[mode]


def test_disconjugacy_json_matches_the_golden_digest(capsys):
    windows = windows_population(0) + window_probes()
    argvs = [["disconjugacy", "--input", json.dumps(w["system"]),
              "--t1", repr(w["t1"]), "--t2", repr(w["t2"])] for w in windows]
    assert _digest(capsys, argvs) == DISCONJUGACY


def test_sweep_rows_csv_match_the_golden_digest(capsys):
    argvs = [["sweep", "--input", json.dumps(doc), "--axes", SWEEP_COLUMN_AXIS]
             for doc in sweep_rows(sweep_descriptor(0))]
    assert _digest(capsys, argvs) == SWEEP_ROWS


def test_two_axis_sweep_csv_matches_the_golden_digest(capsys):
    argv = ["sweep", "--input", json.dumps(sweep_descriptor(0))]
    for axis in SWEEP_GRID_AXES:
        argv += ["--axes", axis]
    assert _digest(capsys, [argv]) == SWEEP_GRID
