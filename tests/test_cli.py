import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from impulse_floquet import cli

PI_SQ = math.pi ** 2


def write_descriptor(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def rotation_descriptor(T=1.0, c=1.0, impulses=()):
    return {
        "period": T,
        "coefficients": {
            "a": [{"end": T, "poly": [0.0]}],
            "b": [{"end": T, "poly": [1.0]}],
            "c": [{"end": T, "poly": [c]}],
        },
        "impulses": [{"tau": t, "alpha": a, "beta": b} for t, a, b in impulses],
    }


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAnalyze:
    def test_rotation_json_document(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(T=math.pi / 2))
        rc, out, _ = run(capsys, ["analyze", "--input", path])
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"tolerances", "monodromy", "verdict", "criteria",
                            "any_certified"}
        assert set(doc["monodromy"]) == {"matrix", "trace", "det", "det_integrated",
                                         "multipliers", "error_estimate"}
        assert abs(doc["monodromy"]["trace"]) <= 1e-8
        assert doc["verdict"]["category"] == "stable"
        assert len(doc["criteria"]) == 7

    def test_endpoint_impulse_exit_2(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(
            impulses=[(0.0, 2.0, 0.0)]))
        rc, _, err = run(capsys, ["analyze", "--input", path])
        assert rc == 2
        assert "impulse 1" in err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc, _, err = run(capsys, ["analyze", "--input", str(path)])
        assert rc == 2
        assert "line" in err

    def test_bad_field_exit_2_names_field(self, tmp_path, capsys):
        doc = rotation_descriptor()
        doc["coefficients"]["b"][0]["poly"] = []
        path = write_descriptor(tmp_path, doc)
        rc, _, err = run(capsys, ["analyze", "--input", path])
        assert rc == 2
        assert "coefficients.b[0].poly" in err

    def test_det_far_from_one(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(
            impulses=[(0.5, 2.0, 0.0)]))
        rc, out, _ = run(capsys, ["analyze", "--input", path])
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["category"] == "not-stable-det-neq-1"
        assert doc["monodromy"]["det"] == pytest.approx(4.0)

    def test_human_format(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor())
        rc, out, _ = run(capsys, ["analyze", "--input", path, "--format", "human"])
        assert rc == 0
        assert "verdict: stable" in out
        assert "✓" in out

    def test_output_file(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor())
        out_path = tmp_path / "report.json"
        rc, _, _ = run(capsys, ["analyze", "--input", path,
                                "--output", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["verdict"]["category"] == "stable"

    def test_missing_file_exit_2(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--input", "/nonexistent.json"])
        assert rc == 2

    def test_inline_json_input(self, capsys):
        doc = json.dumps(rotation_descriptor())
        rc, out, _ = run(capsys, ["analyze", "--input", doc])
        assert rc == 0
        assert json.loads(out)["verdict"]["category"] == "stable"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_failure_exit_3(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(c=1e308))
        rc, _, err = run(capsys, ["analyze", "--input", path])
        assert rc == 3
        assert "integration failure" in err


class TestSweep:
    def test_row_count_single_axis(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(
            impulses=[(0.5, 1.0, 0.0)]))
        rc, out, _ = run(capsys, ["sweep", "--input", path,
                                  "--axes", "impulses[0].beta=-2:2:9"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["impulses[0].beta", "trace", "det", "verdict",
                           "krein", "guseinov-kaymakcalan", "guseinov-zafer",
                           "guseinov-zafer-boundary", "wang", "main",
                           "main-boundary", "status"]
        assert len(rows) == 10

    def test_two_axis_grid(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(
            impulses=[(0.5, 1.0, 0.0)]))
        rc, out, _ = run(capsys, ["sweep", "--input", path,
                                  "--axes", "impulses[0].beta=-1:1:5",
                                  "--axes", "impulses[0].alpha=0.5:1.5:7"])
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 35
        # row-major: first axis varies slowest
        firsts = [row[0] for row in rows[1:]]
        assert firsts[:7] == [firsts[0]] * 7

    def test_verdict_flips_where_trace_crosses(self, tmp_path, capsys):
        # constant c: trace is 2*cos(sqrt(c)) for c>0 and 2*cosh(sqrt(-c)) for
        # c<0, so the verdict flips across c = 0
        path = write_descriptor(tmp_path, rotation_descriptor())
        rc, out, _ = run(capsys, ["sweep", "--input", path,
                                  "--axes", "coefficients.c[0].poly[0]=-1:1:9"])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            c_val, trace, verdict = float(row[0]), float(row[1]), row[3]
            if c_val > 0:
                assert verdict == "stable"
                assert trace == pytest.approx(2 * math.cos(math.sqrt(c_val)), abs=1e-7)
            elif c_val < 0:
                assert verdict == "unstable"
                assert trace == pytest.approx(2 * math.cosh(math.sqrt(-c_val)), abs=1e-7)
            else:
                assert verdict == "conditionally-stable-not-stable"

    def test_failed_point_has_status(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(
            impulses=[(0.5, 1.0, 0.0)]))
        rc, out, _ = run(capsys, ["sweep", "--input", path,
                                  "--axes", "impulses[0].alpha=-1:1:3"])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        statuses = [row[-1] for row in rows]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1].startswith("error:")  # alpha = 0

    def test_workers_deterministic(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(
            impulses=[(0.5, 1.0, 0.0)]))
        args = ["sweep", "--input", path, "--axes", "impulses[0].beta=-1:1:6"]
        _, serial, _ = run(capsys, args + ["--workers", "1"])
        _, pooled, _ = run(capsys, args + ["--workers", "2"])
        assert serial == pooled

    def test_bad_axis_exit_2(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor())
        rc, _, err = run(capsys, ["sweep", "--input", path, "--axes", "nope=0:1:3"])
        assert rc == 2


class TestDisconjugacy:
    def test_certified_and_oracle_agree(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor())
        rc, out, _ = run(capsys, ["disconjugacy", "--input", path,
                                  "--t1", "0", "--t2", "1"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["test"]["status"] == "disconjugate-certified"
        assert doc["test"]["sup_value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["oracle"] == "disconjugate"

    def test_sine_case(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(c=PI_SQ))
        rc, out, _ = run(capsys, ["disconjugacy", "--input", path,
                                  "--t1", "0", "--t2", "1.01"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["test"]["status"] == "inconclusive"
        assert doc["oracle"] == "not-disconjugate"

    def test_half_window_certified(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(c=PI_SQ))
        rc, out, _ = run(capsys, ["disconjugacy", "--input", path,
                                  "--t1", "0", "--t2", "0.5"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["test"]["status"] == "disconjugate-certified"
        assert doc["test"]["sup_value"] == pytest.approx(PI_SQ / 4.0, abs=1e-9)
        assert doc["oracle"] == "disconjugate"


class TestSimulate:
    def test_header_only_for_zero_periods(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor())
        rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "0"])
        assert rc == 0
        assert out.strip() == "t,x,u,z,v"

    def test_stable_rotation_bounded(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor(T=1.0))
        rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "100",
                                  "--samples-per-period", "8",
                                  "--x0", "1", "--u0", "0"])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 100 * 8 + 1
        xs = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(xs)) <= 1.0 + 1e-6

    def test_unipotent_linear_growth(self, tmp_path, capsys):
        doc = rotation_descriptor(c=0.0)
        doc["coefficients"]["b"][0]["poly"] = [0.0]
        doc["impulses"] = [{"tau": 0.25, "alpha": 2.0, "beta": 1.0},
                           {"tau": 0.75, "alpha": 0.5, "beta": 0.0}]
        path = write_descriptor(tmp_path, doc)
        rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "100",
                                  "--samples-per-period", "4",
                                  "--x0", "1", "--u0", "0"])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        t_final, x, u = float(rows[-1][0]), float(rows[-1][1]), float(rows[-1][2])
        assert t_final == 100.0
        assert abs(u) == pytest.approx(50.0, rel=0.01)


class TestSelftest:
    def test_small_run_passes(self, capsys):
        rc, out, _ = run(capsys, ["selftest", "--n", "10", "--seed", "1"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["force-main"]["violations"] == []
        assert doc["force-guseinov-zafer"]["violations"] == []
        assert doc["lyapunov"]["failures"] == []


# The system descriptor of README.md's CLI section.
README_DESCRIPTOR = {
    "period": 1.0,
    "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                     "b": [{"end": 1.0, "poly": [1.0]}],
                     "c": [{"end": 0.5, "poly": [1.0]}, {"end": 1.0, "poly": [2.0]}]},
    "impulses": [{"tau": 0.5, "alpha": -1.0, "beta": 0.5}],
}

ANALYZE_CSV = (
    "trace,det,verdict,krein,guseinov-kaymakcalan,guseinov-zafer,guseinov-zafer-boundary,"
    "wang,main,main-boundary\r\n"
    "-1.0574688730662087,1.0,stable,not-applicable,not-applicable,certified-stable,"
    "inconclusive,not-applicable,certified-stable,inconclusive\r\n")

_MAIN_BOUND = "exp(2*int|a|) * int(b) * (int(c+) + sum((beta/alpha)+)) < 4  margin=2.5"
_GZ_BOUND = "int|a| + sqrt(int(b)) * sqrt(int(c+) + sum((beta/alpha)+)) < 2  margin=0.775255"
CRITERIA_HUMAN = "".join(line + "\n" for line in [
    "krein: not-applicable", "  ✗ impulse-free",
    "guseinov-kaymakcalan: not-applicable", "  ✗ impulse-free",
    "guseinov-zafer: certified-stable",
    "  ✓ prod(alpha_i^2) = 1  margin=0", "  ✓ b(t) > 0  margin=1",
    "  ✓ int(c - a^2/b) + sum(beta/alpha) > 0  margin=1", f"  ✓ {_GZ_BOUND}",
    "guseinov-zafer-boundary: inconclusive",
    "  ✓ prod(alpha_i^2) = 1  margin=0", f"  ✓ {_GZ_BOUND}", "  ✓ a/b continuous on [0, T]",
    "  ✓ b(t) > 0  margin=1", "  ✗ int(c - a^2/b) + sum(beta/alpha) = 0  margin=1",
    "  ✓ condition C (C1/C2/C3)",
    "wang: not-applicable", "  ✗ impulse-free",
    "main: certified-stable",
    "  ✓ prod(alpha_i^2) = 1  margin=0", "  ✓ b(t) > 0  margin=1",
    "  ✓ int(c - a^2/b) + sum(beta/alpha) > 0  margin=1", f"  ✓ {_MAIN_BOUND}",
    "main-boundary: inconclusive",
    "  ✓ prod(alpha_i^2) = 1  margin=0", f"  ✓ {_MAIN_BOUND}", "  ✓ a/b continuous on [0, T]",
    "  ✓ b(t) > 0  margin=1", "  ✗ int(c - a^2/b) + sum(beta/alpha) = 0  margin=1",
    "  ✓ condition C (C1/C2/C3)",
])


class TestOutputBytes:
    """Exact stdout of the output formats and exact stderr of the input errors
    and soundness violations that no other test runs."""

    def test_analyze_csv(self, capsys):
        rc, out, err = run(capsys, ["analyze", "--input", json.dumps(README_DESCRIPTOR),
                                    "--format", "csv"])
        assert (rc, out, err) == (0, ANALYZE_CSV, "")

    def test_criteria_human(self, capsys):
        rc, out, err = run(capsys, ["criteria", "--input", json.dumps(README_DESCRIPTOR),
                                    "--format", "human"])
        assert (rc, out, err) == (0, CRITERIA_HUMAN, "")

    @pytest.mark.parametrize("axes, message", [
        (["nope"], "sweep axis 'nope': expected path=lo:hi:steps"),
        (["impulses[0].beta=1:2"], "sweep axis 'impulses[0].beta=1:2': expected path=lo:hi:steps"),
        (["impulses[0].beta=x:2:3"],
         "sweep axis 'impulses[0].beta=x:2:3': non-numeric bounds or steps"),
        (["impulses[0].beta=0:2:1"], "sweep axis 'impulses[0].beta=0:2:1': steps must be >= 2"),
        (["impulses[0].beta=0:2:2"] * 3, "sweep needs one or two --axes"),
        (["impulses[0].beta=0:1:2", "impulses[00].beta=5:6:2"],
         "sweep axis path 'impulses[00].beta' given twice"),
        (["impulses[0].beta=nan:1:3"],
         "sweep axis 'impulses[0].beta=nan:1:3': lo, hi and hi - lo must be finite"),
    ])
    def test_sweep_axis_errors(self, capsys, axes, message):
        argv = ["sweep", "--input", json.dumps(README_DESCRIPTOR)]
        for axis in axes:
            argv += ["--axes", axis]
        assert run(capsys, argv) == (2, "", f"invalid input: {message}\n")

    def test_disconjugacy_contradicted_certificate_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "disconjugacy_oracle", lambda *args: "not-disconjugate")
        rc, out, err = run(capsys, ["disconjugacy", "--input", json.dumps(rotation_descriptor()),
                                    "--t1", "0", "--t2", "1"])
        assert (rc, err) == (4, "soundness violation: certificate contradicted by the oracle\n")
        doc = json.loads(out)
        assert doc["test"]["status"] == "disconjugate-certified"
        assert doc["oracle"] == "not-disconjugate" and doc["disagreement"] is True

    @pytest.mark.parametrize("sweep, field, record", [
        ("soundness_sweep", "violations", {"seed": 0, "note": "stub"}),
        ("lyapunov_sweep", "failures", {"seed": 0, "lhs": 3.0}),
    ])
    def test_selftest_violation_exits_4(self, capsys, monkeypatch, sweep, field, record):
        real = getattr(cli, sweep)
        monkeypatch.setattr(cli, sweep, lambda *args, **kwargs: dataclasses.replace(
            real(*args, **kwargs), **{field: (record,)}))
        rc, out, err = run(capsys, ["selftest", "--n", "2", "--seed", "0"])
        assert (rc, err) == (4, "soundness violation found; see summary\n")
        doc = json.loads(out)
        part = doc["lyapunov"] if sweep == "lyapunov_sweep" else doc["force-main"]
        assert part[field] == [record]


class TestParser:
    def test_main_builds_the_parser_once(self, tmp_path, capsys, monkeypatch):
        path = write_descriptor(tmp_path, rotation_descriptor())
        assert run(capsys, ["simulate", "--input", path, "--periods", "0"])[0] == 0

        def rebuilt(*args, **kwargs):
            raise AssertionError("parser built again")
        monkeypatch.setattr(cli.argparse, "ArgumentParser", rebuilt)
        rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "1"])
        assert rc == 0 and len(out.splitlines()) == 1 + 32 + 1

    def test_workers_flag_and_default_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        path = write_descriptor(tmp_path, rotation_descriptor(impulses=[(0.5, 1.0, 0.0)]))
        assert run(capsys, ["simulate", "--input", path, "--periods", "0"])[0] == 0
        seen = []  # the workers each sweep is given; every sweep then runs with one
        chunked = cli.chunked_map

        def chunked_map(fn, items, workers, make_job):
            seen.append(workers)
            return chunked(fn, items, 1, make_job)

        def spy(real):
            def call(*args, workers):
                seen.append(workers)
                return real(*args, workers=1)
            return call
        monkeypatch.setattr(cli, "chunked_map", chunked_map)
        monkeypatch.setattr(cli, "soundness_sweep", spy(cli.soundness_sweep))
        monkeypatch.setattr(cli, "lyapunov_sweep", spy(cli.lyapunov_sweep))
        sweep = ["sweep", "--input", path, "--axes", "impulses[0].beta=-1:1:3"]
        selftest = ["selftest", "--n", "2"]
        for argv, expected in (([*sweep, "--workers", "3"], [3]), (selftest, [1, 1, 1]),
                               (sweep, [1]), ([*selftest, "--workers", "2"], [2, 2, 2]),
                               ([*sweep, "--workers", "0"], [0])):
            seen.clear()
            assert run(capsys, argv)[0] == 0
            assert seen == expected, argv

    def test_each_command_takes_only_the_tolerance_flags_it_reads(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, rotation_descriptor())
        for argv in (["criteria", "--input", path, "--tol-rel", "1e-12"],
                     ["simulate", "--input", path, "--periods", "1", "--tol-strict", "1e-9"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        flags = ["--tol-abs", "1e-11", "--tol-rel", "1e-9", "--tol-strict", "1e-8"]
        for argv in (["analyze", "--input", path], ["sweep", "--input", path, "--axes", "x=0:1:2"],
                     ["disconjugacy", "--input", path, "--t1", "0", "--t2", "1"], ["selftest"]):
            args = cli.build_parser().parse_args([*argv, *flags])
            assert (args.tol_abs, args.tol_rel, args.tol_strict) == (1e-11, 1e-9, 1e-8)
        args = cli.build_parser().parse_args(["simulate", "--input", path, "--periods", "1",
                                              *flags[:4]])
        assert (args.tol_abs, args.tol_rel) == (1e-11, 1e-9)
        assert cli.build_parser().parse_args(
            ["criteria", "--input", path, *flags[4:]]).tol_strict == 1e-8
