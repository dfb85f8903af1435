import csv
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


class TestParser:
    def test_main_builds_the_parser_once(self, tmp_path, capsys, monkeypatch):
        path = write_descriptor(tmp_path, rotation_descriptor())
        assert run(capsys, ["simulate", "--input", path, "--periods", "0"])[0] == 0

        def rebuilt(*args, **kwargs):
            raise AssertionError("parser built again")
        monkeypatch.setattr(cli.argparse, "ArgumentParser", rebuilt)
        rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "1"])
        assert rc == 0 and len(out.splitlines()) == 1 + 32 + 1

    def test_workers_default_follows_the_environment_after_the_first_call(
            self, tmp_path, capsys, monkeypatch):
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
        for env, argv, expected in (("3", sweep, [3]), ("2", selftest, [2, 2, 2]),
                                    (None, sweep, [1]), ("4", [*sweep, "--workers", "0"], [0])):
            if env is None:
                monkeypatch.delenv("IMPULSE_FLOQUET_WORKERS", raising=False)
            else:
                monkeypatch.setenv("IMPULSE_FLOQUET_WORKERS", env)
            seen.clear()
            assert run(capsys, argv)[0] == 0
            assert seen == expected, (env, argv)
