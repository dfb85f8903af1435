"""Each correctness check accepts a good output and flags a corrupted one."""

import copy
import math

import numpy as np

from perfbench import checks, inputs

ROW = {"trace": "0.5", "det": "1.0", "verdict": "stable", "krein": "not-applicable",
       "guseinov-kaymakcalan": "not-applicable", "guseinov-zafer": "certified-stable",
       "guseinov-zafer-boundary": "not-applicable", "wang": "not-applicable",
       "main": "inconclusive", "main-boundary": "not-applicable", "status": "ok"}
DESCRIPTOR = {"impulses": [{"tau": 0.3, "alpha": 2.0, "beta": 0.0},
                           {"tau": 0.6, "alpha": 0.5, "beta": 0.1}]}


def rows(n=3):
    return [dict(ROW) for _ in range(n)]


class TestSweep:
    def test_good_rows_pass(self):
        assert checks.sweep_failures(rows(), DESCRIPTOR, 3) == []

    def test_error_status_is_flagged(self):
        bad = rows()
        bad[1]["status"] = "error: impulse 1: tau=0 at interval endpoint"
        assert len(checks.sweep_failures(bad, DESCRIPTOR, 3)) == 1

    def test_det_not_alpha_product_is_flagged(self):
        bad = rows()
        bad[0]["det"] = "1.0000001"
        assert checks.sweep_failures(bad, DESCRIPTOR, 3)[0].startswith("row 0: det")

    def test_certificate_on_unstable_verdict_is_flagged(self):
        bad = rows()
        bad[2]["verdict"] = "unstable"
        failures = checks.sweep_failures(bad, DESCRIPTOR, 3)
        assert len(failures) == 1 and "guseinov-zafer certified" in failures[0]

    def test_missing_rows_are_flagged(self):
        assert checks.sweep_failures(rows(2), DESCRIPTOR, 3) == ["2 rows, expected 3"]

    def test_flipped_verdict_row_differs_from_reference(self):
        reference = rows()
        out = rows()
        assert checks.reference_failures(out, reference) == []
        out[1]["verdict"] = "unstable"
        out[2]["main"] = "certified-stable"
        failures = checks.reference_failures(out, reference)
        assert [f.split(":")[0] for f in failures] == ["row 1", "row 2"]

    def test_reference_verdict_not_pinned_at_the_boundary(self):
        reference = rows(1)
        reference[0]["trace"] = repr(2.0 - 1e-9)
        out = rows(1)
        out[0]["verdict"] = "boundary-undecided"
        assert checks.reference_failures(out, reference) == []


class TestSelftest:
    DOC = {"force-main": {"violations": []}, "force-guseinov-zafer": {"violations": []},
           "lyapunov": {"failures": []}}

    def test_clean_summary_passes(self):
        assert checks.selftest_failures(0, self.DOC) == []

    def test_violation_failure_and_exit_code_are_flagged(self):
        doc = copy.deepcopy(self.DOC)
        doc["force-main"]["violations"].append({"index": 3})
        doc["lyapunov"]["failures"].append({"seed": 4})
        assert len(checks.selftest_failures(4, doc)) == 3

    def test_missing_summary_is_flagged(self):
        assert checks.selftest_failures(0, None) == ["no JSON summary"]
        assert len(checks.selftest_failures(0, {})) == 3


class TestWindows:
    def test_oracle_disagreement_is_flagged(self):
        assert checks.window_failures("disconjugate-certified", "disconjugate") == []
        assert checks.window_failures("inconclusive", "not-disconjugate") == []
        assert checks.window_failures("disconjugate-certified", "not-disconjugate")

    def test_probes_hold_and_corruptions_are_flagged(self):
        rotation, sine_half, sine_long = inputs.window_probes()
        assert checks.probe_failures(rotation, "disconjugate-certified", 1.0, "disconjugate") == []
        assert checks.probe_failures(sine_half, "disconjugate-certified", math.pi ** 2 / 4,
                                     "disconjugate") == []
        assert checks.probe_failures(sine_long, "inconclusive", 5.0, "not-disconjugate") == []
        assert checks.probe_failures(rotation, "disconjugate-certified", 1.001, "disconjugate")
        assert checks.probe_failures(sine_half, "inconclusive", math.pi ** 2 / 4, "disconjugate")
        assert checks.probe_failures(sine_long, "inconclusive", 5.0, "disconjugate")


class TestLongHorizon:
    @staticmethod
    def doc(trace, det_integrated=1.0):
        return {"monodromy": {"trace": trace, "det": 1.0, "det_integrated": det_integrated}}

    def test_rotation_trace_against_closed_form(self):
        assert checks.rotation_failures(self.doc(2 * math.cos(50.0) + 1e-8), 50.0) == []
        assert checks.rotation_failures(self.doc(2 * math.cos(50.0) + 1e-5), 50.0)

    def test_det_drift(self):
        assert abs(checks.det_drift(self.doc(0.0, 1.0 + 3e-9)) - 3e-9) < 1e-15

    def test_simulate_rows_and_final_row(self):
        c, s = math.cos(0.1), math.sin(0.1)
        M = [[c, s], [-s, c]]
        periods, samples = 100, 2
        final = np.linalg.matrix_power(np.array(M), periods) @ np.array([1.0, 0.0])
        good = [{"x": "0", "u": "0"}] * (periods * samples) + [
            {"x": repr(float(final[0])), "u": repr(float(final[1]))}]
        assert checks.simulate_failures(good, periods, samples, M, (1.0, 0.0)) == []
        assert checks.simulate_failures(good[1:], periods, samples, M, (1.0, 0.0))
        bad = good[:-1] + [{"x": repr(float(final[0]) + 1e-3), "u": good[-1]["u"]}]
        assert checks.simulate_failures(bad, periods, samples, M, (1.0, 0.0))


class TestPassChecks:
    def test_missing_sweep_row_output_fails_the_pass(self, tmp_path):
        text = ",".join(ROW) + "\n" + ",".join(ROW.values()) + "\n"
        paths = [tmp_path / f"row{i}.csv" for i in range(3)]
        for path in paths[:2]:
            path.write_text(text, encoding="utf-8")
        plan = {"outputs": [str(p) for p in paths], "descriptor": DESCRIPTOR, "items": 3}
        tally = checks.Tally()
        checks.check_sweep(plan, [0, 0, 0], 1, tally)
        assert tally.failed == 1 and tally.log == ["2 rows, expected 3"]
        paths[2].write_text(text, encoding="utf-8")
        tally = checks.Tally()
        checks.check_sweep(plan, [0, 0, 0], 1, tally)
        assert (tally.attempted, tally.failed, tally.log) == (3, 0, [])
        checks.check_sweep(plan, [0, 2, 0], 1, tally)
        assert tally.log == ["row sweep 1 exit code 2"]
