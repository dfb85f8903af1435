import copy

import pytest

from impulse_floquet import (DescriptorError, set_descriptor_value,
                             system_from_descriptor, system_to_descriptor)

from helpers import make_system


def rotation_descriptor(T=1.0):
    return {
        "period": T,
        "coefficients": {
            "a": [{"end": T, "poly": [0.0]}],
            "b": [{"end": T, "poly": [1.0]}],
            "c": [{"end": T, "poly": [1.0]}],
        },
        "impulses": [],
    }


class TestParse:
    def test_round_trip(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.5, -1.0, 0.5)])
        doc = system_to_descriptor(sys_)
        back = system_from_descriptor(doc)
        assert back.schedule.taus == sys_.schedule.taus
        assert back.coeff_b.eval(0.3) == 1.0
        assert system_to_descriptor(back) == doc

    def test_multi_segment(self):
        doc = rotation_descriptor()
        doc["coefficients"]["c"] = [
            {"end": 0.5, "poly": [1.0, 2.0]},
            {"end": 1.0, "poly": [3.0]},
        ]
        sys_ = system_from_descriptor(doc)
        assert sys_.coeff_c.eval(0.25) == pytest.approx(1.5)
        assert sys_.coeff_c.eval(0.75) == 3.0

    def test_missing_period(self):
        doc = rotation_descriptor()
        del doc["period"]
        with pytest.raises(DescriptorError, match="period"):
            system_from_descriptor(doc)

    def test_non_numeric_coefficient(self):
        doc = rotation_descriptor()
        doc["coefficients"]["b"][0]["poly"][0] = "one"
        with pytest.raises(DescriptorError, match=r"coefficients\.b\[0\]\.poly\[0\]"):
            system_from_descriptor(doc)

    def test_ends_must_increase(self):
        doc = rotation_descriptor()
        doc["coefficients"]["a"] = [{"end": 0.7, "poly": [0.0]},
                                    {"end": 0.4, "poly": [0.0]}]
        with pytest.raises(DescriptorError, match=r"coefficients\.a\[1\]\.end"):
            system_from_descriptor(doc)

    def test_last_end_must_match_period(self):
        doc = rotation_descriptor()
        doc["coefficients"]["a"] = [{"end": 0.9, "poly": [0.0]}]
        with pytest.raises(DescriptorError, match="period"):
            system_from_descriptor(doc)

    def test_unknown_fields_rejected(self):
        doc = rotation_descriptor()
        doc["extra"] = 1
        with pytest.raises(DescriptorError, match="unknown"):
            system_from_descriptor(doc)

    def test_impulse_fields_required(self):
        doc = rotation_descriptor()
        doc["impulses"] = [{"tau": 0.5, "alpha": 2.0}]
        with pytest.raises(DescriptorError, match=r"impulses\[0\]\.beta"):
            system_from_descriptor(doc)


class TestPathSetter:
    def test_impulse_field(self):
        doc = rotation_descriptor()
        doc["impulses"] = [{"tau": 0.5, "alpha": 2.0, "beta": 0.0}]
        new = set_descriptor_value(doc, "impulses[0].beta", 1.5)
        assert new["impulses"][0]["beta"] == 1.5
        assert doc["impulses"][0]["beta"] == 0.0

    def test_poly_coefficient(self):
        doc = rotation_descriptor()
        new = set_descriptor_value(doc, "coefficients.c[0].poly[0]", 9.0)
        assert new["coefficients"]["c"][0]["poly"][0] == 9.0
        assert doc == rotation_descriptor()

    def test_top_level(self):
        doc = rotation_descriptor()
        assert set_descriptor_value(doc, "period", 2.0)["period"] == 2.0
        assert doc == rotation_descriptor()

    def test_bad_path(self):
        doc = rotation_descriptor()
        with pytest.raises(DescriptorError, match="no field"):
            set_descriptor_value(doc, "impulses[3].beta", 1.0)

    def test_does_not_clobber_other_fields(self):
        doc = rotation_descriptor()
        ref = copy.deepcopy(doc)
        new = set_descriptor_value(doc, "coefficients.b[0].poly[0]", 4.0)
        assert doc == ref
        ref["coefficients"]["b"][0]["poly"][0] = 4.0
        assert new == ref
