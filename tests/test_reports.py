import json
import math

import numpy as np
import pytest

from besovlp import VerificationReport


@pytest.mark.parametrize("measured", [-math.inf, -3.0, math.inf, math.nan])
def test_non_finite_or_negative_measured_never_passes(measured):
    rep = VerificationReport.build(measured, 1.0, 0.05)
    assert rep.verdict == "fail"
    assert not rep.passed


@pytest.mark.parametrize("bound", [-1.0, -math.inf, math.nan])
def test_zero_measured_against_a_bad_bound_fails(bound):
    rep = VerificationReport.build(0.0, bound, 0.0)
    assert rep.ratio == math.inf
    assert rep.verdict == "fail"


def test_zero_measured_against_a_zero_bound_has_ratio_zero():
    rep = VerificationReport.build(0.0, 0.0, 0.0)
    assert rep.ratio == 0.0
    assert rep.verdict == "pass"


def test_numpy_infinity_in_metadata_renders_as_valid_json():
    rep = VerificationReport.build(
        1, 1, 0, {"q": np.float64(np.inf), "r": -np.inf, "s": np.float64(np.nan)})
    text = rep.to_json()
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text)["metadata"] == {"q": "inf", "r": "-inf", "s": "nan"}
