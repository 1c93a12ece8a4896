import math

import pytest

from besovlp import VerificationReport


@pytest.mark.parametrize("measured", [-math.inf, -3.0, math.inf, math.nan])
def test_non_finite_or_negative_measured_never_passes(measured):
    rep = VerificationReport.build(measured, 1.0, 0.05)
    assert rep.verdict == "fail"
    assert not rep.passed

