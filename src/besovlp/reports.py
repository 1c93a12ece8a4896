"""Uniform result type of every verify_* operation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["VerificationReport"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        # strict JSON has no literal for these
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


@dataclass
class VerificationReport:
    """Measured quantity vs. theoretical bound with a pass/fail verdict.

    verdict is 'pass' iff the measured value is finite and nonnegative
    and ratio <= 1 + tolerance.  A zero measured against a zero bound has
    ratio 0; any value against a negative or NaN bound has ratio inf.
    metadata echoes the resolved parameters and seeds for auditability.
    """

    measured: float
    bound: float
    ratio: float
    tolerance: float
    verdict: str
    metadata: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls, measured: float, bound: float, tolerance: float, metadata: dict | None = None
    ) -> "VerificationReport":
        if bound > 0:
            ratio = measured / bound
        elif bound == 0.0 and measured == 0.0:
            ratio = 0.0
        else:
            # a negative or NaN bound admits nothing, not even a zero
            ratio = np.inf
        valid = math.isfinite(measured) and measured >= 0.0
        verdict = "pass" if valid and ratio <= 1.0 + tolerance else "fail"
        return cls(
            measured=float(measured),
            bound=float(bound),
            ratio=float(ratio),
            tolerance=float(tolerance),
            verdict=verdict,
            metadata=metadata or {},
        )

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "measured": _jsonable(self.measured),
            "bound": _jsonable(self.bound),
            "ratio": _jsonable(self.ratio),
            "tolerance": _jsonable(self.tolerance),
            "verdict": self.verdict,
            "metadata": _jsonable(self.metadata),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
