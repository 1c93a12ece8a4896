"""Uniform result type of every verify_* operation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["VerificationReport"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and np.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


@dataclass
class VerificationReport:
    """Measured quantity vs. theoretical bound with a pass/fail verdict.

    verdict is 'pass' iff ratio <= 1 + tolerance; metadata echoes the
    resolved parameters and seeds for auditability.
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
        elif measured == 0.0:
            ratio = 0.0
        else:
            ratio = np.inf
        verdict = "pass" if ratio <= 1.0 + tolerance else "fail"
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
