"""Regenerate the frozen golden files in tests/golden/.

Run from the repository root:  python3 tools/make_goldens.py

The band-limited sandwich constants and the cutoff-order equivalence
ratios are implementation constants of the fixed partition construction:
they are measured once here, with a safety margin, and the test suite
re-verifies fresh random draws against the frozen values.

The suite checksums are the sha256 of each bundled scenario's report
JSON: any change to a report's bytes shows up as a mismatch.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from besovlp import (  # noqa: E402
    BesovParams,
    GridSpec,
    ValueSpace,
    besov_norm,
    build_partition,
    lp_norm,
)
from besovlp.cli import run_suite  # noqa: E402
from besovlp.testfunctions import random_band_limited  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
SCENARIO_DIR = ROOT / "scenarios"

SANDWICH_GRIDS = [(1, 256), (2, 64)]
SANDWICH_S = [-1.0, 0.5, 2.0]
SANDWICH_PV = [(2.0, 2.0), (4.0, 1.0), (2.0, np.inf)]
CALIBRATION_DRAWS = 80
MARGIN = 0.10


def sandwich_constants() -> dict:
    out = {}
    for d, n in SANDWICH_GRIDS:
        grid = GridSpec(d, n, 1.0)
        part = build_partition(grid)
        space = ValueSpace.scalar()
        rng = np.random.default_rng(20240501)
        for s in SANDWICH_S:
            lo, hi = np.inf, 0.0
            for ann in range(2, part.k_max):
                mask = part.annulus_mask(ann)
                for p, v in SANDWICH_PV:
                    params = BesovParams(s, p, v)
                    for _ in range(CALIBRATION_DRAWS // len(SANDWICH_PV)):
                        f = random_band_limited(grid, mask, rng)
                        ratio = besov_norm(f, params, part, space) / lp_norm(f, p, space)
                        lo = min(lo, ratio / 2.0 ** ((ann - 1) * abs(s)))
                        hi = max(hi, ratio / 2.0 ** ((ann + 1) * abs(s)))
            out[f"d={d},s={s:g}"] = {
                "C1": lo * (1.0 - MARGIN),
                "C2": hi * (1.0 + MARGIN),
            }
    return out


def cutoff_equivalence() -> dict:
    grid = GridSpec(1, 128, 1.0)
    part_a = build_partition(grid, smoothness=2)
    part_b = build_partition(grid, smoothness=3)
    space = ValueSpace.scalar()
    rng = np.random.default_rng(20240502)
    mask = part_b.band_limit_mask() & part_a.band_limit_mask()
    lo, hi = np.inf, 0.0
    for s in (-1.0, 0.0, 1.5):
        params = BesovParams(s, 2.0, 2.0)
        for _ in range(40):
            f = random_band_limited(grid, mask, rng)
            ratio = besov_norm(f, params, part_a, space) / besov_norm(
                f, params, part_b, space
            )
            lo, hi = min(lo, ratio), max(hi, ratio)
    return {
        "smoothness_pair": [2, 3],
        "ratio_low": lo * (1.0 - MARGIN),
        "ratio_high": hi * (1.0 + MARGIN),
    }


def partition_export() -> dict:
    return build_partition(GridSpec(1, 64, 1.0), smoothness=3).to_summary()


def suite_reports() -> dict:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if run_suite(SCENARIO_DIR, report_dir=tmp) != 0:
            raise RuntimeError("the bundled suite does not pass")
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).glob("*.json"))
        }


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "sandwich_constants.json": sandwich_constants(),
        "cutoff_equivalence.json": cutoff_equivalence(),
        "partition_export.json": partition_export(),
        "suite_reports.json": suite_reports(),
    }
    for name, obj in artifacts.items():
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
