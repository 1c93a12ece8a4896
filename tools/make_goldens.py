"""Regenerate the frozen golden files in tests/golden/.

Run from the repository root:

    python3 tools/make_goldens.py                  # rewrite every golden
    python3 tools/make_goldens.py NAME...          # rewrite only the named files,
                                                   # e.g. demos/02_besov_norms.txt
    python3 tools/make_goldens.py --check [NAME...]

--check recomputes the goldens and writes nothing; it names each file
whose bytes would change and exits 1 if there is one.

The band-limited sandwich constants and the cutoff-order equivalence
ratios are implementation constants of the fixed partition construction:
they are measured once here, with a safety margin, and the test suite
re-verifies fresh random draws against the frozen values.

The suite checksums are the sha256 of each bundled scenario's report
JSON: any change to a report's bytes shows up as a mismatch.

The verifier reports are the sha256 of the report JSON of the four
gamma-bound verifiers (Prop 4.3, Thm 4.4, 4.5, 4.6) on scalar Hilbert
spaces and on a random 2x2 symbol from l^1 to l^inf, the case whose
gamma-bounds come from a search.

The search results are the exact repr of every randomized search's
output (type/cotype constants, gamma-bound searches, multiplier-norm
witness searches) at three budgets, so a change to the search schedule
shows up in the last bit.

The demo outputs, demos/NAME.txt, are the stdout of each script
demos/NAME.py run with this checkout's src/ on the import path: every
printed number of the narrative demos is deterministic.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from besovlp import (  # noqa: E402
    BesovParams,
    GaussianSampler,
    GridSpec,
    MatrixFamily,
    OperatorSymbol,
    SearchBudget,
    ValueSpace,
    riesz_symbol,
    besov_multiplier_norm_estimate,
    besov_norm,
    build_partition,
    cotype_constant_lower,
    estimate_multiplier_norm,
    gamma_bound_search,
    lp_norm,
    type_constant_lower,
    verify_prop43,
    verify_thm44,
    verify_thm45,
    verify_thm46,
)
from besovlp.cli import run_suite  # noqa: E402
from besovlp.testfunctions import random_band_limited  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
SCENARIO_DIR = ROOT / "scenarios"
DEMO_DIR = ROOT / "demos"

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


# (restarts, steps); type/cotype searches count their three structured
# starts inside restarts, so they start at one restart
SEARCH_BUDGETS = [(0, 3), (2, 7), (6, 20)]
VECTOR_BUDGETS = [(1, 3), (2, 7), (6, 20)]


def _budget(restarts: int, steps: int) -> SearchBudget:
    return SearchBudget(restarts=restarts, steps=steps, max_vectors=4, search_samples=1000)


def _gamma_entry(res) -> dict:
    return {
        "value": repr(res.value),
        "assignment": repr(res.assignment.tolist()),
        "vectors_sha256": hashlib.sha256(res.vectors.tobytes()).hexdigest(),
        "vectors_shape": list(res.vectors.shape),
    }


def search_results() -> dict:
    """Exact search outputs; the inputs are chosen so that a random restart,
    not a structured start, wins at least one type/cotype, one gamma and
    one witness search at the largest budget."""
    sampler = GaussianSampler(20240603, 2000)
    out = {}

    vector_cases = [
        ("type", type_constant_lower, ValueSpace.lp(1.0, 3), 2.0),
        ("type", type_constant_lower, ValueSpace.lp(3.0, 2), 1.5),
        ("cotype", cotype_constant_lower, ValueSpace.lp(np.inf, 3), 2.0),
        ("cotype", cotype_constant_lower, ValueSpace.lp(1.5, 3), 4.0),
    ]
    for kind, fn, space, expo in vector_cases:
        for restarts, steps in VECTOR_BUDGETS:
            key = f"{kind} {space.label} exponent={expo:g} budget={restarts}x{steps}"
            out[key] = repr(fn(space, expo, _budget(restarts, steps), sampler))

    rng = np.random.default_rng(2)
    mats = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    linf_3, l1_3 = ValueSpace.lp(np.inf, 3), ValueSpace.lp(1.0, 3)
    family = MatrixFamily(tuple(mats), linf_3, l1_3)
    pair = MatrixFamily(tuple(mats[:2]), linf_3, l1_3)
    single = MatrixFamily(tuple(mats[:1]), linf_3, l1_3)
    for restarts, steps in SEARCH_BUDGETS:
        budget = _budget(restarts, steps)
        tag = f"budget={restarts}x{steps}"
        out[f"gamma 4 x (3x3) linf->l1 {tag}"] = _gamma_entry(
            gamma_bound_search(family, budget, sampler))
        out[f"gamma 1 x (3x3) linf->l1 {tag}"] = _gamma_entry(
            gamma_bound_search(single, budget, sampler))
        warm = gamma_bound_search(pair, budget, sampler)
        out[f"gamma 4 x (3x3) linf->l1 warm-started from 2 members {tag}"] = _gamma_entry(
            gamma_bound_search(family, budget, sampler, warm_start=warm))

    grid = GridSpec(1, 32, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(63)
    values = rng.standard_normal((grid.n_nodes, 2, 2)) + 1j * rng.standard_normal(
        (grid.n_nodes, 2, 2))
    m = OperatorSymbol(grid, values, name="random")
    l1_2, l3_2, linf_2 = ValueSpace.lp(1.0, 2), ValueSpace.lp(3.0, 2), ValueSpace.lp(np.inf, 2)
    support = np.abs(grid.frequency_coords()[:, 0]) < 6
    for restarts, steps in SEARCH_BUDGETS:
        budget = _budget(restarts, steps)
        tag = f"budget={restarts}x{steps}"
        out[f"multiplier L2->L4 l3->linf support |xi|<6 {tag}"] = repr(
            estimate_multiplier_norm(m, 2.0, 4.0, l3_2, linf_2, budget, sampler,
                                     support_mask=support))
        out[f"multiplier L1.5->L3 l1->l3 mean-zero {tag}"] = repr(
            estimate_multiplier_norm(m, 1.5, 3.0, l1_2, l3_2, budget, sampler,
                                     mean_zero=True))
        for homogeneous in (False, True):
            name = "homogeneous" if homogeneous else "inhomogeneous"
            out[f"besov multiplier {name} {tag}"] = repr(besov_multiplier_norm_estimate(
                m, BesovParams(0.5, 1.5, 2.0), BesovParams(0.0, 3.0, 1.0), part,
                l1_2, linf_2, budget, sampler, homogeneous=homogeneous))

    # a rectangular symbol: two input components, three output components
    rng = np.random.default_rng(64)
    values = rng.standard_normal((grid.n_nodes, 3, 2)) + 1j * rng.standard_normal(
        (grid.n_nodes, 3, 2))
    rect = OperatorSymbol(grid, values, name="rectangular")
    l1_3, l3_3 = ValueSpace.lp(1.0, 3), ValueSpace.lp(3.0, 3)
    for restarts, steps in SEARCH_BUDGETS:
        budget = _budget(restarts, steps)
        tag = f"budget={restarts}x{steps}"
        out[f"rectangular 3x2 multiplier Linf->L2 linf->l3 {tag}"] = repr(
            estimate_multiplier_norm(rect, np.inf, 2.0, linf_2, l3_3, budget, sampler))
        for homogeneous in (False, True):
            name = "homogeneous" if homogeneous else "inhomogeneous"
            out[f"rectangular 3x2 besov multiplier {name} {tag}"] = repr(
                besov_multiplier_norm_estimate(
                    rect, BesovParams(-0.5, 2.0, np.inf), BesovParams(0.25, 1.0, 1.5),
                    part, l3_2, l1_3, budget, sampler, homogeneous=homogeneous))

    # d=2, N=128: one block transform batch holds blocks of two witnesses
    grid2 = GridSpec(2, 128, 1.0)
    rng = np.random.default_rng(65)
    values = rng.standard_normal(grid2.n_nodes) + 1j * rng.standard_normal(grid2.n_nodes)
    out["besov multiplier d=2 N=128 inhomogeneous budget=0x1"] = repr(
        besov_multiplier_norm_estimate(
            OperatorSymbol(grid2, values, name="random"), BesovParams(0.5, 1.5, 2.0),
            BesovParams(0.0, 3.0, 1.0), build_partition(grid2), budget=_budget(0, 1),
            sampler=sampler))
    return out


def _verifier_entries(label, m, p, q, domain_space, codomain_space, budget, sampler) -> dict:
    part = build_partition(m.grid)
    spaces = dict(domain_space=domain_space, codomain_space=codomain_space,
                  budget=budget, sampler=sampler)
    scale = dict(s=0.5, sigma=0.5, u=2.0, p=p, v=2.0, q=q, w=1.0, part=part, **spaces)
    reports = {
        "prop43": verify_prop43(m, (-8.0, 8.0), p, q, **spaces),
        "thm44": verify_thm44(m, **scale),
        "thm45": verify_thm45(m, **scale),
        "thm46": verify_thm46(m, p, q, part, **spaces),
    }
    return {
        f"{name} {label} p={p:g} q={q:g}": hashlib.sha256(rep.to_json().encode()).hexdigest()
        for name, rep in reports.items()
    }


def verifier_reports() -> dict:
    """sha256 of each gamma-bound verifier's report JSON: exact per-annulus
    gamma-bounds between scalar Hilbert spaces, searched ones from l^1 to
    l^inf."""
    grid = GridSpec(1, 32, 1.0)
    scalar = ValueSpace.scalar()
    budget = SearchBudget(restarts=2, steps=8, max_vectors=4, search_samples=500)
    sampler = GaussianSampler(20241018, 2000)
    riesz = riesz_symbol(grid, 0.5)
    out = {}
    for p, q in ((2.0, 2.0), (1.5, 3.0)):
        out.update(_verifier_entries("scalar riesz(0.5)", riesz, p, q, scalar, scalar,
                                     budget, sampler))
    rng = np.random.default_rng(66)
    values = rng.standard_normal((grid.n_nodes, 2, 2)) + 1j * rng.standard_normal(
        (grid.n_nodes, 2, 2))
    m = OperatorSymbol(grid, values, name="random")
    out.update(_verifier_entries("random 2x2 l1->linf", m, 1.0, np.inf,
                                 ValueSpace.lp(1.0, 2), ValueSpace.lp(np.inf, 2),
                                 budget, sampler))
    return out


def _json_text(build):
    return lambda: json.dumps(build(), sort_keys=True, indent=2) + "\n"


def _demo_output(script: Path):
    def run() -> str:
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{script.name} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout
    return run


# golden file name (relative to GOLDEN_DIR) -> the text it holds
ARTIFACTS = {
    **{name: _json_text(build) for name, build in (
        ("sandwich_constants.json", sandwich_constants),
        ("cutoff_equivalence.json", cutoff_equivalence),
        ("partition_export.json", partition_export),
        ("suite_reports.json", suite_reports),
        ("search_results.json", search_results),
        ("verifier_reports.json", verifier_reports),
    )},
    **{f"demos/{script.stem}.txt": _demo_output(script)
       for script in sorted(DEMO_DIR.glob("*.py"))},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden files.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"golden files to handle (default: all of {', '.join(ARTIFACTS)})")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any golden's bytes would change")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown golden file(s): {', '.join(unknown)}")
    changed = False
    for name in args.names or ARTIFACTS:
        path = GOLDEN_DIR / name
        text = ARTIFACTS[name]()
        if not args.check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}")
        elif not path.exists() or path.read_bytes() != text.encode():
            changed = True
            print(f"would change: {path}")
        else:
            print(f"unchanged: {path}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
