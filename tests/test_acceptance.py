"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion; each test prints its verdict line as it completes.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from besovlp import (
    BesovParams,
    GaussianSampler,
    GridFunction,
    GridSpec,
    SearchBudget,
    ValueSpace,
    besov_norm,
    build_partition,
    cotype_constant_lower,
    cz_decompose,
    dft,
    gamma_function_norm,
    gaussian_moment,
    hilbert_symbol,
    lp_norm,
    riesz_symbol,
    scalar_symbol,
    sharpness_probe,
    type_constant_lower,
    verify_prop43,
    verify_thm44,
    verify_weak_type,
    extrapolation_sweep,
)
from besovlp.cli import run_suite
from besovlp.testfunctions import adversarial_l1_family, random_band_limited

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SCALAR = ValueSpace.scalar()


def report(n, label, ok):
    print(f"ACCEPTANCE {n:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label}) failed"


def test_criterion_01_partition_exactness():
    t0 = time.monotonic()
    ok = True
    for d, n in [(1, 64), (1, 256), (2, 64), (2, 256)]:
        grid = GridSpec(d, n, 1.0)
        part = build_partition(grid)
        mags = grid.frequency_magnitudes()
        covered = mags <= 2.0**part.k_max
        ok &= float(np.abs(part.partition_sum[covered] - 1.0).max()) < 1e-12
        for k in range(part.k_max + 1):
            outside = ~part.annulus_mask(k)
            if np.any(outside):
                ok &= float(np.abs(part.phi_hat[k][outside]).max()) == 0.0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(1, f"partition exactness ({elapsed:.2f}s)", ok)


def test_criterion_02_band_limited_sandwich():
    t0 = time.monotonic()
    frozen = json.loads((GOLDEN / "sandwich_constants.json").read_text())
    pv_pairs = [(2.0, 2.0), (4.0, 1.0), (2.0, np.inf)]
    ok = True
    for d, n in [(1, 256), (2, 64)]:
        grid = GridSpec(d, n, 1.0)
        part = build_partition(grid)
        rng = np.random.default_rng(1000 + d)
        for s in (-1.0, 0.5, 2.0):
            c1 = frozen[f"d={d},s={s:g}"]["C1"]
            c2 = frozen[f"d={d},s={s:g}"]["C2"]
            for ann in range(2, part.k_max):
                mask = part.annulus_mask(ann)
                for i in range(50):
                    p, v = pv_pairs[i % len(pv_pairs)]
                    f = random_band_limited(grid, mask, rng)
                    ratio = besov_norm(f, BesovParams(s, p, v), part, SCALAR) / lp_norm(
                        f, p, SCALAR
                    )
                    ok &= c1 * 2.0 ** ((ann - 1) * abs(s)) <= ratio
                    ok &= ratio <= c2 * 2.0 ** ((ann + 1) * abs(s))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(2, f"band-limited sandwich ({elapsed:.1f}s)", ok)


def test_criterion_03_gamma_identities():
    t0 = time.monotonic()
    grid = GridSpec(1, 64, 1.0)
    part = build_partition(grid)
    sampler = GaussianSampler(4242, 20000)
    space = ValueSpace.hilbert(2)
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(20):
        f = GridFunction(
            grid, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        )
        est = gamma_function_norm(f, space, sampler)
        ok &= abs(est.value - lp_norm(f, 2.0, space)) <= 3.0 * est.std_error
    # Fourier invariance, on a non-Hilbert target space
    space4 = ValueSpace.lp(4.0, 2)
    for _ in range(20):
        f = GridFunction(
            grid, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        )
        a = gamma_function_norm(f, space4, sampler)
        b = gamma_function_norm(dft(f), space4, sampler)
        ok &= abs(a.value - b.value) <= 3.0 * (a.std_error + b.std_error)
    # finite-rank formula on orthonormal step functions
    spinf = ValueSpace.lp(np.inf, 3)
    for _ in range(20):
        xs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        samples = np.zeros((64, 3), dtype=np.complex128)
        for k, sl in enumerate([slice(0, 16), slice(16, 32), slice(32, 48)]):
            samples[sl] = xs[k] / math.sqrt(16.0 / 64.0)
        est = gamma_function_norm(GridFunction(grid, samples), spinf, sampler)
        ref = gaussian_moment(xs, spinf, sampler)
        ok &= abs(est.value - ref.value) <= 3.0 * (est.std_error + ref.std_error)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(3, f"gamma identities ({elapsed:.1f}s)", ok)


def test_criterion_04_type_cotype_anchors():
    sampler = GaussianSampler(555, 20000)
    budget = SearchBudget(restarts=16, steps=60, max_vectors=8, search_samples=3000)
    ok = True
    t2 = type_constant_lower(ValueSpace.hilbert(8), 2.0, budget, sampler)
    c2 = cotype_constant_lower(ValueSpace.hilbert(8), 2.0, budget, sampler)
    ok &= abs(t2 - 1.0) <= 0.03 and abs(c2 - 1.0) <= 0.03
    for p_space in (1.0, np.inf, 3.0):
        space = ValueSpace.lp(p_space, 4)
        ok &= type_constant_lower(space, 1.0, budget, sampler) <= 1.03
        ok &= cotype_constant_lower(space, np.inf, budget, sampler) <= 1.03
    report(4, f"type/cotype anchors (t2={t2:.3f}, c2={c2:.3f})", ok)


def test_criterion_05_prop43_hilbert_trials():
    t0 = time.monotonic()
    grid = GridSpec(1, 64, 1.0)
    sampler = GaussianSampler(606, 20000)
    budget = SearchBudget(restarts=6, steps=30, search_samples=2000)
    rng = np.random.default_rng(17)
    ok = True
    for trial in range(100):
        vals = (rng.uniform(0.2, 1.0, 64)
                * np.exp(2j * np.pi * rng.uniform(size=64))).astype(complex)
        flat = trial % 2 == 0
        if flat:
            lo = int(rng.integers(0, 40))
            vals[lo:lo + 12] = 1.5 * np.exp(2j * np.pi * rng.uniform(size=12))
        m = scalar_symbol(grid, vals)
        a = float(rng.integers(-28, -4))
        b = a + float(rng.integers(8, 28))
        rep = verify_prop43(m, (a, b), 2.0, 2.0, SCALAR, SCALAR, budget, sampler)
        ok &= rep.ratio <= 1.05
        if flat:
            ok &= rep.ratio >= 0.90
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(5, f"prop43 Hilbert trials ({elapsed:.1f}s)", ok)


def test_criterion_06_thm44_bound_grid():
    t0 = time.monotonic()
    grid = GridSpec(1, 64, 1.0)
    part = build_partition(grid)
    sampler = GaussianSampler(707, 20000)
    budget = SearchBudget(restarts=3, steps=15, search_samples=2000)
    rng = np.random.default_rng(23)
    combos = [
        (s, sigma, u, v, w)
        for s in (0.0, 0.5)
        for sigma in (0.0, 1.0)
        for (u, v, w) in [(np.inf, 2.0, 2.0), (1.0, np.inf, 1.0), (2.0, 2.0, 1.0)]
    ]
    assert len(combos) == 12
    ok = True
    for sym_i in range(50):
        ratio_per_annulus = rng.choice([0.5, 0.8, 1.25])
        vals = np.zeros(64, dtype=complex)
        for k in range(part.k_max + 1):
            mask = part.annulus_mask(k)
            phase = np.exp(2j * np.pi * rng.uniform(size=int(mask.sum())))
            vals[mask] += ratio_per_annulus**k * phase * rng.uniform(0.5, 1.0)
        m = scalar_symbol(grid, vals)
        for s, sigma, u, v, w in combos:
            rep = verify_thm44(m, s=s, sigma=sigma, u=u, p=2.0, v=v, q=2.0, w=w,
                               part=part, domain_space=SCALAR, codomain_space=SCALAR,
                               budget=budget, sampler=sampler)
            ok &= rep.ratio <= 1.05
    # every inadmissible summation triple is rejected
    for (u, v, w) in [(np.inf, np.inf, 2.0), (2.0, np.inf, 1.0), (np.inf, 2.0, 1.0)]:
        with pytest.raises(ValueError):
            verify_thm44(scalar_symbol(grid, np.ones(64, dtype=complex)),
                         s=0.0, sigma=0.0, u=u, p=2.0, v=v, q=2.0, w=w,
                         part=part, domain_space=SCALAR, codomain_space=SCALAR,
                         budget=budget, sampler=sampler)
    elapsed = time.monotonic() - t0
    report(6, f"thm44 bound grid ({elapsed:.1f}s)", ok)


def test_criterion_07_cz_exactness():
    t0 = time.monotonic()
    grid = GridSpec(1, 256, 1.0)
    fs = adversarial_l1_family(grid, 200, seed=99)
    alphas = [5.0, 9.0, 17.0, 65.0]
    ok = True
    for i, f in enumerate(fs):
        res = cz_decompose(f, alpha=alphas[i % len(alphas)], a=1.0, B=1.0)
        if res.whole_domain:
            ok = False
            continue
        recon = res.good.samples.copy()
        for bp, info in res.bad_parts:
            start = info.corner_cells[0]
            cube = slice(start, start + 2**info.level)
            recon[cube] += bp.values
            outside = bp.to_function().samples
            outside[cube] = 0.0
            ok &= bp.cube == (cube,) and float(np.abs(outside).max()) == 0.0
            ok &= float(np.abs(bp.values.sum(axis=0)).max()) * grid.cell_volume < 1e-12
        ok &= float(np.abs(recon - f.samples).max()) < 1e-12
        ok &= lp_norm(res.good, 1.0) <= 1.0 + 1e-12
        ok &= lp_norm(res.good, np.inf) <= 2.0 * res.height + 1e-12
        ok &= res.total_cube_measure() <= 1.0 / res.height
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(7, f"CZ exactness ({elapsed:.1f}s)", ok)


def test_criterion_08_weak_type_constant():
    from besovlp import weak_type_constant

    ok = weak_type_constant(1, 1.0) == 10.0
    grid = GridSpec(1, 256, 1.0)
    sampler = GaussianSampler(808, 20000)
    fs = adversarial_l1_family(grid, 100, seed=44)
    rep = verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=fs,
                           symbol=hilbert_symbol(grid), sampler=sampler)
    ok &= rep.metadata["C_da"] == 10.0
    ok &= rep.ratio <= 1.0
    report(8, f"weak-type endpoint (ratio={rep.ratio:.3f})", ok)


def test_criterion_09_extrapolation_stability_and_sharpness():
    t0 = time.monotonic()
    sampler = GaussianSampler(909, 20000)
    budget = SearchBudget(restarts=6, steps=30, search_samples=2000)
    grids = [GridSpec(1, n, 1.0) for n in (128, 256, 512)]
    sweep = extrapolation_sweep(
        lambda g: riesz_symbol(g, 0.5), 2.0,
        [(4.0 / 3.0, 4.0), (1.5, 6.0), (2.0, 10.0)],
        grids, budget=budget, sampler=sampler,
    )
    ok = all(v["spread"] < 1.25 for v in sweep.stability.values())
    probe = sharpness_probe(0.25, 2.0, grids)
    expected = 2.0**0.25
    ok &= all(abs(g / expected - 1.0) <= 0.10 for g in probe["per_level_growth"])
    elapsed = time.monotonic() - t0
    report(9, f"extrapolation stability + sharpness ({elapsed:.1f}s)", ok)


def test_criterion_10_suite_determinism(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    code1 = run_suite(SCENARIOS, report_dir=d1)
    code2 = run_suite(SCENARIOS, report_dir=d2)
    ok = code1 == 0 and code2 == 0
    files1 = sorted(d1.glob("*.json"))
    ok &= len(files1) > 0
    for f1 in files1:
        f2 = d2 / f1.name
        ok &= f2.exists() and f1.read_bytes() == f2.read_bytes()
    report(10, "suite determinism", ok)
