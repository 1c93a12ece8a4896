import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from besovlp import (
    BesovParams,
    GridFunction,
    GridSpec,
    SpectralTruncationError,
    besov_norm,
    build_partition,
    dft,
    ValueSpace,
    homogeneous_besov_norm,
    idft,
    lp_block,
    lp_blocks,
    lp_norm,
)
from besovlp import dyadic
from besovlp.dyadic import smooth_cutoff
from besovlp.extrapolation import eta_zeta_system
from besovlp.testfunctions import random_band_limited, single_mode

GOLDEN = Path(__file__).parent / "golden"


def test_cutoff_orders_are_capped_where_the_cutoff_leaves_zero_one():
    # the monomial polynomial loses precision as the order grows: order 8
    # stays within [-1e-9, 1 + 1e-9] on a dense grid, order 9 does not
    t = np.linspace(0.0, 2.5, 200001)
    for order in range(1, dyadic._MAX_SMOOTHNESS + 1):
        v = smooth_cutoff(t, order)
        assert -1e-9 <= v.min() and v.max() <= 1.0 + 1e-9
    u = 2.0 - t[(t > 1.0) & (t < 2.0)]
    assert np.polyval(dyadic._bump_integral_coeffs(dyadic._MAX_SMOOTHNESS + 1), u).max() > 1 + 1e-9
    grid = GridSpec(1, 64, 1.0)
    for build in (lambda n: smooth_cutoff(t, n), lambda n: build_partition(grid, n),
                  lambda n: eta_zeta_system(grid, n)):
        for order in (0, dyadic._MAX_SMOOTHNESS + 1, 10**6):
            with pytest.raises(ValueError, match=r"smoothness must lie in \[1, 8\]"):
                build(order)


def test_too_small_grid_rejected():
    with pytest.raises(ValueError):
        build_partition(GridSpec(1, 8, 1.0))


def test_phi0_is_one_below_unit_radius():
    # period 4 puts lattice frequencies strictly between 0 and 1
    grid = GridSpec(1, 64, 4.0)
    part = build_partition(grid)
    mags = grid.frequency_magnitudes()
    inside = (mags > 0) & (mags < 1)
    assert inside.any()
    assert np.all(part.phi_hat[0][inside] == 1.0)


@pytest.mark.parametrize("d,n", [(1, 64), (1, 256), (2, 32)])
def test_partition_sums_to_one(d, n):
    grid = GridSpec(d, n, 1.0)
    part = build_partition(grid)
    mags = grid.frequency_magnitudes()
    covered = mags <= 2.0**part.k_max
    dev = np.abs(part.partition_sum[covered] - 1.0).max()
    assert dev < 1e-12


def test_phi_supports_have_zero_leakage():
    grid = GridSpec(1, 128, 1.0)
    part = build_partition(grid)
    mags = grid.frequency_magnitudes()
    for k in range(part.k_max + 1):
        if k == 0:
            outside = mags > 2.0
        else:
            outside = (mags < 2.0 ** (k - 1)) | (mags > 2.0 ** (k + 1))
        assert np.all(part.phi_hat[k][outside] == 0.0)
        assert np.all(part.phi_hat[k] >= 0.0) and np.all(part.phi_hat[k] <= 1.0)


def test_nonadjacent_phi_products_vanish():
    part = build_partition(GridSpec(1, 128, 1.0))
    for k in range(part.k_max + 1):
        for n in range(part.k_max + 1):
            if abs(k - n) >= 2:
                assert np.all(part.phi_hat[k] * part.phi_hat[n] == 0.0)


def test_psi_supports():
    grid = GridSpec(1, 128, 1.0)
    part = build_partition(grid)
    mags = grid.frequency_magnitudes()
    for k in part.hom_ks:
        outside = (mags < 2.0 ** (k - 1)) | (mags > 2.0 ** (k + 1))
        assert np.all(part.psi_row(k)[outside] == 0.0)


def _old_difference_scan(profile, mags, k_high):
    # the psi_hat and zeta_hat scans as each was written before they shared
    # one builder: profile(2^-k |xi|) - profile(2^-(k-1) |xi|), nonzero rows only
    pos = mags[mags > 0]
    ks, rows = [], []
    for k in range(int(math.floor(math.log2(pos.min()))) - 1, k_high + 1):
        row = profile(mags * 2.0**-k) - profile(mags * 2.0 ** (-k + 1))
        if np.any(row != 0.0):
            ks.append(k)
            rows.append(row)
    return tuple(ks), np.asarray(rows)


@pytest.mark.parametrize("d, n, period", [(1, 64, 0.125), (1, 256, 0.5), (1, 128, 1.0),
                                          (2, 32, 1.0), (2, 64, 3.0), (3, 32, 2.0)])
@pytest.mark.parametrize("smoothness", [1, 3, 8])
def test_difference_rows_keep_the_bits_of_the_separate_scans(d, n, period, smoothness):
    grid = GridSpec(d, n, period)
    mags = grid.frequency_magnitudes()
    part = build_partition(grid, smoothness)
    ks, rows = _old_difference_scan(lambda t: smooth_cutoff(t, smoothness), mags, part.k_max)
    assert part.hom_ks == ks and part.k_min_hom == ks[0]
    assert np.array_equal(part.psi_hat, rows)
    system = eta_zeta_system(grid, smoothness)
    ks, rows = _old_difference_scan(lambda t: smooth_cutoff(2.0 * t - 1.0, smoothness), mags,
                                    int(math.ceil(math.log2(mags.max()))) + 1)
    assert system.js == ks
    assert np.array_equal(system.zeta_hat, rows)


def test_blocks_vanish_off_adjacent_annuli(grid128, rng):
    part = build_partition(grid128)
    n = 3
    f = random_band_limited(grid128, part.annulus_mask(n), rng)
    for k in range(part.k_max + 1):
        block = lp_block(f, k, part)
        if abs(k - n) >= 2:
            assert np.abs(block.samples).max() < 1e-12


def test_blocks_sum_to_identity_for_band_limited(grid128, rng):
    part = build_partition(grid128)
    f = random_band_limited(grid128, part.band_limit_mask(), rng)
    total = sum(lp_block(f, k, part).samples for k in range(part.k_max + 1))
    assert np.abs(total - f.samples).max() < 1e-10


def test_block_diagonal_action_on_single_mode(grid128):
    part = build_partition(grid128)
    k = 3
    f = single_mode(grid128, [2**k])
    xi = float(2**k)
    # evaluate the profile at that magnitude through the stored samples
    mags = grid128.frequency_magnitudes()
    node = int(np.argmin(np.abs(mags - xi) + (grid128.frequency_coords()[:, 0] < 0)))
    weight = part.phi_hat[k][node]
    block = lp_block(f, k, part)
    assert np.abs(block.samples - weight * f.samples).max() < 1e-12


def test_block_idempotence_structure(grid128, rng):
    part = build_partition(grid128)
    f = random_band_limited(grid128, part.band_limit_mask(), rng)
    for k in range(part.k_max + 1):
        bk = lp_block(f, k, part)
        for n in range(part.k_max + 1):
            if abs(k - n) >= 2:
                assert np.abs(lp_block(bk, n, part).samples).max() < 1e-12


def test_besov_single_block_max_semantics(grid128, rng, scalar_space):
    part = build_partition(grid128)
    f = random_band_limited(grid128, part.annulus_mask(4), rng)
    params = BesovParams(0.0, 2.0, np.inf)
    block_norms = [
        lp_norm(lp_block(f, k, part), 2.0, scalar_space) for k in range(part.k_max + 1)
    ]
    assert besov_norm(f, params, part, scalar_space) == pytest.approx(
        max(block_norms), rel=1e-12
    )


@pytest.mark.parametrize("s", [-1.0, 0.5, 2.0])
def test_band_limited_sandwich_frozen_constants(s, rng, scalar_space):
    grid = GridSpec(1, 256, 1.0)
    part = build_partition(grid)
    frozen = json.loads((GOLDEN / "sandwich_constants.json").read_text())
    c1 = frozen[f"d=1,s={s:g}"]["C1"]
    c2 = frozen[f"d=1,s={s:g}"]["C2"]
    for ann in range(2, part.k_max):
        mask = part.annulus_mask(ann)
        for _ in range(5):
            f = random_band_limited(grid, mask, rng)
            ratio = besov_norm(f, BesovParams(s, 2.0, 2.0), part, scalar_space) / lp_norm(
                f, 2.0, scalar_space
            )
            assert c1 * 2.0 ** ((ann - 1) * abs(s)) <= ratio
            assert ratio <= c2 * 2.0 ** ((ann + 1) * abs(s))


def test_besov_norm_matches_hand_rolled_oracle(scalar_space):
    # tiny grid: direct DFT sums and explicit per-annulus assembly
    grid = GridSpec(1, 16, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(5)
    f = random_band_limited(grid, part.band_limit_mask(), rng)
    s, p, v = 0.7, 3.0, 2.0

    n = grid.n_per_dim
    samples = [complex(z) for z in f.samples[:, 0]]
    freqs = list(grid.axis_frequencies())
    fhat = []
    for idx in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += samples[j] * cmath.exp(-2j * math.pi * freqs[idx] * j / n)
        fhat.append(acc / n)  # cell volume L/N = 1/N
    total = 0.0
    for k in range(part.k_max + 1):
        block = []
        for j in range(n):
            acc = 0.0 + 0.0j
            for idx in range(n):
                acc += part.phi_hat[k][idx] * fhat[idx] * cmath.exp(
                    2j * math.pi * freqs[idx] * j / n
                )
            block.append(acc)  # frequency measure 1/L = 1
        norm_p = (sum(abs(z) ** p for z in block) / n) ** (1.0 / p)
        total += (2.0 ** (k * s) * norm_p) ** v
    expected = total ** (1.0 / v)

    assert besov_norm(f, BesovParams(s, p, v), part, scalar_space) == pytest.approx(
        expected, rel=1e-10
    )


@pytest.mark.parametrize("d, n", [(1, 64), (2, 64), (2, 128)])
def test_batched_blocks_equal_the_per_block_loop_exactly(d, n):
    # the block core transforms the row stack in batches (at d=2, N=128
    # with two value components, two blocks per batch); the
    # one-block-at-a-time loop is the reference, bit for bit
    grid = GridSpec(d, n, 1.0)
    part = build_partition(grid)
    space = ValueSpace.lp(3.0, 2)
    rng = np.random.default_rng(11)
    f = random_band_limited(grid, part.band_limit_mask(), rng, dim=2, mean_zero=True)
    params = BesovParams(0.7, 3.0, 2.0)

    blocks = lp_blocks(f, part)
    loop = [lp_block(f, k, part) for k in range(part.k_max + 1)]
    assert all(np.array_equal(b, ref.samples) for b, ref in zip(blocks, loop))
    ks = np.arange(part.k_max + 1)
    norms = np.array([lp_norm(b, params.p, space) for b in loop])
    weights = 2.0 ** (ks * params.s) * norms
    assert besov_norm(f, params, part, space) == np.sum(weights**2.0) ** 0.5

    fhat = dft(f).samples
    hom = np.asarray([
        2.0 ** (k * params.s) * lp_norm(
            idft(GridFunction(grid, part.psi_row(k)[:, None] * fhat, "frequency")),
            params.p, space,
        )
        for k in part.hom_ks
    ])
    assert homogeneous_besov_norm(f, params, part, space) == np.sum(hom**2.0) ** 0.5


def test_spectral_truncation_guard(grid128):
    part = build_partition(grid128)
    f = single_mode(grid128, [grid128.n_per_dim // 2 - 1])  # above 2^k_max
    with pytest.raises(SpectralTruncationError):
        besov_norm(f, BesovParams(0.0, 2.0, 2.0), part)


def test_homogeneous_rejects_nonzero_mean(grid128):
    part = build_partition(grid128)
    f = GridFunction(grid128, np.ones(128))
    with pytest.raises(ValueError):
        homogeneous_besov_norm(f, BesovParams(0.0, 2.0, 2.0), part)


def test_homogeneous_single_annulus_v1_sum(grid128, rng, scalar_space):
    part = build_partition(grid128)
    n = 4
    f = random_band_limited(grid128, part.annulus_mask_hom(n), rng, mean_zero=True)
    fhat = dft(f)
    direct = 0.0
    for k in part.hom_ks:
        block_hat = GridFunction(
            grid128, part.psi_row(k)[:, None] * fhat.samples, "frequency"
        )
        direct += lp_norm(block_hat.idft(), 2.0, scalar_space)
    assert homogeneous_besov_norm(
        f, BesovParams(0.0, 2.0, 1.0), part, scalar_space
    ) == pytest.approx(direct, rel=1e-12)


def test_homogeneous_embedding_v1_geq_vinf(grid128, rng, scalar_space):
    part = build_partition(grid128)
    f = random_band_limited(grid128, part.band_limit_mask(), rng, mean_zero=True)
    n1 = homogeneous_besov_norm(f, BesovParams(0.5, 2.0, 1.0), part, scalar_space)
    ninf = homogeneous_besov_norm(f, BesovParams(0.5, 2.0, np.inf), part, scalar_space)
    assert n1 >= ninf - 1e-12


def test_homogeneous_scaling_shifts_block_sequence(scalar_space):
    # g(x) = f(2x) has block sequence shifted by one index; computed on
    # nested grids so both are exactly representable
    coarse = GridSpec(1, 128, 1.0)
    part_c = build_partition(coarse)
    rng = np.random.default_rng(10)
    f = random_band_limited(coarse, part_c.annulus_mask_hom(3), rng, mean_zero=True)

    fine = GridSpec(1, 256, 1.0)
    part_f = build_partition(fine)
    x_fine = fine.physical_coords()[:, 0]
    # f is a trig polynomial: evaluate f(2x) exactly from its spectrum
    fhat = dft(f).samples[:, 0]
    freqs = coarse.axis_frequencies()
    gx = np.zeros(fine.n_nodes, dtype=np.complex128)
    for coeff, xi in zip(fhat, freqs):
        if coeff != 0:
            gx += coeff * np.exp(2j * np.pi * xi * 2.0 * x_fine)
    g = GridFunction(fine, gx)

    def block_norms(func, part, grid):
        fh = dft(func).samples
        out = {}
        for k in part.hom_ks:
            bh = GridFunction(grid, part.psi_row(k)[:, None] * fh, "frequency")
            out[k] = lp_norm(bh.idft(), 2.0, scalar_space)
        return out

    nf = block_norms(f, part_c, coarse)
    ng = block_norms(g, part_f, fine)
    for k, val in nf.items():
        if val > 1e-12:
            assert ng.get(k + 1, 0.0) == pytest.approx(val, rel=1e-10)


def test_embedding_chain(grid128, rng, scalar_space):
    part = build_partition(grid128)
    f = random_band_limited(grid128, part.band_limit_mask(), rng)
    s, t, p = 1.0, 0.25, 2.0
    # first embedding: contraction in the summation exponent
    for v, w in [(1.0, 2.0), (2.0, np.inf), (1.0, np.inf)]:
        assert besov_norm(f, BesovParams(s, p, w), part, scalar_space) <= besov_norm(
            f, BesovParams(s, p, v), part, scalar_space
        ) + 1e-12
    # second embedding: lower smoothness with the value-space-free constant
    c = sum(2.0 ** ((t - s) * k) for k in range(part.k_max + 1))
    lhs = besov_norm(f, BesovParams(t, p, 1.0), part, scalar_space)
    rhs = besov_norm(f, BesovParams(s, p, np.inf), part, scalar_space)
    assert lhs <= c * rhs + 1e-12


def test_cutoff_order_equivalence_frozen(grid128, scalar_space):
    frozen = json.loads((GOLDEN / "cutoff_equivalence.json").read_text())
    part_a = build_partition(grid128, smoothness=frozen["smoothness_pair"][0])
    part_b = build_partition(grid128, smoothness=frozen["smoothness_pair"][1])
    rng = np.random.default_rng(77)
    mask = part_a.band_limit_mask() & part_b.band_limit_mask()
    for s in (-1.0, 0.0, 1.5):
        for _ in range(5):
            f = random_band_limited(grid128, mask, rng)
            ratio = besov_norm(f, BesovParams(s, 2.0, 2.0), part_a, scalar_space) / besov_norm(
                f, BesovParams(s, 2.0, 2.0), part_b, scalar_space
            )
            assert frozen["ratio_low"] <= ratio <= frozen["ratio_high"]


def test_partition_export_golden():
    part = build_partition(GridSpec(1, 64, 1.0), smoothness=3)
    frozen = json.loads((GOLDEN / "partition_export.json").read_text())
    assert part.to_summary() == frozen
