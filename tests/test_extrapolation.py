import itertools
import json
import math
import re

import numpy as np
import pytest

from besovlp import (
    DimensionMismatchError,
    GaussianSampler,
    GridFunction,
    GridSpec,
    Kernel,
    OperatorSymbol,
    SearchBudget,
    ValueSpace,
    apply_multiplier,
    cz_decompose,
    estimate_multiplier_norm,
    eta_zeta_system,
    extrapolation_sweep,
    hilbert_kernel,
    hormander_constant,
    identity_symbol,
    kernel_convolve,
    kernel_of_symbol,
    lp_norm,
    mihlin_check,
    riesz_symbol,
    scalar_symbol,
    sharpness_probe,
    symbol_of_kernel,
    verify_weak_type,
    weak_type_constant,
)
from besovlp import hilbert_symbol
from besovlp.cli import run_scenario
from besovlp.extrapolation import CubeInfo, _eta_profile
from besovlp.testfunctions import adversarial_l1_family, plateau, spike

BUDGET = SearchBudget(restarts=6, steps=30, search_samples=2000)
SAMPLER = GaussianSampler(777, 20000)
SCALAR = ValueSpace.scalar()


# -- eta / zeta system -------------------------------------------------------


def test_eta_is_one_inside_unit_ball(grid128):
    sys = eta_zeta_system(grid128)
    mags = grid128.frequency_magnitudes()
    assert np.all(sys.eta_hat[mags <= 1.0] == 1.0)
    assert np.all(sys.eta_hat[mags >= 1.5] == 0.0)
    assert np.all((0.0 <= sys.eta_hat) & (sys.eta_hat <= 1.0))


def test_zeta_supports(grid128):
    sys = eta_zeta_system(grid128)
    mags = grid128.frequency_magnitudes()
    for j in sys.js:
        row = sys.zeta_row(j)
        outside = (mags < 2.0 ** (j - 1)) | (mags > 1.5 * 2.0**j)
        assert np.all(row[outside] == 0.0)


def test_zeta_telescoping_to_eta_window(grid128):
    # sum_{|j| <= N} zeta_j = eta(2^-N xi) - eta(2^(N+1) xi), from the
    # definitions zeta_j = eta(2^-j .) - eta(2^(-j+1) .)
    sys = eta_zeta_system(grid128)
    mags = grid128.frequency_magnitudes()
    for n in (1, 3, 5):
        total = np.zeros(grid128.n_nodes)
        for j in sys.js:
            if -n <= j <= n:
                total += sys.zeta_row(j)
        expect = _eta_profile(mags * 2.0**-n, sys.smoothness) - _eta_profile(
            mags * 2.0 ** (n + 1), sys.smoothness
        )
        assert np.abs(total - expect).max() < 1e-12


def test_zeta_partition_off_zero(grid128):
    sys = eta_zeta_system(grid128)
    mags = grid128.frequency_magnitudes()
    total = sys.zeta_hat.sum(axis=0)
    # representable range: where the full telescoping window has closed
    covered = (mags > 0) & (mags <= 2.0 ** (sys.j_max - 1))
    assert np.abs(total[covered] - 1.0).max() < 1e-12


def test_grid_too_small_for_eta():
    with pytest.raises(ValueError):
        eta_zeta_system(GridSpec(1, 4, 1.0))


# -- symbol-to-kernel truncation --------------------------------------------


def test_identity_kernel_has_zero_mean(grid128):
    # the zero mode is killed by the telescoping window at xi = 0
    k = kernel_of_symbol(identity_symbol(grid128), 4)
    total = k.values.sum(axis=0) * grid128.cell_volume
    assert np.abs(total).max() < 1e-12


def test_hilbert_kernel_truncation_matches_analytic_oracle():
    grid = GridSpec(1, 2048, 16.0)
    k = kernel_of_symbol(hilbert_symbol(grid), 5)
    x = grid.min_image_coords()[:, 0]
    sel = (np.abs(x) >= 0.125) & (np.abs(x) <= 1.0)
    approx = k.values[sel, 0, 0].real
    exact = 1.0 / (np.pi * x[sel])
    rel = np.abs(approx - exact) / np.abs(exact)
    assert rel.max() < 0.05


def test_convolution_consistency(grid128, rng):
    sys = eta_zeta_system(grid128)
    n = 4
    m = scalar_symbol(grid128, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    k = kernel_of_symbol(m, n)
    window = np.zeros(grid128.n_nodes)
    for j in sys.js:
        if -n <= j <= n:
            window += sys.zeta_row(j)
    truncated = scalar_symbol(grid128, window * m.values[:, 0, 0])
    f = GridFunction(grid128, rng.standard_normal(128))
    a = kernel_convolve(k, f)
    b = apply_multiplier(truncated, f)
    assert np.abs(a.samples - b.samples).max() < 1e-10


@pytest.mark.parametrize("d, n_per_dim", [(1, 64), (2, 32)])
def test_kernel_transforms_equal_the_inline_fft_expressions_exactly(d, n_per_dim):
    # the expressions kernel_of_symbol and symbol_of_kernel inlined before
    # they went through the stack transforms of spaces; no levels truncates
    # at the grid's eta-zeta system's j_max
    grid = GridSpec(d, n_per_dim, 2.0)
    rng = np.random.default_rng(91)
    shape = (grid.n_nodes, 2, 2)
    m = OperatorSymbol(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    sys = eta_zeta_system(grid)
    lattice = grid.spatial_shape() + (2, 2)
    axes = tuple(range(d))
    for levels in (3, None):
        n = sys.j_max if levels is None else levels
        window = np.zeros(grid.n_nodes)
        for j in sys.js:
            if -n <= j <= n:
                window += sys.zeta_row(j)
        vals = np.fft.ifftn((window[:, None, None] * m.values).reshape(lattice), axes=axes)
        vals *= (grid.n_per_dim / grid.period) ** d
        k = kernel_of_symbol(m, levels)
        assert np.array_equal(k.values, vals.reshape(shape))
    # the origin sample is transformed as stored: storing 0 there gives the
    # symbol that skipped the origin
    zeroed = k.values.copy()
    zeroed[0] = 0.0
    for kvals in (k.values, zeroed):
        expected = np.fft.fftn(kvals.reshape(lattice), axes=axes) * grid.cell_volume
        assert np.array_equal(symbol_of_kernel(Kernel(grid, kvals)).values,
                              expected.reshape(shape))


def test_truncation_level_beyond_grid_rejected(grid128):
    with pytest.raises(ValueError):
        kernel_of_symbol(identity_symbol(grid128), 99)


def test_kernel_json_roundtrip(grid64, rng):
    vals = rng.standard_normal((64, 1, 1)) + 1j * rng.standard_normal((64, 1, 1))
    k = Kernel(grid64, vals)
    back = Kernel.from_json_obj(k.to_json_obj())
    np.testing.assert_array_equal(back.values, k.values)
    assert back.to_json_obj()["domain_tag"] == "physical"
    # a symbol file is not read as a kernel
    with pytest.raises(ValueError, match="a kernel file has domain_tag 'physical', "
                                         "got 'frequency'"):
        Kernel.from_json_obj(scalar_symbol(grid64, vals[:, 0, 0]).to_json_obj())


# -- Hoermander condition ----------------------------------------------------


def test_hormander_constant_kernel_vanishes(grid128):
    vals = np.tile(np.array([[1.5 + 0.5j]]), (128, 1, 1))
    rep = hormander_constant(Kernel(grid128, vals), 1.0)
    assert rep.constant == 0.0


def test_hormander_linear_kernel_grows_with_domain():
    # K(s) = s is not a singular-integral kernel: the difference integral
    # scales with the truncation region
    vals_small = GridSpec(1, 256, 1.0).min_image_coords()[:, 0]
    vals_large = GridSpec(1, 1024, 4.0).min_image_coords()[:, 0]
    rep_small = hormander_constant(
        Kernel(GridSpec(1, 256, 1.0), vals_small.astype(complex)[:, None, None]), 1.0
    )
    rep_large = hormander_constant(
        Kernel(GridSpec(1, 1024, 4.0), vals_large.astype(complex)[:, None, None]), 1.0
    )
    assert rep_large.constant > 2.0 * rep_small.constant


def test_hormander_hilbert_kernel_against_fine_quadrature_oracle():
    grid = GridSpec(1, 1024, 1.0)
    rep = hormander_constant(hilbert_kernel(grid), 1.0)

    # independent dense quadrature of the same torus functional (the
    # min-image kernel jumps across the seam at L/2, and the functional
    # legitimately sees that jump)
    def oracle_for(t, n=500001):
        s = (np.arange(n) / n) * 1.0
        s = (s + 0.5) % 1.0 - 0.5

        def kk(x):
            x = (x + 0.5) % 1.0 - 0.5
            out = np.zeros_like(x)
            nz = x != 0
            out[nz] = 1.0 / (np.pi * x[nz])
            return out

        region = np.abs(s) >= 2 * t
        return np.abs(kk(s - t) - kk(s))[region].sum() / n

    for sample in rep.samples:
        t = sample["t_mag"]
        assert sample["value"] == pytest.approx(oracle_for(t), rel=0.05)
    # for this kernel the torus functional reproduces the full-space
    # difference integral log(3)/pi at every t
    assert rep.constant == pytest.approx(math.log(3.0) / math.pi, rel=0.05)


def test_hormander_stabilizes_under_refinement():
    vals = [
        hormander_constant(hilbert_kernel(GridSpec(1, n, 1.0)), 1.0).constant
        for n in (512, 1024)
    ]
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


def test_hormander_representative_invariance():
    grid = GridSpec(1, 256, 1.0)
    k = hilbert_kernel(grid)
    a = hormander_constant(k, 1.0).constant
    b = hormander_constant(Kernel(grid, np.roll(k.values, grid.n_per_dim, axis=0)), 1.0).constant
    assert abs(a - b) < 1e-10


def test_hormander_a_inf_is_the_sup_over_the_region():
    # (H)_inf takes the sup of the difference norms; a large finite a
    # approaches it from below, since the region has measure at most 1
    k = hilbert_kernel(GridSpec(1, 256, 1.0))
    sup = hormander_constant(k, np.inf).constant
    near = hormander_constant(k, 400.0).constant
    assert 0.98 * sup <= near <= sup


def test_hormander_rejects_oversized_t(grid128):
    k = hilbert_kernel(grid128)
    rep = hormander_constant(k, 1.0, t_samples=[np.array([60]), np.array([4])])
    assert len(rep.rejected) == 1
    assert rep.rejected[0]["reason"] == "outside (0, L/8]"


def test_hormander_constant_ignores_the_value_stored_at_the_origin():
    # t != 0 and |s| >= 2|t| exclude s = 0 and s = t, the only nodes where
    # K(s) or K(s - t) is read at the origin
    for grid in (GridSpec(1, 128, 1.0), GridSpec(2, 64, 1.0)):
        vals = np.random.default_rng(3).standard_normal((grid.n_nodes, 2, 2)) + 0j
        reps = []
        for origin in (0.0, 5.0):
            vals[0] = origin
            reps.append(hormander_constant(Kernel(grid, vals.copy()), 1.5))
        assert reps[0].samples and reps[0].constant > 0
        assert all(rep.samples == reps[0].samples for rep in reps[1:])


@pytest.mark.parametrize("node", [0, 5])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_kernel_refuses_a_sample_that_is_not_finite(node, value):
    # a singular kernel stores a finite stand-in at its origin; an inf
    # origin used to be accepted and fail later, in symbol_of_kernel
    vals = np.ones(64, dtype=complex)
    vals[node] = value
    with pytest.raises(ValueError, match="kernel values must be finite on the grid"):
        Kernel(GridSpec(1, 64, 1.0), vals)


# -- Mihlin conditions -------------------------------------------------------


def test_mihlin_identity_symbol(grid128):
    rep = mihlin_check(identity_symbol(grid128), r=np.inf, rho=2.0, n=1,
                       mode="fd", h=1.0)
    # alpha = 0: shell-measure^(1/2) scaled by R^(-d/rho); derivative term 0
    for s in rep.samples:
        if sum(s["alpha"]) >= 1:
            assert s["value"] == 0.0
    assert np.isfinite(rep.constant)


def test_mihlin_power_symbol_scale_invariance():
    # |xi|^(-sigma) with sigma = d/r: the weighted shell values are
    # R-independent; symbolic-derivative oracle on a dense lattice
    grid = GridSpec(1, 4096, 32.0)
    m = riesz_symbol(grid, 0.5)
    rep = mihlin_check(m, r=2.0, rho=2.0)
    assert rep.order == 1
    per_alpha = {}
    for s in rep.samples:
        if s["R"] >= 2.0:
            per_alpha.setdefault(tuple(s["alpha"]), []).append(s["value"])
    for alpha, vals in per_alpha.items():
        assert max(vals) / min(vals) < 1.02, alpha


def test_mihlin_fd_matches_oracle():
    grid = GridSpec(1, 4096, 32.0)
    m = riesz_symbol(grid, 0.5)
    a = mihlin_check(m, r=2.0, rho=2.0, mode="oracle")
    b = mihlin_check(m, r=2.0, rho=2.0, mode="fd", h=1.0 / 32.0)
    by_key_a = {(tuple(s["alpha"]), s["R"]): s["value"] for s in a.samples}
    by_key_b = {(tuple(s["alpha"]), s["R"]): s["value"] for s in b.samples}
    for key, va in by_key_a.items():
        if key[1] >= 2.0:  # central shells, away from the origin
            assert by_key_b[key] == pytest.approx(va, rel=1e-2)


def test_mihlin_linear_scaling(grid128):
    grid = GridSpec(1, 1024, 16.0)
    m = riesz_symbol(grid, 0.5)
    a = mihlin_check(m, r=2.0, rho=2.0)
    b = mihlin_check(m.scaled(3.0), r=2.0, rho=2.0, mode="fd", h=1.0 / 16.0)
    c = mihlin_check(m, r=2.0, rho=2.0, mode="fd", h=1.0 / 16.0)
    assert b.constant == pytest.approx(3.0 * c.constant, rel=1e-12)
    assert a.constant == pytest.approx(c.constant, rel=0.05)


def test_scaled_symbols_scale_their_derivative_oracle():
    # the oracle of c m is c times m's: oracle mode used to return m's constant
    grid = GridSpec(1, 256, 1.0)
    m = riesz_symbol(grid, 0.5)
    lone = mihlin_check(m, r=2.0, rho=2.0).constant
    tripled = mihlin_check(m.scaled(3.0), r=2.0, rho=2.0).constant
    assert tripled == pytest.approx(3.0 * lone, rel=1e-12)
    assert tripled == pytest.approx(
        mihlin_check(m.scaled(3.0), r=2.0, rho=2.0, mode="fd", h=1.0).constant, rel=1e-9)
    c = -2.0 + 1.0j
    adjoint = mihlin_check(m.adjoint(), r=2.0, rho=2.0).constant
    scaled = mihlin_check(m.scaled(c).adjoint(), r=2.0, rho=2.0).constant
    assert scaled == pytest.approx(abs(c) * adjoint, rel=1e-12)
    assert scaled == pytest.approx(mihlin_check(m.scaled(c).adjoint(), r=2.0, rho=2.0,
                                                mode="fd", h=1.0).constant, rel=1e-9)
    assert scalar_symbol(grid, np.ones(256)).scaled(2.0).derivative_oracle is None
    assert scalar_symbol(grid, np.ones(256)).adjoint().derivative_oracle is None


def _adjoint_with_patched_oracle(m):
    """m's adjoint as mihlin_check(m, adjoint=True) used to build it: the
    conjugate-transposed values, and m's oracle conjugate-transposed and
    set on it by hand."""
    sym = OperatorSymbol(m.grid, np.conj(np.swapaxes(m.values, 1, 2)), name=m.name + "*")
    base = m.derivative_oracle
    sym.derivative_oracle = lambda alpha, xi: np.conj(np.swapaxes(base(alpha, xi), 1, 2))
    return sym


@pytest.mark.parametrize("mode, h", [("oracle", None), ("fd", 1.0)])
@pytest.mark.parametrize("c", [None, -2.0 + 1.0j])
def test_adjoint_symbols_keep_their_derivative_oracle(c, mode, h):
    # m.adjoint() had no oracle, so only mihlin_check's adjoint=True could check it
    grid = GridSpec(1, 256, 1.0)
    m = riesz_symbol(grid, 0.5)
    if c is not None:
        m = m.scaled(c)
    got = mihlin_check(m.adjoint(), r=2.0, rho=2.0, mode=mode, h=h)
    want = mihlin_check(_adjoint_with_patched_oracle(m), r=2.0, rho=2.0, mode=mode, h=h)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_mihlin_requires_oracle_or_step(grid128):
    m = scalar_symbol(grid128, np.ones(128, dtype=complex))
    with pytest.raises(ValueError):
        mihlin_check(m, r=2.0, rho=2.0, mode="oracle")
    with pytest.raises(ValueError):
        mihlin_check(m, r=2.0, rho=2.0, mode="fd")


def test_mihlin_default_order():
    grid = GridSpec(1, 1024, 16.0)
    rep = mihlin_check(riesz_symbol(grid, 0.5), r=4.0, rho=1.0)
    assert rep.order == math.floor(1.0 / 1.0 - 1.0 / 4.0) + 1


# -- Calderon-Zygmund decomposition ------------------------------------------


def _cube_slice(info):
    return tuple(slice(c, c + 2**info.level) for c in info.corner_cells)


def _reconstruct(res):
    """good + sum of bad parts, each added into its own cube."""
    recon = res.good.samples.copy()
    view = recon.reshape(res.good.grid.spatial_shape() + (res.good.value_dim,))
    for bp, _ in res.bad_parts:
        view[bp.cube] += bp.values
    return recon


def _assert_part_on_its_cube(bp, info):
    """The part's cube is the info's cube, and it is zero off that cube."""
    grid = bp.grid
    assert bp.cube == _cube_slice(info)
    assert bp.values.shape == (2**info.level,) * grid.d + bp.values.shape[-1:]
    full = bp.to_function().samples.reshape(grid.spatial_shape() + bp.values.shape[-1:])
    full[bp.cube] = 0.0
    assert not full.any()


def _bad_mean(bp):
    return abs(bp.values.reshape(-1, bp.values.shape[-1]).sum(axis=0)).max() * bp.grid.cell_volume


@pytest.mark.parametrize("a", [0.0, -1.0, 0.5, np.inf, np.nan, -1e308])
def test_cz_refuses_a_weak_type_exponent_outside_one_to_inf(a):
    f = spike(GridSpec(1, 8, 1.0), 0, 1.0)
    with pytest.raises(ValueError, match="^a "):
        cz_decompose(f, alpha=2.0, a=a, B=1.0)


@pytest.mark.parametrize("alpha, a, B, height", [
    (8.0, 1e308, 1.0, "inf"),     # alpha^a overflows
    (2.0, 2.0, 1e-300, "inf"),    # B^-a overflows
    (1e-200, 2.0, 1.0, "0"),      # alpha^a underflows
])
def test_cz_refuses_a_height_that_overflows_or_vanishes(alpha, a, B, height):
    f = spike(GridSpec(1, 8, 1.0), 0, 1.0)
    with pytest.raises(ValueError, match=f"must be positive and finite, got {height} "):
        cz_decompose(f, alpha=alpha, a=a, B=B)


@pytest.mark.parametrize("fraction", [0.0, -1.0, 2.5, 1e308, -1e308, np.nan])
def test_plateau_refuses_a_fraction_outside_zero_to_one(fraction):
    with pytest.raises(ValueError, match=r"^plateau fraction must lie in \(0, 1\]"):
        plateau(GridSpec(1, 64, 1.0), fraction)


def test_plateau_fractions_at_the_ends_of_their_range():
    grid = GridSpec(1, 64, 1.0)
    assert np.count_nonzero(plateau(grid, 1.0).samples) == 64
    assert np.count_nonzero(plateau(grid, 1e-9).samples) == 1


@pytest.mark.parametrize("l1_mass", [1e308, np.inf, np.nan])
def test_spike_refuses_a_sample_that_is_not_finite(l1_mass):
    # at N = 64 the cell sample is 64 l1_mass, which overflows at 1e308
    with pytest.raises(ValueError, match="^spike sample l1_mass / cell volume must be finite"):
        spike(GridSpec(1, 64, 1.0), 0, l1_mass)
    assert spike(GridSpec(1, 64, 1.0), 0, 1e306).samples[0, 0] == 64e306


def test_cz_constant_below_height_has_no_cubes():
    grid = GridSpec(1, 64, 1.0)
    f = GridFunction(grid, np.full(64, 0.9))
    res = cz_decompose(f, alpha=10.0, a=1.0, B=1.0)  # height 2.5 > 0.9
    assert res.bad_parts == []
    assert np.abs(res.good.samples - f.samples).max() == 0.0


def test_cz_spike_hand_traced_stopping_time():
    # N = 8 spike of mass 0.3 on cell 0; height 0.7 selects exactly the
    # two-cell cube [0, 1/4) whose average 1.2 first exceeds the height
    grid = GridSpec(1, 8, 1.0)
    f = spike(grid, 0, l1_mass=0.3)
    assert lp_norm(f, 1.0) == pytest.approx(0.3)
    res = cz_decompose(f, alpha=2.8, a=1.0, B=1.0)  # gamma=1/4, height 0.7
    assert not res.whole_domain
    assert len(res.bad_parts) == 1
    bad, info = res.bad_parts[0]
    assert info.level == 1 and info.corner_cells == (0,)
    assert info.measure == pytest.approx(0.25)
    assert _bad_mean(bad) < 1e-12
    assert res.good.samples[0, 0] == pytest.approx(1.2)
    assert res.good.samples[1, 0] == pytest.approx(1.2)
    assert info.dilated_side == pytest.approx(2.0 * math.sqrt(1) * 0.25)


def test_cz_properties_exact_on_mixed_family():
    grid = GridSpec(1, 256, 1.0)
    fs = adversarial_l1_family(grid, 12, seed=3)
    for f in fs:
        for alpha in (5.0, 9.0, 33.0):
            res = cz_decompose(f, alpha=alpha, a=1.0, B=1.0)
            assert not res.whole_domain
            for bp, info in res.bad_parts:
                _assert_part_on_its_cube(bp, info)
                assert _bad_mean(bp) < 1e-12
            assert np.abs(_reconstruct(res) - f.samples).max() < 1e-12
            assert lp_norm(res.good, 1.0) <= 1.0 + 1e-12
            assert lp_norm(res.good, np.inf) <= 2.0 * res.height + 1e-12
            assert res.total_cube_measure() <= 1.0 / res.height + 1e-12
            # cubes pairwise disjoint; total bad mass at most 2
            claimed = np.zeros(grid.n_nodes, dtype=int)
            bad_l1 = 0.0
            for bp, info in res.bad_parts:
                claimed[_cube_slice(info)] += 1
                bad_l1 += lp_norm(bp.to_function(), 1.0)
            assert claimed.max() <= 1
            assert bad_l1 <= 2.0 + 1e-12


def test_cz_2d_properties(rng):
    grid = GridSpec(2, 32, 1.0)
    samples = rng.standard_normal((grid.n_nodes, 1)) + 1j * rng.standard_normal(
        (grid.n_nodes, 1)
    )
    f = GridFunction(grid, samples)
    f = f * (1.0 / lp_norm(f, 1.0))
    res = cz_decompose(f, alpha=4.0, a=1.0, B=1.0)  # gamma = 1/8, height 0.5
    assert np.abs(_reconstruct(res) - f.samples).max() < 1e-12
    assert lp_norm(res.good, np.inf) <= 4.0 * res.height + 1e-12


def test_cz_bad_parts_freed_without_cycle_collection():
    # the decomposition holds no reference cycle: dropping the result frees
    # its bad parts at once, with the cycle collector switched off
    import gc
    import weakref

    grid = GridSpec(1, 8, 1.0)
    f = spike(grid, 0, l1_mass=0.3)
    gc.disable()
    try:
        res = cz_decompose(f, alpha=2.8, a=1.0, B=1.0)
        ref = weakref.ref(res.bad_parts[0][0])
        del res
        assert ref() is None
    finally:
        gc.enable()


def test_cz_cubes_come_in_preorder():
    # in 1-d the preorder of the cube tree runs left to right, whatever
    # the levels of the stopping cubes
    grid = GridSpec(1, 64, 1.0)
    samples = np.zeros(64)
    samples[[3, 20, 21, 40, 60]] = [10.0, 8.0, 8.0, 12.0, 4.0]
    res = cz_decompose(GridFunction(grid, samples), alpha=6.0, a=1.0, B=1.0)
    corners = [info.corner_cells[0] for info in res.cubes]
    assert len({info.level for info in res.cubes}) > 1
    assert corners == sorted(corners) and len(corners) == 4


def test_cz_rejects_unnormalized_input():
    grid = GridSpec(1, 64, 1.0)
    f = GridFunction(grid, np.full(64, 3.0))
    with pytest.raises(ValueError):
        cz_decompose(f, alpha=1.0, a=1.0, B=1.0)


def test_cz_whole_domain_flag():
    grid = GridSpec(1, 64, 1.0)
    f = GridFunction(grid, np.ones(64))
    res = cz_decompose(f, alpha=1.0, a=1.0, B=1.0)  # height 0.25 < mean 1
    assert res.whole_domain
    assert len(res.bad_parts) == 1
    assert np.abs(_reconstruct(res) - f.samples).max() < 1e-12


def _reference_cz(f, alpha, a, B, space):
    """The stack traversal with full-grid bad parts that cz_decompose replaced.

    Returns (good samples, [(full-grid bad samples, CubeInfo)]) in preorder.
    """
    grid = f.grid
    d, N = grid.d, grid.n_per_dim
    height = B ** (-a) * 2.0 ** (-(d + a)) * alpha**a
    norms = space.norm_rows(f.samples).reshape(grid.spatial_shape())
    samples_view = f.samples.reshape(grid.spatial_shape() + (f.value_dim,))
    levels = int(math.log2(N))
    pyramid = [norms]
    cur = norms
    for _ in range(levels):
        for axis in range(d):
            cur = 0.5 * (np.take(cur, range(0, cur.shape[axis], 2), axis=axis)
                         + np.take(cur, range(1, cur.shape[axis], 2), axis=axis))
        pyramid.append(cur)
    good = samples_view.copy()
    parts = []
    side_unit = grid.period / N
    child_offsets = list(itertools.product(range(2), repeat=d))[::-1]
    pending = [(levels, (0,) * d)]
    while pending:
        level, idx = pending.pop()
        if float(pyramid[level][idx]) > height:
            step = 2**level
            sl = tuple(slice(i * step, (i + 1) * step) for i in idx)
            avg = samples_view[sl].reshape(-1, f.value_dim).mean(axis=0)
            bad = np.zeros_like(samples_view)
            bad[sl] = samples_view[sl] - avg
            good[sl] = avg
            side = side_unit * step
            info = CubeInfo(level=level, corner_cells=tuple(i * step for i in idx),
                            side=side, measure=side**d,
                            dilated_side=2.0 * math.sqrt(d) * side)
            parts.append((bad.reshape(grid.n_nodes, f.value_dim), info))
        elif level > 0:
            pending += [(level - 1, tuple([2 * i + o for i, o in zip(idx, offs)]))
                        for offs in child_offsets]
    return good.reshape(grid.n_nodes, f.value_dim), parts


def _spiky(grid, value_dim, space, seed):
    """Seeded noise plus spikes whose masses span two decades, ||f||_1 = 1."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_nodes, value_dim)
    samples = 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    cells = rng.choice(grid.n_nodes, size=max(2, grid.n_nodes // 16), replace=False)
    samples[cells] *= 10.0 ** rng.uniform(1.0, 3.0, size=(len(cells), 1))
    f = GridFunction(grid, samples)
    return f * (1.0 / lp_norm(f, 1.0, space))


CZ_GRIDS = [GridSpec(1, 256, 1.0), GridSpec(2, 32, 1.0), GridSpec(3, 8, 2.0)]


def test_cz_matches_the_reference_traversal_exactly():
    seen = {"no cubes": 0, "whole domain": 0, "mixed levels": 0}
    for seed, (grid, value_dim, p) in enumerate(
            itertools.product(CZ_GRIDS, (1, 3), (1.0, 2.0, np.inf))):
        space = ValueSpace.lp(p, value_dim)
        f = _spiky(grid, value_dim, space, seed)
        # the mean of ||f|| is 1/period^d; a=B=1 puts the height at alpha/2^(d+1)
        base = 2.0 ** (grid.d + 1) / grid.period**grid.d
        for alpha in (0.5 * base, 1.5 * base, 4.0 * base, 16.0 * base, 1e9):
            res = cz_decompose(f, alpha=alpha, a=1.0, B=1.0, space=space)
            ref_good, ref_parts = _reference_cz(f, alpha, 1.0, 1.0, space)
            assert res.cubes == [info for _, info in ref_parts]
            assert np.array_equal(res.good.samples, ref_good)
            for (bp, _), (ref_bad, _) in zip(res.bad_parts, ref_parts):
                assert np.array_equal(bp.to_function().samples, ref_bad)
            seen["no cubes"] += not res.bad_parts
            seen["whole domain"] += res.whole_domain
            seen["mixed levels"] += len({info.level for info in res.cubes}) > 1
    assert all(seen.values()), seen


def test_cz_bad_parts_hold_only_their_cubes():
    grid = GridSpec(2, 32, 1.0)
    space = ValueSpace.lp(2.0, 3)
    res = cz_decompose(_spiky(grid, 3, space, 7), alpha=24.0, a=1.0, B=1.0, space=space)
    assert len({info.level for info in res.cubes}) > 1
    cube_cells = sum(2 ** (info.level * grid.d) for info in res.cubes)
    assert sum(bp.values.nbytes for bp, _ in res.bad_parts) == 16 * 3 * cube_cells


@pytest.mark.parametrize("grid", CZ_GRIDS, ids=lambda g: f"d{g.d}")
def test_cz_seeded_properties(grid):
    # the decomposition's properties over seeded inputs and several heights
    for seed in range(4):
        space = ValueSpace.lp((1.0, 2.0, np.inf)[seed % 3], 1 + seed % 2)
        f = _spiky(grid, 1 + seed % 2, space, 100 + seed)
        scale = float(np.abs(f.samples).max())
        base = 2.0 ** (grid.d + 1) / grid.period**grid.d
        for alpha in (1.5 * base, 3.0 * base, 8.0 * base, 40.0 * base):
            res = cz_decompose(f, alpha=alpha, a=1.0, B=1.0, space=space)
            assert not res.whole_domain
            assert np.abs(_reconstruct(res) - f.samples).max() <= 1e-12 * scale
            claimed = np.zeros(grid.spatial_shape(), dtype=int)
            for bp, info in res.bad_parts:
                _assert_part_on_its_cube(bp, info)
                assert _bad_mean(bp) <= 1e-12 * scale
                claimed[_cube_slice(info)] += 1
            assert claimed.max(initial=0) <= 1
            assert lp_norm(res.good, np.inf, space) <= 2**grid.d * res.height * (1 + 1e-12)
            assert res.total_cube_measure() <= 1.0 / res.height + 1e-12


@pytest.mark.parametrize("d,n", [(1, 256), (2, 32), (3, 16)])
def test_cz_scenario_reports_cubes_and_a_finite_measure(d, n, tmp_path):
    n_cubes = []
    for seed, dim in ((5, 1), (6, 3)):
        cfg = {
            "schema": 1, "name": f"cz-d{d}", "seed": seed,
            "grid": {"d": d, "n_per_dim": n, "period": 1.0},
            "spaces": {"domain": {"kind": "lp", "p": 1.0, "dim": dim}},
            "operation": {"name": "cz", "params": {
                "function": {"kind": "random_band_limited", "dim": dim},
                "alpha": 2.0 ** (d + 2), "a": 1.0, "B": 1.0}},
        }
        path = tmp_path / f"cz-{seed}.json"
        path.write_text(json.dumps(cfg))
        code, rep = run_scenario(path, out_override=str(tmp_path / "out.json"))
        (report,) = rep["reports"]
        assert code == 0 and report["verdict"] == "pass"
        assert rep["extras"]["n_cubes"] == report["metadata"]["n_cubes"] >= 0
        assert math.isfinite(report["measured"]) and report["measured"] >= 0.0
        n_cubes.append(report["metadata"]["n_cubes"])
    assert sum(n_cubes) > 0


# -- weak-type endpoint ------------------------------------------------------


def test_weak_type_constant_formula():
    assert weak_type_constant(1, 1.0) == pytest.approx(10.0)
    assert weak_type_constant(2, 1.0) == pytest.approx(2.0 + 2.0 * 2.0 * 16.0)


def test_weak_type_identity_symbol(grid128):
    fs = adversarial_l1_family(grid128, 8, seed=5)
    rep = verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=fs,
                           symbol=identity_symbol(grid128), sampler=SAMPLER,
                           budget=BUDGET)
    assert rep.passed
    assert rep.metadata["C_da"] == pytest.approx(10.0)
    assert rep.metadata["B_exact"] is True


def test_weak_type_scaling_invariance(grid128):
    fs = adversarial_l1_family(grid128, 4, seed=6)
    scaled = [f * 5.0 for f in fs]
    m = hilbert_symbol(grid128)
    r1 = verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=fs, symbol=m,
                          sampler=SAMPLER, budget=BUDGET)
    r2 = verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=scaled, symbol=m,
                          sampler=SAMPLER, budget=BUDGET)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)


def test_weak_type_searches_B_outside_l2_between_hilbert_spaces(grid128):
    # p0 = q0 = 4, or a non-Hilbert value space at p0 = 2: B is the
    # witness-search estimate of the L^p0 -> L^q0 norm, flagged
    fs = adversarial_l1_family(grid128, 4, seed=7)
    m = hilbert_symbol(grid128)
    budget = SearchBudget(restarts=2, steps=4, search_samples=1000)
    for p0, space in ((4.0, None), (2.0, ValueSpace.lp(1.0, 1))):
        rep = verify_weak_type(a=1.0, p0=p0, q0=p0, f_set=fs, symbol=m, domain_space=space,
                               codomain_space=space, sampler=SAMPLER, budget=budget)
        assert rep.metadata["B_exact"] is False
        assert rep.metadata["B"] == estimate_multiplier_norm(m, p0, p0, space, space, budget,
                                                             SAMPLER)
        assert rep.metadata["B"] > 0


def test_weak_type_derives_the_symbol_of_a_lone_kernel(grid128):
    fs = adversarial_l1_family(grid128, 4, seed=8)
    k = hilbert_kernel(grid128)
    alone = verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=fs, kernel=k, sampler=SAMPLER,
                             budget=BUDGET)
    both = verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=fs, symbol=symbol_of_kernel(k),
                            kernel=k, sampler=SAMPLER, budget=BUDGET)
    assert alone.to_dict() == both.to_dict()
    assert alone.metadata["B"] == float(np.max(symbol_of_kernel(k).opnorms()))


def test_weak_type_rejects_bad_exponents(grid128):
    with pytest.raises(ValueError):
        verify_weak_type(a=2.0, p0=2.0, q0=2.0, f_set=[],
                         symbol=identity_symbol(grid128), sampler=SAMPLER)


def test_weak_type_needs_some_operator(grid128):
    with pytest.raises(ValueError):
        verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=[], sampler=SAMPLER)


def test_weak_type_and_hormander_check_space_dimensions(grid128):
    pair = ValueSpace.lp(2.0, 2)
    with pytest.raises(DimensionMismatchError):
        verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=[], symbol=identity_symbol(grid128),
                         domain_space=pair, sampler=SAMPLER)
    with pytest.raises(DimensionMismatchError):
        verify_weak_type(a=1.0, p0=2.0, q0=2.0, f_set=[], symbol=identity_symbol(grid128),
                         codomain_space=pair, sampler=SAMPLER)
    with pytest.raises(DimensionMismatchError):
        hormander_constant(hilbert_kernel(grid128), 1.0, codomain_space=pair)


# -- sweeps and sharpness ----------------------------------------------------


def test_sweep_identity_is_flat():
    grids = [GridSpec(1, n, 1.0) for n in (64, 128)]
    rep = extrapolation_sweep(
        lambda g: identity_symbol(g), np.inf,
        [(1.25, 1.25), (2.0, 2.0), (4.0, 4.0)], grids,
        budget=BUDGET, sampler=SAMPLER,
    )
    for row in rep.rows:
        assert row["estimate"] == pytest.approx(1.0, abs=1e-6)


def test_sweep_rejects_supercritical_pair():
    grids = [GridSpec(1, 64, 1.0)]
    with pytest.raises(ValueError):
        extrapolation_sweep(lambda g: riesz_symbol(g, 0.5), 2.0,
                            [(4.0 / 3.0, 10.0)], grids,
                            budget=BUDGET, sampler=SAMPLER)


def test_sweep_flags_subcritical_pair():
    grids = [GridSpec(1, 64, 1.0)]
    rep = extrapolation_sweep(lambda g: riesz_symbol(g, 0.5), 2.0,
                              [(2.0, 10.0)], grids,
                              budget=BUDGET, sampler=SAMPLER)
    assert all(row["off_line"] for row in rep.rows)


def test_sweep_fits_only_finite_endpoint_abscissae(capfd):
    # p = 1 and q = inf have infinite abscissae log(1/(p-1)) and log(q):
    # each fit drops those rows, and is left out with under two others
    grids = [GridSpec(1, 32, 1.0)]
    budget = SearchBudget(restarts=1, steps=3, search_samples=1000)

    def sweep(pairs):
        return extrapolation_sweep(lambda g: riesz_symbol(g, 0.5), 2.0, pairs, grids,
                                   budget=budget, sampler=SAMPLER)

    three = sweep([(1.0, 2.0), (4.0 / 3.0, 4.0), (2.0, np.inf)])
    ests = np.log([row["estimate"] for row in three.rows])
    inv_p_minus_1 = 1.0 / (np.array([4.0 / 3.0, 2.0]) - 1.0)
    assert three.endpoint_fits == {
        "exponent_vs_inv_p_minus_1": float(np.polyfit(np.log(inv_p_minus_1), ests[1:], 1)[0]),
        "exponent_vs_q": float(np.polyfit(np.log([2.0, 4.0]), ests[:2], 1)[0]),
    }
    assert sweep([(1.0, 2.0), (2.0, np.inf)]).endpoint_fits == {}
    assert sweep([(2.0, 4.0), (2.0, 10.0)]).endpoint_fits.keys() == {
        "exponent_vs_q"}
    assert capfd.readouterr().err == ""


def test_sweep_detects_mihlin_violating_ridge():
    # |xi| ridge: the norm on the p = q = 2 line doubles per refinement
    grids = [GridSpec(1, n, 1.0) for n in (64, 128, 256)]

    def ridge(g):
        return scalar_symbol(g, g.frequency_magnitudes().astype(complex))

    rep = extrapolation_sweep(ridge, np.inf, [(2.0, 2.0)], grids,
                              budget=BUDGET, sampler=SAMPLER)
    ests = [row["estimate"] for row in rep.rows]
    assert ests[1] >= 1.9 * ests[0]
    assert ests[2] >= 1.9 * ests[1]
    assert rep.stability["p=2,q=2"]["spread"] >= 2.0


def _random_2x2_symbol(grid):
    rng = np.random.default_rng(grid.n_per_dim)
    shape = (grid.n_nodes, 2, 2)
    return OperatorSymbol(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("factory, grids", [
    # zero at the origin, so the sweep searches mean-zero witnesses
    (lambda g: riesz_symbol(g, 0.5), [GridSpec(1, n, 1.0) for n in (32, 64)]),
    (_random_2x2_symbol, [GridSpec(2, n, 1.0) for n in (8, 16)]),
])
def test_sweep_rows_equal_the_lone_estimates_bit_for_bit(factory, grids):
    # an l^1 -> l^2 and an l^2 -> l^inf pair, and one pair listed twice
    pairs = [(1.0, 2.0), (4.0 / 3.0, 4.0), (2.0, np.inf), (4.0 / 3.0, 4.0)]
    budget = SearchBudget(restarts=3, steps=5)
    rep = extrapolation_sweep(factory, 2.0, pairs, grids, budget=budget, sampler=SAMPLER)
    lone = []
    for grid in grids:
        m = factory(grid)
        lone += [estimate_multiplier_norm(m, p, q, budget=budget, sampler=SAMPLER,
                                          mean_zero=bool(np.all(m.values[0] == 0)))
                 for p, q in pairs]
    got = np.array([row["estimate"] for row in rep.rows])
    assert np.array_equal(got.view(np.int64), np.array(lone).view(np.int64))
    assert [(row["p"], row["q"]) for row in rep.rows] == pairs * len(grids)


def test_sweep_and_probe_refuse_empty_lists():
    grids, pairs = [GridSpec(1, 32, 1.0)], [(2.0, 2.0)]
    for args, name in (((pairs, []), "grid_list"), (([], grids), "pq_list")):
        with pytest.raises(ValueError, match=f"^{name} must be non-empty$"):
            extrapolation_sweep(identity_symbol, np.inf, *args, budget=BUDGET, sampler=SAMPLER)
    with pytest.raises(ValueError, match="^grid_list must be non-empty$"):
        sharpness_probe(0.5, 2.0, [])


@pytest.mark.parametrize("r, pairs, message", [
    (0.0, [(2.0, np.inf)], r"^r must lie in \[1, inf\], got 0.0$"),
    (-2.0, [(2.0, np.inf)], r"^r must lie in \[1, inf\], got -2.0$"),
    (np.nan, [(2.0, 2.0)], r"^r must lie in \[1, inf\], got nan$"),
    # p < 1 lies above the line 1/p - 1/q = 1/2 too, and is named as a bad exponent
    (2.0, [(2.0, np.inf), (0.5, 2.0)], r"^p must lie in \[1, inf\], got 0.5$"),
    (2.0, [(2.0, 0.5)], r"^q must lie in \[1, inf\], got 0.5$"),
])
def test_sweep_refuses_bad_exponents_before_building_a_symbol(r, pairs, message):
    def factory(grid):
        raise AssertionError("the symbol is built before the exponents are checked")

    with pytest.raises(ValueError, match=message):
        extrapolation_sweep(factory, r, pairs, [GridSpec(1, 32, 1.0)], budget=BUDGET,
                            sampler=SAMPLER)


def test_sharpness_refuses_a_probe_without_growth():
    grids = [GridSpec(1, n, 1.0) for n in (64, 128)]
    for sigma, expected in ((1e308, "0"), (-1e308, "inf")):
        message = f"sigma = {sigma:g} puts the expected growth 2^(d/r - sigma) at {expected},"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            sharpness_probe(sigma, 2.0, grids)
    # at period 1/4 every nonzero |xi| is >= 4, and |xi|^-1000 underflows to 0
    with pytest.raises(ValueError, match=r"^probe ratio 0 at N = 64: riesz\(1000\)"):
        sharpness_probe(1000.0, 2.0, [GridSpec(1, n, 0.25) for n in (64, 128)])


def test_sharpness_borderline_sigma_is_flat():
    grids = [GridSpec(1, n, 1.0) for n in (128, 256, 512)]
    probe = sharpness_probe(0.5, 2.0, grids)  # sigma = d/r
    for g in probe["per_level_growth"]:
        assert abs(g - 1.0) < 0.05


def test_sharpness_supersmoothing_shrinks():
    grids = [GridSpec(1, n, 1.0) for n in (128, 256, 512)]
    probe = sharpness_probe(0.8, 2.0, grids)  # sigma > d/r
    for g in probe["per_level_growth"]:
        assert g < 1.0


def test_combined_smoothness_extrapolation_homogeneous_besov():
    # combined experiment: a power symbol whose dyadic-shell derivative
    # bounds are scale-invariant extrapolates along the whole line
    # 1/p - 1/q = 1/2 in the homogeneous Besov scale: the measured
    # operator ratios stay bounded as the grid refines
    from besovlp import BesovParams, besov_multiplier_norm_estimate, build_partition

    dense = GridSpec(1, 2048, 16.0)
    mih = mihlin_check(riesz_symbol(dense, 0.5), r=2.0, rho=2.0)
    assert np.isfinite(mih.constant)

    for p, q in [(4.0 / 3.0, 4.0), (1.5, 6.0)]:
        estimates = []
        for n in (64, 128, 256):
            grid = GridSpec(1, n, 1.0)
            part = build_partition(grid)
            m = riesz_symbol(grid, 0.5)
            est = besov_multiplier_norm_estimate(
                m, BesovParams(0.0, p, 2.0), BesovParams(0.0, q, 2.0), part,
                budget=BUDGET, sampler=SAMPLER, homogeneous=True,
            )
            estimates.append(est)
        assert all(np.isfinite(e) and e > 0 for e in estimates)
        assert max(estimates) <= 1.5 * min(estimates)


def test_mihlin_identity_alpha0_closed_form():
    # constant symbol: the alpha = 0 entry is R^(-d/rho) (shell measure)^(1/rho)
    grid = GridSpec(1, 256, 1.0)
    rep = mihlin_check(identity_symbol(grid), r=np.inf, rho=2.0, n=1,
                       mode="fd", h=1.0)
    mags = grid.frequency_magnitudes()
    for s in rep.samples:
        if sum(s["alpha"]) == 0:
            R = s["R"]
            count = int(np.count_nonzero((mags >= R) & (mags < 2 * R)))
            assert s["value"] == pytest.approx(R ** -0.5 * count**0.5, rel=1e-12)


def test_mihlin_2d_power_symbol():
    grid = GridSpec(2, 256, 8.0)
    rep = mihlin_check(riesz_symbol(grid, 1.0), r=2.0, rho=2.0)
    assert rep.order == math.floor(2.0 / 2.0 - 2.0 / 2.0) + 1
    per_alpha = {}
    for s in rep.samples:
        if s["R"] >= 2.0:
            per_alpha.setdefault(tuple(s["alpha"]), []).append(s["value"])
    # sigma = d/r = 1: scale-invariant weighted shells in 2-d as well
    for alpha, vals in per_alpha.items():
        assert max(vals) / min(vals) < 1.10, alpha
