import copy
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from besovlp import (
    BesovParams,
    DimensionMismatchError,
    GridFunction,
    GridSpec,
    Kernel,
    SearchBudget,
    SpectralTruncationError,
    ValueSpace,
    annulus_indicator_symbol,
    apply_multiplier,
    besov_multiplier_norm_estimate,
    blockwise_extension,
    build_partition,
    diagonal_symbol,
    estimate_multiplier_norm,
    hilbert_symbol,
    identity_symbol,
    modulation_symbol,
    multiplier_norm_l2_exact,
    riesz_symbol,
    scalar_symbol,
    verify_prop34,
    verify_prop43,
    verify_thm44,
    verify_thm45,
    verify_thm46,
)
from besovlp import GaussianSampler, besov_norm, dft, homogeneous_besov_norm, idft, lp_norm
from besovlp import dyadic, multiplier, spaces
from besovlp.gaussian import _top_right_singular_vector
from besovlp.multiplier import (
    _OP_WITNESS,
    OperatorSymbol,
    _apply_to_spectrum,
    _besov_scorer,
    _dyadic_annulus_masks,
    _estimate_multiplier_norms,
    _lp_scorer,
    _distinct_rows,
    _propose_witnesses,
    _ratios,
    _witness_search,
)
from besovlp.dyadic import _stack_batches
from besovlp.sampling import _SEARCH_BYTES_CAP, _complex_normals
from besovlp.spaces import _idft_stack, _lp_norms_by_run, _lp_runs
from besovlp.testfunctions import random_band_limited, single_mode
from test_search import _serial_hill_climb

BUDGET = SearchBudget(restarts=8, steps=40, search_samples=2000)
SAMPLER = GaussianSampler(321, 20000)
SCALAR = ValueSpace.scalar()


# -- the operator -----------------------------------------------------------


def test_identity_acts_trivially(grid64, rng):
    f = GridFunction(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    g = apply_multiplier(identity_symbol(grid64), f)
    assert np.abs(g.samples - f.samples).max() < 1e-12


def test_modulation_translates_exactly(grid64, rng):
    f = GridFunction(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    cells = 5
    shift = [cells * grid64.period / grid64.n_per_dim]
    g = apply_multiplier(modulation_symbol(grid64, shift), f)
    expected = np.roll(f.samples[:, 0], cells)
    assert np.abs(g.samples[:, 0] - expected).max() < 1e-10


def test_riesz_matches_per_mode_oracle(grid64, rng):
    # independent frequency-space loop with its own fft scaling
    f = random_band_limited(grid64, build_partition(grid64).band_limit_mask(), rng,
                            mean_zero=True)
    m = riesz_symbol(grid64, 0.5)
    g = apply_multiplier(m, f)

    n = grid64.n_per_dim
    fhat = np.fft.fft(f.samples[:, 0]) / n
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    ghat = np.zeros_like(fhat)
    for i, xi in enumerate(freqs):
        ghat[i] = 0.0 if xi == 0 else fhat[i] * abs(xi) ** -0.5
    expected = np.fft.ifft(ghat) * n
    assert np.abs(g.samples[:, 0] - expected).max() < 1e-10


def test_dimension_mismatch_rejected(grid64):
    f = GridFunction(grid64, np.ones((64, 2)))
    with pytest.raises(Exception):
        apply_multiplier(identity_symbol(grid64, dim=1), f)


def test_blockwise_extension_matches_direct(grid64, rng):
    part = build_partition(grid64)
    f = random_band_limited(grid64, part.band_limit_mask(), rng)
    m = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    direct = apply_multiplier(m, f)
    blockwise = blockwise_extension(m, f, part)
    assert np.abs(direct.samples - blockwise.samples).max() < 1e-10


def test_blockwise_identity(grid64, rng):
    part = build_partition(grid64)
    f = random_band_limited(grid64, part.band_limit_mask(), rng)
    g = blockwise_extension(identity_symbol(grid64), f, part)
    assert np.abs(g.samples - f.samples).max() < 1e-10


def test_blockwise_extension_guards(grid64, rng):
    part = build_partition(grid64)
    f = random_band_limited(grid64, part.band_limit_mask(), rng)
    m = identity_symbol(grid64)
    with pytest.raises(ValueError, match="physical"):
        blockwise_extension(m, dft(f), part)
    other = GridSpec(1, 64, 2.0)
    with pytest.raises(ValueError, match="partition"):
        blockwise_extension(m, f, build_partition(other))
    with pytest.raises(ValueError, match="symbol"):
        blockwise_extension(identity_symbol(other), f, part)
    with pytest.raises(DimensionMismatchError):
        blockwise_extension(identity_symbol(grid64, dim=2), f, part)
    noise = GridFunction(grid64, rng.standard_normal((64, 1)), "physical")
    with pytest.raises(SpectralTruncationError):
        blockwise_extension(m, noise, part)


def test_blockwise_vanishing_on_annulus(grid64, rng):
    part = build_partition(grid64)
    k = 3
    f = random_band_limited(grid64, part.annulus_mask(k), rng)
    # kill every frequency the function has: output must vanish
    keep = ~part.annulus_mask(k)
    m = scalar_symbol(grid64, keep.astype(complex))
    g = apply_multiplier(m, f)
    assert np.abs(g.samples).max() < 1e-12


def test_composition_is_pointwise_product(grid64, rng):
    f = GridFunction(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    m1 = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    m2 = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    lhs = apply_multiplier(m2, apply_multiplier(m1, f))
    rhs = apply_multiplier(m2 * m1, f)
    assert np.abs(lhs.samples - rhs.samples).max() < 1e-10


# -- norm estimation ---------------------------------------------------------


def test_norm_of_scalar_multiple(grid64):
    m = identity_symbol(grid64).scaled(-2.0 + 1.0j)
    c = abs(-2.0 + 1.0j)
    for p in (1.5, 2.0, 4.0):
        est = estimate_multiplier_norm(m, p, p, budget=BUDGET, sampler=SAMPLER)
        assert c * (1 - 1e-6) <= est <= c * (1 + 1e-12)


def test_norm_of_single_mode_projector(grid64):
    vals = np.zeros(64, dtype=complex)
    vals[7] = 1.0
    m = scalar_symbol(grid64, vals)
    est = estimate_multiplier_norm(m, 2.0, 2.0, budget=BUDGET, sampler=SAMPLER)
    assert est == pytest.approx(1.0, abs=1e-9)


def test_norm_annulus_indicator_matches_plancherel_oracle(grid128):
    m = annulus_indicator_symbol(grid128, 3)
    # independent diagonal-norm oracle: max |m| over the lattice by loop
    oracle = max(abs(complex(v)) for v in m.values[:, 0, 0])
    est = estimate_multiplier_norm(m, 2.0, 2.0, budget=BUDGET, sampler=SAMPLER)
    assert oracle == 1.0
    assert est == pytest.approx(oracle, abs=1e-9)
    assert multiplier_norm_l2_exact(m) == pytest.approx(oracle)


@pytest.mark.parametrize("k", [-1, 0.5, 2.0, True, 1e308])
def test_annulus_indicator_refuses_an_index_that_is_no_natural_number(grid128, k):
    with pytest.raises(ValueError, match="^annulus index k must be a non-negative integer"):
        annulus_indicator_symbol(grid128, k)


def test_annulus_indicator_refuses_an_empty_annulus(grid128):
    # I_7 = [64, 256] still holds |xi| = 64 on N = 128; I_8 and beyond are
    # empty, and so is I_1 = [1, 4] where the lattice spacing is 1000
    assert annulus_indicator_symbol(grid128, 7).values.any()
    fine = GridSpec(1, 128, 1e-3)
    assert annulus_indicator_symbol(fine, 0).values.any()
    for grid, k in ((grid128, 8), (grid128, np.int64(60)), (grid128, 10**400), (fine, 1)):
        with pytest.raises(ValueError, match=f"^annulus I_{k} holds no lattice node"):
            annulus_indicator_symbol(grid, k)


def test_norm_estimate_monotone_in_budget(grid64, rng):
    m = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    small = SearchBudget(restarts=4, steps=20, search_samples=2000)
    est1 = estimate_multiplier_norm(m, 1.5, 3.0, budget=small, sampler=SAMPLER)
    est2 = estimate_multiplier_norm(m, 1.5, 3.0, budget=small.scaled(2.0), sampler=SAMPLER)
    assert est2 >= est1 - 1e-12


def test_besov_estimate_identity(grid64):
    part = build_partition(grid64)
    params = BesovParams(0.5, 2.0, 2.0)
    est = besov_multiplier_norm_estimate(
        identity_symbol(grid64), params, params, part, budget=BUDGET, sampler=SAMPLER
    )
    assert est == pytest.approx(1.0, abs=1e-10)


def test_besov_estimate_homogeneity(grid64):
    part = build_partition(grid64)
    params = BesovParams(-0.5, 3.0, 1.0)
    est = besov_multiplier_norm_estimate(
        identity_symbol(grid64).scaled(2.0), params, params, part,
        budget=BUDGET, sampler=SAMPLER,
    )
    assert est == pytest.approx(2.0, abs=1e-10)


def test_besov_estimate_rejects_a_partition_on_another_grid(grid64):
    part = build_partition(GridSpec(1, 64, 2.0))
    params = BesovParams(0.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="different grids"):
        besov_multiplier_norm_estimate(identity_symbol(grid64), params, params, part,
                                       budget=BUDGET, sampler=SAMPLER)


def test_besov_estimate_beats_direct_quotient_oracle():
    # direct norm-quotient oracle on a fixed single-block witness family
    grid = GridSpec(1, 16, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(8)
    m = scalar_symbol(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    src = BesovParams(0.5, 2.0, 2.0)
    dst = BesovParams(0.0, 2.0, 2.0)
    oracle = 0.0
    for ann in range(part.k_max + 1):
        for _ in range(10):
            f = random_band_limited(grid, part.annulus_mask(ann) & part.band_limit_mask(), rng)
            oracle = max(
                oracle,
                besov_norm(apply_multiplier(m, f), dst, part, SCALAR)
                / besov_norm(f, src, part, SCALAR),
            )
    est = besov_multiplier_norm_estimate(m, src, dst, part, budget=BUDGET, sampler=SAMPLER)
    assert est >= oracle * (1.0 - 1e-9)


# -- batched witness scorers -------------------------------------------------


def _witness_stack(grid, part, n_in, n_spectra, homogeneous, rng):
    """Random witness spectra inside the partition's exact range, the last one zero."""
    allowed = part.band_limit_mask()
    allowed[0] = False if homogeneous else allowed[0]
    shape = (n_spectra, grid.n_nodes, n_in)
    fhats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fhats[:, ~allowed] = 0.0
    fhats[-1] = 0.0
    return fhats


def _scorer_symbol(grid, shape, rng):
    n = grid.n_nodes
    return OperatorSymbol(grid, rng.standard_normal((n,) + shape)
                          + 1j * rng.standard_normal((n,) + shape))


def _serial_ratios(m, fhats, norm_src, norm_dst):
    """The quotient of single-function norm calls, one witness at a time."""
    out = []
    for fhat in fhats:
        den = norm_src(idft(GridFunction(m.grid, fhat, "frequency")))
        tf = idft(GridFunction(m.grid, np.einsum("noi,ni->no", m.values, fhat), "frequency"))
        out.append(-np.inf if den <= 0 else norm_dst(tf) / den)
    return out


def _one_pair_reference(m, p, q, x, y):
    """The one-pair L^p scorer of a stack of spectra, as it was before the
    joint scorer served one pair too: the sides end to end, one batched
    idft per batch and one L^p reduction per run of sides sharing p and
    the value space.  The joint form must equal it bit for bit."""
    grid, measure = m.grid, m.grid.cell_volume

    def norms(sides):
        runs = _lp_runs([(len(spectra), r, space) for spectra, r, space in sides])
        vals = []
        for j, batch in _stack_batches([spectra for spectra, _, _ in sides]):
            _idft_stack(batch, grid, out=batch)
            vals += _lp_norms_by_run(batch, runs, measure, j)
        return vals

    def score(fhats):
        n = len(fhats)
        sides = [(fhats, p, x), (_apply_to_spectrum(m, fhats), q, y)]
        vals = norms(sides) if m.n_out == m.n_in else norms(sides[:1]) + norms(sides[1:])
        return _ratios(vals[n:], vals[:n])

    return score


def _one_pair(m, pair, x, y):
    """The joint L^p scorer of one pair on one stack, as a one-lane search
    scores each chunk."""
    joint = _lp_scorer(m, [pair], x, y)
    return lambda fhats: joint([fhats], [np.arange(len(fhats))])[0]


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
@pytest.mark.parametrize("lp", [1.0, 3.0, np.inf])
@pytest.mark.parametrize("shape", [(1, 1), (3, 2)])
def test_batched_besov_scorer_equals_the_norm_quotient_exactly(shape, lp, p, homogeneous):
    grid = GridSpec(1, 32, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(71)
    m = _scorer_symbol(grid, shape, rng)
    x, y = ValueSpace.lp(lp, shape[1]), ValueSpace.lp(lp, shape[0])
    src, dst = BesovParams(0.5, p, 1.5), BesovParams(-0.25, p, np.inf)
    norm = homogeneous_besov_norm if homogeneous else besov_norm
    fhats = _witness_stack(grid, part, shape[1], 4, homogeneous, rng)
    got = _besov_scorer(m, src, dst, part, x, y, homogeneous)(fhats)
    assert got == _serial_ratios(m, fhats, lambda f: norm(f, src, part, x),
                                 lambda g: norm(g, dst, part, y))
    assert all(type(r) is float for r in got) and got[-1] == -np.inf


@pytest.mark.parametrize("dst_p", [3.0, 1.5])
@pytest.mark.parametrize("homogeneous", [False, True])
def test_batched_besov_scorer_exact_across_block_batches(homogeneous, dst_p):
    # d=2, N=128: 4 scalar blocks per 1 MB transform batch, 6 blocks per
    # witness, so the second batch holds blocks of two witnesses; the 5
    # witnesses' 30 blocks end inside the batch of blocks 28-31, which
    # also holds the first images' blocks, and the round trip's second
    # batch of 4 spectra holds the last witness and the first 3 images.
    # With dst_p = 1.5 both sides share p and space, and the batch of
    # blocks 28-31 is reduced in one call.
    grid = GridSpec(2, 128, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(72)
    m = _scorer_symbol(grid, (1, 1), rng)
    src, dst = BesovParams(0.5, 1.5, 2.0), BesovParams(0.0, dst_p, 1.0)
    norm = homogeneous_besov_norm if homogeneous else besov_norm
    fhats = _witness_stack(grid, part, 1, 5, homogeneous, rng)
    got = _besov_scorer(m, src, dst, part, SCALAR, SCALAR, homogeneous)(fhats)
    assert got == _serial_ratios(m, fhats, lambda f: norm(f, src, part, SCALAR),
                                 lambda g: norm(g, dst, part, SCALAR))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
@pytest.mark.parametrize("lp", [1.0, 3.0, np.inf])
@pytest.mark.parametrize("shape", [(1, 1), (3, 2)])
def test_batched_lp_scorer_equals_the_norm_quotient_exactly(shape, lp, p):
    grid = GridSpec(1, 32, 1.0)
    rng = np.random.default_rng(73)
    m = _scorer_symbol(grid, shape, rng)
    x, y = ValueSpace.lp(lp, shape[1]), ValueSpace.lp(lp, shape[0])
    shape_stack = (4, grid.n_nodes, shape[1])
    fhats = rng.standard_normal(shape_stack) + 1j * rng.standard_normal(shape_stack)
    fhats[-1] = 0.0
    got = _one_pair(m, (p, 3.0), x, y)(fhats)
    assert got == _one_pair_reference(m, p, 3.0, x, y)(fhats)
    assert got == _serial_ratios(m, fhats, lambda f: lp_norm(f, p, x),
                                 lambda g: lp_norm(g, 3.0, y))
    assert all(type(r) is float for r in got) and got[-1] == -np.inf


# (domain p, codomain p, domain space, codomain space) of a (2, 2) symbol:
# the two sides differ in p, in the value space, in both, or in neither
SIDES = {
    "p": (1.5, 3.0, ValueSpace.lp(3.0, 2), ValueSpace.lp(3.0, 2)),
    "space": (1.5, 1.5, ValueSpace.lp(1.0, 2), ValueSpace.lp(3.0, 2)),
    "both": (np.inf, 2.0, ValueSpace.lp(np.inf, 2), ValueSpace.lp(2.0, 2)),
    "neither": (2.0, 2.0, ValueSpace.lp(1.0, 2), ValueSpace.lp(1.0, 2)),
}


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("differ", sorted(SIDES))
def test_scorers_exact_when_the_sides_differ_in_p_or_space(differ, homogeneous):
    grid = GridSpec(1, 32, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(76)
    m = _scorer_symbol(grid, (2, 2), rng)
    p, q, x, y = SIDES[differ]
    src, dst = BesovParams(0.5, p, 1.5), BesovParams(-0.25, q, 2.0)
    norm = homogeneous_besov_norm if homogeneous else besov_norm
    fhats = _witness_stack(grid, part, 2, 5, homogeneous, rng)
    assert _besov_scorer(m, src, dst, part, x, y, homogeneous)(fhats) == _serial_ratios(
        m, fhats, lambda f: norm(f, src, part, x), lambda g: norm(g, dst, part, y))
    got = _one_pair(m, (p, q), x, y)(fhats)
    assert got == _one_pair_reference(m, p, q, x, y)(fhats)
    assert got == _serial_ratios(m, fhats, lambda f: lp_norm(f, p, x),
                                 lambda g: lp_norm(g, q, y))


@pytest.mark.parametrize("custom", [False, True])
@pytest.mark.parametrize("d, n, shape", [(1, 32, (1, 1)), (1, 32, (3, 2)), (2, 128, (2, 2))])
def test_the_joint_lp_scorer_gives_each_pair_its_lone_scores(d, n, shape, custom):
    # at d = 2, N = 128 a batch holds two spectra, so the node norms come in pieces
    grid = GridSpec(d, n, 1.0)
    rng = np.random.default_rng(85)
    m = _scorer_symbol(grid, shape, rng)
    x = ValueSpace.lp(1.0, shape[1])
    y = (ValueSpace.custom(shape[0], lambda r: np.abs(r).max(axis=-1)) if custom
         else ValueSpace.lp(3.0, shape[0]))
    stack = (5, grid.n_nodes, shape[1])
    fhats = rng.standard_normal(stack) + 1j * rng.standard_normal(stack)
    fhats[2] = 0.0
    pairs = [(1.0, np.inf), (1.5, 3.0), (2.0, 2.0), (1.5, 3.0)]
    picks = [np.arange(5), np.array([3, 0]), np.array([], dtype=int), np.array([1, 1, 2, 4])]
    want = [_one_pair_reference(m, *pair, x, y)(fhats[idx]) for pair, idx in zip(pairs, picks)]
    assert want[3][2] == -np.inf
    score = _lp_scorer(m, pairs, x, y)
    # the stack in one chunk, and in chunks of 2, 2 and 1
    assert score([fhats], picks) == want
    assert score((fhats[j:j + 2] for j in range(0, 5, 2)), picks) == want


@pytest.mark.parametrize("shape, besov_calls, lp_calls", [
    ((1, 1), 3, 1),   # one joint stack: its round trip, one block batch; one idft
    ((2, 2), 3, 1),
    ((3, 2), 6, 2),   # n_out != n_in: one stack per side
])
def test_a_scored_chunk_takes_one_pass_per_stack(shape, besov_calls, lp_calls, monkeypatch):
    grid = GridSpec(1, 64, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(77)
    m = _scorer_symbol(grid, shape, rng)
    x, y = ValueSpace.lp(1.5, shape[1]), ValueSpace.lp(3.0, shape[0])
    fhats = _witness_stack(grid, part, shape[1], 15, False, rng)
    besov = _besov_scorer(m, BesovParams(0.5, 2.0, 2.0), BesovParams(0.0, 2.0, 1.0),
                          part, x, y, False)
    lp = _one_pair(m, (2.0, 3.0), x, y)
    calls = []
    transform = spaces._transform_stack
    monkeypatch.setattr(spaces, "_transform_stack",
                        lambda *a, **k: calls.append(a[0]) or transform(*a, **k))
    besov(fhats)
    assert len(calls) == besov_calls
    calls.clear()
    lp(fhats)
    assert calls == [np.fft.ifft] * lp_calls


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (3, 2)])
def test_the_besov_scorer_weighs_its_sides_once_per_search(shape, homogeneous, monkeypatch):
    grid = GridSpec(1, 32, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(78)
    m = _scorer_symbol(grid, shape, rng)
    src, dst = BesovParams(0.5, 2.0, 1.5), BesovParams(-0.25, 3.0, 2.0)
    fhats = _witness_stack(grid, part, shape[1], 4, homogeneous, rng)
    x, y = ValueSpace.hilbert(shape[1]), ValueSpace.lp(1.0, shape[0])
    norm = homogeneous_besov_norm if homogeneous else besov_norm
    want = _serial_ratios(m, fhats, lambda f: norm(f, src, part, x),
                          lambda g: norm(g, dst, part, y))
    calls = []
    weights = dyadic._besov_weights
    for module in (dyadic, multiplier):
        monkeypatch.setattr(module, "_besov_weights",
                            lambda *a, **k: calls.append(a[1]) or weights(*a, **k))
    score = _besov_scorer(m, src, dst, part, x, y, homogeneous)
    assert calls == [src, dst]
    assert score(fhats) == want and score(fhats[::-1]) == want[::-1]
    assert calls == [src, dst]


# -- the lockstep witness search -------------------------------------------


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _per_state_propose(spec, step, rng):
    """The witness proposal for one start, which the batched one replaced: the reference."""
    n_allowed, n_in = spec.shape
    trial = spec.copy()
    n_touch = int(min(n_allowed, 1 + rng.integers(0, 8)))
    idx = rng.choice(n_allowed, size=n_touch, replace=False)
    shape = (n_touch, n_in)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    trial[idx] = trial[idx] + step * noise
    scale = np.abs(trial).max()
    return trial / scale if scale > 0 else trial


def _per_state_restart(n_allowed, n_in, rng):
    """A random restart start of the witness search, drawn one start at a time
    with numpy's integers and choice: the reference."""
    n_active = int(min(n_allowed, max(1, rng.integers(1, 33))))
    idx = rng.choice(n_allowed, size=n_active, replace=False)
    spec = np.zeros((n_allowed, n_in), dtype=np.complex128)
    shape = (n_active, n_in)
    spec[idx] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return spec


def _per_state_witness_search(m, allowed, budget, sampler, score_spectra):
    """The witness search on per-state hooks and the serial engine: the reference."""
    grid, n_in = m.grid, m.n_in
    allowed_idx = np.flatnonzero(allowed)
    n_allowed = allowed_idx.size
    starts = []
    for pos in np.argsort(m.opnorms()[allowed_idx])[::-1][: min(5, n_allowed)]:
        spec = np.zeros((n_allowed, n_in), dtype=np.complex128)
        spec[pos] = _top_right_singular_vector(m.values[allowed_idx[pos]])
        starts.append(spec)
    for sub in [np.ones(n_allowed, dtype=bool)] + [
            mask[allowed_idx] for mask in _dyadic_annulus_masks(grid)]:
        if np.any(sub):
            spec = np.zeros((n_allowed, n_in), dtype=np.complex128)
            spec[sub, 0] = 1.0
            starts.append(spec)

    def start(i, rng):
        return starts[i] if i < len(starts) else _per_state_restart(n_allowed, n_in, rng)

    def score(spec):
        fhat = np.zeros((1, grid.n_nodes, n_in), dtype=np.complex128)
        fhat[0, allowed_idx] = spec
        return score_spectra(fhat)[0]

    value, _ = _serial_hill_climb(sampler, _OP_WITNESS, len(starts) + budget.restarts,
                                  start, _per_state_propose, score, budget)
    return value


@pytest.mark.parametrize("n_in", [1, 3])
@pytest.mark.parametrize("n_allowed", [3, 64])
def test_batched_witness_proposal_matches_the_per_state_reference(n_allowed, n_in):
    # 3 nodes clamp the 1-8 touched nodes to the support
    states = _complex_normals(np.random.default_rng(n_allowed + n_in), (6, n_allowed, n_in))
    states[1] = 0.0
    sampler = GaussianSampler(76)
    rngs, ref_rngs = ([sampler.generator(_OP_WITNESS, 100 + i) for i in range(6)]
                      for _ in range(2))
    ref, step, halves = list(states), 0.5, [None] * 6
    for _ in range(6):
        before = states.copy()
        trials = _propose_witnesses(states, step, rngs, halves)
        ref = [_per_state_propose(spec, step, rng) for spec, rng in zip(ref, ref_rngs)]
        assert _same_bits(trials, np.stack(ref))
        assert _same_bits(states, before)   # the states are left as they were
        states, step = trials, step * 0.9


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e-310])
def test_proposals_divide_as_the_reference_whatever_the_scales(entry):
    # a row whose largest modulus is inf, subnormal or NaN is rescaled as
    # the per-state reference rescales it; a NaN scale leaves it undivided
    states = _complex_normals(np.random.default_rng(77), (5, 64, 2))
    states[2] = 0.0
    states[2, 10, 1] = entry
    sampler = GaussianSampler(78)
    rngs, ref_rngs = ([sampler.generator(_OP_WITNESS, 100 + i) for i in range(5)]
                      for _ in range(2))
    with np.errstate(invalid="ignore"):   # inf / inf
        trials = _propose_witnesses(states, 0.5, rngs, [None] * 5)
        ref = [_per_state_propose(spec, 0.5, rng) for spec, rng in zip(states, ref_rngs)]
    assert _same_bits(trials, np.stack(ref))


@pytest.mark.parametrize("d, shape", [(1, (1, 1)), (1, (2, 2)), (2, (2, 2))],
                         ids=["shape0", "shape1", "shape1-d2"])
def test_witness_searches_match_the_per_state_serial_reference(d, shape):
    # at d = 2 the L^p witnesses live on the 20 nonzero nodes of |xi| <= 2.5:
    # restarts drawing 20-32 nodes take all of them, which leaves a 32-bit
    # half of their stream unread for the first proposal
    grid = GridSpec(d, 32 if d == 1 else 16, 1.0)
    part = build_partition(grid)
    m = _scorer_symbol(grid, shape, np.random.default_rng(74))
    x, y = ValueSpace.lp(1.0, shape[1]), ValueSpace.lp(3.0, shape[0])
    budget, sampler = SearchBudget(restarts=4 if d == 1 else 8, steps=12), GaussianSampler(75)
    support = grid.frequency_magnitudes() <= (np.inf if d == 1 else 2.5)
    mean_zero = support.copy()
    mean_zero[0] = False
    got = estimate_multiplier_norm(m, 1.5, 3.0, x, y, budget, sampler, support_mask=support,
                                   mean_zero=True)
    assert type(got) is float
    assert got == _per_state_witness_search(m, mean_zero, budget, sampler,
                                            _one_pair_reference(m, 1.5, 3.0, x, y))
    src, dst = BesovParams(0.5, 1.5, 2.0), BesovParams(0.0, 3.0, 1.0)
    got = besov_multiplier_norm_estimate(m, src, dst, part, x, y, budget, sampler)
    assert got == _per_state_witness_search(
        m, part.band_limit_mask(), budget, sampler,
        _besov_scorer(m, src, dst, part, x, y, False))


def test_restart_starts_hand_their_unread_half_to_their_first_proposal(monkeypatch):
    # 20 allowed nodes: a restart drawing 20-32 nodes takes all of them and
    # leaves a 32-bit half of its stream unread, which its first proposal reads
    grid = GridSpec(2, 16, 1.0)
    m = _scorer_symbol(grid, (2, 2), np.random.default_rng(74))
    allowed = grid.frequency_magnitudes() <= 2.5
    allowed[0] = False
    n_allowed, sampler, seen = int(allowed.sum()), GaussianSampler(75), {}

    def first_step(sampler, op_code, n_starts, start, propose, score_batch, budget, lanes):
        rngs = [sampler.generator(op_code, 100 + i) for i in range(n_starts)]
        seen["states"] = start(rngs)
        seen["trials"] = propose(seen["states"], 0.5, rngs)
        return [(-np.inf, None)] * lanes

    monkeypatch.setattr(multiplier, "_hill_climb", first_step)
    _witness_search(m, allowed, SearchBudget(restarts=8, steps=1), sampler, [None])
    n_starts = len(seen["states"])
    takes_all = 0
    for i in range(n_starts - 8, n_starts):
        rng = sampler.generator(_OP_WITNESS, 100 + i)
        spec = _per_state_restart(n_allowed, 2, rng)
        takes_all += np.all(spec[:, 0] != 0)
        assert _same_bits(seen["states"][i], spec)
        assert _same_bits(seen["trials"][i], _per_state_propose(spec, 0.5, rng))
    assert takes_all >= 2


def test_witness_search_over_the_state_cap_is_refused_before_allocating():
    # d = 2, N = 4096, 1000 restarts: 1018 starts x 2^24 nodes, about 509 GiB of
    # states and trials; only the grid and the dimensions are read before the check
    grid = GridSpec(2, 4096, 1.0)
    allowed = np.ones(grid.n_nodes, dtype=bool)
    stub = SimpleNamespace(grid=grid, n_in=1, n_out=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1018 starts x 16777216 nodes") as exc:
            _witness_search(stub, allowed, SearchBudget(restarts=1000), GaussianSampler(0), [None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\n" not in str(exc.value)
    assert peak < 2**20


@pytest.mark.parametrize("n_lanes", [2, 3])
@pytest.mark.parametrize("n_allowed, n_in", [(3, 1), (64, 2)])
def test_lane_proposals_are_copies_of_the_one_lane_move(n_allowed, n_in, n_lanes):
    # each lane holds states of its own, and every start draws once for all lanes
    states = _complex_normals(np.random.default_rng(n_lanes * n_allowed),
                              (n_lanes * 5, n_allowed, n_in))
    states[1] = 0.0
    sampler = GaussianSampler(78)
    rngs, lone_rngs = ([sampler.generator(_OP_WITNESS, 100 + i) for i in range(5)]
                       for _ in range(2))
    # start 2 carries a half of its stream from an earlier draw
    halves, lone_halves = [None, None, 12345, None, None], [None, None, 12345, None, None]
    before = states.copy()
    trials = _propose_witnesses(states, 0.5, rngs, halves, np.arange(n_lanes * 5))
    assert _same_bits(states, before)
    for lane in range(n_lanes):
        lane_rngs, lane_halves = copy.deepcopy(lone_rngs), list(lone_halves)
        rows = slice(5 * lane, 5 * lane + 5)
        assert _same_bits(trials[rows],
                          _propose_witnesses(states[rows], 0.5, lane_rngs, lane_halves))
        assert ([rng.bit_generator.state for rng in rngs]
                == [rng.bit_generator.state for rng in lane_rngs])
        assert halves == lane_halves


@pytest.mark.parametrize("restarts, steps", [(0, 0), (0, 5), (3, 0), (3, 5)])
@pytest.mark.parametrize("mean_zero", [False, True])
@pytest.mark.parametrize("d, shape", [(1, (1, 1)), (1, (2, 2)), (2, (1, 1)), (2, (2, 2))])
def test_shared_search_estimates_equal_the_lone_estimates_bit_for_bit(d, shape, mean_zero,
                                                                      restarts, steps):
    grid = GridSpec(d, 32 if d == 1 else 8, 1.0)
    m = _scorer_symbol(grid, shape, np.random.default_rng(10 * d + shape[0]))
    # an l^1 -> l^inf pair, and one pair listed twice
    pairs = [(1.0, np.inf), (1.5, 3.0), (2.0, 2.0), (1.5, 3.0)]
    kwargs = dict(budget=SearchBudget(restarts=restarts, steps=steps),
                  sampler=GaussianSampler(79), mean_zero=mean_zero)
    got = np.array(_estimate_multiplier_norms(m, pairs, **kwargs))
    lone = np.array([estimate_multiplier_norm(m, p, q, **kwargs) for p, q in pairs])
    assert _same_bits(got, lone)
    assert len(set(got)) > 1   # so a lane reading another lane's best shows


def test_lanes_that_push_the_witness_state_over_the_cap_are_refused_before_allocating():
    # d = 1, N = 2^15, mean zero, 400 restarts: 421 starts x 32767 nodes.  One
    # lane's states and trials take 421 MB, under the cap; three take 1263 MB
    one_lane = 2 * 421 * 32767 * 16
    assert one_lane <= _SEARCH_BYTES_CAP < 3 * one_lane
    m = riesz_symbol(GridSpec(1, 2**15, 1.0), 0.5)
    pairs = [(4.0 / 3.0, 4.0), (1.5, 6.0), (2.0, 10.0)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="3 estimates x 421 starts x 32767 nodes") as exc:
            _estimate_multiplier_norms(m, pairs, budget=SearchBudget(restarts=400),
                                       mean_zero=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\n" not in str(exc.value) and "1263 MB of search state" in str(exc.value)
    assert peak < 2**20


def test_a_lane_search_holds_no_more_trials_than_the_cap_counts():
    # d = 1, N = 4096, mean zero, 40 restarts: 58 starts x 4095 nodes, 3.6 MB
    # a lane; the cap counts 3 lanes of states and 3 of trials
    capped = 2 * 3 * 58 * 4095 * 16
    m = riesz_symbol(GridSpec(1, 4096, 1.0), 0.5)
    pairs = [(4.0 / 3.0, 4.0), (1.5, 6.0), (2.0, 10.0)]
    tracemalloc.start()
    try:
        got = _estimate_multiplier_norms(m, pairs, budget=SearchBudget(restarts=40, steps=10),
                                         mean_zero=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(got)) == 3
    # besides the counted stacks: the trials' moduli, half a stack, while they
    # are rescaled, and one scoring chunk; a second trial stack would not fit
    assert peak < 1.25 * capped + 2**21


@pytest.mark.parametrize("n_lanes", [1, 3])
@pytest.mark.parametrize("n_allowed, n_in", [(3, 1), (64, 2)])
def test_proposals_for_some_rows_are_those_rows_of_the_whole_proposal(n_allowed, n_in, n_lanes):
    states = _complex_normals(np.random.default_rng(n_allowed + n_lanes),
                              (n_lanes * 5, n_allowed, n_in))
    states[1] = 0.0
    sampler = GaussianSampler(82)
    rngs, whole_rngs = ([sampler.generator(_OP_WITNESS, 100 + i) for i in range(5)]
                        for _ in range(2))
    halves, whole_halves = [None, 7, None, None, None], [None, 7, None, None, None]
    rows = np.array([0, 1, 3] + [5 * n_lanes - 1] * (n_lanes > 1))
    before = states.copy()
    some = _propose_witnesses(states, 0.5, rngs, halves, rows)
    whole = _propose_witnesses(states, 0.5, whole_rngs, whole_halves,
                               np.arange(n_lanes * 5) if n_lanes > 1 else None)
    assert _same_bits(some, whole[rows]) and _same_bits(states, before)
    assert ([rng.bit_generator.state for rng in rngs]
            == [rng.bit_generator.state for rng in whole_rngs])
    assert halves == whole_halves


def test_distinct_rows_follow_bits():
    # 3 lanes of 4 starts with one value per start, so each row is 2 words
    states = np.tile(np.array([1.0, 2.0, np.nan, 4.0], dtype=np.complex128)[:, None, None],
                     (3, 1, 1))
    states[0], states[4], states[8] = 0.0, -0.0, -0.0   # start 0: +0 in lane 0, -0 after
    states[8 + 1] = 5.0           # lane 2, start 1 leaves lane 0's row
    leads, pos = _distinct_rows(states, 3)
    # complex == would take -0 for +0 and NaN for unequal; the bits do neither.
    # Lane 2's -0 row copies lane 1's, not lane 0's, and is a row of its own
    assert leads.tolist() == [0, 1, 2, 3, 4, 8, 9]
    assert pos.tolist() == [0, 1, 2, 3, 4, 1, 2, 3, 5, 6, 2, 3]
    assert _same_bits(states, states[leads[pos]])


def _idft_rows_per_score(monkeypatch):
    """Patch the witness search to count, per score_batch call, the spectra
    that reach _idft_stack (each spectrum and its image count once); returns
    (counts, starts), the latter holding each search's n_starts."""
    counts, starts = [], []
    idft, climb = multiplier._idft_stack, multiplier._hill_climb

    def counted_idft(batch, grid, out=None):
        counts[-1] += len(batch)
        return idft(batch, grid, out=out)

    def counted_climb(sampler, op_code, n_starts, start, propose, score_batch, budget, lanes=1):
        def score(specs):
            counts.append(0)
            return score_batch(specs)

        starts.append(n_starts)
        return climb(sampler, op_code, n_starts, start, propose, score, budget, lanes)

    monkeypatch.setattr(multiplier, "_idft_stack", counted_idft)
    monkeypatch.setattr(multiplier, "_hill_climb", counted_climb)
    return counts, starts


def test_lanes_that_never_diverge_transform_one_lanes_rows(monkeypatch):
    grid = GridSpec(1, 32, 1.0)
    m = _scorer_symbol(grid, (1, 1), np.random.default_rng(80))
    kwargs = dict(budget=SearchBudget(restarts=3, steps=6), sampler=GaussianSampler(81))
    counts, starts = _idft_rows_per_score(monkeypatch)
    lone = estimate_multiplier_norm(m, 2.0, 4.0, **kwargs)
    lone_counts = list(counts)
    counts.clear()
    assert _estimate_multiplier_norms(m, [(2.0, 4.0), (2.0, 4.0)], **kwargs) == [lone, lone]
    # the start's scores and then one per step: one lane's spectra and their images
    assert counts == lone_counts == [2 * starts[0]] * 7


def test_diverging_lanes_transform_their_distinct_rows_and_keep_their_bits(monkeypatch):
    grid = GridSpec(1, 32, 1.0)
    m = _scorer_symbol(grid, (1, 1), np.random.default_rng(83))
    pairs = [(1.0, np.inf), (1.5, 3.0), (2.0, 2.0)]
    kwargs = dict(budget=SearchBudget(restarts=3, steps=20), sampler=GaussianSampler(84))
    lone = np.array([estimate_multiplier_norm(m, p, q, **kwargs) for p, q in pairs])
    counts, starts = _idft_rows_per_score(monkeypatch)
    got = np.array(_estimate_multiplier_norms(m, pairs, **kwargs))
    assert _same_bits(got, lone) and len(set(got)) == 3
    distinct, total = [c // 2 for c in counts], len(pairs) * starts[0]
    # every lane starts as lane 0; the lanes part, but some rows stay shared
    assert distinct[0] == starts[0] and len(distinct) == 21
    assert starts[0] < max(distinct) and distinct[-1] < total
    assert all(a <= b for a, b in zip(distinct, distinct[1:]))


def test_lanes_that_part_completely_keep_their_bits(monkeypatch):
    grid = GridSpec(1, 32, 1.0)
    m = _scorer_symbol(grid, (1, 1), np.random.default_rng(83))
    pairs = [(1.0, np.inf), (2.0, 2.0)]
    kwargs = dict(budget=SearchBudget(restarts=0, steps=40), sampler=GaussianSampler(84))
    lone = np.array([estimate_multiplier_norm(m, p, q, **kwargs) for p, q in pairs])
    counts, starts = _idft_rows_per_score(monkeypatch)
    got = np.array(_estimate_multiplier_norms(m, pairs, **kwargs))
    assert _same_bits(got, lone)
    # by the last steps no row copies another, and every row is transformed
    assert counts[-1] == 2 * len(pairs) * starts[0]


@pytest.mark.parametrize("d", [1, 2])
def test_lanes_on_a_support_of_several_runs_keep_their_bits(d):
    # |xi| <= 3 is two runs of nodes in FFT order at d = 1 and more at d = 2,
    # so the witnesses are scattered through an index array, not a slice
    grid = GridSpec(d, 32 if d == 1 else 16, 1.0)
    m = _scorer_symbol(grid, (2, 2), np.random.default_rng(86))
    support = grid.frequency_magnitudes() <= 3.0
    pairs = [(1.0, np.inf), (1.5, 3.0), (2.0, 2.0)]
    kwargs = dict(budget=SearchBudget(restarts=3, steps=12), sampler=GaussianSampler(87),
                  support_mask=support)
    got = np.array(_estimate_multiplier_norms(m, pairs, **kwargs))
    lone = np.array([estimate_multiplier_norm(m, p, q, **kwargs) for p, q in pairs])
    assert _same_bits(got, lone)


# -- compact support bound ---------------------------------------------------


def test_prop43_hilbert_plateau_witness_reaches_bound(grid64, rng):
    vals = rng.uniform(0.5, 1.0, size=64).astype(complex)
    vals[10:20] = 1.7  # flat modulus plateau
    m = scalar_symbol(grid64, vals)
    rep = verify_prop43(m, (-16.0, 16.0), 2.0, 2.0, SCALAR, SCALAR, BUDGET, SAMPLER)
    assert rep.passed
    assert rep.ratio >= 0.90
    assert rep.metadata["gamma_exact"] is True


def test_prop43_l2_linf_single_mode():
    grid = GridSpec(1, 64, 1.0)
    m = scalar_symbol(grid, np.ones(64, dtype=complex))
    rep = verify_prop43(m, (0.0, 1.0), 2.0, np.inf, SCALAR, SCALAR, BUDGET, SAMPLER)
    assert rep.bound == pytest.approx(1.0)
    assert rep.measured == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_prop43_scaling_leaves_ratio_invariant(grid64, rng):
    vals = (rng.standard_normal(64) + 1j * rng.standard_normal(64)).astype(complex)
    m = scalar_symbol(grid64, vals)
    rep1 = verify_prop43(m, (-8.0, 8.0), 2.0, 2.0, SCALAR, SCALAR, BUDGET, SAMPLER)
    rep2 = verify_prop43(m.scaled(5.0), (-8.0, 8.0), 2.0, 2.0, SCALAR, SCALAR,
                         BUDGET, SAMPLER)
    assert rep2.ratio == pytest.approx(rep1.ratio, rel=1e-9)
    assert rep2.bound == pytest.approx(5.0 * rep1.bound, rel=1e-12)


def test_prop43_rejects_inverted_cube(grid64):
    with pytest.raises(ValueError):
        verify_prop43(identity_symbol(grid64), (3.0, 1.0), 2.0, 2.0,
                      SCALAR, SCALAR, BUDGET, SAMPLER)


@pytest.mark.parametrize("p, q, message", [
    (3.0, 4.0, "type exponent p must lie in [1, 2]"),
    (1.5, 1.5, "cotype exponent q must lie in [2, inf]"),
])
def test_prop43_rejects_exponents_outside_type_cotype_range(grid64, p, q, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_prop43(identity_symbol(grid64), (-8.0, 8.0), p, q,
                      ValueSpace.lp(1.5, 1), ValueSpace.lp(4.0, 1), BUDGET, SAMPLER)


def test_verifier_reports_match_golden_exactly():
    # scalar Hilbert (exact gamma-bounds) and l^1 -> l^inf (searched)
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "make_goldens", root / "tools" / "make_goldens.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    golden = json.loads((root / "tests" / "golden" / "verifier_reports.json").read_text())
    assert tool.verifier_reports() == golden


# -- Besov-scale bounds ------------------------------------------------------


def test_thm44_identity_hilbert(grid64):
    part = build_partition(grid64)
    rep = verify_thm44(identity_symbol(grid64), s=0.0, sigma=0.0, u=np.inf,
                       p=2.0, v=2.0, q=2.0, w=2.0, part=part,
                       domain_space=SCALAR, codomain_space=SCALAR,
                       budget=BUDGET, sampler=SAMPLER)
    assert rep.passed
    assert rep.bound == pytest.approx(1.0)


def test_thm44_geometric_weights_match_annulus_sups(grid128):
    part = build_partition(grid128)
    mags = grid128.frequency_magnitudes()
    vals = np.zeros(grid128.n_nodes, dtype=complex)
    for k in range(part.k_max + 1):
        vals += 2.0**-k * part.annulus_mask(k)
    m = scalar_symbol(grid128, vals)
    rep = verify_thm44(m, s=0.0, sigma=1.0, u=np.inf, p=2.0, v=2.0, q=2.0, w=2.0,
                       part=part, domain_space=SCALAR, codomain_space=SCALAR,
                       budget=BUDGET, sampler=SAMPLER)
    assert rep.passed
    # direct per-annulus sup oracle
    for k in range(part.k_max + 1):
        mask = part.annulus_mask(k)
        oracle = max(abs(v) for v in vals[mask])
        weight = 2.0**k * oracle
        assert rep.metadata["gamma_weights"][k] == pytest.approx(weight, rel=1e-12)


def test_thm44_rejects_inadmissible_summation_triple(grid64):
    part = build_partition(grid64)
    with pytest.raises(ValueError):
        verify_thm44(identity_symbol(grid64), s=0.0, sigma=0.0, u=np.inf,
                     p=2.0, v=2.0, q=2.0, w=1.0, part=part,
                     domain_space=SCALAR, codomain_space=SCALAR,
                     budget=BUDGET, sampler=SAMPLER)


def test_thm44_scaling_invariance_of_ratio(grid64, rng):
    part = build_partition(grid64)
    m = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    kwargs = dict(s=0.25, sigma=0.5, u=np.inf, p=2.0, v=2.0, q=2.0, w=2.0,
                  part=part, domain_space=SCALAR, codomain_space=SCALAR,
                  budget=BUDGET, sampler=SAMPLER)
    r1 = verify_thm44(m, **kwargs)
    r2 = verify_thm44(m.scaled(4.0), **kwargs)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)


def test_thm45_single_annulus_identity(grid128):
    part = build_partition(grid128)
    m = annulus_indicator_symbol(grid128, 3)
    rep = verify_thm45(m, s=0.0, sigma=0.0, u=np.inf, p=2.0, v=2.0, q=2.0, w=2.0,
                       part=part, domain_space=SCALAR, codomain_space=SCALAR,
                       budget=BUDGET, sampler=SAMPLER)
    assert np.isfinite(rep.bound) and rep.bound > 0
    assert rep.passed


def test_thm46_borderline_riesz_weights_grow_with_grid():
    # d/r = 1/2 with m = |xi|^(-1/2): each annulus contributes about
    # sqrt(2), so the l^1 bound grows with the truncation range
    bounds = []
    for n in (64, 128, 256):
        grid = GridSpec(1, n, 1.0)
        part = build_partition(grid)
        m = riesz_symbol(grid, 0.5)
        rep = verify_thm46(m, p=4.0 / 3.0, q=4.0, part=part,
                           domain_space=SCALAR, codomain_space=SCALAR,
                           budget=BUDGET, sampler=SAMPLER)
        assert rep.passed  # informational without a cap
        bounds.append(rep.bound)
    assert bounds[0] < bounds[1] < bounds[2]


def test_thm46_summable_weights_empirical_constant_stable():
    cs = []
    for n in (64, 128, 256):
        grid = GridSpec(1, n, 1.0)
        part = build_partition(grid)
        m = riesz_symbol(grid, 2.0)  # gamma weights ~ 4^(-k), summable
        rep = verify_thm46(m, p=4.0 / 3.0, q=4.0, part=part,
                           domain_space=SCALAR, codomain_space=SCALAR,
                           budget=BUDGET, sampler=SAMPLER)
        cs.append(rep.metadata["empirical_constant"])
    assert max(cs) <= 2.0 * min(cs) + 1e-12
    assert all(c <= 1.0 + 1e-9 for c in cs)  # bound already dominates here


def test_thm46_c_cap_verdict():
    grid = GridSpec(1, 64, 1.0)
    part = build_partition(grid)
    m = riesz_symbol(grid, 2.0)
    rep = verify_thm46(m, p=4.0 / 3.0, q=4.0, part=part,
                       domain_space=SCALAR, codomain_space=SCALAR,
                       budget=BUDGET, sampler=SAMPLER, c_cap=4.0)
    assert rep.passed


# -- Fourier-type route ------------------------------------------------------


def test_prop34_identity(grid64):
    part = build_partition(grid64)
    rep = verify_prop34(identity_symbol(grid64), r=np.inf, u=np.inf, s=0.0,
                        p=2.0, v=2.0, q=2.0, w=2.0, part=part,
                        domain_space=SCALAR, codomain_space=SCALAR,
                        budget=BUDGET, sampler=SAMPLER)
    assert rep.passed
    assert all(ck == pytest.approx(1.0) for ck in rep.metadata["c_k"])


def test_prop34_annulus_indicator_ck_measures():
    grid = GridSpec(1, 256, 1.0)
    part = build_partition(grid)
    m = annulus_indicator_symbol(grid, 5)
    r = 2.0
    rep = verify_prop34(m, r=r, u=1.0, s=0.0, p=4.0 / 3.0, v=2.0, q=4.0, w=2.0,
                        part=part, domain_space=SCALAR, codomain_space=SCALAR,
                        budget=BUDGET, sampler=SAMPLER)
    # annulus-measure quadrature oracle: count lattice points by loop
    freqs = np.abs(grid.frequency_magnitudes())
    for k in range(part.k_max + 1):
        if k == 0:
            in_k = freqs <= 2.0
        else:
            in_k = (freqs >= 2.0 ** (k - 1)) & (freqs <= 2.0 ** (k + 1))
        in_5 = (freqs >= 2.0**4) & (freqs <= 2.0**6)
        count = int(np.count_nonzero(in_k & in_5))
        expected = count ** (1.0 / r)  # freq cell volume 1 at L = 1
        assert rep.metadata["c_k"][k] == pytest.approx(expected, rel=1e-12)
        if abs(k - 5) >= 3:
            # beyond the shared boundary spheres the overlap is empty
            assert rep.metadata["c_k"][k] == 0.0
        elif k in (3, 7):
            # closed annuli share a single lattice sphere with I_5: a
            # measure-zero overlap in the continuum, two points here
            assert rep.metadata["c_k"][k] == pytest.approx(2.0 ** (1.0 / r))
            assert rep.metadata["c_k"][k] <= 0.2 * rep.metadata["c_k"][5]


def test_prop34_scaling(grid64, rng):
    part = build_partition(grid64)
    m = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    kwargs = dict(r=np.inf, u=np.inf, s=0.0, p=2.0, v=2.0, q=2.0, w=2.0, part=part,
                  domain_space=SCALAR, codomain_space=SCALAR,
                  budget=BUDGET, sampler=SAMPLER)
    r1 = verify_prop34(m, **kwargs)
    r2 = verify_prop34(m.scaled(3.0), **kwargs)
    assert r2.measured == pytest.approx(3.0 * r1.measured, rel=1e-9)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)


def test_prop34_rejects_non_hilbert(grid64):
    part = build_partition(grid64)
    with pytest.raises(ValueError):
        verify_prop34(identity_symbol(grid64), r=np.inf, u=np.inf, s=0.0,
                      p=2.0, v=2.0, q=2.0, w=2.0, part=part,
                      domain_space=ValueSpace.lp(1.0, 1), codomain_space=SCALAR,
                      budget=BUDGET, sampler=SAMPLER)


def test_prop34_flags_q_inf(grid64):
    part = build_partition(grid64)
    rep = verify_prop34(identity_symbol(grid64), r=2.0, u=np.inf, s=0.0,
                        p=2.0, v=2.0, q=np.inf, w=2.0, part=part,
                        domain_space=SCALAR, codomain_space=SCALAR,
                        budget=BUDGET, sampler=SAMPLER)
    assert rep.metadata["q_inf_beyond_stated_range"] is True


# -- symbol plumbing ---------------------------------------------------------


def test_diagonal_symbol_roundtrip(grid64, rng):
    entries = [rng.standard_normal(64) + 1j * rng.standard_normal(64) for _ in range(2)]
    m = diagonal_symbol(grid64, entries)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    g = apply_multiplier(m, f)
    fhat = dft(f)
    expected_hat = np.stack([entries[0] * fhat.samples[:, 0],
                             entries[1] * fhat.samples[:, 1]], axis=1)
    expected = GridFunction(grid64, expected_hat, "frequency").idft()
    assert np.abs(g.samples - expected.samples).max() < 1e-10


def test_symbol_json_roundtrip(grid64, rng):
    m = scalar_symbol(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    back = OperatorSymbol.from_json_obj(__import__("json").loads(m.to_json()))
    np.testing.assert_array_equal(back.values, m.values)
    # a kernel file is not read as a symbol, nor a symbol file as a kernel
    with pytest.raises(ValueError, match="a symbol file has domain_tag 'frequency', "
                                         "got 'physical'"):
        OperatorSymbol.from_json_obj(Kernel(grid64, m.values).to_json_obj())


def test_symbol_rejects_nonfinite(grid64):
    vals = np.ones(64, dtype=complex)
    vals[3] = np.inf
    with pytest.raises(ValueError):
        scalar_symbol(grid64, vals)


def test_hilbert_symbol_unimodular(grid64):
    m = hilbert_symbol(grid64)
    mags = np.abs(m.values[:, 0, 0])
    assert mags[0] == 0.0
    assert np.all(mags[1:] == 1.0)


# -- two-dimensional coverage -------------------------------------------------


def test_apply_multiplier_2d_modulation(grid2d, rng):
    f = GridFunction(grid2d, rng.standard_normal((grid2d.n_nodes, 1)))
    cells = (3, 5)
    shift = [c * grid2d.period / grid2d.n_per_dim for c in cells]
    g = apply_multiplier(modulation_symbol(grid2d, shift), f)
    expected = np.roll(f.spatial_view(), cells, axis=(0, 1))
    assert np.abs(g.spatial_view() - expected).max() < 1e-10


def test_blockwise_extension_2d(grid2d, rng):
    part = build_partition(grid2d)
    f = random_band_limited(grid2d, part.band_limit_mask(), rng)
    m = scalar_symbol(
        grid2d, rng.standard_normal(grid2d.n_nodes) + 1j * rng.standard_normal(grid2d.n_nodes)
    )
    a = apply_multiplier(m, f)
    b = blockwise_extension(m, f, part)
    assert np.abs(a.samples - b.samples).max() < 1e-10


def test_thm44_identity_2d(grid2d):
    part = build_partition(grid2d)
    rep = verify_thm44(identity_symbol(grid2d), s=0.0, sigma=0.0, u=np.inf,
                       p=2.0, v=2.0, q=2.0, w=2.0, part=part,
                       domain_space=SCALAR, codomain_space=SCALAR,
                       budget=BUDGET, sampler=SAMPLER)
    assert rep.passed
    assert rep.bound == pytest.approx(1.0)


def test_prop43_2d_cube(grid2d, rng):
    vals = rng.standard_normal(grid2d.n_nodes) + 1j * rng.standard_normal(grid2d.n_nodes)
    m = scalar_symbol(grid2d, vals)
    rep = verify_prop43(m, (-4.0, 4.0), 2.0, 2.0, SCALAR, SCALAR, BUDGET, SAMPLER)
    assert rep.passed
    # Plancherel: the bound is the sup of |m| over the cube lattice
    coords = grid2d.frequency_coords()
    mask = np.all((coords >= -4.0) & (coords < 4.0), axis=1)
    assert rep.bound == pytest.approx(np.abs(vals[mask]).max())
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
