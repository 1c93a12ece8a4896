"""The batched transform, block and norm cores: exact against the plain numpy
expressions, bit for bit, and none of them writes into an array it was given."""

import math

import numpy as np
import pytest

from besovlp import (
    BesovParams,
    GridFunction,
    GridSpec,
    ValueSpace,
    besov_norm,
    build_partition,
    dft,
    homogeneous_besov_norm,
    idft,
)
from besovlp import dyadic
from besovlp.dyadic import (
    _PARTITION_COMPLETE_TOL,
    _besov_norms,
    _besov_weights,
    _block_batches,
    _node_power,
    _slab_extents,
    _stack_batches,
)
from besovlp.spaces import (
    _dft_stack,
    _idft_stack,
    _lp_combine,
    _lp_norms,
    _lp_roots,
    _lp_rows,
)
from besovlp.testfunctions import random_band_limited

GRIDS = [GridSpec(1, 64, 1.0), GridSpec(2, 16, 2.0), GridSpec(3, 8, 1.0)]


def _stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _lattice(grid, stack):
    return stack.reshape((stack.shape[0],) + grid.spatial_shape() + (stack.shape[-1],))


def _axes(grid):
    return tuple(range(1, grid.d + 1))


def _same_bits(a, b):
    """Equal bit patterns: unlike np.array_equal, tells -0.0 from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _plain_blocks(fhats, rows, grid):
    """idft(row * fhat) of every (spectrum, row) pair, spectrum-major, with
    no buffer reuse."""
    scale = (grid.n_per_dim / grid.period) ** grid.d
    out = []
    for fhat in fhats:
        products = _lattice(grid, rows[:, :, None] * fhat)
        out.append((np.fft.ifftn(products, axes=_axes(grid)) * scale).reshape(
            (len(rows),) + fhat.shape))
    return np.concatenate(out)


# -- exact against the plain expressions ----------------------------------------


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("grid", GRIDS, ids=["d1", "d2", "d3"])
def test_transform_stack_equals_the_plain_fft_exactly(grid, dim):
    rng = np.random.default_rng(41)
    stack = _stack(rng, (3, grid.n_nodes, dim))
    fwd = np.fft.fftn(_lattice(grid, stack), axes=_axes(grid)) * grid.cell_volume
    inv = np.fft.ifftn(_lattice(grid, stack), axes=_axes(grid)) * (
        (grid.n_per_dim / grid.period) ** grid.d)
    # one axis pass at a time, last axis first, is fftn/ifftn bit for bit:
    # into a new array, into a given buffer, and in place
    for stack_core, want in ((_dft_stack, fwd), (_idft_stack, inv)):
        want = want.reshape(stack.shape)
        assert _same_bits(stack_core(stack, grid), want)
        buf = np.empty_like(stack)
        assert stack_core(stack, grid, out=buf) is buf
        assert _same_bits(buf, want)
        buf = stack.copy()
        assert stack_core(buf, grid, out=buf) is buf
        assert _same_bits(buf, want)


@pytest.mark.parametrize("per_batch", [None, 1, 2, 3, 5, 6])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("grid", GRIDS, ids=["d1", "d2", "d3"])
def test_block_batches_equal_the_plain_expression_exactly(grid, dim, per_batch, monkeypatch):
    # per_batch blocks per transform against 3 rows per spectrum: batches
    # of 2 and 5 split spectra, batches of 3 and 6 hold exactly one and two
    # whole spectra, and None keeps the 1 MB default (all four whole)
    if per_batch is not None:
        monkeypatch.setattr(dyadic, "_BLOCK_BATCH_ENTRIES", per_batch * grid.n_nodes * dim)
    rng = np.random.default_rng(42)
    fhats = _stack(rng, (4, grid.n_nodes, dim))
    rows = rng.uniform(0.0, 1.0, (3, grid.n_nodes))
    expected = _plain_blocks(fhats, rows, grid)
    got = np.concatenate([b.copy() for b in _block_batches(fhats, rows, grid)])
    assert _same_bits(got, expected)
    out = np.empty_like(expected)
    for batch in _block_batches(fhats, rows, grid, out):
        assert np.shares_memory(batch, out)
    assert _same_bits(out, expected)


# rows of a partition are zero beyond slab 2^(k+1) of the first lattice axis,
# so at d >= 2 their blocks skip the transforms over the other slabs
PRUNED_GRIDS = [GridSpec(2, 16, 1.0), GridSpec(2, 64, 1.0), GridSpec(3, 16, 1.0)]


def _row_set(part, name):
    n = part.grid.n_per_dim
    if name == "phi":
        return part.phi_hat
    if name == "psi":
        return part.psi_hat
    extra = np.zeros((1, part.grid.n_nodes))
    if name == "nyquist":   # nonzero on the slab i = n/2 only
        extra.reshape(n, -1)[n // 2] = 0.5
    return np.concatenate([part.phi_hat[:2], extra, part.phi_hat[2:]])


@pytest.mark.parametrize("per_batch", [None, 1, 2, 3, 5, 6])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("row_set", ["phi", "psi", "zero_row", "nyquist"])
@pytest.mark.parametrize("grid", PRUNED_GRIDS, ids=["d2-16", "d2-64", "d3-16"])
def test_pruned_block_batches_equal_the_plain_expression_exactly(grid, row_set, dim,
                                                                 per_batch, monkeypatch):
    if per_batch is not None:
        monkeypatch.setattr(dyadic, "_BLOCK_BATCH_ENTRIES", per_batch * grid.n_nodes * dim)
    part = build_partition(grid)
    rows = _row_set(part, row_set)
    n = grid.n_per_dim
    extents = _slab_extents(rows, grid)
    assert not extents.flags.writeable
    # the partition's own rows can be pruned; an all-zero row and a row on
    # the Nyquist slab take the full transform
    assert 2 * extents[:2].max() + 1 < n
    if row_set in ("zero_row", "nyquist"):
        assert extents[2] == n // 2
    rng = np.random.default_rng(48)
    fhats = _stack(rng, (3, grid.n_nodes, dim))
    expected = _plain_blocks(fhats, rows, grid)
    got = np.concatenate([b.copy() for b in _block_batches(fhats, rows, grid)])
    assert _same_bits(got, expected)
    out = np.empty_like(expected)
    for _ in _block_batches(fhats, rows, grid, out, extents):
        pass
    assert _same_bits(out, expected)


def test_partitions_hold_read_only_slab_extents_of_their_rows():
    grid = GridSpec(2, 256, 1.0)
    part = build_partition(grid)
    # phi_hat_k is zero beyond |xi| = 2^(k+1)
    assert part.phi_extents.tolist() == [2 ** (k + 1) - 1 for k in range(part.k_max + 1)]
    for rows, extents in ((part.phi_hat, part.phi_extents), (part.psi_hat, part.psi_extents)):
        assert np.array_equal(extents, _slab_extents(rows, grid))
        assert not extents.flags.writeable


@pytest.mark.parametrize("homogeneous", [False, True])
def test_besov_norms_of_a_stack_equal_the_norms_one_by_one_at_d2(homogeneous):
    grid = GridSpec(2, 64, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(49)
    spectra = np.stack([
        dft(random_band_limited(grid, part.band_limit_mask(), rng, dim=3,
                                mean_zero=True)).samples
        for _ in range(3)])
    space = ValueSpace.lp(3.0, 3)
    norm = homogeneous_besov_norm if homogeneous else besov_norm
    for params in (BesovParams(0.5, 2.0, 2.0), BesovParams(-0.25, np.inf, 1.0)):
        weights = _besov_weights(part, params, homogeneous)
        got = _besov_norms([(spectra, params, space, weights)], part, homogeneous)
        assert list(got) == [norm(idft(GridFunction(grid, fhat, "frequency")), params, part,
                                  space) for fhat in spectra]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("homogeneous", [False, True])
def test_besov_norms_refuse_an_overflowing_side_without_a_warning(homogeneous):
    # two sides: the first (s = 0) is finite, the second (s = 200) overflows
    # the l^2 sum of its weighted block norms
    grid = GridSpec(1, 64, 1.0)
    part = build_partition(grid)
    rng = np.random.default_rng(50)
    spectra = np.stack([dft(random_band_limited(grid, part.annulus_mask(3), rng,
                                                mean_zero=True)).samples for _ in range(2)])
    sides = [(spectra, params, ValueSpace.scalar(), _besov_weights(part, params, homogeneous))
             for params in (BesovParams(0.0, 2.0, 2.0), BesovParams(200.0, 2.0, 2.0))]
    assert all(map(math.isfinite, _besov_norms(sides[:1], part, homogeneous)))
    with pytest.raises(ValueError, match="overflows at s = 200, v = 2"):
        _besov_norms(sides, part, homogeneous)


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1.0), GridSpec(1, 256, 3.0),
                                  GridSpec(2, 32, 1.0), GridSpec(3, 16, 1.0)],
                         ids=["d1", "d1-256", "d2", "d3"])
def test_guard_fractions_equal_the_compress_path_exactly(grid):
    # the stored incomplete-node mask against compressing through the
    # complement of the complete mask, as the guard did on every call
    part = build_partition(grid)
    complete = part.partition_sum >= 1.0 - _PARTITION_COMPLETE_TOL
    mask = part.band_limit_mask()
    assert np.array_equal(mask, complete) and mask.flags.writeable
    mask[:] = ~mask
    assert np.array_equal(part.band_limit_mask(), complete)
    rng = np.random.default_rng(51)
    stack = _stack(rng, (6, grid.n_nodes, 2)) * np.exp(rng.uniform(-30.0, 30.0, (6, 1, 1)))
    stack[1] = 0.0
    stack[2][part.band_limit_mask()] = 0.0
    power = _node_power(stack)
    assert 0 < np.count_nonzero(part._incomplete) < grid.n_nodes
    for p in (power, power[0], power[3:5]):
        total = p.sum(axis=-1)
        residual = np.compress(~complete, p, axis=-1).sum(axis=-1)
        want = np.divide(residual, total, out=np.zeros_like(total), where=total != 0.0)
        assert _same_bits(np.asarray(part._residual_fractions(p)), want)
    assert part.spectral_residual_fraction(stack[0]) == float(
        part._residual_fractions(power)[0])
    assert part._residual_fractions(power)[1] == 0.0
    assert part._residual_fractions(power)[2] == pytest.approx(1.0, rel=1e-15)


def test_roots_on_python_floats_equal_the_numpy_scalar_powers():
    # totals from 1e-300 to 1e300 with 0, inf and the smallest subnormal,
    # against the numpy float64 scalar power the roots were taken with before
    totals = np.concatenate([np.geomspace(1e-300, 1e300, 4001), [0.0, np.inf, 5e-324]])
    for p in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 10.0, 33.3):
        for weight in (1.0, 0.5, 2.0**-12, 1.0 / 3.0, 7.25):
            got = _lp_roots(totals, p, weight)
            want = [float((weight * total) ** (1.0 / p)) for total in totals]
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
            assert all(type(r) is float for r in got)


def test_stack_batches_run_the_stacks_end_to_end(monkeypatch):
    # 3 spectra per batch over stacks of 2 and 5: the first batch takes
    # members of both, and every batch is a copy in one reused buffer
    grid = GridSpec(2, 8, 1.0)
    monkeypatch.setattr(dyadic, "_BLOCK_BATCH_ENTRIES", 3 * grid.n_nodes * 2)
    rng = np.random.default_rng(50)
    stacks = [_stack(rng, (2, grid.n_nodes, 2)), _stack(rng, (5, grid.n_nodes, 2))]
    before = _snapshot(*stacks)
    joint = np.concatenate(stacks)
    seen = []
    for first, batch in _stack_batches(stacks):
        assert np.array_equal(batch, joint[first:first + len(batch)])
        assert not any(np.shares_memory(batch, stack) for stack in stacks)
        seen.append((first, len(batch)))
        batch[:] = 0.0
    assert seen == [(0, 3), (3, 3), (6, 1)]
    assert _snapshot(*stacks) == before


def test_a_yielded_block_batch_is_overwritten_by_the_next(monkeypatch):
    grid = GridSpec(2, 16, 1.0)
    monkeypatch.setattr(dyadic, "_BLOCK_BATCH_ENTRIES", grid.n_nodes)
    rng = np.random.default_rng(43)
    batches = _block_batches(_stack(rng, (1, grid.n_nodes, 1)),
                             rng.uniform(0.0, 1.0, (2, grid.n_nodes)), grid)
    first = next(batches)
    kept = first.copy()
    second = next(batches)
    assert np.shares_memory(first, second)
    assert np.array_equal(first, second) and not np.array_equal(first, kept)


# -- no helper writes into its inputs ------------------------------------------


def _snapshot(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_norm_helpers_leave_their_inputs_alone(p, dim):
    rng = np.random.default_rng(44)
    values = np.abs(rng.standard_normal((4, 9)))
    rows = _stack(rng, (50, dim))
    stack = _stack(rng, (2, 25, dim))
    space = ValueSpace.lp(p, dim)
    before = _snapshot(values, rows, stack)
    _lp_rows(values, p, 0.5)
    _lp_combine(values[0], p, 0.5)
    space.norm_rows(rows)
    _lp_norms(stack, p, space, 0.25)
    assert _snapshot(values, rows, stack) == before


@pytest.mark.parametrize("oracle", ["held", "input"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_norms_leave_a_custom_oracles_memory_alone(p, oracle):
    # an oracle may hand back memory it does not own: an array it holds
    # (as gamma weights are), or a view of the rows it was given
    rng = np.random.default_rng(45)
    stack = _stack(rng, (2, 25, 1))
    stack.real = np.abs(stack.real)
    held = np.abs(rng.standard_normal(50))
    norm = (lambda r: held) if oracle == "held" else (lambda r: r[:, 0].real)
    space = ValueSpace.custom(1, norm)
    before = _snapshot(held, stack)
    assert np.shares_memory(space.norm_rows(stack.reshape(-1, 1)),
                            held if oracle == "held" else stack)
    _lp_norms(stack, p, space, 0.25)
    assert _snapshot(held, stack) == before


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("grid", GRIDS, ids=["d1", "d2", "d3"])
def test_transforms_leave_their_inputs_alone(grid, dim):
    rng = np.random.default_rng(46)
    stack = _stack(rng, (3, grid.n_nodes, dim))
    before = _snapshot(stack)
    f = GridFunction(grid, stack[0], "physical")
    dft(f)
    idft(GridFunction(grid, stack[1], "frequency"))
    _dft_stack(stack, grid)
    _idft_stack(stack, grid)
    assert _snapshot(stack) == before


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("dim", [1, 3])
def test_block_and_besov_cores_leave_their_inputs_alone(dim, homogeneous, monkeypatch):
    grid = GridSpec(2, 16, 1.0)
    part = build_partition(grid)
    monkeypatch.setattr(dyadic, "_BLOCK_BATCH_ENTRIES", 2 * grid.n_nodes * dim)
    rng = np.random.default_rng(47)
    fhats = np.stack([
        dft(random_band_limited(grid, part.band_limit_mask(), rng, dim=dim,
                                mean_zero=True)).samples
        for _ in range(3)])
    rows = part.psi_hat if homogeneous else part.phi_hat
    before = _snapshot(fhats, rows, part.phi_hat, part.psi_hat)
    for _ in _block_batches(fhats, rows, grid):
        pass
    out = np.empty((len(fhats) * len(rows),) + fhats.shape[1:], dtype=np.complex128)
    for _ in _block_batches(fhats, rows, grid, out):
        pass
    params = BesovParams(0.5, 2.0, 2.0)
    _besov_norms([(fhats, params, ValueSpace.lp(3.0, dim),
                   _besov_weights(part, params, homogeneous))], part, homogeneous)
    assert _snapshot(fhats, rows, part.phi_hat, part.psi_hat) == before
