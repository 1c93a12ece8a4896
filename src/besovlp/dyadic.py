"""Dyadic partition of unity and Littlewood-Paley / Besov machinery.

The radial profile is built from a monotone C^n cutoff chi with chi = 1
on [0, 1] and chi = 0 on [2, inf); the transition is the integrated
polynomial bump t^n (1-t)^n (a regularized incomplete beta), so the
whole construction is closed-form and reproducible.  Setting

    psi_hat(t) = chi(t) - chi(2 t)

gives supp(psi_hat) in [1/2, 2], psi_hat >= 0 and the telescoping sum
sum_k psi_hat(2^-k t) = 1 on (0, inf).  The inhomogeneous blocks are
phi_hat_0 = chi(|xi|) and phi_hat_k(xi) = psi_hat(2^-k |xi|), which sum
to chi(2^-k_max |xi|): exactly 1 up to |xi| = 2^k_max.

Besov norms reject inputs carrying spectral mass beyond that exact
range instead of silently truncating.  The order n is at most 8: the
cutoff's polynomial has alternating monomial coefficients, and from
order 9 on its rounding error takes chi out of [0, 1] by more than 1e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .spaces import (
    GridFunction,
    GridSpec,
    SpectralTruncationError,
    ValueSpace,
    dft,
    idft,
    lp_norm,
    _check_exponent,
    _dft_stack,
    _fold_columns,
    _idft_scale,
    _idft_stack,
    _lp_combine,
    _lp_norms_by_run,
    _lp_rows,
    _lp_runs,
)

__all__ = [
    "DyadicPartition",
    "BesovParams",
    "build_partition",
    "lp_block",
    "lp_blocks",
    "besov_norm",
    "homogeneous_besov_norm",
    "smooth_cutoff",
]

# The partition sum equals 1 only where chi(2^-k_max |xi|) has not started
# to decay; nodes below this threshold are outside the exact range.
_PARTITION_COMPLETE_TOL = 1e-9

# Complex samples per batched block transform (1 MB).  One transform over
# a whole 2-d stack makes its second axis pass miss the cache: at d=2,
# N=256 the 7-block stack took 16-25 ms in one batch and about 11 ms one
# block at a time.  Small grids still go in a single batch, which saves
# the per-call overhead that dominates there.
_BLOCK_BATCH_ENTRIES = 2**16

# The cutoff sums a monomial polynomial with alternating coefficients, which
# loses precision as the order grows: its maximum on [0, 2.5] is 1 + 2.5e-10
# at order 8, 1 + 2.0e-9 at order 9 and 1 + 5.0e-7 at order 12, where the
# phi_hat rows of a d=1, N=256 grid dip to -1.5e-7.  Order 8 is the largest
# that stays within [-1e-9, 1 + 1e-9].
_MAX_SMOOTHNESS = 8


@lru_cache(maxsize=32)
def _bump_integral_coeffs(n: int) -> tuple:
    """Polynomial coefficients of u -> int_0^u t^n (1-t)^n dt, normalized to 1 at u=1."""
    coeffs = {}
    for j in range(n + 1):
        coeffs[n + j + 1] = (-1) ** j * math.comb(n, j) / (n + j + 1)
    total = sum(coeffs.values())
    # highest power first, for np.polyval
    deg = 2 * n + 1
    dense = [coeffs.get(k, 0.0) / total for k in range(deg, -1, -1)]
    return tuple(dense)


def _check_smoothness(smoothness: int) -> None:
    if not 1 <= smoothness <= _MAX_SMOOTHNESS:
        raise ValueError(
            f"smoothness must lie in [1, {_MAX_SMOOTHNESS}], got {smoothness}"
        )


def smooth_cutoff(t: np.ndarray, smoothness: int) -> np.ndarray:
    """C^smoothness monotone cutoff: 1 on [0,1], 0 on [2,inf), polynomial between.

    Orders above _MAX_SMOOTHNESS are refused: their polynomial's rounding
    error makes the cutoff leave [0, 1] by more than 1e-9.
    """
    _check_smoothness(smoothness)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        u = 2.0 - t[mid]
        out[mid] = np.polyval(_bump_integral_coeffs(smoothness), u)
    return out


def _psi_hat_profile(t: np.ndarray, smoothness: int) -> np.ndarray:
    return smooth_cutoff(t, smoothness) - smooth_cutoff(2.0 * t, smoothness)


def _difference_rows(cutoff, mags: np.ndarray, k_high: int) -> tuple:
    """(ks, rows): the rows cutoff(2^-k |xi|) - cutoff(2 2^-k |xi|) on the
    magnitudes mags, for every k <= k_high whose row has a nonzero sample.

    The scan starts at the level where 2^-k |xi| >= 2 at every nonzero
    node, so it skips only rows that vanish for a cutoff that is 0 on
    [2, inf), as the partition and eta profiles are.  The factor 2 scales
    exactly, so a row equals cutoff(2^-k |xi|) - cutoff(2^-(k-1) |xi|)
    bit for bit.
    """
    ks, rows = [], []
    for k in range(math.floor(math.log2(mags[mags > 0].min())) - 1, k_high + 1):
        t = mags * 2.0**-k
        row = cutoff(t) - cutoff(2.0 * t)
        if np.any(row != 0.0):
            ks.append(k)
            rows.append(row)
    return tuple(ks), np.asarray(rows)


def _annulus_mask(mags: np.ndarray, k: int, homogeneous: bool = False) -> np.ndarray:
    """Mask of |xi| in [2^(k-1), 2^(k+1)]; inhomogeneous I_0 is the ball |xi| <= 2."""
    if k == 0 and not homogeneous:
        return mags <= 2.0
    return (mags >= 2.0 ** (k - 1)) & (mags <= 2.0 ** (k + 1))


@dataclass(frozen=True)
class BesovParams:
    """Besov triple: smoothness index s, integrability p, summation v."""

    s: float
    p: float
    v: float

    def __post_init__(self):
        _check_exponent(self.p, "p")
        _check_exponent(self.v, "v")


class DyadicPartition:
    """Fixed psi / phi_k / psi_k system sampled on a frequency grid.

    phi_hat has shape (k_max+1, n_nodes); psi_hat covers the homogeneous
    indices k in [k_min_hom, k_max] that have nonzero grid samples.
    Immutable after construction.
    """

    def __init__(self, grid: GridSpec, smoothness: int = 3):
        _check_smoothness(smoothness)
        self.grid = grid
        self.smoothness = smoothness
        self._mags = grid.frequency_magnitudes()

        k_max = int(math.floor(math.log2(grid.max_axis_frequency))) - 1
        if k_max < 2:
            raise ValueError(
                f"grid too small to host at least 3 annuli (k_max = {k_max})"
            )
        self.k_max = k_max

        mags = self._mags
        phi = np.empty((k_max + 1, grid.n_nodes))
        phi[0] = smooth_cutoff(mags, smoothness)
        for k in range(1, k_max + 1):
            phi[k] = _psi_hat_profile(mags * 2.0**-k, smoothness)
        phi.setflags(write=False)
        self.phi_hat = phi
        self.phi_extents = _slab_extents(phi, grid)

        # homogeneous side: keep every k (<= k_max) with a nonzero sample
        self.hom_ks, psi = _difference_rows(lambda t: smooth_cutoff(t, smoothness), mags, k_max)
        self.k_min_hom = self.hom_ks[0]
        psi.setflags(write=False)
        self.psi_hat = psi
        self.psi_extents = _slab_extents(psi, grid)

        self.partition_sum = phi.sum(axis=0)
        self.partition_sum.setflags(write=False)
        # the mask the band-limit guard sums over, built once: one byte a
        # node, where an index array would take eight per incomplete node.
        # The same mask as partition_sum < 1 - tol, but that form measured
        # 0.4 MB more peak RSS on grid2d-256 (the heap lays out differently)
        self._incomplete = ~(self.partition_sum >= 1.0 - _PARTITION_COMPLETE_TOL)

    # -- annuli ----------------------------------------------------------

    def annulus_mask(self, k: int) -> np.ndarray:
        """Grid mask of I_k: |xi| in [2^(k-1), 2^(k+1)], I_0 = {|xi| <= 2}."""
        return _annulus_mask(self._mags, k)

    def annulus_mask_hom(self, k: int) -> np.ndarray:
        """Grid mask of J_k: |xi| in [2^(k-1), 2^(k+1)]."""
        return _annulus_mask(self._mags, k, homogeneous=True)

    def psi_row(self, k: int) -> np.ndarray:
        if k not in self.hom_ks:
            raise ValueError(f"homogeneous index {k} outside [{self.k_min_hom}, {self.k_max}]")
        return self.psi_hat[k - self.k_min_hom]

    def band_limit_mask(self) -> np.ndarray:
        """Nodes where the inhomogeneous partition sums to 1 exactly."""
        return ~self._incomplete

    # -- diagnostics / export ---------------------------------------------

    def spectral_residual_fraction(self, fhat: np.ndarray) -> float:
        """Fraction of L^2 mass at nodes not fully covered by the partition."""
        return float(self._residual_fractions(_node_power(fhat)))

    def _residual_fractions(self, power: np.ndarray) -> np.ndarray:
        """spectral_residual_fraction of a spectrum, or of each spectrum of a
        stack, from its _node_power.

        The residual sums the powers at the incomplete nodes, through the
        partition's stored mask of them.
        """
        total = power.sum(axis=-1)
        # np.compress: boolean indexing behind an Ellipsis is several times slower
        residual = np.compress(self._incomplete, power, axis=-1).sum(axis=-1)
        return np.divide(residual, total, out=np.zeros_like(total), where=total != 0.0)

    def to_summary(self) -> dict:
        def support_bounds(row):
            nz = self._mags[row > 0]
            if nz.size == 0:
                return None
            return [float(nz.min()), float(nz.max())]

        return {
            "d": self.grid.d,
            "n_per_dim": self.grid.n_per_dim,
            "period": self.grid.period,
            "smoothness": self.smoothness,
            "k_max": self.k_max,
            "k_min_hom": self.k_min_hom,
            "phi_support": [support_bounds(self.phi_hat[k]) for k in range(self.k_max + 1)],
            "psi_support": [support_bounds(self.psi_row(k)) for k in self.hom_ks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_summary(), sort_keys=True, indent=2)


def build_partition(grid: GridSpec, smoothness: int = 3) -> DyadicPartition:
    """Construct the dyadic partition of unity on a grid."""
    return DyadicPartition(grid, smoothness)


def _require_physical(f: GridFunction, part: DyadicPartition) -> None:
    if f.domain_tag != "physical":
        raise ValueError("expected a physical-domain function")
    if f.grid != part.grid:
        raise ValueError("function and partition live on different grids")


def lp_block(f: GridFunction, k: int, part: DyadicPartition) -> GridFunction:
    """Littlewood-Paley block: inverse transform of phi_hat_k * fhat."""
    _require_physical(f, part)
    if not (0 <= k <= part.k_max):
        raise ValueError(f"annulus index {k} out of range [0, {part.k_max}]")
    fhat = dft(f)
    block_hat = GridFunction(
        f.grid, part.phi_hat[k][:, None] * fhat.samples, "frequency"
    )
    return idft(block_hat)


def _node_power(fhat: np.ndarray) -> np.ndarray:
    """sum_j |fhat_j|^2 at each node of a spectrum, or of each spectrum of a
    stack: the input of the guards below."""
    a = np.abs(fhat)
    return _fold_columns(np.add, np.multiply(a, a, out=a))


def _require_band_limited(part: DyadicPartition, power: np.ndarray) -> None:
    """The band-limit guard: at most 1e-8 of the L^2 mass beyond the partition,
    for a spectrum or for each spectrum of a stack, given its _node_power."""
    if np.any(part._residual_fractions(power) > 1e-8):
        raise SpectralTruncationError(
            "input carries significant spectral mass above the top annulus"
        )


def _require_mean_zero(power: np.ndarray) -> None:
    """The homogeneous norms' guard: at most 1e-10 of the L^2 mass in the zero
    mode, for a spectrum or for each spectrum of a stack, given its _node_power."""
    total = power.sum(axis=-1)
    share = np.divide(power[..., 0], total, out=np.zeros_like(total), where=total > 0)
    if np.any(share > 1e-10):
        raise ValueError(
            "homogeneous Besov norm needs a mean-zero input "
            "(nonzero-mean functions are only defined modulo polynomials)"
        )


def _slab_extents(rows: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Per row, the largest |signed index| along the first lattice axis at
    which the row is nonzero; read-only.

    An all-zero row gets the Nyquist index n // 2, so its blocks take the
    full transform: its products are signed zeros, and pruning would turn
    the signs that ifftn makes of them into +0.
    """
    n = grid.n_per_dim
    nonzero = rows.reshape(len(rows), n, -1).any(axis=2)
    index = np.minimum(np.arange(n), n - np.arange(n))
    extents = np.where(nonzero.any(axis=1), np.max(np.where(nonzero, index, 0), axis=1), n // 2)
    extents.setflags(write=False)
    return extents


def _block_batches(fhats: np.ndarray, rows: np.ndarray, grid: GridSpec, out=None,
                   extents: Optional[np.ndarray] = None):
    """Physical blocks idft(row * fhat) of a stack of spectra (S, n_nodes, dim).

    Yields the blocks of every (spectrum, row) pair, spectrum-major, as
    batches (B, n_nodes, dim), one batched transform of at most
    _BLOCK_BATCH_ENTRIES samples each, so a caller can reduce a batch
    while it is still in cache.  The products, the transform and the
    scaling all write into the batch itself; the spectra a batch holds
    whole take one broadcast product per kept node range, a spectrum
    split by a batch boundary one product per range into its rows.
    Without out every batch is one buffer, reused: a yielded batch is
    valid only until the next one.  With out, an array of S * n_rows
    blocks (C-contiguous), each batch is its slice of out.

    extents are the rows' _slab_extents (computed when not given).  At
    d >= 2, when every row of a batch is zero on the slabs |i| > a of the
    first lattice axis, only the slabs |i| <= a are transformed over the
    other axes, then the whole batch along the first: _idft_stack takes
    its axis passes in that order, last axis first, as numpy's ifftn
    does, so every line gets the same 1-D transform and the blocks the
    same bits.
    """
    if extents is None:
        extents = _slab_extents(rows, grid)
    n_rows, n = rows.shape[0], grid.n_per_dim
    n_pairs, (n_nodes, dim) = fhats.shape[0] * n_rows, fhats.shape[1:]
    per_batch = max(1, _BLOCK_BATCH_ENTRIES // (n_nodes * dim))
    slab = n_nodes // n   # nodes per slab of the first lattice axis, contiguous
    if out is None:
        buf = np.empty((min(per_batch, n_pairs), n_nodes, dim), dtype=np.complex128)
    for j in range(0, n_pairs, per_batch):
        stop = min(j + per_batch, n_pairs)
        batch = buf[:stop - j] if out is None else out[j:stop]
        a = n // 2 if grid.d == 1 else \
            max(extents[q % n_rows] for q in range(j, min(stop, j + n_rows)))
        pruned = 2 * a + 1 < n
        # the nodes of the slabs |i| <= a, or all of them
        kept = (slice(0, (a + 1) * slab), slice((n - a) * slab, n_nodes)) if pruned \
            else (slice(None),)
        # the spectra s0..s1-1 the batch holds whole: one broadcast product
        # per kept range, into all their rows at once
        s0, s1 = -(-j // n_rows), stop // n_rows
        if s1 > s0:
            whole = batch[s0 * n_rows - j:s1 * n_rows - j].reshape(s1 - s0, n_rows, n_nodes, dim)
            for nodes in kept:
                np.multiply(rows[:, nodes, None], fhats[s0:s1, None, nodes],
                            out=whole[:, :, nodes])
        # a spectrum split by a batch boundary: one product per kept range, into its rows
        for s in {j // n_rows, (stop - 1) // n_rows}:
            if s0 <= s < s1:
                continue
            lo, hi = max(j - s * n_rows, 0), min(stop - s * n_rows, n_rows)
            for nodes in kept:
                np.multiply(rows[lo:hi, nodes, None], fhats[s, nodes],
                            out=batch[s * n_rows + lo - j:s * n_rows + hi - j, nodes])
        if not pruned:
            yield _idft_stack(batch, grid, out=batch)
            continue
        batch[:, (a + 1) * slab:(n - a) * slab] = 0.0
        lat = batch.reshape((-1,) + grid.spatial_shape() + (dim,))
        for half in (lat[:, :a + 1], lat[:, n - a:]):
            for axis in range(grid.d, 1, -1):
                np.fft.ifft(half, axis=axis, out=half)
        np.fft.ifft(lat, axis=1, out=lat)
        yield np.multiply(batch, _idft_scale(grid), out=batch)


def _blocks(fhat: np.ndarray, rows: np.ndarray, grid: GridSpec,
            extents: np.ndarray) -> np.ndarray:
    """Physical blocks idft(row * fhat) of one spectrum, (n_rows, n_nodes, dim)."""
    out = np.empty((rows.shape[0],) + fhat.shape, dtype=np.complex128)
    for _ in _block_batches(fhat[None], rows, grid, out, extents):
        pass
    return out


def _block_norms(
    f: GridFunction, blocks: np.ndarray, p: float, space: Optional[ValueSpace]
) -> list:
    return [lp_norm(GridFunction(f.grid, b, "physical"), p, space) for b in blocks]


def _besov_weights(part: DyadicPartition, params: BesovParams, homogeneous: bool) -> np.ndarray:
    """The block weights of a Besov norm: 2^(ks) over k = 0..k_max as one
    array power, or over hom_ks as scalar powers."""
    if homogeneous:
        return np.asarray([2.0 ** (k * params.s) for k in part.hom_ks])
    return 2.0 ** (np.arange(part.k_max + 1) * params.s)


def lp_blocks(f: GridFunction, part: DyadicPartition) -> np.ndarray:
    """All blocks at once: array (k_max+1, n_nodes, value_dim), physical domain."""
    _require_physical(f, part)
    return _blocks(dft(f).samples, part.phi_hat, part.grid, part.phi_extents)


def besov_norm(
    f: GridFunction,
    params: BesovParams,
    part: DyadicPartition,
    space: Optional[ValueSpace] = None,
) -> float:
    """Inhomogeneous Besov norm: l^v over k of 2^(ks) ||block_k||_p.

    Raises SpectralTruncationError when more than 1e-8 of the L^2 mass
    sits beyond the exact range of the partition.
    """
    _require_physical(f, part)
    _require_band_limited(part, _node_power(dft(f).samples))
    weights = _besov_weights(part, params, homogeneous=False)
    norms = np.array(_block_norms(f, lp_blocks(f, part), params.p, space))
    return _lp_combine(weights * norms, params.v)


def homogeneous_besov_norm(
    f: GridFunction,
    params: BesovParams,
    part: DyadicPartition,
    space: Optional[ValueSpace] = None,
) -> float:
    """Homogeneous Besov norm over the representable annuli J_k.

    Requires a mean-zero input (the grid stand-in for working modulo
    polynomials); inputs with more than 1e-10 of their L^2 mass in the
    zero mode are rejected.
    """
    _require_physical(f, part)
    fhat = dft(f).samples
    power = _node_power(fhat)
    _require_mean_zero(power)
    _require_band_limited(part, power)
    weights = _besov_weights(part, params, homogeneous=True)
    blocks = _blocks(fhat, part.psi_hat, part.grid, part.psi_extents)
    norms = np.array(_block_norms(f, blocks, params.p, space))
    return _lp_combine(weights * norms, params.v)


def _stack_batches(stacks: list):
    """The members of stacks of spectra (S_i, n_nodes, dim), end to end, in
    batches of at most _BLOCK_BATCH_ENTRIES samples; yields (index of the
    batch's first member, batch).

    Each batch is copied into one buffer that is reused, so a caller may
    transform it in place, and a yielded batch is valid only until the
    next one.  Stacks need not share an array: a batch may take members
    of two of them, so holding them together costs no joint copy.
    """
    sizes = [len(stack) for stack in stacks]
    total = sum(sizes)
    per_batch = max(1, _BLOCK_BATCH_ENTRIES // math.prod(stacks[0].shape[1:]))
    buf = np.empty((min(per_batch, total),) + stacks[0].shape[1:], dtype=np.complex128)
    for j in range(0, total, per_batch):
        batch = buf[:min(per_batch, total - j)]
        first = 0
        for stack, size in zip(stacks, sizes):
            lo, hi = max(j, first), min(j + len(batch), first + size)
            if hi > lo:
                batch[lo - j:hi - j] = stack[lo - first:hi - first]
            first += size
        yield j, batch


def _besov_norms(sides: list, part: DyadicPartition, homogeneous: bool) -> list:
    """besov_norm (or homogeneous_besov_norm) of idft(fhat) for each spectrum
    fhat of the stacks (S_i, n_nodes, dim) that sides lists, bit for bit.

    sides lists (spectra, params, space, weights), one stack per side,
    where weights is _besov_weights of params, which a caller that scores
    many stacks with the same params computes once; the norms come back
    side after side, each with its side's params, value space and
    weights.  The sides go through one pass, end to end, in the batches of
    _stack_batches (at most _BLOCK_BATCH_ENTRIES samples, one spectrum
    per FFT call at d = 2, N = 256): per batch the same idft/dft round
    trip as those norms' inputs (skipping it would move the last bits),
    the guards, and the block core, each transform batch reduced as soon
    as it is done, with one _lp_norms call per run of sides sharing p and
    the value space that it meets.  Each side then combines its block
    norms with its own weights and v.  Every transform and reduction acts
    per line or per row, so a spectrum's norm has the same bits whatever
    shares its batch.
    """
    grid = part.grid
    rows, extents = (part.psi_hat, part.psi_extents) if homogeneous else \
        (part.phi_hat, part.phi_extents)
    n_rows = len(rows)
    runs = _lp_runs([(len(spectra) * n_rows, params.p, space)
                     for spectra, params, space, _ in sides])
    block_norms = []
    for _, fhats in _stack_batches([spectra for spectra, _, _, _ in sides]):
        _idft_stack(fhats, grid, out=fhats)
        _dft_stack(fhats, grid, out=fhats)
        power = _node_power(fhats)
        if homogeneous:
            _require_mean_zero(power)
        _require_band_limited(part, power)
        for batch in _block_batches(fhats, rows, grid, extents=extents):
            block_norms += _lp_norms_by_run(batch, runs, grid.cell_volume, len(block_norms))
        # free the block buffer before the next batch's core allocates its own
        del batch
    block_norms = np.array(block_norms).reshape(-1, n_rows)
    norms, lo = [], 0
    for spectra, params, _, weights in sides:
        hi = lo + len(spectra)
        norms += _lp_rows(weights * block_norms[lo:hi], params.v)
        lo = hi
    return norms
