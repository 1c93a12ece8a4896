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
range instead of silently truncating.
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


def smooth_cutoff(t: np.ndarray, smoothness: int) -> np.ndarray:
    """C^smoothness monotone cutoff: 1 on [0,1], 0 on [2,inf), polynomial between."""
    if smoothness < 1:
        raise ValueError(f"smoothness must be >= 1, got {smoothness}")
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
        if smoothness < 1:
            raise ValueError(f"smoothness must be >= 1, got {smoothness}")
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

        # homogeneous side: keep every k (<= k_max) with a nonzero sample
        psi_rows = []
        ks = []
        pos = mags[mags > 0]
        k_low_guess = int(math.floor(math.log2(pos.min()))) - 1 if pos.size else 0
        for k in range(k_low_guess, k_max + 1):
            row = _psi_hat_profile(mags * 2.0**-k, smoothness)
            if np.any(row != 0.0):
                ks.append(k)
                psi_rows.append(row)
        self.k_min_hom = ks[0]
        psi = np.asarray(psi_rows)
        psi.setflags(write=False)
        self.psi_hat = psi
        self.hom_ks = tuple(ks)

        self.partition_sum = phi.sum(axis=0)
        self.partition_sum.setflags(write=False)
        self._complete = self.partition_sum >= 1.0 - _PARTITION_COMPLETE_TOL

    # -- annuli ----------------------------------------------------------

    def annulus_mask(self, k: int) -> np.ndarray:
        """Grid mask of I_k: |xi| in [2^(k-1), 2^(k+1)], I_0 = {|xi| <= 2}."""
        if k == 0:
            return self._mags <= 2.0
        return (self._mags >= 2.0 ** (k - 1)) & (self._mags <= 2.0 ** (k + 1))

    def annulus_mask_hom(self, k: int) -> np.ndarray:
        """Grid mask of J_k: |xi| in [2^(k-1), 2^(k+1)]."""
        return (self._mags >= 2.0 ** (k - 1)) & (self._mags <= 2.0 ** (k + 1))

    def psi_row(self, k: int) -> np.ndarray:
        if k not in self.hom_ks:
            raise ValueError(f"homogeneous index {k} outside [{self.k_min_hom}, {self.k_max}]")
        return self.psi_hat[k - self.k_min_hom]

    def band_limit_mask(self) -> np.ndarray:
        """Nodes where the inhomogeneous partition sums to 1 exactly."""
        return self._complete.copy()

    # -- diagnostics / export ---------------------------------------------

    def spectral_residual_fraction(self, fhat: np.ndarray) -> float:
        """Fraction of L^2 mass at nodes not fully covered by the partition."""
        power = np.sum(np.abs(fhat) ** 2, axis=1)
        total = power.sum()
        if total == 0.0:
            return 0.0
        return float(power[~self._complete].sum() / total)

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


def lp_blocks(f: GridFunction, part: DyadicPartition) -> np.ndarray:
    """All blocks at once: array (k_max+1, n_nodes, value_dim), physical domain."""
    _require_physical(f, part)
    fhat = dft(f).samples
    stacked = part.phi_hat[:, :, None] * fhat[None, :, :]
    shape = (part.k_max + 1,) + part.grid.spatial_shape() + (f.value_dim,)
    axes = tuple(range(1, part.grid.d + 1))
    out = np.fft.ifftn(stacked.reshape(shape), axes=axes)
    out *= (part.grid.n_per_dim / part.grid.period) ** part.grid.d
    return out.reshape(part.k_max + 1, part.grid.n_nodes, f.value_dim)


def _sequence_norm(weights: np.ndarray, v: float) -> float:
    if np.isinf(v):
        return float(np.max(weights)) if weights.size else 0.0
    return float(np.sum(weights**v) ** (1.0 / v))


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
    fhat = dft(f).samples
    if part.spectral_residual_fraction(fhat) > 1e-8:
        raise SpectralTruncationError(
            "input carries significant spectral mass above the top annulus"
        )
    blocks = lp_blocks(f, part)
    ks = np.arange(part.k_max + 1)
    norms = np.array(
        [
            lp_norm(GridFunction(f.grid, blocks[k], "physical"), params.p, space)
            for k in ks
        ]
    )
    return _sequence_norm(2.0 ** (ks * params.s) * norms, params.v)


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
    power = np.sum(np.abs(fhat) ** 2, axis=1)
    total = power.sum()
    if total > 0 and power[0] / total > 1e-10:
        raise ValueError(
            "homogeneous Besov norm needs a mean-zero input "
            "(nonzero-mean functions are only defined modulo polynomials)"
        )
    if part.spectral_residual_fraction(fhat) > 1e-8:
        raise SpectralTruncationError(
            "input carries significant spectral mass above the top annulus"
        )
    weights = []
    for k in part.hom_ks:
        block_hat = GridFunction(f.grid, part.psi_row(k)[:, None] * fhat, "frequency")
        weights.append(2.0 ** (k * params.s) * lp_norm(idft(block_hat), params.p, space))
    return _sequence_norm(np.asarray(weights), params.v)
