"""Builders for witness and adversarial test functions on a grid."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .sampling import _complex_normals
from .spaces import GridFunction, GridSpec, ValueSpace, idft, lp_norm

__all__ = [
    "constant_function",
    "single_mode",
    "random_band_limited",
    "spike",
    "plateau",
    "oscillatory_packet",
    "adversarial_l1_family",
]


def constant_function(grid: GridSpec, value=1.0) -> GridFunction:
    vec = np.atleast_1d(np.asarray(value, dtype=np.complex128))
    samples = np.tile(vec, (grid.n_nodes, 1))
    return GridFunction(grid, samples, "physical")


def single_mode(grid: GridSpec, mode: Sequence[int], amplitude=1.0, dim: int = 1) -> GridFunction:
    """amplitude * exp(2 pi i (j/L) . x) in the first component."""
    j = np.asarray(mode, dtype=float)
    x = grid.physical_coords()
    phase = np.exp(2j * np.pi * (x @ (j / grid.period)))
    samples = np.zeros((grid.n_nodes, dim), dtype=np.complex128)
    samples[:, 0] = amplitude * phase
    return GridFunction(grid, samples, "physical")


def random_band_limited(
    grid: GridSpec,
    mask: np.ndarray,
    rng: np.random.Generator,
    dim: int = 1,
    mean_zero: bool = False,
) -> GridFunction:
    """Random spectrum supported on a frequency-node mask."""
    mask = mask.copy()
    if mean_zero:
        mask[0] = False
    fhat = np.zeros((grid.n_nodes, dim), dtype=np.complex128)
    n = int(mask.sum())
    fhat[mask] = _complex_normals(rng, (n, dim))
    return idft(GridFunction(grid, fhat, "frequency"))


def spike(grid: GridSpec, cell_index: int = 0, l1_mass: float = 1.0, dim: int = 1) -> GridFunction:
    """All the L^1 mass on a single cell, whose sample l1_mass / cell volume
    must be finite."""
    height = l1_mass / grid.cell_volume
    if not np.isfinite(height):
        raise ValueError(f"spike sample l1_mass / cell volume must be finite, got {height}")
    samples = np.zeros((grid.n_nodes, dim), dtype=np.complex128)
    samples[cell_index, 0] = height
    return GridFunction(grid, samples, "physical")


def plateau(grid: GridSpec, fraction: float = 0.25, height: float = 1.0, dim: int = 1) -> GridFunction:
    """Indicator-style block of the given measure fraction along the first axis.

    fraction must lie in (0, 1]; the block is at least one cell wide.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"plateau fraction must lie in (0, 1], got {fraction}")
    view = np.zeros(grid.spatial_shape() + (dim,), dtype=np.complex128)
    n_cells = max(1, int(round(fraction * grid.n_per_dim)))
    view[(slice(0, n_cells),) + (slice(None),) * (grid.d - 1) + (0,)] = height
    return GridFunction(grid, view.reshape(grid.n_nodes, dim), "physical")


def oscillatory_packet(
    grid: GridSpec, mode: Sequence[int], width_fraction: float = 0.25, dim: int = 1
) -> GridFunction:
    """Single mode windowed to a block along the first axis."""
    f = single_mode(grid, mode, 1.0, dim)
    window = plateau(grid, width_fraction, 1.0, 1).samples[:, 0]
    samples = f.samples * window[:, None]
    return GridFunction(grid, samples, "physical")


def adversarial_l1_family(
    grid: GridSpec, count: int, seed: int, dim: int = 1
) -> list:
    """Mixed family (spikes, two-spike combos, plateaus, oscillations,
    random signs), each normalized to ||f||_1 = 1."""
    rng = np.random.default_rng(seed)
    space = ValueSpace.lp(2.0, dim)
    out = []
    builders = []
    builders.append(lambda: spike(grid, 0, 1.0, dim))
    builders.append(lambda: spike(grid, int(rng.integers(0, grid.n_nodes)), 1.0, dim))

    def two_spikes():
        f = spike(grid, 0, 0.5, dim)
        g = spike(grid, grid.n_nodes // 2, 0.5, dim)
        return f + g

    builders.append(two_spikes)
    builders.append(lambda: plateau(grid, float(rng.uniform(0.05, 0.5)), 1.0, dim))
    builders.append(
        lambda: oscillatory_packet(
            grid, [int(rng.integers(1, grid.n_per_dim // 4))] + [0] * (grid.d - 1),
            float(rng.uniform(0.1, 0.5)), dim,
        )
    )

    def random_signs():
        return GridFunction(grid, _complex_normals(rng, (grid.n_nodes, dim)), "physical")

    builders.append(random_signs)

    for i in range(count):
        f = builders[i % len(builders)]()
        l1 = lp_norm(f, 1.0, space)
        out.append(f * (1.0 / l1))
    return out
