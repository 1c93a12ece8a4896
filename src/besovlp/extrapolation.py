"""Kernels, smoothness conditions, the Calderon-Zygmund decomposition,
the endpoint weak-type bound, and extrapolation sweeps.

The torus stands in for the whole space: kernels are periodized, the
Hoermander integral over |s| >= 2|t| is truncated at the half period
(difference points are taken with |t| <= L/8 so the region is
meaningful), and the symbol-to-kernel route goes through the dyadic
truncation sum of smooth annular pieces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .dyadic import _difference_rows, build_partition, smooth_cutoff
from .multiplier import (
    OperatorSymbol,
    apply_multiplier,
    estimate_multiplier_norm,
    multiplier_norm_l2_exact,
    riesz_symbol,
    _NodeMatrices,
    _estimate_multiplier_norms,
)
from .reports import VerificationReport
from .sampling import GaussianSampler, SearchBudget
from .spaces import (
    GridFunction,
    GridSpec,
    ValueSpace,
    dft,
    idft,
    lp_norm,
    weak_lp_norm,
    _check_exponent,
    _dft_stack,
    _idft_stack,
    _inv,
    _lp_combine,
    _space_for,
)

__all__ = [
    "EtaZetaSystem",
    "eta_zeta_system",
    "Kernel",
    "kernel_of_symbol",
    "symbol_of_kernel",
    "kernel_convolve",
    "hilbert_kernel",
    "HormanderReport",
    "hormander_constant",
    "MihlinReport",
    "mihlin_check",
    "CZBadPart",
    "CZResult",
    "cz_decompose",
    "weak_type_constant",
    "verify_weak_type",
    "SweepReport",
    "extrapolation_sweep",
    "sharpness_probe",
]


# ---------------------------------------------------------------------------
# the eta / zeta annular system
# ---------------------------------------------------------------------------


def _eta_profile(t: np.ndarray, smoothness: int) -> np.ndarray:
    """1 on [0,1], 0 on [3/2, inf), C^smoothness transition between."""
    # reuse the partition cutoff, with [1, 3/2] mapped onto its [1, 2]
    return smooth_cutoff(2.0 * np.asarray(t, dtype=float) - 1.0, smoothness)


@dataclass
class EtaZetaSystem:
    """Smooth radial bump eta_hat and the derived annular pieces zeta_hat_j.

    zeta_hat_j(xi) = eta_hat(2^-j xi) - eta_hat(2^-j+1 xi), supported in
    {2^(j-1) <= |xi| <= (3/2) 2^j}; the stored j-range covers every
    index with a nonzero sample on the grid.
    """

    grid: GridSpec
    smoothness: int
    eta_hat: np.ndarray
    js: tuple
    zeta_hat: np.ndarray  # (len(js), n_nodes)

    def zeta_row(self, j: int) -> np.ndarray:
        if j not in self.js:
            raise ValueError(f"zeta index {j} outside representable range {self.js[0]}..{self.js[-1]}")
        return self.zeta_hat[j - self.js[0]]

    @property
    def j_max(self) -> int:
        return self.js[-1]


def eta_zeta_system(grid: GridSpec, smoothness: int = 3) -> EtaZetaSystem:
    """Build the annular system used by the symbol-to-kernel truncation;
    its profile is smooth_cutoff's, which refuses an order outside [1, 8]."""
    mags = grid.frequency_magnitudes()
    if math.floor(math.log2(grid.max_axis_frequency)) < 2:
        raise ValueError("grid too small to host at least 3 dyadic levels")
    eta = _eta_profile(mags, smoothness)
    js, rows = _difference_rows(lambda t: _eta_profile(t, smoothness), mags,
                                int(math.ceil(math.log2(mags.max()))) + 1)
    return EtaZetaSystem(grid, smoothness, eta, js, rows)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class Kernel(_NodeMatrices):
    """Matrix-valued kernel sampled on the physical nodes of the torus.

    Every sample is finite, the origin included: a singular kernel stores
    a finite stand-in at its origin, as hilbert_kernel stores 0.
    hormander_constant never reads that sample, and symbol_of_kernel
    transforms it as stored.
    """

    domain_tag = "physical"
    noun = "kernel"


def kernel_of_symbol(m: OperatorSymbol, n_levels: Optional[int] = None) -> Kernel:
    """Dyadic truncation: inverse transform of sum_{|j| <= N} zeta_hat_j . m,
    with zeta_hat_j from the grid's eta_zeta_system and N = n_levels, its
    j_max when None.

    Levels below the representable range contribute exactly zero and are
    skipped; levels above it, and a negative N (an empty window), are an
    error.
    """
    system = eta_zeta_system(m.grid)
    if n_levels is None:
        n_levels = system.j_max
    if n_levels < 0:
        raise ValueError(f"truncation level must be >= 0, got {n_levels}")
    if n_levels > system.j_max:
        raise ValueError(
            f"truncation level {n_levels} exceeds representable levels (max {system.j_max})"
        )
    window = np.zeros(m.grid.n_nodes)
    for j in system.js:
        if -n_levels <= j <= n_levels:
            window += system.zeta_row(j)
    truncated = window[:, None, None] * m.values
    vals = _idft_stack(truncated.reshape(1, m.grid.n_nodes, -1), m.grid)
    return Kernel(m.grid, vals.reshape(truncated.shape))


def symbol_of_kernel(kernel: Kernel) -> OperatorSymbol:
    """Forward transform of the kernel, its origin sample as stored: the
    symbol of convolution by it."""
    out = _dft_stack(kernel.values.reshape(1, kernel.grid.n_nodes, -1), kernel.grid)
    return OperatorSymbol(kernel.grid, out.reshape(kernel.values.shape), name="kernel-symbol")


def kernel_convolve(kernel: Kernel, f: GridFunction) -> GridFunction:
    """Torus convolution (K * f)(x) = cell * sum_y K(x - y) f(y)."""
    return apply_multiplier(symbol_of_kernel(kernel), f)


def hilbert_kernel(grid: GridSpec) -> Kernel:
    """Analytic 1/(pi x) on the symmetric cell, zero at the origin (d = 1)."""
    if grid.d != 1:
        raise ValueError("the Hilbert kernel is one-dimensional")
    x = grid.min_image_coords()[:, 0]
    vals = np.zeros(grid.n_nodes, dtype=np.complex128)
    vals[x != 0] = 1.0 / (np.pi * x[x != 0])
    return Kernel(grid, vals)


# ---------------------------------------------------------------------------
# Hoermander condition (H)_a
# ---------------------------------------------------------------------------


@dataclass
class HormanderReport:
    """Max of the (H)_a difference integrals over sampled (t, x) pairs."""

    constant: float
    a: float
    samples: list
    rejected: list
    truncation_radius: float

    def to_dict(self) -> dict:
        return asdict(self)


def _default_t_samples(grid: GridSpec) -> list:
    """Lattice difference vectors at dyadic magnitudes up to L/8, per axis.

    Magnitudes stay at >= 8 cells so the difference region |s| >= 2|t|
    is resolved by the lattice (smaller t would probe the kernel at
    sub-cell scales where the quadrature has O(1) relative error).
    """
    spacing = grid.period / grid.n_per_dim
    targets = []
    mag = grid.period / 8.0
    while mag >= 8.0 * spacing:
        targets.append(mag)
        mag /= 2.0
    ts = []
    for mag_t in targets:
        cells = max(1, int(round(mag_t / spacing)))
        for axis in range(grid.d):
            vec = np.zeros(grid.d, dtype=int)
            vec[axis] = cells
            ts.append(vec.copy())
            vec[axis] = -cells
            ts.append(vec.copy())
        if grid.d >= 2:
            diag = np.full(grid.d, max(1, int(round(mag_t / (spacing * math.sqrt(grid.d))))), dtype=int)
            ts.append(diag)
    seen = set()
    out = []
    for t in ts:
        key = tuple(int(v) for v in t)
        if key not in seen and any(key):
            seen.add(key)
            out.append(np.asarray(key, dtype=int))
    return out


def hormander_constant(
    kernel: Kernel,
    a: float,
    t_samples: Optional[Sequence[np.ndarray]] = None,
    codomain_space: Optional[ValueSpace] = None,
) -> HormanderReport:
    """Grid estimate of the (H)_a constant of a kernel.

    For lattice difference vectors t and the unit test directions x (the
    standard basis of the domain), computes
    ( cell * sum_{|s| >= 2|t|} ||K(s-t)x - K(s)x||^a )^(1/a)
    with torus min-image coordinates; the integral is truncated at the
    half period, and t-samples beyond L/8 are rejected (recorded), so
    the region |s| >= 2|t| stays meaningful on the torus.

    The result is origin-referenced but independent of which periodic
    representative of the coordinates is used; with finitely many test
    directions it is a lower envelope of the strong-operator constant.
    """
    _check_exponent(a, "a")
    grid = kernel.grid
    spacing = grid.period / grid.n_per_dim
    coords = grid.min_image_coords()
    s_mags = np.linalg.norm(coords, axis=1)
    vals = kernel.values

    if t_samples is None:
        t_samples = _default_t_samples(grid)
    codomain_space = _space_for(kernel.n_out, codomain_space)

    view = vals.reshape(grid.spatial_shape() + vals.shape[1:])

    samples = []
    rejected = []
    best = 0.0
    for t_cells in t_samples:
        t_vec = np.asarray(t_cells, dtype=float) * spacing
        t_mag = float(np.linalg.norm(t_vec))
        if t_mag > grid.period / 8.0 + 1e-12 or t_mag == 0.0:
            rejected.append({"t_cells": [int(v) for v in t_cells], "reason": "outside (0, L/8]"})
            continue
        shifted = np.roll(view, shift=tuple(int(v) for v in t_cells),
                          axis=tuple(range(grid.d)))
        diff = (shifted - view).reshape(vals.shape)
        # t != 0 and |s| >= 2|t| exclude s = 0 and s = t, the two nodes where
        # K(s) or K(s - t) reads the origin, whatever is stored there
        region = s_mags >= 2.0 * t_mag
        for x in np.eye(kernel.n_in, dtype=np.complex128):
            mapped = diff[region] @ x
            norms = codomain_space.norm_rows(mapped)
            integral = _lp_combine(norms, a, grid.cell_volume)
            samples.append(
                {
                    "t_cells": [int(v) for v in t_cells],
                    "t_mag": t_mag,
                    "x": x.real.tolist(),
                    "value": integral,
                }
            )
            best = max(best, integral)
    return HormanderReport(
        constant=best,
        a=a,
        samples=samples,
        rejected=rejected,
        truncation_radius=grid.period / 2.0,
    )


# ---------------------------------------------------------------------------
# Mihlin conditions (M1)/(M2)
# ---------------------------------------------------------------------------


@dataclass
class MihlinReport:
    constant: float
    order: int
    r: float
    rho: float
    mode: str
    samples: list
    shell_range: list

    def to_dict(self) -> dict:
        return asdict(self)


def _multi_indices(d: int, max_order: int):
    for order in range(max_order + 1):
        for combo in product(range(order + 1), repeat=d):
            if sum(combo) == order:
                yield combo


def _lattice_fd_derivative(m: OperatorSymbol, alpha: tuple, h_cells: int) -> np.ndarray:
    """Central differences on the frequency lattice, step h_cells nodes."""
    grid = m.grid
    spacing = 1.0 / grid.period
    vals = m.values.reshape(grid.spatial_shape() + (m.n_out, m.n_in))
    out = vals
    for axis, order in enumerate(alpha):
        for _ in range(order):
            fwd = np.roll(out, -h_cells, axis=axis)
            bwd = np.roll(out, h_cells, axis=axis)
            out = (fwd - bwd) / (2.0 * h_cells * spacing)
    return out.reshape(grid.n_nodes, m.n_out, m.n_in)


def mihlin_check(
    m: OperatorSymbol,
    r: float,
    rho: float,
    n: Optional[int] = None,
    mode: str = "oracle",
    h: Optional[float] = None,
) -> MihlinReport:
    """Dyadic-shell derivative bounds with scaling weight R^(|alpha|+d/r-d/rho).

    mode 'oracle' uses the symbol's derivative oracle; mode 'fd' uses
    central differences on the frequency lattice with a declared step h
    (an integer multiple of the lattice spacing).  The maximum runs over
    dyadic shells R <= |xi| < 2R in the representable range, all
    multi-indices |alpha| <= n and the unit test directions (the
    standard basis of the domain).  The conditions on the adjoint are
    the conditions on m.adjoint(), which keeps the oracle.
    """
    grid = m.grid
    d = grid.d
    _check_exponent(r, "r")
    if not (1.0 <= rho < np.inf):
        raise ValueError(f"rho must lie in [1, inf), got {rho}")
    dr = 0.0 if np.isinf(r) else d / r
    if n is None:
        n = int(math.floor(d / rho - dr)) + 1
    if n < 0:
        raise ValueError(f"derivative order n = {n} < 0 leaves no multi-index to check")
    # a step of N/2 lattice cells or more wraps the central difference around
    if h is not None and not (0.0 < h < grid.max_axis_frequency):
        raise ValueError(f"step h must lie in (0, N/(2L)) = (0, {grid.max_axis_frequency:g}), "
                         f"got {h}")

    if mode == "oracle":
        if m.derivative_oracle is None:
            raise ValueError("symbol has no derivative oracle; use mode='fd' with a step h")
    elif mode == "fd":
        if h is None:
            raise ValueError("finite-difference mode needs a declared step h")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    space = ValueSpace.lp(2.0, m.n_out)

    mags = grid.frequency_magnitudes()
    pos = mags[mags > 0]
    # keep shells clear of the Nyquist wrap so lattice differences are clean
    r_max_allowed = grid.max_axis_frequency / 2.0
    j_low = int(math.ceil(math.log2(pos.min())))
    j_high = int(math.floor(math.log2(r_max_allowed))) - 1
    shells = [2.0**j for j in range(j_low, j_high + 1)]
    if not shells:
        raise ValueError("no representable dyadic shells on this grid")

    coords = grid.frequency_coords()
    cell = grid.freq_cell_volume
    spacing = 1.0 / grid.period
    h_cells = 1 if h is None else max(1, int(round(h / spacing)))

    samples = []
    best = 0.0
    for alpha in _multi_indices(d, n):
        if mode == "oracle":
            deriv = None  # evaluated per shell on masked coords
        else:
            deriv_full = _lattice_fd_derivative(m, alpha, h_cells)
        for R in shells:
            mask = (mags >= R) & (mags < 2.0 * R)
            if not np.any(mask):
                continue
            if mode == "oracle":
                dvals = m.derivative_oracle(alpha, coords[mask])
            else:
                dvals = deriv_full[mask]
            weight = R ** (sum(alpha) + dr - d / rho)
            for x in np.eye(m.n_in, dtype=np.complex128):
                mapped = np.einsum("noi,i->no", dvals, x)
                shell_norm = _lp_combine(space.norm_rows(mapped), rho, cell)
                value = weight * shell_norm
                samples.append(
                    {"alpha": list(alpha), "R": R, "value": value}
                )
                best = max(best, value)
    return MihlinReport(
        constant=best,
        order=n,
        r=r,
        rho=rho,
        mode=mode,
        samples=samples,
        shell_range=[shells[0], shells[-1]],
    )


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------


@dataclass
class CubeInfo:
    level: int            # side in cells = 2^level
    corner_cells: tuple   # lattice corner index
    side: float           # physical side length
    measure: float
    dilated_side: float   # diagnostic: 2 sqrt(d) times the side

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "corner_cells": list(self.corner_cells),
            "side": self.side,
            "measure": self.measure,
            "dilated_side": self.dilated_side,
        }


@dataclass
class CZBadPart:
    """A bad part b_Q = (f - avg_Q f) 1_Q, held on its cube Q only.

    ``cube`` is one slice per axis of the spatial lattice and ``values``
    has shape cube side^d + (value_dim,); off the cube the part is zero.
    """

    grid: GridSpec
    cube: tuple
    values: np.ndarray

    def to_function(self) -> GridFunction:
        """The part as a full-grid function, zero off its cube."""
        full = np.zeros(self.grid.spatial_shape() + self.values.shape[-1:],
                        dtype=self.values.dtype)
        full[self.cube] = self.values
        return GridFunction(self.grid, full.reshape(self.grid.n_nodes, -1), "physical")

    @property
    def samples(self) -> np.ndarray:
        """Full-grid samples, built by ``to_function`` on every access."""
        return self.to_function().samples


@dataclass
class CZResult:
    """f = good + sum of bad parts, exactly, with the stopping-time cubes."""

    good: GridFunction
    bad_parts: list  # [(CZBadPart, CubeInfo)]
    height: float
    gamma_param: float
    alpha: float
    whole_domain: bool = False

    @property
    def cubes(self) -> list:
        return [info for _, info in self.bad_parts]

    def total_cube_measure(self) -> float:
        return sum(info.measure for info in self.cubes)


def _morton_keys(corners: np.ndarray, levels: int) -> np.ndarray:
    """Bit-interleaved keys of lattice corners, axis 0 most significant.

    Sorting disjoint dyadic cubes on the keys of their corners lists them
    in the preorder of the cube tree whose children are visited in
    ``itertools.product(range(2), repeat=d)`` order.
    """
    keys = np.zeros(len(corners), dtype=np.int64)
    for bit in range(levels - 1, -1, -1):
        for axis in range(corners.shape[1]):
            keys = (keys << 1) | ((corners[:, axis] >> bit) & 1)
    return keys


def cz_decompose(
    f: GridFunction,
    alpha: float,
    a: float,
    B: float,
    space: Optional[ValueSpace] = None,
) -> CZResult:
    """Stopping-time decomposition at height gamma alpha^a, gamma = B^-a 2^-(d+a).

    Maximal dyadic cubes where the cube average of ||f|| exceeds the
    height become bad parts b_j = (f - avg_Q f) 1_Q; the good part is f
    off the cubes and the cube average on them.  All properties
    (reconstruction, support, zero mean, sup bound 2^d height, total
    cube measure <= 1/height) hold exactly on the grid.  Requires
    ||f||_1 <= 1, alpha > 0, a in [1, inf) and B in (0, inf), and refuses
    a height that overflows or vanishes; if the root average already
    exceeds the height the whole domain becomes one bad part and the
    result is flagged.

    Each bad part keeps only its cube's values (``CZBadPart``), so memory
    is O(nodes + sum of cube cells), not O(nodes x cubes).
    """
    if f.domain_tag != "physical":
        raise ValueError("expected a physical-domain function")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _check_exponent(a, "a", allow_inf=False)
    if not (0.0 < B < np.inf):
        raise ValueError(f"B must be positive and finite, got {B}")
    space = space or ValueSpace.lp(2.0, f.value_dim)
    if lp_norm(f, 1.0, space) > 1.0 + 1e-12:
        raise ValueError("caller must normalize ||f||_1 <= 1")

    grid = f.grid
    d, N = grid.d, grid.n_per_dim
    try:
        gamma = B ** (-a) * 2.0 ** (-(d + a))
        height = gamma * alpha**a
    except OverflowError:
        height = math.inf
    if not 0.0 < height < math.inf:
        raise ValueError(f"height B^-a 2^-(d+a) alpha^a must be positive and finite, got "
                         f"{height:g} (alpha = {alpha:g}, a = {a:g}, B = {B:g})")

    norms = space.norm_rows(f.samples).reshape(grid.spatial_shape())
    samples_view = f.samples.reshape(grid.spatial_shape() + (f.value_dim,))

    # mean pyramid: level l holds cube averages for side 2^l cells
    levels = int(math.log2(N))
    pyramid = [norms]
    cur = norms
    for _ in range(levels):
        for axis in range(d):
            cur = 0.5 * (np.take(cur, range(0, cur.shape[axis], 2), axis=axis)
                         + np.take(cur, range(1, cur.shape[axis], 2), axis=axis))
        pyramid.append(cur)

    root_mean = float(pyramid[-1].reshape(-1)[0])
    whole_domain = root_mean > height

    # maximal cubes, top level down: a cube above the height is bad unless
    # an ancestor already is (the root is above it only in the whole-domain
    # case); the blocked mask marks the cells under a bad cube
    cube_levels, corners = [], []
    blocked = np.zeros(pyramid[-1].shape, dtype=bool)
    for level in range(levels, -1, -1):
        bad = (pyramid[level] > height) & ~blocked
        hits = np.argwhere(bad)
        cube_levels += [level] * len(hits)
        corners.append(hits * 2**level)
        if level > 0:
            blocked |= bad
            for axis in range(d):
                blocked = np.repeat(blocked, 2, axis=axis)
    corners = np.concatenate(corners)

    good = samples_view.copy()
    bad_parts = []
    side_unit = grid.period / N
    for k in np.argsort(_morton_keys(corners, levels)):
        level, corner = cube_levels[k], tuple(int(c) for c in corners[k])
        step = 2**level
        sl = tuple(slice(c, c + step) for c in corner)
        avg = samples_view[sl].reshape(-1, f.value_dim).mean(axis=0)
        values = samples_view[sl] - avg
        good[sl] = avg
        side = side_unit * step
        info = CubeInfo(
            level=level,
            corner_cells=corner,
            side=side,
            measure=side**d,
            dilated_side=2.0 * math.sqrt(d) * side,
        )
        bad_parts.append((CZBadPart(grid, sl, values), info))

    return CZResult(
        good=GridFunction(grid, good.reshape(grid.n_nodes, f.value_dim), "physical"),
        bad_parts=bad_parts,
        height=height,
        gamma_param=gamma,
        alpha=alpha,
        whole_domain=whole_domain,
    )


# ---------------------------------------------------------------------------
# weak-type endpoint bound
# ---------------------------------------------------------------------------


def weak_type_constant(d: int, a: float) -> float:
    """The explicit endpoint constant 2 + 2 d^(d/(2a)) 4^(d/a)."""
    return 2.0 + 2.0 * d ** (d / (2.0 * a)) * 4.0 ** (d / a)


def verify_weak_type(
    a: float,
    p0: float,
    q0: float,
    f_set: Sequence[GridFunction],
    symbol: Optional[OperatorSymbol] = None,
    kernel: Optional[Kernel] = None,
    domain_space: Optional[ValueSpace] = None,
    codomain_space: Optional[ValueSpace] = None,
    sampler: GaussianSampler = GaussianSampler(0),
    budget: SearchBudget = SearchBudget(),
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Endpoint bound: weak-L^a norm of T f <= C_{d,a} B + 4 C_{H,a} for ||f||_1 <= 1.

    Needs 1/p0 - 1/q0 = 1 - 1/a.  B is the L^p0 -> L^q0 operator norm
    (exact on the grid when p0 = q0 = 2 between Hilbert spaces, else a
    witness-search estimate, flagged); C_{H,a} comes from the kernel's
    Hoermander report.  Pass the symbol, the kernel, or both; the
    missing one is derived (symbol -> kernel via dyadic truncation at
    the eta-zeta system's j_max levels).
    """
    if symbol is None and kernel is None:
        raise ValueError("provide a symbol or a kernel")
    _check_exponent(a, "a", allow_inf=False)
    if abs(_inv(p0, "p0") - _inv(q0, "q0") - (1.0 - 1.0 / a)) > 1e-9:
        raise ValueError(
            f"exponent identity 1/p0 - 1/q0 = 1 - 1/a violated: p0={p0}, q0={q0}, a={a}"
        )

    if kernel is None:
        kernel = kernel_of_symbol(symbol)
    if symbol is None:
        symbol = symbol_of_kernel(kernel)

    domain_space = _space_for(symbol.n_in, domain_space)
    codomain_space = _space_for(symbol.n_out, codomain_space)
    if len(f_set) == 0:
        raise ValueError("f_set must hold at least one test function")

    hilbert_l2 = (
        p0 == 2.0 and q0 == 2.0
        and domain_space.is_hilbert and codomain_space.is_hilbert
    )
    if hilbert_l2:
        B = multiplier_norm_l2_exact(symbol)
        b_exact = True
    else:
        B = estimate_multiplier_norm(
            symbol, p0, q0, domain_space, codomain_space, budget, sampler
        )
        b_exact = False

    horm = hormander_constant(kernel, a, codomain_space=codomain_space)
    c_da = weak_type_constant(symbol.grid.d, a)
    rhs = c_da * B + 4.0 * horm.constant

    worst = 0.0
    ratios = []
    for f in f_set:
        l1 = lp_norm(f, 1.0, domain_space)
        if l1 == 0.0:
            continue
        g = f * (1.0 / l1)
        tg = apply_multiplier(symbol, g)
        wk = weak_lp_norm(tg, a, codomain_space)
        ratios.append(wk / rhs if rhs > 0 else np.inf)
        worst = max(worst, wk)

    return VerificationReport.build(
        measured=worst,
        bound=rhs,
        tolerance=tolerance,
        metadata={
            "statement": "endpoint weak-type bound",
            "a": a, "p0": p0, "q0": q0,
            "C_da": c_da,
            "B": B,
            "B_exact": b_exact,
            "hormander_constant": horm.constant,
            "n_test_functions": len(ratios),
            "worst_ratio": max(ratios) if ratios else 0.0,
            "seed": sampler.seed,
        },
    )


# ---------------------------------------------------------------------------
# extrapolation sweeps along 1/p - 1/q = 1/r
# ---------------------------------------------------------------------------


def _require_nonempty(items: Sequence, name: str) -> None:
    if len(items) == 0:
        raise ValueError(f"{name} must be non-empty")


@dataclass
class SweepReport:
    rows: list          # dicts with p, q, n_per_dim, estimate
    r: float
    stability: dict     # per (p, q): max/min across grids
    endpoint_fits: dict

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "rows": self.rows,
            "stability": {k: v for k, v in sorted(self.stability.items())},
            "endpoint_fits": self.endpoint_fits,
        }

    def to_csv_rows(self) -> list:
        header = ["p", "q", "n_per_dim", "estimate"]
        out = [header]
        for row in self.rows:
            out.append([row["p"], row["q"], row["n_per_dim"], repr(row["estimate"])])
        return out


def extrapolation_sweep(
    symbol_factory: Callable[[GridSpec], OperatorSymbol],
    r: float,
    pq_list: Sequence[tuple],
    grid_list: Sequence[GridSpec],
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
) -> SweepReport:
    """Norm estimates across the line 1/p - 1/q = 1/r and a grid family.

    Emits one row per (p, q, N) between l^2 value spaces.  On each grid
    the pairs share one witness search, whose lanes draw every random
    proposal once and propose, transform and norm each of their
    duplicate rows once (multiplier._estimate_multiplier_norms), and
    each row's estimate is, bit for bit, the estimate_multiplier_norm of
    its pair alone.  Empty pq_list or grid_list is refused, and so is an r,
    p or q outside [1, inf], before anything is computed.  The stability
    table holds the max/min spread of the estimates across grids, and
    the endpoint growth is least-squares fitted against 1/(p-1) (as p
    drops to 1) and against q (as q grows).  Each fit uses the rows of
    the finest grid where its abscissa is finite (p > 1, q < inf) and is
    left out with fewer than two distinct abscissae.  The fitted
    constants are informational: the asymptotics hold in the limit, not
    at any fixed grid.
    """
    _require_nonempty(pq_list, "pq_list")
    _require_nonempty(grid_list, "grid_list")
    # sub-critical pairs (1/p - 1/q < 1/r) are admissible on the finite-measure
    # torus and are flagged; pairs demanding more smoothing than r provides
    # are rejected
    off_line = {}
    for p, q in pq_list:
        gap = _inv(p, "p") - _inv(q, "q") - _inv(r, "r")
        if gap > 1e-9:
            raise ValueError(f"pair (p={p}, q={q}) is off the line 1/p - 1/q = 1/{r}")
        off_line[(p, q)] = gap < -1e-9

    rows = []
    for grid in grid_list:
        m = symbol_factory(grid)
        zero_at_origin = bool(np.all(m.values[0] == 0))
        ests = _estimate_multiplier_norms(
            m, pq_list, budget=budget, sampler=sampler, mean_zero=zero_at_origin
        )
        for (p, q), est in zip(pq_list, ests):
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "n_per_dim": grid.n_per_dim,
                    "estimate": est,
                    "off_line": off_line[(p, q)],
                }
            )

    stability = {}
    for p, q in pq_list:
        ests = [row["estimate"] for row in rows if row["p"] == p and row["q"] == q]
        lo, hi = min(ests), max(ests)
        stability[f"p={p:g},q={q:g}"] = {
            "min": lo, "max": hi,
            "spread": hi / lo if lo > 0 else np.inf,
        }

    largest = max(g.n_per_dim for g in grid_list)
    final = [row for row in rows if row["n_per_dim"] == largest]
    ps = np.array([row["p"] for row in final], dtype=float)
    ests = np.array([row["estimate"] for row in final], dtype=float)
    qs = np.array([row["q"] for row in final], dtype=float)
    fits = {}
    if np.all(ests > 0):
        with np.errstate(divide="ignore"):
            abscissae = {
                "exponent_vs_inv_p_minus_1": np.log(1.0 / (ps - 1.0)),
                "exponent_vs_q": np.log(qs),
            }
        for key, x in abscissae.items():
            finite = np.isfinite(x)
            if len(np.unique(x[finite])) >= 2:
                fits[key] = float(np.polyfit(x[finite], np.log(ests[finite]), 1)[0])
    return SweepReport(rows=rows, r=r, stability=stability, endpoint_fits=fits)


def sharpness_probe(
    sigma: float,
    r: float,
    grid_list: Sequence[GridSpec],
    smoothness: int = 3,
) -> dict:
    """Growth of the power-symbol norm on top-annulus wave packets.

    For sigma < d/r the estimate on the probe annulus must grow like
    2^(d/r - sigma) per added dyadic level; at sigma = d/r it is flat,
    above it shrinks.  Uses the deterministic smooth-annulus packet
    witness, evaluated at p = 2r/(r+1), q = 2r/(r-1), so nothing is
    drawn at random.  An empty grid_list is refused, and so are a sigma
    whose expected growth is 0 or overflows and a probe ratio that is 0
    or not finite, which leave no growth to compare.
    """
    if not (1.0 < r < np.inf):
        raise ValueError("probe needs a finite r > 1")
    _require_nonempty(grid_list, "grid_list")
    d = grid_list[0].d
    try:
        expected = 2.0 ** (d / r - sigma)
    except OverflowError:
        expected = math.inf
    if not 0.0 < expected < math.inf:
        raise ValueError(f"sigma = {sigma:g} puts the expected growth 2^(d/r - sigma) "
                         f"at {expected:g}, outside (0, inf)")
    p = 2.0 * r / (r + 1.0)
    q = 2.0 * r / (r - 1.0)

    rows = []
    for grid in grid_list:
        part = build_partition(grid, smoothness)
        k_probe = part.k_max - 1
        m = riesz_symbol(grid, sigma)
        spec = part.psi_row(k_probe).astype(np.complex128)[:, None]
        f = idft(GridFunction(grid, spec, "frequency"))
        tf = apply_multiplier(m, f)
        ratio = lp_norm(tf, q) / lp_norm(f, p)
        if not 0.0 < ratio < math.inf:
            raise ValueError(f"probe ratio {ratio:g} at N = {grid.n_per_dim}: riesz({sigma:g}) "
                             f"leaves no growth to measure")
        rows.append(
            {"n_per_dim": grid.n_per_dim, "k_probe": k_probe, "ratio": ratio}
        )

    growth = []
    for prev, cur in zip(rows, rows[1:]):
        lv = cur["k_probe"] - prev["k_probe"]
        growth.append((cur["ratio"] / prev["ratio"]) ** (1.0 / lv) if lv else np.nan)
    return {
        "sigma": sigma,
        "r": r,
        "p": p,
        "q": q,
        "rows": rows,
        "per_level_growth": growth,
        "expected_growth": expected,
    }
