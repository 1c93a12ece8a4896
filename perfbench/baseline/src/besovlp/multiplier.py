"""Operator-valued symbols, the Fourier multiplier operator, and the
verification of the multiplier bounds.

The operator acts frequency-diagonally:  g = idft(m(xi) . dft(f)), which
on a periodic grid is exact for band-limited inputs, so the blockwise
extension through the dyadic partition coincides with direct application
to rounding error.

Operator norms over function spaces are suprema over an
infinite-dimensional ball; the estimators here certify lower bounds by
randomized witness search (structured starts: single modes at the
largest symbol values, flat and per-annulus spectra, then random
restarts with greedy refinement).  Verification reports then check the
measured lower bound against the displayed theoretical bound, which is
the falsifiable direction.  The per-annulus gamma-bounds entering the
bounds are exact between Hilbert spaces and search lower bounds
otherwise (flagged in the report).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dyadic import BesovParams, DyadicPartition, besov_norm, homogeneous_besov_norm, lp_block
from .gaussian import MatrixFamily, gamma_bound_estimate
from .reports import VerificationReport
from .sampling import GaussianSampler, SearchBudget
from .spaces import (
    DimensionMismatchError,
    GridFunction,
    GridSpec,
    ValueSpace,
    dft,
    idft,
    lp_norm,
)

__all__ = [
    "OperatorSymbol",
    "apply_multiplier",
    "blockwise_extension",
    "estimate_multiplier_norm",
    "multiplier_norm_l2_exact",
    "besov_multiplier_norm_estimate",
    "verify_prop43",
    "verify_thm44",
    "verify_thm45",
    "verify_thm46",
    "verify_prop34",
    "identity_symbol",
    "modulation_symbol",
    "riesz_symbol",
    "annulus_indicator_symbol",
    "diagonal_symbol",
    "hilbert_symbol",
    "scalar_symbol",
    "SYMBOL_CONSTRUCTORS",
]

_OP_WITNESS = 20


@dataclass
class OperatorSymbol:
    """Matrix-valued symbol sampled on the frequency lattice.

    values: (n_nodes, n_out, n_in) in FFT node order.  Homogeneous
    symbols store the zero matrix at xi = 0 (the mode is annihilated for
    mean-zero inputs); inhomogeneous symbols must be finite everywhere.
    The moderate-growth flags are caller assertions: on a finite grid
    every symbol has moderate growth, so they are recorded, not checked.
    """

    grid: GridSpec
    values: np.ndarray
    derivative_oracle: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    moderate_at_infinity: bool = True
    moderate_at_zero: bool = True
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim == 1:
            self.values = self.values[:, None, None]
        if self.values.ndim != 3 or self.values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"values must have shape (n_nodes, n_out, n_in), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol values must be finite on the grid")

    @property
    def n_out(self) -> int:
        return self.values.shape[1]

    @property
    def n_in(self) -> int:
        return self.values.shape[2]

    @property
    def is_scalar(self) -> bool:
        return self.n_out == 1 and self.n_in == 1

    def opnorms(self) -> np.ndarray:
        """Per-node spectral norms."""
        if self.is_scalar:
            return np.abs(self.values[:, 0, 0])
        return np.linalg.svd(self.values, compute_uv=False)[:, 0]

    def adjoint(self) -> "OperatorSymbol":
        return OperatorSymbol(
            self.grid,
            np.conj(np.swapaxes(self.values, 1, 2)),
            name=self.name + "*",
        )

    def scaled(self, c: complex) -> "OperatorSymbol":
        return OperatorSymbol(self.grid, c * self.values, self.derivative_oracle,
                              self.moderate_at_infinity, self.moderate_at_zero, self.name)

    def __mul__(self, other: "OperatorSymbol") -> "OperatorSymbol":
        """Pointwise composition self(xi) @ other(xi)."""
        if other.grid != self.grid or other.n_out != self.n_in:
            raise DimensionMismatchError("symbols do not compose")
        vals = np.einsum("nij,njk->nik", self.values, other.values)
        return OperatorSymbol(self.grid, vals, name=f"{self.name}.{other.name}")

    def to_json_obj(self) -> dict:
        flat = np.empty(self.values.size * 2, dtype=float)
        flat[0::2] = self.values.real.reshape(-1)
        flat[1::2] = self.values.imag.reshape(-1)
        return {
            "d": self.grid.d,
            "n_per_dim": self.grid.n_per_dim,
            "period": self.grid.period,
            "n_out": self.n_out,
            "n_in": self.n_in,
            "domain_tag": "frequency",
            "data": flat.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "OperatorSymbol":
        grid = GridSpec(obj["d"], obj["n_per_dim"], obj["period"])
        flat = np.asarray(obj["data"], dtype=float)
        vals = (flat[0::2] + 1j * flat[1::2]).reshape(-1, obj["n_out"], obj["n_in"])
        return cls(grid, vals)


# ---------------------------------------------------------------------------
# built-in symbol constructors
# ---------------------------------------------------------------------------


def identity_symbol(grid: GridSpec, dim: int = 1) -> OperatorSymbol:
    vals = np.tile(np.eye(dim, dtype=np.complex128), (grid.n_nodes, 1, 1))
    return OperatorSymbol(grid, vals, name="identity")


def scalar_symbol(grid: GridSpec, values: np.ndarray, name: str = "scalar") -> OperatorSymbol:
    return OperatorSymbol(grid, np.asarray(values, dtype=np.complex128), name=name)


def modulation_symbol(grid: GridSpec, shift: Sequence[float], dim: int = 1) -> OperatorSymbol:
    """exp(-2 pi i xi . a) I: translation by a through the convolution theorem."""
    a = np.asarray(shift, dtype=float)
    if a.shape != (grid.d,):
        raise ValueError(f"shift must have {grid.d} components")
    phase = np.exp(-2j * np.pi * grid.frequency_coords() @ a)
    vals = phase[:, None, None] * np.eye(dim, dtype=np.complex128)[None, :, :]
    return OperatorSymbol(grid, vals, name="modulation")


def _riesz_derivative_oracle(sigma: float):
    def oracle(alpha: tuple, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        r2 = np.sum(xi * xi, axis=1)
        out = np.zeros(xi.shape[0], dtype=np.complex128)
        nz = r2 > 0
        order = int(sum(alpha))
        if order == 0:
            out[nz] = r2[nz] ** (-sigma / 2.0)
        elif order == 1:
            i = next(k for k, a in enumerate(alpha) if a)
            out[nz] = -sigma * xi[nz, i] * r2[nz] ** (-(sigma + 2.0) / 2.0)
        elif order == 2:
            idx = [k for k, a in enumerate(alpha) for _ in range(a)]
            i, j = idx
            delta = 1.0 if i == j else 0.0
            out[nz] = -sigma * (
                delta * r2[nz] ** (-(sigma + 2.0) / 2.0)
                - (sigma + 2.0) * xi[nz, i] * xi[nz, j] * r2[nz] ** (-(sigma + 4.0) / 2.0)
            )
        else:
            raise NotImplementedError("riesz derivative oracle covers |alpha| <= 2")
        return out[:, None, None]

    return oracle


def riesz_symbol(grid: GridSpec, sigma: float, dim: int = 1) -> OperatorSymbol:
    """|xi|^(-sigma) I with the zero matrix at xi = 0."""
    mags = grid.frequency_magnitudes()
    vals = np.zeros(grid.n_nodes, dtype=np.complex128)
    nz = mags > 0
    vals[nz] = mags[nz] ** (-sigma)
    full = vals[:, None, None] * np.eye(dim, dtype=np.complex128)[None, :, :]
    oracle = _riesz_derivative_oracle(sigma) if dim == 1 else None
    return OperatorSymbol(grid, full, derivative_oracle=oracle,
                          moderate_at_zero=(sigma <= 0), name=f"riesz({sigma:g})")


def annulus_indicator_symbol(grid: GridSpec, k: int, dim: int = 1) -> OperatorSymbol:
    mags = grid.frequency_magnitudes()
    if k == 0:
        mask = mags <= 2.0
    else:
        mask = (mags >= 2.0 ** (k - 1)) & (mags <= 2.0 ** (k + 1))
    vals = mask.astype(np.complex128)[:, None, None] * np.eye(dim)[None, :, :]
    return OperatorSymbol(grid, vals, name=f"annulus({k})")


def diagonal_symbol(grid: GridSpec, entries: Sequence[np.ndarray]) -> OperatorSymbol:
    """Diagonal matrix symbol from per-entry scalar fields (n_nodes each)."""
    cols = [np.asarray(e, dtype=np.complex128).reshape(-1) for e in entries]
    for c in cols:
        if c.shape != (grid.n_nodes,):
            raise ValueError("each diagonal entry must be a scalar field on the grid")
    m = len(cols)
    vals = np.zeros((grid.n_nodes, m, m), dtype=np.complex128)
    for i, c in enumerate(cols):
        vals[:, i, i] = c
    return OperatorSymbol(grid, vals, name="diagonal")


def hilbert_symbol(grid: GridSpec) -> OperatorSymbol:
    """-i sign(xi), d = 1."""
    if grid.d != 1:
        raise ValueError("the Hilbert-transform symbol is one-dimensional")
    xi = grid.frequency_coords()[:, 0]
    vals = -1j * np.sign(xi)
    return OperatorSymbol(grid, vals[:, None, None], moderate_at_zero=True, name="hilbert")


SYMBOL_CONSTRUCTORS = {
    "identity": identity_symbol,
    "modulation": modulation_symbol,
    "riesz": riesz_symbol,
    "annulus_indicator": annulus_indicator_symbol,
    "diagonal": diagonal_symbol,
    "hilbert": hilbert_symbol,
}


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------


def apply_multiplier(m: OperatorSymbol, f: GridFunction) -> GridFunction:
    """idft(m . dft(f)): frequency-diagonal action, exact on the grid."""
    if f.grid != m.grid:
        raise ValueError("symbol and function live on different grids")
    if f.value_dim != m.n_in:
        raise DimensionMismatchError(
            f"symbol expects input dim {m.n_in}, function has {f.value_dim}"
        )
    fhat = dft(f)
    ghat = np.einsum("noi,ni->no", m.values, fhat.samples)
    return idft(GridFunction(f.grid, ghat, "frequency"))


def _apply_to_spectrum(m: OperatorSymbol, fhat: np.ndarray) -> np.ndarray:
    return np.einsum("noi,ni->no", m.values, fhat)


def blockwise_extension(
    m: OperatorSymbol, f: GridFunction, part: DyadicPartition
) -> GridFunction:
    """Sum over annuli of per-block multiplier applications.

    Coincides with apply_multiplier on band-limited inputs because the
    partition of unity commutes with the frequency-diagonal action.
    """
    from .spaces import SpectralTruncationError

    fhat = dft(f).samples
    if part.spectral_residual_fraction(fhat) > 1e-8:
        raise SpectralTruncationError(
            "input carries significant spectral mass above the top annulus"
        )
    acc = None
    for k in range(part.k_max + 1):
        piece = apply_multiplier(m, lp_block(f, k, part))
        acc = piece.samples if acc is None else acc + piece.samples
    return GridFunction(f.grid, acc, "physical")


def multiplier_norm_l2_exact(m: OperatorSymbol) -> float:
    """Exact L^2 -> L^2 norm on the grid: the largest per-node spectral norm."""
    return float(np.max(m.opnorms()))


# ---------------------------------------------------------------------------
# randomized witness search for operator norms
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    value: float
    spectrum: np.ndarray  # (n_allowed, n_in)
    allowed_idx: np.ndarray


def _dyadic_annulus_masks(grid: GridSpec) -> list:
    mags = grid.frequency_magnitudes()
    top = int(math.floor(math.log2(grid.max_axis_frequency)))
    masks = [mags <= 2.0]
    for k in range(1, top + 1):
        masks.append((mags >= 2.0 ** (k - 1)) & (mags <= 2.0 ** (k + 1)))
    return masks


def _witness_search(
    m: OperatorSymbol,
    numerator: Callable[[GridFunction], float],
    denominator: Callable[[GridFunction], float],
    allowed: np.ndarray,
    budget: SearchBudget,
    sampler: GaussianSampler,
) -> WitnessResult:
    """Maximize numerator(T f)/denominator(f) over spectra in a node mask.

    Both functionals are deterministic, so the search is exact greedy
    hill-climbing; the schedule is prefix-stable in (restarts, steps),
    which makes the returned value monotone in the budget.
    """
    grid = m.grid
    allowed_idx = np.nonzero(allowed)[0]
    if allowed_idx.size == 0:
        raise ValueError("empty witness support")
    n_in = m.n_in
    n_allowed = allowed_idx.size

    def ratio_of(spec: np.ndarray) -> float:
        fhat = np.zeros((grid.n_nodes, n_in), dtype=np.complex128)
        fhat[allowed_idx] = spec
        f = idft(GridFunction(grid, fhat, "frequency"))
        den = denominator(f)
        if den <= 0:
            return -np.inf
        tf = idft(GridFunction(grid, _apply_to_spectrum(m, fhat), "frequency"))
        return numerator(tf) / den

    # structured starts: single modes at the largest symbol values,
    # a flat spectrum, and flat per-annulus spectra
    starts = []
    opn = m.opnorms()[allowed_idx]
    order = np.argsort(opn)[::-1]
    for pos in order[: min(5, n_allowed)]:
        spec = np.zeros((n_allowed, n_in), dtype=np.complex128)
        node = allowed_idx[pos]
        matrix = m.values[node]
        nrm = np.linalg.norm(matrix)
        base = matrix / nrm if nrm > 0 else matrix
        _, _, vh = np.linalg.svd(base)
        spec[pos] = vh[0].conj()
        starts.append(spec)
    flat = np.zeros((n_allowed, n_in), dtype=np.complex128)
    flat[:, 0] = 1.0
    starts.append(flat)
    for mask in _dyadic_annulus_masks(grid):
        sub = mask[allowed_idx]
        if np.any(sub):
            spec = np.zeros((n_allowed, n_in), dtype=np.complex128)
            spec[sub, 0] = 1.0
            starts.append(spec)

    best_val = -np.inf
    best_spec = None
    n_starts = len(starts) + budget.restarts
    for restart in range(n_starts):
        rng = sampler.generator(_OP_WITNESS, 100 + restart)
        if restart < len(starts):
            spec = starts[restart].copy()
        else:
            n_active = int(min(n_allowed, max(1, rng.integers(1, 33))))
            idx = rng.choice(n_allowed, size=n_active, replace=False)
            spec = np.zeros((n_allowed, n_in), dtype=np.complex128)
            spec[idx] = rng.standard_normal((n_active, n_in)) + 1j * rng.standard_normal(
                (n_active, n_in)
            )
        val = ratio_of(spec)
        step = budget.initial_step
        for _ in range(budget.steps):
            trial = spec.copy()
            n_touch = int(min(n_allowed, 1 + rng.integers(0, 8)))
            idx = rng.choice(n_allowed, size=n_touch, replace=False)
            noise = rng.standard_normal((n_touch, n_in)) + 1j * rng.standard_normal(
                (n_touch, n_in)
            )
            trial[idx] = trial[idx] + step * noise
            scale = np.abs(trial).max()
            if scale > 0:
                trial = trial / scale
            tval = ratio_of(trial)
            if tval > val:
                val, spec = tval, trial
            step *= budget.anneal
        if val > best_val:
            best_val, best_spec = val, spec

    return WitnessResult(value=best_val, spectrum=best_spec, allowed_idx=allowed_idx)


def estimate_multiplier_norm(
    m: OperatorSymbol,
    p: float,
    q: float,
    domain_space: Optional[ValueSpace] = None,
    codomain_space: Optional[ValueSpace] = None,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    support_mask: Optional[np.ndarray] = None,
    mean_zero: bool = False,
) -> float:
    """Witness-search lower bound on ||T_m||_{L^p -> L^q}; monotone in budget."""
    domain_space = domain_space or ValueSpace.lp(2.0, m.n_in)
    codomain_space = codomain_space or ValueSpace.lp(2.0, m.n_out)
    allowed = (
        np.ones(m.grid.n_nodes, dtype=bool) if support_mask is None else support_mask.copy()
    )
    if mean_zero:
        allowed[0] = False
    res = _witness_search(
        m,
        numerator=lambda g: lp_norm(g, q, codomain_space),
        denominator=lambda f: lp_norm(f, p, domain_space),
        allowed=allowed,
        budget=budget,
        sampler=sampler,
    )
    return res.value


def besov_multiplier_norm_estimate(
    m: OperatorSymbol,
    src: BesovParams,
    dst: BesovParams,
    part: DyadicPartition,
    domain_space: Optional[ValueSpace] = None,
    codomain_space: Optional[ValueSpace] = None,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    homogeneous: bool = False,
) -> float:
    """Witness-search lower bound on the Besov -> Besov multiplier norm.

    Witness spectra are confined to the exact range of the partition, so
    the norm evaluations never hit the spectral-truncation guard.
    """
    domain_space = domain_space or ValueSpace.lp(2.0, m.n_in)
    codomain_space = codomain_space or ValueSpace.lp(2.0, m.n_out)
    allowed = part.band_limit_mask()
    if homogeneous:
        allowed[0] = False
        norm_src = lambda f: homogeneous_besov_norm(f, src, part, domain_space)
        norm_dst = lambda g: homogeneous_besov_norm(g, dst, part, codomain_space)
    else:
        norm_src = lambda f: besov_norm(f, src, part, domain_space)
        norm_dst = lambda g: besov_norm(g, dst, part, codomain_space)
    res = _witness_search(m, norm_dst, norm_src, allowed, budget, sampler)
    return res.value


# ---------------------------------------------------------------------------
# verification of the displayed bounds
# ---------------------------------------------------------------------------


def _holder_r(p: float, q: float) -> float:
    """r with 1/r = 1/p - 1/q (inf when p = q)."""
    inv = (0.0 if np.isinf(p) else 1.0 / p) - (0.0 if np.isinf(q) else 1.0 / q)
    if inv < -1e-12:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    if inv <= 1e-15:
        return np.inf
    return 1.0 / inv


def _inv(x: float) -> float:
    return 0.0 if np.isinf(x) else 1.0 / x


def _seq_norm(weights: np.ndarray, u: float) -> float:
    if np.isinf(u):
        return float(np.max(weights)) if weights.size else 0.0
    return float(np.sum(weights**u) ** (1.0 / u))


def _annulus_gamma_hats(
    m: OperatorSymbol,
    masks: Sequence[np.ndarray],
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget,
    sampler: GaussianSampler,
    safety_factor: float,
) -> tuple:
    """Per-annulus gamma-bounds; exact (max opnorm) in the Hilbert case."""
    hilbert = domain_space.is_hilbert and codomain_space.is_hilbert
    if hilbert:
        opn = m.opnorms()
        values = [float(opn[mask].max()) if np.any(mask) else 0.0 for mask in masks]
        return np.asarray(values), True
    values = []
    for mask in masks:
        if not np.any(mask):
            values.append(0.0)
            continue
        family = MatrixFamily(tuple(m.values[mask]), domain_space, codomain_space)
        gamma_hat, _ = gamma_bound_estimate(family, budget, sampler, safety_factor)
        values.append(gamma_hat)
    return np.asarray(values), False


def verify_prop43(
    m: OperatorSymbol,
    cube: tuple,
    p: float,
    q: float,
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    tolerance: float = 0.05,
    safety_factor: float = 1.0,
) -> VerificationReport:
    """Compact-Fourier-support bound: tau_p c_q (b-a)^(d/r) gamma(m on cube).

    Witnesses are restricted to spectra inside the half-open cube
    [a, b)^d on the frequency lattice, which keeps the lattice point
    count consistent with the continuum cube volume.
    """
    a, b = float(cube[0]), float(cube[1])
    if not a < b:
        raise ValueError("cube must satisfy a < b")
    r = _holder_r(p, q)
    tau = domain_space.type_constant(p)
    c = codomain_space.cotype_constant(q)

    coords = m.grid.frequency_coords()
    mask = np.all((coords >= a) & (coords < b), axis=1)
    if not np.any(mask):
        raise ValueError("cube contains no lattice frequencies")

    gammas, exact = _annulus_gamma_hats(
        m, [mask], domain_space, codomain_space, budget, sampler, safety_factor
    )
    gamma_hat = float(gammas[0])
    side_factor = 1.0 if np.isinf(r) else (b - a) ** (m.grid.d / r)
    bound = tau * c * side_factor * gamma_hat

    measured = estimate_multiplier_norm(
        m, p, q, domain_space, codomain_space, budget, sampler, support_mask=mask
    )
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "statement": "compact-support multiplier bound",
            "cube": [a, b],
            "p": p,
            "q": "inf" if np.isinf(q) else q,
            "r": "inf" if np.isinf(r) else r,
            "gamma_hat": gamma_hat,
            "gamma_exact": bool(exact),
            "type_const": tau,
            "cotype_const": c,
            "seed": sampler.seed,
        },
    )


def _check_uvw(u: float, v: float, w: float) -> None:
    if _inv(w) > _inv(u) + _inv(v) + 1e-12:
        raise ValueError(
            f"inadmissible summation exponents: need 1/w <= 1/u + 1/v, "
            f"got u={u}, v={v}, w={w}"
        )


def _check_type_cotype_exponents(p: float, q: float) -> None:
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"type exponent p must lie in [1, 2], got {p}")
    if not (2.0 <= q):
        raise ValueError(f"cotype exponent q must lie in [2, inf], got {q}")


def verify_thm44(
    m: OperatorSymbol,
    s: float,
    sigma: float,
    u: float,
    p: float,
    v: float,
    q: float,
    w: float,
    part: DyadicPartition,
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    tolerance: float = 0.05,
    safety_factor: float = 1.0,
) -> VerificationReport:
    """Besov-scale multiplier bound with constant 4^(d/r) tau_p c_q.

    Weight sequence: 2^(k sigma) gamma({m(xi): xi in I_k}) in l^u over
    the inhomogeneous annuli; destination smoothness s + sigma - d/r.
    """
    _check_uvw(u, v, w)
    _check_type_cotype_exponents(p, q)
    r = _holder_r(p, q)
    d = m.grid.d
    tau = domain_space.type_constant(p)
    c = codomain_space.cotype_constant(q)

    masks = [part.annulus_mask(k) for k in range(part.k_max + 1)]
    gammas, exact = _annulus_gamma_hats(
        m, masks, domain_space, codomain_space, budget, sampler, safety_factor
    )
    ks = np.arange(part.k_max + 1)
    weights = 2.0 ** (ks * sigma) * gammas
    dr = 0.0 if np.isinf(r) else d / r
    bound = 4.0**dr * tau * c * _seq_norm(weights, u)

    src = BesovParams(s, p, v)
    dst = BesovParams(s + sigma - dr, q, w)
    measured = besov_multiplier_norm_estimate(
        m, src, dst, part, domain_space, codomain_space, budget, sampler
    )
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "statement": "Besov multiplier bound (inhomogeneous annuli)",
            "s": s, "sigma": sigma,
            "u": "inf" if np.isinf(u) else u,
            "p": p, "v": "inf" if np.isinf(v) else v,
            "q": "inf" if np.isinf(q) else q,
            "w": "inf" if np.isinf(w) else w,
            "dst_smoothness": s + sigma - dr,
            "gamma_weights": [float(x) for x in weights],
            "gamma_exact": bool(exact),
            "q_inf_beyond_stated_range": bool(np.isinf(q)),
            "seed": sampler.seed,
        },
    )


def verify_thm45(
    m: OperatorSymbol,
    s: float,
    sigma: float,
    u: float,
    p: float,
    v: float,
    q: float,
    w: float,
    part: DyadicPartition,
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    tolerance: float = 0.05,
    safety_factor: float = 1.0,
) -> VerificationReport:
    """Homogeneous-scale analog over the annuli J_k with mean-zero witnesses."""
    _check_uvw(u, v, w)
    _check_type_cotype_exponents(p, q)
    r = _holder_r(p, q)
    d = m.grid.d
    tau = domain_space.type_constant(p)
    c = codomain_space.cotype_constant(q)

    masks = [part.annulus_mask_hom(k) for k in part.hom_ks]
    gammas, exact = _annulus_gamma_hats(
        m, masks, domain_space, codomain_space, budget, sampler, safety_factor
    )
    ks = np.asarray(part.hom_ks, dtype=float)
    weights = 2.0 ** (ks * sigma) * gammas
    dr = 0.0 if np.isinf(r) else d / r
    bound = 4.0**dr * tau * c * _seq_norm(weights, u)

    src = BesovParams(s, p, v)
    dst = BesovParams(s + sigma - dr, q, w)
    measured = besov_multiplier_norm_estimate(
        m, src, dst, part, domain_space, codomain_space, budget, sampler,
        homogeneous=True,
    )
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "statement": "Besov multiplier bound (homogeneous annuli)",
            "s": s, "sigma": sigma,
            "u": "inf" if np.isinf(u) else u,
            "p": p, "v": "inf" if np.isinf(v) else v,
            "q": "inf" if np.isinf(q) else q,
            "w": "inf" if np.isinf(w) else w,
            "k_range": [part.k_min_hom, part.k_max],
            "gamma_weights": [float(x) for x in weights],
            "gamma_exact": bool(exact),
            "q_inf_beyond_stated_range": bool(np.isinf(q)),
            "seed": sampler.seed,
        },
    )


def verify_thm46(
    m: OperatorSymbol,
    p: float,
    q: float,
    part: DyadicPartition,
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    c_cap: Optional[float] = None,
    safety_factor: float = 1.0,
) -> VerificationReport:
    """L^p -> L^q bound via the l^1 sum of 2^(kd/r) gamma(J_k) weights.

    The displayed bound carries an unspecified constant depending only
    on (p, d); the report therefore records measured/bound as an
    empirical estimate of that constant.  It must stay bounded under
    grid refinement; pass c_cap to turn that into a verdict.
    """
    _check_type_cotype_exponents(p, q)
    r = _holder_r(p, q)
    d = m.grid.d
    dr = 0.0 if np.isinf(r) else d / r
    tau = domain_space.type_constant(p)
    c = codomain_space.cotype_constant(q)

    masks = [part.annulus_mask_hom(k) for k in part.hom_ks]
    gammas, exact = _annulus_gamma_hats(
        m, masks, domain_space, codomain_space, budget, sampler, safety_factor
    )
    ks = np.asarray(part.hom_ks, dtype=float)
    weights = 2.0 ** (ks * dr) * gammas
    bound_without_c = 4.0**dr * tau * c * float(np.sum(weights))

    allowed = part.band_limit_mask()
    measured = estimate_multiplier_norm(
        m, p, q, domain_space, codomain_space, budget, sampler,
        support_mask=allowed, mean_zero=True,
    )
    tolerance = np.inf if c_cap is None else (c_cap - 1.0)
    empirical_c = measured / bound_without_c if bound_without_c > 0 else np.inf
    return VerificationReport.build(
        measured=measured,
        bound=bound_without_c,
        tolerance=tolerance,
        metadata={
            "statement": "Lp->Lq multiplier bound, unspecified constant recorded empirically",
            "p": p, "q": "inf" if np.isinf(q) else q,
            "d_over_r": dr,
            "weights_l1": float(np.sum(weights)),
            "empirical_constant": float(empirical_c),
            "gamma_exact": bool(exact),
            "k_range": [part.k_min_hom, part.k_max],
            "seed": sampler.seed,
        },
    )


def verify_prop34(
    m: OperatorSymbol,
    r: float,
    u: float,
    s: float,
    p: float,
    v: float,
    q: float,
    w: float,
    part: DyadicPartition,
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    tolerance: float = 0.05,
) -> VerificationReport:
    """Fourier-type route: c_k = L^r(I_k) norms of the pointwise operator norm.

    Restricted to Hilbert value spaces, the only case with exact Fourier
    constants here; the Hausdorff-Young chain then carries constant 1.
    q = inf is accepted but flagged as beyond the stated range.
    """
    if not (domain_space.is_hilbert and codomain_space.is_hilbert):
        raise ValueError(
            "Fourier-type verification supports Hilbert value spaces only"
        )
    _check_uvw(u, v, w)
    expected_r = _holder_r(p, q)
    if not np.isclose(_inv(r), _inv(expected_r), atol=1e-9):
        raise ValueError(f"need 1/r = 1/p - 1/q; got r={r}, p={p}, q={q}")
    if not (1.0 <= p <= 2.0 and 2.0 <= q):
        raise ValueError("the Hausdorff-Young chain needs p in [1,2] and q in [2,inf]")

    opn = m.opnorms()
    cell = m.grid.freq_cell_volume
    cks = []
    for k in range(part.k_max + 1):
        mask = part.annulus_mask(k)
        vals = opn[mask]
        if np.isinf(r):
            cks.append(float(vals.max()) if vals.size else 0.0)
        else:
            cks.append(float((cell * np.sum(vals**r)) ** (1.0 / r)))
    cks = np.asarray(cks)
    bound = _seq_norm(cks, u)

    src = BesovParams(s, p, v)
    dst = BesovParams(s, q, w)
    measured = besov_multiplier_norm_estimate(
        m, src, dst, part, domain_space, codomain_space, budget, sampler
    )
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "statement": "Fourier-type Besov multiplier bound (Hilbert chain, C = 1)",
            "c_k": [float(x) for x in cks],
            "r": "inf" if np.isinf(r) else r,
            "u": "inf" if np.isinf(u) else u,
            "s": s, "p": p, "v": "inf" if np.isinf(v) else v,
            "q": "inf" if np.isinf(q) else q,
            "w": "inf" if np.isinf(w) else w,
            "q_inf_beyond_stated_range": bool(np.isinf(q)),
            "seed": sampler.seed,
        },
    )
