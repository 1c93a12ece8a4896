"""Monte-Carlo Gaussian sums: type/cotype constants, gamma-bounds and
gamma-radonifying norms.

Exact gamma-bounds are intractable outside the Hilbert case, so the
estimators here return certified lower bounds found by randomized
search (random restarts plus coordinate hill-climbing), while
``gamma_bound_hilbert`` supplies the exact value between Hilbert
spaces, where the gamma-bound collapses to the uniform operator-norm
bound.  Searches climb against a frozen Gaussian draw and the winning
witness is re-scored on a fresh, larger draw, so reported values carry
plain Monte-Carlo error and no selection bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .reports import VerificationReport
from .sampling import GaussianSampler, MCEstimate, SearchBudget
from .spaces import DimensionMismatchError, GridFunction, ValueSpace, lp_norm

__all__ = [
    "MatrixFamily",
    "gaussian_moment",
    "type_constant_lower",
    "cotype_constant_lower",
    "gamma_bound_lower",
    "gamma_bound_hilbert",
    "GammaSearchResult",
    "gamma_bound_search",
    "gamma_function_norm",
    "check_gamma_multiplier",
    "check_lemma42",
]

# op codes decorrelating random streams of the different estimators
_OP_MOMENT = 1
_OP_TYPE = 2
_OP_COTYPE = 3
_OP_GAMMA = 4
_OP_FUNCNORM = 5

# float budget for one Monte-Carlo chunk (samples x vectors complex entries)
_CHUNK_ENTRIES = 4_000_000


@dataclass(frozen=True)
class MatrixFamily:
    """Finite collection of operators between two value spaces."""

    members: tuple
    domain_space: ValueSpace
    codomain_space: ValueSpace

    def __post_init__(self):
        members = tuple(np.asarray(m, dtype=np.complex128) for m in self.members)
        if not members:
            raise ValueError("family must be nonempty")
        shape = members[0].shape
        if len(shape) != 2:
            raise ValueError("family members must be matrices")
        for m in members:
            if m.shape != shape:
                raise DimensionMismatchError("family members differ in shape")
        if shape != (self.codomain_space.dim, self.domain_space.dim):
            raise DimensionMismatchError(
                f"member shape {shape} does not map "
                f"dim {self.domain_space.dim} -> dim {self.codomain_space.dim}"
            )
        object.__setattr__(self, "members", members)

    @property
    def n_in(self) -> int:
        return self.members[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.members[0].shape[0]

    def __len__(self) -> int:
        return len(self.members)


def _chunked_moment(
    vectors: np.ndarray,
    space: ValueSpace,
    sampler: GaussianSampler,
    op_code: int,
    stream: int,
    n_samples: Optional[int] = None,
) -> MCEstimate:
    """MC estimate of (E || sum_k gamma_k x_k ||^2)^(1/2) for rows x_k."""
    K = vectors.shape[0]
    n = n_samples if n_samples is not None else sampler.n_samples
    rng = sampler.generator(op_code, stream)
    chunk = max(1, min(n, _CHUNK_ENTRIES // max(K, 1)))
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < n:
        c = min(chunk, n - done)
        g = (rng.standard_normal((c, K)) + 1j * rng.standard_normal((c, K))) / np.sqrt(2.0)
        sums = g @ vectors
        r2 = space.norm_rows(sums) ** 2
        s1 += float(r2.sum())
        s2 += float((r2 * r2).sum())
        done += c
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
    se_mean = math.sqrt(var / n)
    value = math.sqrt(mean)
    std_error = se_mean / (2.0 * value) if value > 0 else math.sqrt(se_mean)
    return MCEstimate(value=value, std_error=std_error, n_samples=n, seed=sampler.seed)


def gaussian_moment(
    vectors: Sequence[np.ndarray],
    space: ValueSpace,
    sampler: GaussianSampler,
) -> MCEstimate:
    """Monte-Carlo estimate of (E || sum_k gamma_k x_k ||_X^2)^(1/2).

    Deterministic given the sampler; identical (seed, n_samples) give
    bit-identical estimates.
    """
    arr = np.asarray(list(vectors), dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("vectors must be a nonempty list of equal-length vectors")
    if arr.shape[1] != space.dim:
        raise DimensionMismatchError(
            f"vectors of dimension {arr.shape[1]} in a space of dimension {space.dim}"
        )
    return _chunked_moment(arr, space, sampler, _OP_MOMENT, 0)


# ---------------------------------------------------------------------------
# type / cotype searches
# ---------------------------------------------------------------------------


def _lp_sum(norms: np.ndarray, p: float) -> float:
    if np.isinf(p):
        return float(np.max(norms))
    return float(np.sum(norms**p) ** (1.0 / p))


def _search_vector_families(
    space: ValueSpace,
    ratio_of: "callable",
    budget: SearchBudget,
    sampler: GaussianSampler,
    op_code: int,
):
    """Generic maximizer over finite vector families.

    ratio_of(vectors, gauss_draws) -> float is evaluated against one
    frozen draw during the climb.  Returns the best witness found.
    """
    dim = space.dim
    n_search = min(budget.search_samples, sampler.n_samples)
    Kmax = budget.max_vectors
    g_all = sampler.complex_gaussians((n_search, Kmax), op_code, 0)

    def evaluate(vectors):
        return ratio_of(vectors, g_all[:, : vectors.shape[0]])

    def structured_starts(rng):
        starts = []
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        starts.append(v[None, :].copy())                      # single vector
        starts.append(np.tile(v, (min(Kmax, 4), 1)))          # aligned copies
        k = min(Kmax, dim)
        starts.append(np.eye(dim, dtype=np.complex128)[:k])   # coordinate family
        return starts

    best_val = -np.inf
    best_vecs = None
    for restart in range(budget.restarts):
        rng = sampler.generator(op_code, 100 + restart)
        if restart < 3:
            candidates = structured_starts(rng)
            vecs = candidates[restart % len(candidates)]
        else:
            K = int(rng.integers(1, Kmax + 1))
            vecs = rng.standard_normal((K, dim)) + 1j * rng.standard_normal((K, dim))
        vecs = np.asarray(vecs, dtype=np.complex128)
        val = evaluate(vecs)
        step = budget.initial_step
        for _ in range(budget.steps):
            trial = vecs.copy()
            idx = int(rng.integers(0, trial.shape[0]))
            noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            trial[idx] = trial[idx] + step * noise
            scale = np.max(space.norm_rows(trial))
            if scale > 0:
                trial = trial / scale
            tval = evaluate(trial)
            if tval > val:
                val, vecs = tval, trial
            step *= budget.anneal
        if val > best_val:
            best_val, best_vecs = val, vecs
    return best_vecs


def _moment_from_draw(vectors: np.ndarray, g: np.ndarray, space: ValueSpace) -> float:
    sums = g @ vectors
    return float(np.sqrt(np.mean(space.norm_rows(sums) ** 2)))


def type_constant_lower(
    space: ValueSpace,
    p: float,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
) -> float:
    """Certified lower bound (up to MC error) on the Gaussian type-p constant.

    Maximizes (E||sum gamma_k x_k||^2)^(1/2) / (sum ||x_k||^p)^(1/p)
    over finite families; the winner is re-scored on a fresh draw.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"type exponent must lie in [1, 2], got {p}")

    def ratio_of(vectors, g):
        denom = _lp_sum(space.norm_rows(vectors), p)
        if denom == 0.0:
            return -np.inf
        return _moment_from_draw(vectors, g, space) / denom

    best = _search_vector_families(space, ratio_of, budget, sampler, _OP_TYPE)
    fresh = _chunked_moment(best, space, sampler, _OP_TYPE, 1)
    return fresh.value / _lp_sum(space.norm_rows(best), p)


def cotype_constant_lower(
    space: ValueSpace,
    q: float,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
) -> float:
    """Certified lower bound on the Gaussian cotype-q constant (q=inf uses max)."""
    if not (2.0 <= q):
        raise ValueError(f"cotype exponent must lie in [2, inf], got {q}")

    def ratio_of(vectors, g):
        num = _lp_sum(space.norm_rows(vectors), q)
        mom = _moment_from_draw(vectors, g, space)
        if mom == 0.0:
            return -np.inf
        return num / mom

    best = _search_vector_families(space, ratio_of, budget, sampler, _OP_COTYPE)
    fresh = _chunked_moment(best, space, sampler, _OP_COTYPE, 1)
    if fresh.value == 0.0:
        return 0.0
    return _lp_sum(space.norm_rows(best), q) / fresh.value


# ---------------------------------------------------------------------------
# gamma-bounds of operator families
# ---------------------------------------------------------------------------


@dataclass
class GammaSearchResult:
    """Best witness of the gamma-boundedness ratio found by the search."""

    value: float
    assignment: np.ndarray  # member index per slot
    vectors: np.ndarray     # (K, n_in)


def gamma_bound_hilbert(family: MatrixFamily) -> float:
    """Exact gamma-bound between Hilbert spaces: max spectral norm."""
    if not (family.domain_space.is_hilbert and family.codomain_space.is_hilbert):
        raise ValueError("gamma_bound_hilbert is exact only between Hilbert spaces")
    return max(float(np.linalg.norm(m, 2)) for m in family.members)


def _top_right_singular_vector(m: np.ndarray) -> np.ndarray:
    # Frobenius pre-normalization keeps the start scale-invariant in m
    nrm = np.linalg.norm(m)
    base = m / nrm if nrm > 0 else m
    _, _, vh = np.linalg.svd(base)
    return vh[0].conj()


def gamma_bound_search(
    family: MatrixFamily,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    warm_start: Optional[GammaSearchResult] = None,
) -> GammaSearchResult:
    """Randomized maximizer of the gamma-boundedness ratio.

    The climb scores configurations (member assignment + vectors) against
    one frozen Gaussian draw; numerator and denominator share the draw,
    so the ratio is exactly 1-homogeneous in the family.  The final value
    is the fresh-draw score of the best configuration (warm starts from a
    sub-family are rescored here too, which makes the estimate monotone
    under family growth).
    """
    X, Y = family.domain_space, family.codomain_space
    n_in = family.n_in
    n_members = len(family)
    n_search = min(budget.search_samples, sampler.n_samples)
    Kmax = budget.max_vectors
    g_all = sampler.complex_gaussians((n_search, Kmax), _OP_GAMMA, 0)

    members = np.stack(family.members)  # (M, n_out, n_in)

    def ratio_of(assignment, vectors):
        g = g_all[:, : vectors.shape[0]]
        den = _moment_from_draw(vectors, g, X)
        if den == 0.0:
            return -np.inf
        mapped = np.einsum("koi,ki->ko", members[assignment], vectors)
        num = _moment_from_draw(mapped, g, Y)
        return num / den

    configs = []
    # structured starts: each member on its own top singular direction,
    # then member pairs on canonical and sign-pattern vector pairs
    for j in range(min(n_members, 8)):
        configs.append(
            (np.array([j]), _top_right_singular_vector(family.members[j])[None, :])
        )
    if n_in >= 2:
        e1 = np.zeros(n_in, dtype=np.complex128)
        e2 = np.zeros(n_in, dtype=np.complex128)
        e1[0] = 1.0
        e2[1] = 1.0
        pairs = [(e1, e2), ((e1 + e2) / 2.0, (e1 - e2) / 2.0), (e1, e1), (e2, e2)]
        for i in range(min(n_members, 4)):
            for j in range(min(n_members, 4)):
                for va, vb in pairs:
                    configs.append((np.array([i, j]), np.stack([va, vb])))
    if warm_start is not None:
        configs.append((warm_start.assignment.copy(), warm_start.vectors.copy()))

    best_val = -np.inf
    best = None
    n_starts = len(configs) + budget.restarts
    for restart in range(n_starts):
        rng = sampler.generator(_OP_GAMMA, 100 + restart)
        if restart < len(configs):
            assignment, vecs = configs[restart]
            assignment = assignment.copy()
            vecs = np.asarray(vecs, dtype=np.complex128).copy()
        else:
            K = int(rng.integers(1, Kmax + 1))
            assignment = rng.integers(0, n_members, size=K)
            vecs = rng.standard_normal((K, n_in)) + 1j * rng.standard_normal((K, n_in))
        val = ratio_of(assignment, vecs)
        step = budget.initial_step
        for it in range(budget.steps):
            trial_a = assignment.copy()
            trial_v = vecs.copy()
            idx = int(rng.integers(0, trial_v.shape[0]))
            if n_members > 1 and rng.random() < 0.2:
                trial_a[idx] = rng.integers(0, n_members)
            else:
                noise = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
                trial_v[idx] = trial_v[idx] + step * noise
                scale = np.max(X.norm_rows(trial_v))
                if scale > 0:
                    trial_v = trial_v / scale
            tval = ratio_of(trial_a, trial_v)
            if tval > val:
                val, assignment, vecs = tval, trial_a, trial_v
            step *= budget.anneal
        if val > best_val:
            best_val = val
            best = (assignment, vecs)

    # fresh-draw scoring; the warm start is rescored alongside the search
    # winner so the estimate never drops when the family grows
    finalists = [best]
    if warm_start is not None:
        finalists.append((warm_start.assignment, warm_start.vectors))
    scored = []
    for assignment, vecs in finalists:
        den = _chunked_moment(vecs, X, sampler, _OP_GAMMA, 1)
        mapped = np.einsum("koi,ki->ko", members[assignment], vecs)
        num = _chunked_moment(mapped, Y, sampler, _OP_GAMMA, 2)
        value = num.value / den.value if den.value > 0 else 0.0
        scored.append(GammaSearchResult(value=value, assignment=assignment, vectors=vecs))
    return max(scored, key=lambda r: r.value)


def gamma_bound_lower(
    family: MatrixFamily,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    warm_start: Optional[GammaSearchResult] = None,
) -> float:
    """Lower bound on the gamma-bound of the family (exactness only in Hilbert)."""
    return gamma_bound_search(family, budget, sampler, warm_start).value


def gamma_bound_estimate(
    family: MatrixFamily,
    budget: SearchBudget,
    sampler: GaussianSampler,
    safety_factor: float = 1.0,
) -> tuple:
    """(gamma_hat, exact_flag): exact in the Hilbert case, else search x safety."""
    if family.domain_space.is_hilbert and family.codomain_space.is_hilbert:
        return gamma_bound_hilbert(family), True
    return gamma_bound_lower(family, budget, sampler) * safety_factor, False


# ---------------------------------------------------------------------------
# gamma-radonifying function norms
# ---------------------------------------------------------------------------


def gamma_function_norm(
    f: GridFunction,
    space: ValueSpace,
    sampler: GaussianSampler,
    stream: int = 0,
) -> MCEstimate:
    """MC estimate of the gamma-radonifying norm of a grid function.

    The orthonormal basis of normalized cell indicators turns the
    induced integration operator into the finite-rank sum over cells of
    sqrt(cell measure) * f(cell), whose Gaussian norm is estimated.
    Frequency-domain inputs are accepted with their dual cell measure,
    which is what makes the Fourier invariance of the norm checkable.
    """
    if space.dim != f.value_dim:
        raise DimensionMismatchError(
            f"space dim {space.dim} != function value_dim {f.value_dim}"
        )
    vectors = np.sqrt(f.measure) * f.samples
    return _chunked_moment(vectors, space, sampler, _OP_FUNCNORM, stream)


def check_gamma_multiplier(
    multiplier_field: np.ndarray,
    f: GridFunction,
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    sampler: GaussianSampler,
    budget: SearchBudget = SearchBudget(),
    tolerance: Optional[float] = None,
) -> VerificationReport:
    """Pointwise-multiplier bound ||m f||_gamma <= gamma({m(x)}) ||f||_gamma.

    multiplier_field: (n_nodes, n_out, n_in) matrices over physical nodes,
    (n_nodes,) scalars, or a symbol-like object exposing .values.  gamma
    is exact in the Hilbert case, else the search lower bound (flagged
    in the metadata).
    """
    if hasattr(multiplier_field, "values") and not isinstance(multiplier_field, np.ndarray):
        multiplier_field = multiplier_field.values
    field = np.asarray(multiplier_field, dtype=np.complex128)
    if field.ndim == 1:
        field = field[:, None, None] * np.eye(domain_space.dim)[None, :, :]
    if field.shape[0] != f.grid.n_nodes:
        raise DimensionMismatchError("multiplier field does not match the grid")
    if field.shape[2] != f.value_dim:
        raise DimensionMismatchError("multiplier input dimension mismatch")

    mapped = GridFunction(
        f.grid, np.einsum("noi,ni->no", field, f.samples), f.domain_tag
    )
    family = MatrixFamily(tuple(field), domain_space, codomain_space)
    gamma_hat, exact = gamma_bound_estimate(family, budget, sampler)

    lhs = gamma_function_norm(mapped, codomain_space, sampler, stream=10)
    rhs = gamma_function_norm(f, domain_space, sampler, stream=11)
    bound = gamma_hat * rhs.value
    if tolerance is None:
        rel = 0.0
        if lhs.value > 0:
            rel += lhs.std_error / lhs.value
        if rhs.value > 0:
            rel += rhs.std_error / rhs.value
        tolerance = 3.0 * rel + 1e-9
    return VerificationReport.build(
        measured=lhs.value,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "gamma_hat": gamma_hat,
            "gamma_exact": exact,
            "lhs": lhs.to_dict(),
            "rhs_norm": rhs.to_dict(),
            "seed": sampler.seed,
        },
    )


def check_lemma42(
    f: GridFunction,
    cube_side: float,
    p: float,
    q: float,
    space: ValueSpace,
    sampler: GaussianSampler,
    tolerance: Optional[float] = None,
) -> VerificationReport:
    """Two-sided band-limited comparison of L^p, gamma and L^q norms.

    For fhat supported in a cube of side (b-a):
      (1) ||f||_gamma <= tau_p (b-a)^(d(1/p-1/2)) ||f||_p
      (2) ||f||_q    <= c_q   (b-a)^(d(1/2-1/q)) ||f||_gamma
    The report carries the worse of the two ratios.  Inputs whose
    spectrum does not fit in a cube of the declared side are rejected.
    """
    if f.domain_tag != "physical":
        raise ValueError("expected a physical-domain function")
    d = f.grid.d

    from .spaces import dft as _dft

    fhat = _dft(f).samples
    power = np.sum(np.abs(fhat) ** 2, axis=1)
    occupied = power > 1e-24 * max(power.max(), 1e-300)
    coords = f.grid.frequency_coords()[occupied]
    if coords.size:
        extent = float((coords.max(axis=0) - coords.min(axis=0)).max())
        if extent > cube_side + 1e-9:
            raise ValueError(
                f"spectral support spans {extent:g} per axis, beyond the "
                f"declared cube side {cube_side:g}"
            )
    tau = space.type_constant(p)
    c = space.cotype_constant(q)

    gnorm = gamma_function_norm(f, space, sampler)
    pnorm = lp_norm(f, p, space)
    qnorm = lp_norm(f, q, space)

    bound1 = tau * cube_side ** (d * (1.0 / p - 0.5)) * pnorm
    exponent2 = 0.5 if np.isinf(q) else 0.5 - 1.0 / q
    bound2 = c * cube_side ** (d * exponent2) * gnorm.value

    ratio1 = gnorm.value / bound1 if bound1 > 0 else np.inf
    ratio2 = qnorm / bound2 if bound2 > 0 else np.inf

    if tolerance is None:
        rel = gnorm.std_error / gnorm.value if gnorm.value > 0 else 0.0
        tolerance = 3.0 * rel + 1e-9

    worse = max(ratio1, ratio2)
    measured, bound = (gnorm.value, bound1) if ratio1 >= ratio2 else (qnorm, bound2)
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "ratio_gamma_vs_lp": float(ratio1),
            "ratio_lq_vs_gamma": float(ratio2),
            "gamma_norm": gnorm.to_dict(),
            "lp_norm": pnorm,
            "lq_norm": qnorm,
            "cube_side": cube_side,
            "p": p,
            "q": "inf" if np.isinf(q) else q,
            "seed": sampler.seed,
        },
    )
