"""Monte-Carlo Gaussian sums: type/cotype constants, gamma-bounds and
gamma-radonifying norms.

Exact gamma-bounds are intractable outside the Hilbert case, so the
estimators here return certified lower bounds found by randomized
search: the type, cotype and gamma searches share one climb over finite
vector families (``_family_climb``: structured and random starts plus
one-vector moves on the prefix-stable schedule of
``sampling._hill_climb``).  Between Hilbert spaces the gamma-bound
collapses to the uniform operator-norm bound, the largest spectral
norm; ``_gamma_bound`` is the one place that picks that exact value or
the search.  Searches climb against a frozen Gaussian draw and the winning
witness is re-scored on a fresh, larger draw, so reported values carry
plain Monte-Carlo error and no selection bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reports import VerificationReport
from .sampling import (
    GaussianSampler,
    MCEstimate,
    SearchBudget,
    _check_search_bytes,
    _complex_normals,
    _gaussian_blocks,
    _hill_climb,
)
from .spaces import DimensionMismatchError, GridFunction, ValueSpace, dft, lp_norm, _lp_combine

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

# a chunk is streamed in blocks of max(_MIN_BLOCK_ROWS, _BLOCK_ENTRIES // K)
# rows of K draws (2 MB of complex numbers).  The installed OpenBLAS gives
# the rows of g[a:b] @ v the bits of those rows of g @ v over blocks of at
# least _MIN_BLOCK_ROWS rows (a test pins it), while a product of one row
# takes another path and may round differently
_BLOCK_ENTRIES = 2**17
_MIN_BLOCK_ROWS = 256


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


def _block_edges(c: int, K: int) -> list:
    """Row edges of the blocks _chunked_moment streams a chunk of c rows of
    K draws in: blocks of max(_MIN_BLOCK_ROWS, _BLOCK_ENTRIES // K) rows, a
    tail of fewer than _MIN_BLOCK_ROWS rows joining the block before it,
    and the whole chunk as one block when it holds at most two."""
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_ENTRIES // max(K, 1))
    if c <= 2 * rows:
        return [0, c]
    edges = list(range(0, c, rows))
    if c - edges[-1] < _MIN_BLOCK_ROWS:
        edges.pop()
    return edges + [c]


def _chunked_moment(
    vectors: np.ndarray,
    space: ValueSpace,
    sampler: GaussianSampler,
    op_code: int,
    stream: int,
) -> MCEstimate:
    """MC estimate of (E || sum_k gamma_k x_k ||^2)^(1/2) for rows x_k.

    The n x K Gaussians are drawn in chunks of at most _CHUNK_ENTRIES, each
    the (c, K) draw of sampling._gaussian_blocks: all its real parts, then
    all its imaginary parts, streamed in the row blocks of _block_edges.
    Each block's rows are summed against the x_k and normed, and their
    squared norms are summed once per chunk, so the estimate has the bits
    of one (c, K) draw per chunk while a chunk of several blocks holds
    about 8 c K bytes plus one block.  norm_rows runs once per block, so
    a custom norm oracle is called on each block's rows: an oracle is
    row-wise, the norm of a row depending on that row only.
    """
    K = vectors.shape[0]
    n = sampler.n_samples
    rng = sampler.generator(op_code, stream)
    chunk = max(1, min(n, _CHUNK_ENTRIES // max(K, 1)))
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < n:
        c = min(chunk, n - done)
        parts = [space.norm_rows(block @ vectors) ** 2
                 for block in _gaussian_blocks(rng, (c, K), _block_edges(c, K))]
        r2 = parts[0] if len(parts) == 1 else np.concatenate(parts)
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


def _frozen_draw(sampler: GaussianSampler, budget: SearchBudget, op_code: int) -> np.ndarray:
    """The (min(search_samples, n_samples), max_vectors) draw a search climbs against.

    A draw over _SEARCH_BYTES_CAP is refused before it is allocated.
    """
    shape = (min(budget.search_samples, sampler.n_samples), budget.max_vectors)
    # 24 bytes an entry: the draw holds its real parts beside the complex
    # array while it draws the imaginary parts
    _check_search_bytes(shape[0] * shape[1] * 24, "Gaussian search",
                        f"{shape[0]} samples x {shape[1]} vectors", "frozen draw",
                        "budget.search_samples or budget.max_vectors")
    return sampler.complex_gaussians(shape, op_code, 0)


# ---------------------------------------------------------------------------
# the family climb: type, cotype and gamma searches
# ---------------------------------------------------------------------------


def _family_climb(X: ValueSpace, n_members: int, moment, starts, score, n_starts: int,
                  budget: SearchBudget, sampler: GaussianSampler, op_code: int) -> tuple:
    """Best state of a _hill_climb over finite families of vectors in X,
    each vector assigned one of n_members members.

    A state is (assignment, vectors, moment(vectors)): a member index per
    vector, the (K, X.dim) vectors, and the moment the state carries.
    Start i is starts(i, rng) or, where that is None, a random family: K
    in 1..budget.max_vectors, K uniform member indices and complex normal
    vectors.  A move picks one vector; with several members it reassigns
    that vector's member with probability 0.2, keeping the vectors and
    their moment, and otherwise adds step times complex normals to the
    vector, rescales the family by its largest norm in X and recomputes
    the moment.  With one member the assignment draws nothing, so a
    one-member family draws as a bare vector family.  score(state) is
    the climbed value.
    """
    def start(i, rng):
        state = starts(i, rng)
        if state is None:
            K = int(rng.integers(1, budget.max_vectors + 1))
            assignment = rng.integers(0, n_members, size=K)
            vectors = _complex_normals(rng, (K, X.dim))
            state = assignment, vectors, moment(vectors)
        return state

    def move(state, step, rng):
        assignment, vectors, carried = state
        idx = int(rng.integers(0, vectors.shape[0]))
        if n_members > 1 and rng.random() < 0.2:
            trial_a = assignment.copy()
            trial_a[idx] = rng.integers(0, n_members)
            return trial_a, vectors, carried
        trial_v = vectors.copy()
        trial_v[idx] = trial_v[idx] + step * _complex_normals(rng, X.dim)
        scale = np.max(X.norm_rows(trial_v))
        if scale > 0:
            trial_v = trial_v / scale
        return assignment, trial_v, moment(trial_v)

    [(_, best)] = _hill_climb(
        sampler, op_code, n_starts,
        lambda rngs: [start(i, rng) for i, rng in enumerate(rngs)],
        lambda states, step, rngs: [move(s, step, rng) for s, rng in zip(states, rngs)],
        lambda states: [score(s) for s in states], budget,
    )
    return best


def _moment_from_draw(vectors: np.ndarray, g: np.ndarray, space: ValueSpace) -> float:
    r2 = space.norm_rows(g @ vectors) ** 2
    # sum / size is np.mean's arithmetic without its per-call overhead
    return float(np.sqrt(r2.sum() / r2.size))


def _moment_ratio_lower(space: ValueSpace, r: float, budget: SearchBudget,
                        sampler: GaussianSampler, op_code: int, moment_on_top: bool) -> float:
    """Largest ratio found between the moment (E||sum gamma_k x_k||^2)^(1/2)
    and (sum ||x_k||^r)^(1/r) over finite families, the moment on top or
    below; the winner is re-scored on a fresh draw.  The families are
    one-member families of the family climb, whose states carry their
    moment on the frozen draw.  The three structured starts (a single
    vector, aligned copies, the coordinate family) count inside
    budget.restarts, which must be >= 1.  A zero denominator scores -inf
    in the climb, and the fresh ratio over it is 0.0.
    """
    if budget.restarts < 1:
        raise ValueError(f"type/cotype searches need restarts >= 1, got {budget.restarts}")
    dim, Kmax = space.dim, budget.max_vectors
    g_all = _frozen_draw(sampler, budget, op_code)

    def moment(vectors):
        return _moment_from_draw(vectors, g_all[:, : vectors.shape[0]], space)

    def starts(i, rng):
        if i >= 3:
            return None
        v = _complex_normals(rng, dim)
        v = v / np.linalg.norm(v)
        vectors = (v[None, :], np.tile(v, (min(Kmax, 4), 1)),
                   np.eye(dim, dtype=np.complex128)[: min(Kmax, dim)])[i]
        return np.zeros(len(vectors), dtype=int), vectors, moment(vectors)

    def ratio(moment_value, vectors, zero):
        norm = _lp_combine(space.norm_rows(vectors), r)
        num, den = (moment_value, norm) if moment_on_top else (norm, moment_value)
        return zero if den == 0.0 else num / den

    _, best, _ = _family_climb(space, 1, moment, starts, lambda s: ratio(s[2], s[1], -np.inf),
                               budget.restarts, budget, sampler, op_code)
    return ratio(_chunked_moment(best, space, sampler, op_code, 1).value, best, 0.0)


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
    return _moment_ratio_lower(space, p, budget, sampler, _OP_TYPE, moment_on_top=True)


def cotype_constant_lower(
    space: ValueSpace,
    q: float,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
) -> float:
    """Certified lower bound on the Gaussian cotype-q constant (q=inf uses max)."""
    if not (2.0 <= q):
        raise ValueError(f"cotype exponent must lie in [2, inf], got {q}")
    return _moment_ratio_lower(space, q, budget, sampler, _OP_COTYPE, moment_on_top=False)


# ---------------------------------------------------------------------------
# gamma-bounds of operator families
# ---------------------------------------------------------------------------


@dataclass
class GammaSearchResult:
    """Best witness of the gamma-boundedness ratio found by the search."""

    value: float
    assignment: np.ndarray  # member index per slot
    vectors: np.ndarray     # (K, n_in)


def _spectral_norms(values: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a (n, n_out, n_in) stack: |z| of
    a 1x1 matrix, else its largest singular value."""
    if values.shape[1:] == (1, 1):
        return np.abs(values[:, 0, 0])
    return np.linalg.svd(values, compute_uv=False)[:, 0]


def gamma_bound_hilbert(family: MatrixFamily) -> float:
    """Exact gamma-bound between Hilbert spaces: max spectral norm."""
    if not (family.domain_space.is_hilbert and family.codomain_space.is_hilbert):
        raise ValueError("gamma_bound_hilbert is exact only between Hilbert spaces")
    return float(_spectral_norms(np.stack(family.members)).max())


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
) -> GammaSearchResult:
    """Randomized maximizer of the gamma-boundedness ratio.

    The climb scores configurations (member assignment + vectors) against
    one frozen Gaussian draw; numerator and denominator share the draw,
    so the ratio is exactly 1-homogeneous in the family.  The denominator
    depends on the vectors only, so each state carries it: it is computed
    once per distinct structured vector stack, once per restart, and once
    per vector move, while an assignment-only move keeps its state's
    vectors and denominator and is scored by its numerator alone.  The
    final value is the fresh-draw score of the best configuration.  A
    frozen draw of more than _SEARCH_BYTES_CAP (1 GiB) is refused before
    it is allocated.
    """
    X, Y = family.domain_space, family.codomain_space
    n_in = family.n_in
    n_members = len(family)
    Kmax = budget.max_vectors
    g_all = _frozen_draw(sampler, budget, _OP_GAMMA)

    members = np.stack(family.members)  # (M, n_out, n_in)

    def den_of(vectors):
        return _moment_from_draw(vectors, g_all[:, : vectors.shape[0]], X)

    def ratio_of(state):
        assignment, vectors, den = state
        if den == 0.0:
            return -np.inf
        mapped = np.einsum("koi,ki->ko", members[assignment], vectors)
        return _moment_from_draw(mapped, g_all[:, : vectors.shape[0]], Y) / den

    # a state is (assignment, vectors, den of the vectors)
    configs = []
    # structured starts: each member on its own top singular direction,
    # then, when the budget allows two vectors, member pairs on canonical
    # and sign-pattern vector pairs; the pair configs share 4 vector stacks
    for j in range(min(n_members, 8)):
        vectors = _top_right_singular_vector(family.members[j])[None, :]
        configs.append((np.array([j]), vectors, den_of(vectors)))
    if n_in >= 2 and Kmax >= 2:
        e1 = np.zeros(n_in, dtype=np.complex128)
        e2 = np.zeros(n_in, dtype=np.complex128)
        e1[0] = 1.0
        e2[1] = 1.0
        pairs = [(e1, e2), ((e1 + e2) / 2.0, (e1 - e2) / 2.0), (e1, e1), (e2, e2)]
        stacks = [(v, den_of(v)) for v in map(np.stack, pairs)]
        for i in range(min(n_members, 4)):
            for j in range(min(n_members, 4)):
                for vectors, den in stacks:
                    configs.append((np.array([i, j]), vectors, den))

    assignment, vectors, _ = _family_climb(
        X, n_members, den_of, lambda i, rng: configs[i] if i < len(configs) else None,
        ratio_of, len(configs) + budget.restarts, budget, sampler, _OP_GAMMA)
    den = _chunked_moment(vectors, X, sampler, _OP_GAMMA, 1)
    mapped = np.einsum("koi,ki->ko", members[assignment], vectors)
    num = _chunked_moment(mapped, Y, sampler, _OP_GAMMA, 2)
    value = num.value / den.value if den.value > 0 else 0.0
    return GammaSearchResult(value=value, assignment=assignment, vectors=vectors)


def gamma_bound_lower(
    family: MatrixFamily,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
) -> float:
    """Lower bound on the gamma-bound of the family (exactness only in Hilbert)."""
    return gamma_bound_search(family, budget, sampler).value


def _gamma_bound(values: np.ndarray, X: ValueSpace, Y: ValueSpace, budget: SearchBudget,
                 sampler: GaussianSampler) -> tuple:
    """(gamma_hat, exact) of the family of matrices X -> Y in a (n, n_out,
    n_in) stack: between Hilbert spaces the exact gamma-bound, the largest
    spectral norm, else the search lower bound of gamma_bound_lower.  An
    empty stack has gamma-bound 0."""
    exact = X.is_hilbert and Y.is_hilbert
    if not len(values):
        return 0.0, exact
    if exact:
        return float(_spectral_norms(values).max()), True
    return gamma_bound_lower(MatrixFamily(tuple(values), X, Y), budget, sampler), False


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
) -> VerificationReport:
    """Pointwise-multiplier bound ||m f||_gamma <= gamma({m(x)}) ||f||_gamma.

    multiplier_field: (n_nodes, n_out, n_in) matrices over physical nodes,
    (n_nodes,) scalars, or a symbol-like object exposing .values.  gamma
    is exact in the Hilbert case, else the search lower bound (flagged
    in the metadata).  The tolerance is three Monte-Carlo standard errors
    of the two gamma norms, relative, plus 1e-9.
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
    gamma_hat, exact = _gamma_bound(field, domain_space, codomain_space, budget, sampler)

    lhs = gamma_function_norm(mapped, codomain_space, sampler, stream=10)
    rhs = gamma_function_norm(f, domain_space, sampler, stream=11)
    bound = gamma_hat * rhs.value
    rel = 0.0
    if lhs.value > 0:
        rel += lhs.std_error / lhs.value
    if rhs.value > 0:
        rel += rhs.std_error / rhs.value
    return VerificationReport.build(
        measured=lhs.value,
        bound=bound,
        tolerance=3.0 * rel + 1e-9,
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
) -> VerificationReport:
    """Two-sided band-limited comparison of L^p, gamma and L^q norms.

    For fhat supported in a cube of side (b-a):
      (1) ||f||_gamma <= tau_p (b-a)^(d(1/p-1/2)) ||f||_p
      (2) ||f||_q    <= c_q   (b-a)^(d(1/2-1/q)) ||f||_gamma
    The report carries the worse of the two ratios, with a tolerance of
    three relative Monte-Carlo standard errors of the gamma norm plus
    1e-9.  Inputs whose spectrum does not fit in a cube of the declared
    side are rejected.
    """
    if f.domain_tag != "physical":
        raise ValueError("expected a physical-domain function")
    d = f.grid.d
    fhat = dft(f).samples
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

    rel = gnorm.std_error / gnorm.value if gnorm.value > 0 else 0.0
    measured, bound = (gnorm.value, bound1) if ratio1 >= ratio2 else (qnorm, bound2)
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=3.0 * rel + 1e-9,
        metadata={
            "ratio_gamma_vs_lp": float(ratio1),
            "ratio_lq_vs_gamma": float(ratio2),
            "gamma_norm": gnorm.to_dict(),
            "lp_norm": pnorm,
            "lq_norm": qnorm,
            "cube_side": cube_side,
            "p": p,
            "q": q,
            "seed": sampler.seed,
        },
    )
