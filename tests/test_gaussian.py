import math
import tracemalloc

import numpy as np
import pytest

from besovlp import (
    GaussianSampler,
    GridFunction,
    GridSpec,
    MatrixFamily,
    SearchBudget,
    ValueSpace,
    check_gamma_multiplier,
    check_lemma42,
    cotype_constant_lower,
    dft,
    gamma_bound_hilbert,
    gamma_bound_lower,
    gamma_bound_search,
    gamma_function_norm,
    gaussian_moment,
    lp_norm,
    type_constant_lower,
)
from besovlp import gaussian
from besovlp.gaussian import (
    _OP_GAMMA,
    GammaSearchResult,
    _chunked_moment,
    _moment_from_draw,
    _top_right_singular_vector,
)
from besovlp.sampling import _complex_normals, _hill_climb
from besovlp.spaces import _lp_combine
from besovlp.testfunctions import random_band_limited, single_mode

BUDGET = SearchBudget(restarts=16, steps=60, max_vectors=8, search_samples=3000)


def within(est_value, expected, std_error, k=3.0, extra=0.0):
    return abs(est_value - expected) <= k * std_error + extra


# -- gaussian_moment ---------------------------------------------------------


def test_moment_single_vector(sampler):
    space = ValueSpace.lp(3.0, 4)
    x = np.array([1.0, -2.0, 0.5, 1.0])
    est = gaussian_moment([x], space, sampler)
    assert within(est.value, space.norm(x), est.std_error)


def test_moment_hilbert_orthogonality(sampler, rng):
    space = ValueSpace.hilbert(5)
    xs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    est = gaussian_moment(xs, space, sampler)
    expected = math.sqrt(sum(space.norm(x) ** 2 for x in xs))
    assert within(est.value, expected, est.std_error)


def test_moment_linf_matches_quadrature_oracle(sampler):
    # E max(|g1|,|g2|)^2 for complex standard gaussians: |g|^2 are iid
    # Exp(1), so 2-d Gauss-Laguerre quadrature of max(u, v) is the oracle
    nodes, weights = np.polynomial.laguerre.laggauss(120)
    u = nodes[:, None]
    v = nodes[None, :]
    w2 = weights[:, None] * weights[None, :]
    expected_sq = float(np.sum(w2 * np.maximum(u, v)))
    assert expected_sq == pytest.approx(1.5, abs=2e-3)  # closed form cross-check

    space = ValueSpace.lp(np.inf, 2)
    est = gaussian_moment([np.array([1.0, 0.0]), np.array([0.0, 1.0])], space, sampler)
    assert within(est.value, math.sqrt(expected_sq), est.std_error, extra=2e-3)


def test_moment_determinism(sampler):
    space = ValueSpace.hilbert(2)
    xs = [np.array([1.0, 2.0]), np.array([0.0, 1.0j])]
    a = gaussian_moment(xs, space, sampler)
    b = gaussian_moment(xs, space, sampler)
    assert a.value == b.value and a.std_error == b.std_error


def test_moment_from_draw_matches_the_mean_form_exactly(sampler, rng):
    space = ValueSpace.lp(1.5, 3)
    for n in (1000, 4000, 20000):
        g = sampler.complex_gaussians((n, 5), 1, n)
        vecs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        mean_form = float(np.sqrt(np.mean(space.norm_rows(g @ vecs) ** 2)))
        assert _moment_from_draw(vecs, g, space) == mean_form


def test_moment_rejects_empty(sampler):
    with pytest.raises(ValueError):
        gaussian_moment([], ValueSpace.scalar(), sampler)


# -- type / cotype -----------------------------------------------------------


def test_hilbert_type2_anchor(sampler):
    val = type_constant_lower(ValueSpace.hilbert(8), 2.0, BUDGET, sampler)
    assert abs(val - 1.0) < 0.03


def test_hilbert_cotype2_anchor(sampler):
    val = cotype_constant_lower(ValueSpace.hilbert(8), 2.0, BUDGET, sampler)
    assert abs(val - 1.0) < 0.03


def test_scalar_type1_two_equal_vectors_lower_bound(sampler):
    # two equal unit vectors give (E|g1+g2|^2)^(1/2) / 2 = sqrt(2)/2
    val = type_constant_lower(ValueSpace.scalar(), 1.0, BUDGET, sampler)
    assert val >= math.sqrt(2.0) / 2.0 - 0.01


@pytest.mark.parametrize("p_space", [1.0, 3.0, np.inf])
def test_type1_probe_never_exceeds_one(p_space, sampler):
    val = type_constant_lower(ValueSpace.lp(p_space, 4), 1.0, BUDGET, sampler)
    assert val <= 1.0 + 0.03


@pytest.mark.parametrize("p_space", [1.0, 3.0, np.inf])
def test_cotype_inf_probe_never_exceeds_one(p_space, sampler):
    val = cotype_constant_lower(ValueSpace.lp(p_space, 4), np.inf, BUDGET, sampler)
    assert val <= 1.0 + 0.03


def test_scalar_cotype2_closed_form(sampler):
    # scalar gaussian second moments make the cotype-2 ratio identically 1
    val = cotype_constant_lower(ValueSpace.scalar(), 2.0, BUDGET, sampler)
    assert abs(val - 1.0) < 0.03


def test_exponent_validation(sampler):
    with pytest.raises(ValueError):
        type_constant_lower(ValueSpace.scalar(), 2.5, BUDGET, sampler)
    with pytest.raises(ValueError):
        cotype_constant_lower(ValueSpace.scalar(), 1.5, BUDGET, sampler)


def _vector_family_reference(space, r, budget, sampler, op_code, moment_on_top):
    """The type/cotype search before it ran on the family climb: its own
    random start and move over bare vector stacks, each scored in full."""
    dim, Kmax = space.dim, budget.max_vectors
    g_all = gaussian._frozen_draw(sampler, budget, op_code)

    def ratio(vecs, moment):
        norm = _lp_combine(space.norm_rows(vecs), r)
        num, den = (moment, norm) if moment_on_top else (norm, moment)
        return den, num / den if den else None

    def start_one(i, rng):
        if i < 3:
            v = _complex_normals(rng, dim)
            v = v / np.linalg.norm(v)
            return (v[None, :], np.tile(v, (min(Kmax, 4), 1)),
                    np.eye(dim, dtype=np.complex128)[: min(Kmax, dim)])[i]
        return _complex_normals(rng, (int(rng.integers(1, Kmax + 1)), dim))

    def move(vecs, step, rng):
        trial = vecs.copy()
        idx = int(rng.integers(0, trial.shape[0]))
        trial[idx] = trial[idx] + step * _complex_normals(rng, dim)
        scale = np.max(space.norm_rows(trial))
        return trial / scale if scale > 0 else trial

    def score(vecs):
        den, value = ratio(vecs, _moment_from_draw(vecs, g_all[:, : vecs.shape[0]], space))
        return -np.inf if den == 0.0 else value

    [(_, best)] = _hill_climb(
        sampler, op_code, budget.restarts,
        lambda rngs: [start_one(i, rng) for i, rng in enumerate(rngs)],
        lambda states, step, rngs: [move(v, step, rng) for v, rng in zip(states, rngs)],
        lambda states: [score(v) for v in states], budget,
    )
    den, value = ratio(best, _chunked_moment(best, space, sampler, op_code, 1).value)
    return 0.0 if den == 0.0 else value


@pytest.mark.parametrize("restarts", [1, 2, 7])
def test_type_and_cotype_climb_as_the_bare_vector_family_search(restarts):
    # a one-member family draws no assignment word and never reassigns, so
    # the family climb takes the bare vector-family search's steps bit for bit
    budget = SearchBudget(restarts=restarts, steps=12, max_vectors=5, search_samples=1000)
    sampler = GaussianSampler(31, 1000)
    for space, r, on_top, lower in (
        (ValueSpace.lp(1.0, 3), 2.0, True, type_constant_lower),
        (ValueSpace.lp(3.0, 2), 1.5, True, type_constant_lower),
        (ValueSpace.lp(np.inf, 3), 2.0, False, cotype_constant_lower),
        (ValueSpace.lp(1.5, 4), np.inf, False, cotype_constant_lower),
    ):
        op_code = gaussian._OP_TYPE if on_top else gaussian._OP_COTYPE
        got = lower(space, r, budget, sampler)
        want = _vector_family_reference(space, r, budget, sampler, op_code, on_top)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


# -- gamma bounds ------------------------------------------------------------


def test_spectral_norms_of_a_stack(rng):
    # 3x3: the top singular value, bit for bit the per-member norm(m, 2);
    # 1x1: |z|, at most two ulps from LAPACK's 1x1 singular value
    mats = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
    per_member = np.array([np.linalg.norm(m, 2) for m in mats])
    assert np.array_equal(gaussian._spectral_norms(mats), per_member)
    scalars = mats[:, :1, :1]
    lapack = np.array([np.linalg.norm(m, 2) for m in scalars])
    got = gaussian._spectral_norms(scalars)
    assert np.array_equal(got, np.abs(scalars[:, 0, 0]))
    assert np.abs(got.view(np.int64) - lapack.view(np.int64)).max() <= 2


def test_gamma_bound_is_exact_between_hilbert_spaces_and_searched_otherwise(sampler, rng):
    mats = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    h, l1, l4 = ValueSpace.hilbert(2), ValueSpace.lp(1.0, 2), ValueSpace.lp(4.0, 2)
    budget = SearchBudget(restarts=3, steps=5, search_samples=1000)
    assert gaussian._gamma_bound(mats, h, h, budget, sampler) == (
        gamma_bound_hilbert(MatrixFamily(tuple(mats), h, h)), True)
    for X, Y in ((l1, l4), (h, l4), (l1, h)):
        assert gaussian._gamma_bound(mats, X, Y, budget, sampler) == (
            gamma_bound_lower(MatrixFamily(tuple(mats), X, Y), budget, sampler), False)
        assert gaussian._gamma_bound(mats[:0], X, Y, budget, sampler) == (0.0, False)
    assert gaussian._gamma_bound(mats[:0], h, h, budget, sampler) == (0.0, True)




def test_gamma_bound_scalar_multiple_of_identity(sampler):
    h = ValueSpace.hilbert(3)
    fam = MatrixFamily((2.5 * np.eye(3),), h, h)
    assert gamma_bound_hilbert(fam) == pytest.approx(2.5)
    low = gamma_bound_lower(fam, BUDGET, sampler)
    assert abs(low - 2.5) < 0.05


def test_gamma_bound_hilbert_diagonal_family(sampler, rng):
    h = ValueSpace.hilbert(4)
    mats = tuple(np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
                 for _ in range(3))
    fam = MatrixFamily(mats, h, h)
    expected = max(np.abs(np.diag(m)).max() for m in mats)
    assert gamma_bound_hilbert(fam) == pytest.approx(expected)
    low = gamma_bound_lower(fam, BUDGET, sampler)
    assert low <= expected * 1.02
    assert low >= expected * 0.93


def test_gamma_bound_hilbert_requires_hilbert():
    fam = MatrixFamily((np.eye(2),), ValueSpace.lp(1.0, 2), ValueSpace.hilbert(2))
    with pytest.raises(ValueError):
        gamma_bound_hilbert(fam)


def test_gamma_bound_l1_to_linf_beats_enumeration_oracle(sampler):
    # brute-force max over a fixed small enumeration of sign-pattern
    # vector families, scored with the same Monte-Carlo functional
    l1 = ValueSpace.lp(1.0, 2)
    linf = ValueSpace.lp(np.inf, 2)
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    fam = MatrixFamily((a, b), l1, linf)

    patterns = [np.array(v, dtype=np.complex128)
                for v in ([1, 0], [0, 1], [1, 1], [1, -1], [0.5, 0.5], [0.5, -0.5])]
    oracle = 0.0
    for t0 in range(2):
        for t1 in range(2):
            for x0 in patterns:
                for x1 in patterns:
                    num = gaussian_moment(
                        [fam.members[t0] @ x0, fam.members[t1] @ x1], linf, sampler
                    )
                    den = gaussian_moment([x0, x1], l1, sampler)
                    oracle = max(oracle, num.value / den.value)

    low = gamma_bound_lower(fam, BUDGET, sampler)
    assert low >= oracle * 0.97


def test_gamma_ratio_homogeneous_in_family(sampler):
    # exact power-of-two scaling keeps the whole search trace identical
    h = ValueSpace.hilbert(2)
    mats = (np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    fam = MatrixFamily(mats, h, h)
    fam2 = MatrixFamily(tuple(2.0 * m for m in mats), h, h)
    budget = SearchBudget(restarts=6, steps=30, search_samples=2000)
    v1 = gamma_bound_lower(fam, budget, sampler)
    v2 = gamma_bound_lower(fam2, budget, sampler)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_gamma_lower_never_exceeds_hilbert_exact(sampler, rng):
    h = ValueSpace.hilbert(3)
    mats = tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(2))
    fam = MatrixFamily(mats, h, h)
    assert gamma_bound_lower(fam, BUDGET, sampler) <= gamma_bound_hilbert(fam) * 1.02


def test_gamma_monotone_under_family_growth(sampler, rng):
    l4 = ValueSpace.lp(4.0, 2)
    l1 = ValueSpace.lp(1.0, 2)
    small = tuple(rng.standard_normal((2, 2)) for _ in range(2))
    extra = tuple(rng.standard_normal((2, 2)) for _ in range(2))
    fam_small = MatrixFamily(small, l1, l4)
    fam_big = MatrixFamily(small + extra, l1, l4)
    budget = SearchBudget(restarts=6, steps=30, search_samples=2000)
    r_small = gamma_bound_search(fam_small, budget, sampler)
    r_big = gamma_bound_search(fam_big, budget, sampler, warm_start=r_small)
    assert r_big.value >= r_small.value - 1e-12


# -- the search state carries its denominator --------------------------------


def _reference_gamma_search(family, budget, sampler, warm_start=None):
    """gamma_bound_search as it was before states carried their denominator:
    ratio_of recomputes the X-space moment of every state it scores."""
    X, Y = family.domain_space, family.codomain_space
    n_in, n_members, Kmax = family.n_in, len(family), budget.max_vectors
    n_search = min(budget.search_samples, sampler.n_samples)
    g_all = sampler.complex_gaussians((n_search, Kmax), _OP_GAMMA, 0)
    members = np.stack(family.members)

    def ratio_of(state):
        assignment, vectors = state
        g = g_all[:, : vectors.shape[0]]
        den = _moment_from_draw(vectors, g, X)
        if den == 0.0:
            return -np.inf
        mapped = np.einsum("koi,ki->ko", members[assignment], vectors)
        return _moment_from_draw(mapped, g, Y) / den

    configs = [(np.array([j]), _top_right_singular_vector(family.members[j])[None, :])
               for j in range(min(n_members, 8))]
    if n_in >= 2 and Kmax >= 2:
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
        configs.append((warm_start.assignment.copy(),
                        np.array(warm_start.vectors, dtype=np.complex128)))

    def start_one(i, rng):
        if i < len(configs):
            return configs[i]
        K = int(rng.integers(1, Kmax + 1))
        assignment = rng.integers(0, n_members, size=K)
        return assignment, _complex_normals(rng, (K, n_in))

    def move(state, step, rng):
        trial_a, trial_v = state[0].copy(), state[1].copy()
        idx = int(rng.integers(0, trial_v.shape[0]))
        if n_members > 1 and rng.random() < 0.2:
            trial_a[idx] = rng.integers(0, n_members)
        else:
            trial_v[idx] = trial_v[idx] + step * _complex_normals(rng, n_in)
            scale = np.max(X.norm_rows(trial_v))
            if scale > 0:
                trial_v = trial_v / scale
        return trial_a, trial_v

    [(_, best)] = _hill_climb(
        sampler, _OP_GAMMA, len(configs) + budget.restarts,
        lambda rngs: [start_one(i, rng) for i, rng in enumerate(rngs)],
        lambda states, step, rngs: [move(st, step, rng) for st, rng in zip(states, rngs)],
        lambda states: [ratio_of(st) for st in states], budget,
    )
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


def _assert_same_bits(got, want):
    assert np.float64(got.value).view(np.int64) == np.float64(want.value).view(np.int64)
    assert np.array_equal(got.assignment, want.assignment)
    assert got.assignment.dtype == want.assignment.dtype
    assert np.array_equal(np.ascontiguousarray(got.vectors).view(np.int64),
                          np.ascontiguousarray(want.vectors).view(np.int64))


def _benchmark_family(seed=0):
    # the first 16-member random 3x3 l^1 -> l^inf family of the gamma-search benchmark
    rng = np.random.default_rng(seed)
    return MatrixFamily(tuple(rng.standard_normal((3, 3)) for _ in range(16)),
                        ValueSpace.lp(1.0, 3), ValueSpace.lp(np.inf, 3))


BENCH_BUDGET = SearchBudget(restarts=2, steps=5)
BENCH_SAMPLER = GaussianSampler(4242)
SMALL_SAMPLER = GaussianSampler(7, 2000)
L1_2, L4_2 = ValueSpace.lp(1.0, 2), ValueSpace.lp(4.0, 2)


def test_carried_denominator_matches_the_reference_on_the_benchmark_family():
    fam = _benchmark_family()
    _assert_same_bits(gamma_bound_search(fam, BENCH_BUDGET, BENCH_SAMPLER),
                      _reference_gamma_search(fam, BENCH_BUDGET, BENCH_SAMPLER))


@pytest.mark.parametrize("restarts", [0, 2, 8])
@pytest.mark.parametrize("steps", [0, 5, 20])
def test_carried_denominator_matches_the_reference_over_budgets(restarts, steps):
    fam = _benchmark_family(1)
    budget = SearchBudget(restarts=restarts, steps=steps, search_samples=500)
    _assert_same_bits(gamma_bound_search(fam, budget, SMALL_SAMPLER),
                      _reference_gamma_search(fam, budget, SMALL_SAMPLER))


@pytest.mark.parametrize("case", ["one member", "n_in = 1", "max_vectors = 1", "warm start"])
def test_carried_denominator_matches_the_reference(case):
    rng = np.random.default_rng(5)
    budget = SearchBudget(restarts=4, steps=12, search_samples=500)
    warm = None
    if case == "one member":
        fam = MatrixFamily((rng.standard_normal((2, 2)),), L1_2, L4_2)
    elif case == "n_in = 1":
        fam = MatrixFamily(tuple(rng.standard_normal((2, 1)) for _ in range(5)),
                           ValueSpace.lp(1.0, 1), L4_2)
    elif case == "max_vectors = 1":
        fam = MatrixFamily(tuple(rng.standard_normal((2, 2)) for _ in range(5)), L1_2, L4_2)
        budget = SearchBudget(restarts=4, steps=12, max_vectors=1, search_samples=500)
    else:
        mats = tuple(rng.standard_normal((2, 2)) for _ in range(6))
        warm = gamma_bound_search(MatrixFamily(mats[:3], L1_2, L4_2), budget, SMALL_SAMPLER)
        fam = MatrixFamily(mats, L1_2, L4_2)
    _assert_same_bits(gamma_bound_search(fam, budget, SMALL_SAMPLER, warm),
                      _reference_gamma_search(fam, budget, SMALL_SAMPLER, warm))


def _count_moments(monkeypatch, family, budget, sampler, warm_start=None):
    """(X-space moments, Y-space moments, random vector draws) of one search."""
    counts = {"X": 0, "Y": 0, "draws": 0}

    def moment(vectors, g, space):
        counts["X" if space is family.domain_space else "Y"] += 1
        return _moment_from_draw(vectors, g, space)

    def normals(rng, shape):
        counts["draws"] += 1
        return _complex_normals(rng, shape)

    monkeypatch.setattr(gaussian, "_moment_from_draw", moment)
    monkeypatch.setattr(gaussian, "_complex_normals", normals)
    gamma_bound_search(family, budget, sampler, warm_start)
    monkeypatch.undo()
    return counts["X"], counts["Y"], counts["draws"]


def test_benchmark_search_computes_756_moments_instead_of_888(monkeypatch):
    # 74 starts scored 6 times is 444 numerators; the denominators: 8
    # singular vectors, 4 pair stacks, 2 restarts and one per vector move
    for seed in range(3):
        n_x, n_y, draws = _count_moments(monkeypatch, _benchmark_family(seed),
                                         BENCH_BUDGET, BENCH_SAMPLER)
        assert n_y == 444
        assert n_x + n_y == 756
        # every restart start and every vector move draws once
        assert n_x == 8 + 4 + draws


@pytest.mark.parametrize("warm", [False, True])
def test_only_distinct_stacks_restarts_and_vector_moves_compute_a_denominator(
        monkeypatch, warm):
    rng = np.random.default_rng(11)
    mats = tuple(rng.standard_normal((2, 2)) for _ in range(6))
    budget = SearchBudget(restarts=3, steps=15, search_samples=500)
    warm_start = (gamma_bound_search(MatrixFamily(mats[:2], L1_2, L4_2), budget, SMALL_SAMPLER)
                  if warm else None)
    fam = MatrixFamily(mats, L1_2, L4_2)
    n_x, n_y, draws = _count_moments(monkeypatch, fam, budget, SMALL_SAMPLER, warm_start)
    n_starts = 6 + 4 * 4 * 4 + warm + 3
    assert n_y == n_starts * (budget.steps + 1)
    # draws counts the restart starts and the vector moves; the
    # assignment-only moves, about a fifth of all, add no X-space moment
    assert n_x == 6 + 4 + warm + draws
    assert n_x < n_y - n_starts * budget.steps // 10


def test_one_member_search_moves_only_vectors(monkeypatch):
    # a one-member family has no assignment moves and 1 + 4 distinct stacks,
    # so every scored state computes its own denominator
    fam = MatrixFamily((np.array([[1.0, 2.0], [0.5, -1.0]]),), L1_2, L4_2)
    budget = SearchBudget(restarts=3, steps=10, search_samples=500)
    n_x, n_y, _ = _count_moments(monkeypatch, fam, budget, SMALL_SAMPLER)
    assert n_x == n_y == (5 + 3) * 11


def test_gaussian_search_over_the_draw_cap_is_refused_before_allocating():
    # 2^20 samples x 2^20 vectors would take 16 TiB
    fam = MatrixFamily((np.eye(2),), L1_2, L4_2)
    budget = SearchBudget(max_vectors=2**20, search_samples=2**20)
    sampler = GaussianSampler(0, 2**20)
    tracemalloc.start()
    try:
        for search in (lambda: gamma_bound_search(fam, budget, sampler),
                       lambda: type_constant_lower(L4_2, 1.5, budget, sampler)):
            with pytest.raises(ValueError, match="1048576 samples x 1048576 vectors") as exc:
                search()
            assert "\n" not in str(exc.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gaussian_search_over_the_generator_cap_is_refused_before_allocating():
    # 10^7 starts would build about 16 GB of random generators up front
    fam = MatrixFamily((np.eye(2),), L1_2, L4_2)
    budget = SearchBudget(restarts=10**7, search_samples=100, max_vectors=2)
    tracemalloc.start()
    try:
        for search in (lambda: gamma_bound_search(fam, budget, SMALL_SAMPLER),
                       lambda: type_constant_lower(L4_2, 1.5, budget, SMALL_SAMPLER)):
            with pytest.raises(ValueError, match="random generators") as exc:
                search()
            assert "\n" not in str(exc.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- gamma function norms ----------------------------------------------------


def test_gamma_function_norm_hilbert_equals_l2(sampler, rng, grid64):
    space = ValueSpace.hilbert(2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    est = gamma_function_norm(f, space, sampler)
    assert within(est.value, lp_norm(f, 2.0, space), est.std_error)


def test_gamma_function_norm_finite_rank_formula(sampler):
    # orthonormal step functions h_k on disjoint blocks: the norm reduces
    # to the gaussian moment of the coefficient vectors
    grid = GridSpec(1, 64, 1.0)
    space = ValueSpace.lp(np.inf, 3)
    rng = np.random.default_rng(42)
    xs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    samples = np.zeros((64, 3), dtype=np.complex128)
    blocks = [slice(0, 16), slice(16, 32), slice(32, 48)]
    measure = 16.0 / 64.0
    for hk, x in zip(blocks, xs):
        samples[hk] = x / math.sqrt(measure)  # normalized indicator times x
    f = GridFunction(grid, samples)
    est = gamma_function_norm(f, space, sampler)
    ref = gaussian_moment(xs, space, sampler)
    tol = 3.0 * (est.std_error + ref.std_error)
    assert abs(est.value - ref.value) <= tol


def test_gamma_function_norm_fourier_invariance(sampler, rng, grid64):
    space = ValueSpace.lp(4.0, 2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    a = gamma_function_norm(f, space, sampler)
    b = gamma_function_norm(dft(f), space, sampler)
    assert abs(a.value - b.value) <= 3.0 * (a.std_error + b.std_error)


def test_gamma_function_norm_ideal_property(sampler, rng, grid64):
    # post-composition with a fixed matrix R: norm grows at most by ||R||
    space = ValueSpace.hilbert(2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    r = rng.standard_normal((2, 2))
    rf = GridFunction(grid64, f.samples @ r.T)
    a = gamma_function_norm(rf, space, sampler)
    b = gamma_function_norm(f, space, sampler)
    opnorm = np.linalg.norm(r, 2)
    assert a.value <= opnorm * b.value + 3.0 * (a.std_error + opnorm * b.std_error)


# -- multiplier and band-limit checks ---------------------------------------


def test_gamma_multiplier_identity(sampler, rng, grid64):
    space = ValueSpace.hilbert(2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    field = np.tile(np.eye(2, dtype=np.complex128), (64, 1, 1))
    rep = check_gamma_multiplier(field, f, space, space, sampler)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=0.05)


def test_gamma_multiplier_kahane_contraction(sampler, rng, grid64):
    # scalar field with |m| <= 1 contracts the gamma norm
    space = ValueSpace.lp(1.0, 2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    field = rng.uniform(0.2, 1.0, size=64) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
    mapped = GridFunction(grid64, field[:, None] * f.samples)
    a = gamma_function_norm(mapped, space, sampler)
    b = gamma_function_norm(f, space, sampler)
    assert a.value <= b.value + 3.0 * (a.std_error + b.std_error)


def test_gamma_multiplier_hilbert_diagonal(sampler, rng, grid64):
    space = ValueSpace.hilbert(2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    diags = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    field = np.zeros((64, 2, 2), dtype=np.complex128)
    field[:, 0, 0] = diags[:, 0]
    field[:, 1, 1] = diags[:, 1]
    rep = check_gamma_multiplier(field, f, space, space, sampler)
    assert rep.passed
    assert rep.metadata["gamma_exact"] is True
    assert rep.metadata["gamma_hat"] == pytest.approx(np.abs(diags).max())
    # exact Hilbert gamma-norms via the L2 identities
    mapped = GridFunction(grid64, diags * f.samples)
    exact_ratio = lp_norm(mapped, 2.0, space) / (
        np.abs(diags).max() * lp_norm(f, 2.0, space)
    )
    assert rep.ratio == pytest.approx(exact_ratio, abs=0.03)


def test_lemma42_hilbert_p2_q2_tight(sampler, rng, grid64):
    space = ValueSpace.hilbert(2)
    from besovlp import build_partition

    part = build_partition(grid64)
    mask = part.band_limit_mask()
    f = random_band_limited(grid64, mask, rng, dim=2)
    rep = check_lemma42(f, cube_side=32.0, p=2.0, q=2.0, space=space, sampler=sampler)
    assert rep.passed
    assert rep.metadata["ratio_gamma_vs_lp"] == pytest.approx(1.0, abs=0.02)
    assert rep.metadata["ratio_lq_vs_gamma"] == pytest.approx(1.0, abs=0.02)


def test_lemma42_single_mode_closed_form(sampler):
    # single mode: ||f||_4 = |c| and (b-a)^(d/4) ||f||_2 = (b-a)^(1/4) |c|
    grid = GridSpec(1, 64, 1.0)
    f = single_mode(grid, [3], amplitude=2.0)
    side = 16.0
    rep = check_lemma42(f, cube_side=side, p=2.0, q=4.0,
                        space=ValueSpace.scalar(), sampler=sampler)
    assert rep.passed
    # closed form: a unimodular mode has ||f||_4 = ||f||_2 = |c| at L = 1,
    # so the second ratio is exactly side^(-1/4)
    assert lp_norm(f, 4.0) == pytest.approx(2.0, rel=1e-12)
    assert rep.metadata["ratio_lq_vs_gamma"] == pytest.approx(side ** -0.25, abs=0.02)


def test_lemma42_scalar_type1(sampler, rng):
    grid = GridSpec(1, 64, 1.0)
    from besovlp import build_partition

    part = build_partition(grid)
    for _ in range(5):
        f = random_band_limited(grid, part.band_limit_mask(), rng)
        rep = check_lemma42(f, cube_side=32.0, p=1.0, q=np.inf,
                            space=ValueSpace.scalar(), sampler=sampler)
        assert rep.passed


def test_lemma42_rejects_support_violation(sampler):
    grid = GridSpec(1, 64, 1.0)
    f = single_mode(grid, [20]) + single_mode(grid, [-20])
    with pytest.raises(ValueError):
        check_lemma42(f, cube_side=8.0, p=2.0, q=2.0,
                      space=ValueSpace.scalar(), sampler=sampler)


def test_gamma_multiplier_kahane_report_on_l1(sampler, rng, grid64):
    # the scalar-contraction example through the report machinery on a
    # non-Hilbert space: |m| <= 1 pointwise keeps the ratio at most 1
    space = ValueSpace.lp(1.0, 2)
    f = GridFunction(grid64, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    field = rng.uniform(0.3, 1.0, size=64) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
    rep = check_gamma_multiplier(field, f, space, space, sampler,
                                 budget=SearchBudget(restarts=8, steps=40,
                                                     search_samples=2000))
    assert rep.metadata["gamma_exact"] is False
    assert rep.passed
