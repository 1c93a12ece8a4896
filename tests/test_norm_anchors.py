"""Exact L^p -> L^q multiplier norms on the periodic grid, as anchors for the
witness search.

With the kernel K = idft(m), a multiplier acts as the convolution
T f(x) = h * sum_y K(x - y) f(y), h the cell volume, and several of its
norms have closed forms, each attained by a real witness:

* scalar symbol: ||T||_{1->q} = ||K||_q (a delta) and
  ||T||_{p->inf} = ||K||_{p'} (the dual function conj(K(-y)) |K(-y)|^(p'-2));
* a 2x2 symbol between l^2 value spaces: ||T||_{1->inf} = max_x ||K(x)||_op
  and ||T||_{1->2} = sqrt of the largest eigenvalue of h * sum_x K(x)* K(x)
  (a delta times the top right singular vector, or the top eigenvector).

A search estimate is a lower bound, so it may not exceed its anchor.  How
far below it stays is the search's shortfall.  Measured at d = 1, N = 64 on
the symbols below, with GaussianSampler(3), as estimate / anchor:

* scalar 1 -> q (q = 1, 2, 3, inf): 1 at every budget, through the flat
  start, which is a delta;
* scalar p -> inf, symbol seeds 0 / 1: at 0x0, 0.514 / 0.646 (p = 1.5),
  0.283 / 0.369 (p = 2), 0.241 / 0.298 (p = 4); at 8x40, 0.518 / 0.646,
  0.504 / 0.513, 0.471 / 0.482; at the default 64x200, 0.619 / 0.678,
  0.650 / 0.610, 0.608 / 0.603;
* 2x2 l^2, symbol seeds 10 / 11: 1 -> inf 0.840 / 0.721 and 1 -> 2
  0.951 / 0.939, the same at 0x0, 4x20 and 8x40.

These ratios are a baseline for better witnesses (power iteration,
extremal starts) to raise, not bounds that the tests check.
"""

import numpy as np
import pytest

from besovlp import (
    GaussianSampler,
    GridFunction,
    GridSpec,
    OperatorSymbol,
    SearchBudget,
    ValueSpace,
    apply_multiplier,
    estimate_multiplier_norm,
    idft,
    lp_norm,
    scalar_symbol,
)

GRID = GridSpec(1, 64, 1.0)
BUDGETS = [SearchBudget(restarts=0, steps=0), SearchBudget(restarts=4, steps=20),
           SearchBudget(restarts=8, steps=40)]
SAMPLER = GaussianSampler(3)
HILBERT = ValueSpace.hilbert(2)
ROUNDING = 1e-12


def _scalar(seed):
    rng = np.random.default_rng(seed)
    return scalar_symbol(GRID, rng.standard_normal(GRID.n_nodes)
                         + 1j * rng.standard_normal(GRID.n_nodes))


def _matrix(seed):
    rng = np.random.default_rng(seed)
    shape = (GRID.n_nodes, 2, 2)
    return OperatorSymbol(GRID, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _kernel(m):
    """K = idft(m), (n_nodes, n_out, n_in)."""
    flat = m.values.reshape(GRID.n_nodes, -1)
    return idft(GridFunction(GRID, flat, "frequency")).samples.reshape(m.values.shape)


def _dual(p):
    return np.inf if p == 1.0 else (1.0 if np.isinf(p) else p / (p - 1.0))


def _anchor_1_to_q(m, q):
    """||T||_{1->q} = ||K||_q of a scalar symbol."""
    return lp_norm(GridFunction(GRID, _kernel(m)[:, 0, 0]), q)


def _anchor_p_to_inf(m, p):
    """||T||_{p->inf} = ||K||_{p'} of a scalar symbol."""
    return lp_norm(GridFunction(GRID, _kernel(m)[:, 0, 0]), _dual(p))


def _gram(m):
    """h * sum_x K(x)* K(x) of a matrix symbol."""
    k = _kernel(m)
    return GRID.cell_volume * np.einsum("xji,xjk->ik", k.conj(), k)


def _anchor_1_to_inf_l2(m):
    """||T||_{1->inf} = max_x ||K(x)||_op between l^2 value spaces."""
    return float(np.linalg.svd(_kernel(m), compute_uv=False)[:, 0].max())


def _anchor_1_to_2_l2(m):
    """||T||_{1->2} = sqrt(largest eigenvalue of the Gram matrix) between l^2 spaces."""
    return float(np.sqrt(np.linalg.eigvalsh(_gram(m))[-1]))


def _ratio(m, f, p, q, space=None):
    return lp_norm(apply_multiplier(m, f), q, space) / lp_norm(f, p, space)


def _delta(vector):
    """The L^1-normalized delta at 0 times a vector."""
    samples = np.zeros((GRID.n_nodes, len(vector)), dtype=complex)
    samples[0] = np.asarray(vector) / GRID.cell_volume
    return GridFunction(GRID, samples)


# -- the anchors are attained, so they are the norms ----------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_scalar_anchors_are_attained_by_their_witnesses(seed):
    m = _scalar(seed)
    for q in (1.0, 2.0, 3.0, np.inf):
        assert _ratio(m, _delta([1.0]), 1.0, q) == pytest.approx(_anchor_1_to_q(m, q),
                                                                 rel=ROUNDING)
    k = _kernel(m)[:, 0, 0]
    flipped = k[(-np.arange(GRID.n_nodes)) % GRID.n_nodes]    # K(-y)
    for p in (1.5, 2.0, 4.0):
        dual = GridFunction(GRID, flipped.conj() * np.abs(flipped) ** (_dual(p) - 2.0))
        assert _ratio(m, dual, p, np.inf) == pytest.approx(_anchor_p_to_inf(m, p),
                                                           rel=ROUNDING)


@pytest.mark.parametrize("seed", [10, 11])
def test_l2_anchors_are_attained_by_their_witnesses(seed):
    m = _matrix(seed)
    k = _kernel(m)
    x0 = int(np.argmax(np.linalg.svd(k, compute_uv=False)[:, 0]))
    top_right = np.linalg.svd(k[x0])[2][0].conj()
    assert _ratio(m, _delta(top_right), 1.0, np.inf, HILBERT) == pytest.approx(
        _anchor_1_to_inf_l2(m), rel=ROUNDING)
    top_eigen = np.linalg.eigh(_gram(m))[1][:, -1]
    assert _ratio(m, _delta(top_eigen), 1.0, 2.0, HILBERT) == pytest.approx(
        _anchor_1_to_2_l2(m), rel=ROUNDING)


# -- every estimate is a lower bound on its anchor -------------------------------


@pytest.mark.parametrize("budget", BUDGETS, ids=["0x0", "4x20", "8x40"])
@pytest.mark.parametrize("seed", [0, 1])
def test_scalar_1_to_q_estimates_equal_their_anchors(seed, budget):
    m = _scalar(seed)
    for q in (1.0, 2.0, 3.0, np.inf):
        assert estimate_multiplier_norm(m, 1.0, q, budget=budget, sampler=SAMPLER) == \
            _anchor_1_to_q(m, q)


@pytest.mark.parametrize("budget", BUDGETS + [SearchBudget()], ids=["0x0", "4x20", "8x40",
                                                                     "default"])
@pytest.mark.parametrize("seed", [0, 1])
def test_scalar_p_to_inf_estimates_stay_below_their_anchors(seed, budget):
    m = _scalar(seed)
    for p in (1.5, 2.0, 4.0):
        est = estimate_multiplier_norm(m, p, np.inf, budget=budget, sampler=SAMPLER)
        assert 0.0 < est <= _anchor_p_to_inf(m, p) * (1.0 + ROUNDING)


@pytest.mark.parametrize("budget", BUDGETS, ids=["0x0", "4x20", "8x40"])
@pytest.mark.parametrize("seed", [10, 11])
def test_l2_estimates_stay_below_their_anchors(seed, budget):
    m = _matrix(seed)
    for q, anchor in ((np.inf, _anchor_1_to_inf_l2(m)), (2.0, _anchor_1_to_2_l2(m))):
        est = estimate_multiplier_norm(m, 1.0, q, HILBERT, HILBERT, budget, SAMPLER)
        assert 0.0 < est <= anchor * (1.0 + ROUNDING)
