"""Deterministic Gaussian sampling, the randomized-search budget and the
one search engine.

Every estimator derives its random streams from (seed, operation code,
stream index) through numpy's SeedSequence, so identical inputs give
bit-identical results and independent sub-streams never collide.
Searches evaluate candidates against one frozen draw (a fixed stream)
and re-evaluate the winning witness on a fresh stream, which removes
the selection bias a maximizer would otherwise harvest from Monte-Carlo
noise.  Every search runs the same restart/anneal/accept schedule,
``_hill_climb``; the searches differ only in their starts, their
proposal move and their score.  The engine runs all starts in lockstep
and scores each step's candidates with one batched call, so a search
whose score vectorizes over candidates (the multiplier witness
searches score a whole stack of spectra at once) pays the Python
overhead once per step instead of once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = ["GaussianSampler", "MCEstimate", "SearchBudget"]


@dataclass(frozen=True)
class GaussianSampler:
    """Value-semantic source of complex standard Gaussians.

    gamma = (g_re + i g_im)/sqrt(2) with independent real standard
    normals, so E|gamma|^2 = 1.
    """

    seed: int
    n_samples: int = 20000

    def __post_init__(self):
        if self.n_samples < 1000:
            raise ValueError(f"n_samples must be >= 1000, got {self.n_samples}")

    def generator(self, op_code: int = 0, stream: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(op_code, stream))
        return np.random.Generator(np.random.PCG64(ss))

    def complex_gaussians(
        self, shape: tuple, op_code: int = 0, stream: int = 0
    ) -> np.ndarray:
        rng = self.generator(op_code, stream)
        return _fill_complex_gaussians(rng, np.empty(shape, dtype=np.complex128))


# real draws per scratch fill in _fill_complex_gaussians (1 MB)
_SCRATCH_ENTRIES = 2**17


def _fill_complex_gaussians(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill a C-contiguous complex array with complex standard Gaussians; returns out.

    Bit for bit (re + 1j * im) / sqrt(2) with re = rng.standard_normal(out.shape)
    drawn first and im second, but written straight into out through one
    real scratch of at most _SCRATCH_ENTRIES draws (numpy's generator only
    fills contiguous arrays), so no full-size temporary is made.
    """
    flat = out.reshape(-1)
    scratch = np.empty(max(1, min(flat.size, _SCRATCH_ENTRIES)))
    for part in (flat.real, flat.imag):
        for i in range(0, flat.size, scratch.size):
            piece = scratch[:flat.size - i]
            rng.standard_normal(out=piece)
            part[i:i + piece.size] = piece
    return np.divide(out, np.sqrt(2.0), out=out)


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int
    seed: int | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SearchBudget:
    """Knobs of the randomized witness searches.

    restarts/steps drive the prefix-stable schedule of ``_hill_climb``:
    enlarging either never removes candidates, so returned estimates are
    monotone in the budget.  search_samples is the (smaller) Monte-Carlo
    size used while climbing; final values are re-evaluated at the
    sampler's full n_samples.
    """

    restarts: int = 64
    steps: int = 200
    max_vectors: int = 8
    initial_step: float = 0.5
    anneal: float = 0.97
    search_samples: int = 4000

    def __post_init__(self):
        for name, low in (("restarts", 0), ("steps", 0), ("max_vectors", 1),
                          ("search_samples", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def scaled(self, factor: float) -> "SearchBudget":
        return replace(
            self,
            restarts=max(1, int(round(self.restarts * factor))),
            steps=max(1, int(round(self.steps * factor))),
        )


def _hill_climb(sampler: GaussianSampler, op_code: int, n_starts: int, start: Callable,
                propose: Callable, score_batch: Callable, budget: SearchBudget) -> tuple:
    """Greedy annealed hill-climbing from n_starts starts in lockstep; (best_value, best_state).

    Start i draws from its own stream (op_code, 100 + i): its state is
    start(i, rng), then budget.steps times trial = propose(state, step,
    rng) replaces the state only if the trial scores strictly higher;
    step begins at budget.initial_step and is multiplied by budget.anneal
    after every trial.  The starts advance together, so one
    score_batch(states) call scores every start's state (or trial) of a
    step and returns one float per state, in order.  Each start's
    trajectory is the one it would follow alone.  propose must copy
    before it mutates, as starts may be shared.  The best state over the
    starts wins (an earlier start wins ties); no starts give (-inf,
    None).  No start depends on n_starts or on the other starts, so the
    best value is monotone in (n_starts, steps).
    """
    rngs = [sampler.generator(op_code, 100 + i) for i in range(n_starts)]
    states = [start(i, rng) for i, rng in enumerate(rngs)]
    if not states:
        return -np.inf, None
    values = list(score_batch(states))
    step = budget.initial_step
    for _ in range(budget.steps):
        trials = [propose(state, step, rng) for state, rng in zip(states, rngs)]
        for i, tval in enumerate(score_batch(trials)):
            if tval > values[i]:
                values[i], states[i] = tval, trials[i]
        step *= budget.anneal
    best_val, best = -np.inf, None
    for val, state in zip(values, states):
        if val > best_val:
            best_val, best = val, state
    return best_val, best
