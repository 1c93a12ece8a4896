"""Deterministic Gaussian sampling and the shared randomized-search budget.

Every estimator derives its random streams from (seed, operation code,
stream index) through numpy's SeedSequence, so identical inputs give
bit-identical results and independent sub-streams never collide.
Searches evaluate candidates against one frozen draw (a fixed stream)
and re-evaluate the winning witness on a fresh stream, which removes
the selection bias a maximizer would otherwise harvest from Monte-Carlo
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        return (re + 1j * im) / np.sqrt(2.0)

    def with_samples(self, n_samples: int) -> "GaussianSampler":
        return replace(self, n_samples=n_samples)


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

    restarts/steps form a deterministic prefix-stable schedule: enlarging
    either never removes candidates, so returned estimates are monotone
    in the budget.  search_samples is the (smaller) Monte-Carlo size used
    while climbing; final values are re-evaluated at the sampler's full
    n_samples.
    """

    restarts: int = 64
    steps: int = 200
    max_vectors: int = 8
    initial_step: float = 0.5
    anneal: float = 0.97
    search_samples: int = 4000

    def scaled(self, factor: float) -> "SearchBudget":
        return replace(
            self,
            restarts=max(1, int(round(self.restarts * factor))),
            steps=max(1, int(round(self.steps * factor))),
        )


def quick_budget() -> SearchBudget:
    """Small budget for tests and sweeps."""
    return SearchBudget(restarts=8, steps=40, max_vectors=4, search_samples=2000)
