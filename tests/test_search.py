"""The shared hill-climb engine, the budget it runs on, and the frozen
outputs of every search built on it."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from besovlp import (
    GaussianSampler,
    MatrixFamily,
    SearchBudget,
    ValueSpace,
    gamma_bound_search,
    type_constant_lower,
)
from besovlp.gaussian import GammaSearchResult
from besovlp.sampling import _ANNEAL, _INITIAL_STEP, _hill_climb

ROOT = Path(__file__).resolve().parents[1]


def _make_goldens():
    spec = importlib.util.spec_from_file_location(
        "make_goldens", ROOT / "tools" / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_results_match_golden_exactly():
    golden = json.loads((ROOT / "tests" / "golden" / "search_results.json").read_text())
    got = json.loads(json.dumps(_make_goldens().search_results()))
    assert sorted(got) == sorted(golden)
    for key, value in golden.items():
        assert got[key] == value, key


def _batched(start, propose):
    """The engine's batched start and propose hooks over per-state functions."""
    return (lambda rngs: [start(i, rng) for i, rng in enumerate(rngs)],
            lambda states, step, rngs: [propose(s, step, rng) for s, rng in zip(states, rngs)])


def _count_climb(n_starts, budget, scores):
    """Climb on integer states; score(state) = scores[state]; log every call."""
    log = []

    def start(i, rng):
        log.append(("start", i, float(rng.random())))
        return 10 * i

    def propose(state, step, rng):
        log.append(("propose", state, step))
        return state + 1

    [(value, state)] = _hill_climb(
        GaussianSampler(3), 7, n_starts, *_batched(start, propose),
        lambda states: [scores.get(s, 0.0) for s in states], budget,
    )
    return value, state, log


def test_hill_climb_accepts_only_strict_improvements_and_anneals():
    budget = SearchBudget(steps=3)
    # 0 -> 1 improves; 1 -> 2 only ties, so both later trials start from 1;
    # the step starts at 0.5 and shrinks by 0.97 a step
    value, state, log = _count_climb(1, budget, {0: 1.0, 1: 2.0, 2: 2.0})
    assert (value, state) == (2.0, 1)
    assert log[1:] == [
        ("propose", 0, 0.5), ("propose", 1, 0.5 * 0.97), ("propose", 1, 0.5 * 0.97 * 0.97),
    ]


def test_hill_climb_earlier_start_wins_ties_and_streams_are_per_start():
    budget = SearchBudget(steps=0)
    value, state, log = _count_climb(3, budget, {0: 1.0, 10: 1.0, 20: 1.0})
    assert (value, state) == (1.0, 0)
    sampler = GaussianSampler(3)
    assert [entry[2] for entry in log] == [
        float(sampler.generator(7, 100 + i).random()) for i in range(3)
    ]


def test_hill_climb_with_no_starts():
    value, state, log = _count_climb(0, SearchBudget(), {})
    assert value == -np.inf and state is None and log == []


def _serial_hill_climb(sampler, op_code, n_starts, start, propose, score, budget):
    """The one-start-at-a-time engine the lockstep engine replaced, kept as
    its reference."""
    best_val, best = -np.inf, None
    for i in range(n_starts):
        rng = sampler.generator(op_code, 100 + i)
        state = start(i, rng)
        val = score(state)
        step = _INITIAL_STEP
        for _ in range(budget.steps):
            trial = propose(state, step, rng)
            tval = score(trial)
            if tval > val:
                val, state = tval, trial
            step *= _ANNEAL
        if val > best_val:
            best_val, best = val, state
    return best_val, best


@pytest.mark.parametrize("n_starts", [0, 1, 2, 7])
@pytest.mark.parametrize("steps", [0, 1, 9])
@pytest.mark.parametrize("seed", range(6))
def test_lockstep_engine_matches_the_serial_reference(seed, steps, n_starts):
    # integer states scored through a table of few values: ties and -inf
    # scores are common, and a whole search can score -inf throughout
    table = np.random.default_rng(seed).choice([-np.inf, 0.0, 1.0, 1.0, 2.5], size=17)
    if seed == 0:
        table[:] = -np.inf

    def score(state):
        return float(table[state % 17])

    def start(i, rng):
        return int(rng.integers(0, 40)) if i % 3 else 5 * i

    def propose(state, step, rng):
        return state + int(rng.integers(-3, 4)) + int(8 * step)

    calls = []

    def score_batch(states):
        calls.append(len(states))
        return [score(s) for s in states]

    sampler, budget = GaussianSampler(seed), SearchBudget(steps=steps)
    [got] = _hill_climb(sampler, 9, n_starts, *_batched(start, propose), score_batch, budget)
    assert got == _serial_hill_climb(sampler, 9, n_starts, start, propose, score, budget)
    # one batched call per step, each over every start
    assert calls == ([n_starts] * (steps + 1) if n_starts else [])


@pytest.mark.parametrize("n_lanes", [1, 2, 3])
@pytest.mark.parametrize("steps", [0, 1, 9])
@pytest.mark.parametrize("seed", range(4))
def test_each_lane_matches_the_serial_reference_of_its_own_score(seed, steps, n_lanes):
    # the lanes share every draw: a start's rng is called once per step, and
    # its move lands on that start's row in every lane; each lane scores
    # through its own table, with ties, NaN and -inf common
    n_starts = 7
    tables = np.random.default_rng(seed).choice([-np.inf, np.nan, 0.0, 1.0, 1.0, 2.5],
                                                size=(n_lanes, 17))

    def start(i, rng):
        return int(rng.integers(0, 40)) if i % 3 else 5 * i

    def move(step, rng):
        return int(rng.integers(-3, 4)) + int(8 * step)

    def start_lanes(rngs):
        return [start(i, rng) for i, rng in enumerate(rngs)] * n_lanes

    def propose_lanes(states, step, rngs):
        return [s + d for s, d in zip(states, [move(step, rng) for rng in rngs] * n_lanes)]

    def score_lanes(states):
        return [float(tables[row // n_starts][s % 17]) for row, s in enumerate(states)]

    sampler, budget = GaussianSampler(seed), SearchBudget(steps=steps)
    got = _hill_climb(sampler, 9, n_starts, start_lanes, propose_lanes, score_lanes, budget,
                      lanes=n_lanes)
    assert got == [
        _serial_hill_climb(sampler, 9, n_starts, start,
                           lambda s, step, rng: s + move(step, rng),
                           lambda s: float(tables[lane][s % 17]), budget)
        for lane in range(n_lanes)
    ]


def test_lanes_with_no_starts():
    assert _hill_climb(GaussianSampler(0), 9, 0, None, None, None, SearchBudget(),
                       lanes=3) == [(-np.inf, None)] * 3


def test_type_search_needs_one_restart():
    budget = SearchBudget(restarts=0, steps=3, search_samples=1000)
    with pytest.raises(ValueError, match="restarts"):
        type_constant_lower(ValueSpace.lp(1.0, 3), 2.0, budget, GaussianSampler(1, 1000))


@pytest.mark.parametrize("field, value", [
    ("restarts", -2), ("steps", -1), ("max_vectors", 0), ("search_samples", 0),
])
def test_budget_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field) as err:
        SearchBudget(**{field: value})
    assert "\n" not in str(err.value)


def _gamma_family():
    """Two random 3x3 members, l^inf_3 -> l^1_3."""
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    return MatrixFamily(tuple(mats), ValueSpace.lp(np.inf, 3), ValueSpace.lp(1.0, 3))


def test_gamma_search_with_one_vector_skips_the_pair_starts():
    budget = SearchBudget(restarts=1, steps=2, max_vectors=1, search_samples=1000)
    res = gamma_bound_search(_gamma_family(), budget, GaussianSampler(1, 1000))
    assert res.vectors.shape == (1, 3) and res.value > 0


def test_gamma_search_rejects_a_warm_start_longer_than_the_budget():
    warm = GammaSearchResult(1.0, np.zeros(4, dtype=int), np.ones((4, 3), dtype=complex))
    budget = SearchBudget(restarts=1, steps=2, max_vectors=2, search_samples=1000)
    with pytest.raises(ValueError, match="4 vectors.*max_vectors = 2"):
        gamma_bound_search(_gamma_family(), budget, GaussianSampler(1, 1000), warm_start=warm)
