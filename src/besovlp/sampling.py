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
through three batched hooks: start(rngs) gives every start's state,
propose(states, step, rngs) every start's trial, and
score_batch(states) every score, each in start order.  The states are
whatever the search keeps them in: the gamma and type/cotype searches
share one family climb (``gaussian._family_climb``), which holds a list
of (assignment, vectors, moment) tuples and proposes over it with a
list comprehension, while the multiplier witness search holds one
(S, n_allowed, n_in) array, so its noise, rescaling and scoring run
once per step over the whole stack.  Acceptance is one mask over the
scores, and the Python overhead is paid once per step instead of once
per candidate.  A search may run in several lanes, one per score it
serves: the lanes share the starts' streams, so each draw is made once,
and each lane keeps its own states, acceptances and best state.

The multiplier witness streams read their node draws from raw PCG64
words (``_pick_nodes``) and their noise from ``standard_normal``, so they
depend on the PCG64 stream and numpy's normal sampler only, not on the
code of numpy's ``choice`` or ``integers``, whose draws ``_pick_nodes``
replays exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
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


def _complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """re + 1j * im of real standard normals of the given shape (int or tuple).

    One rng.standard_normal((2,) + shape) call: re is its first half and
    im its second, the same bits as rng.standard_normal(shape) drawn twice.
    """
    z = rng.standard_normal((2,) + ((shape,) if np.ndim(shape) == 0 else tuple(shape)))
    return z[0] + 1j * z[1]


_LOW32 = 0xFFFFFFFF


def _pick_nodes(bit_generator, half: int | None, n: int, bits: int) -> tuple:
    """(nodes, half): k = min(n, 1 + rng.integers(0, 2**bits)) distinct
    nodes of range(n), as rng.choice(n, k, replace=False) picks them, and
    the unread 32-bit half left over, for the next call on that stream.

    Exact replay of numpy 2.x on the generator's PCG64 bit_generator,
    read through random_raw, with the same values and the same stream
    position as those two calls.  numpy draws 32 bits at a time, the low
    half and then the high half of each 64-bit word, and keeps an unread
    high half for the next 32-bit draw; standard_normal reads whole
    words and never touches that half, so the caller keeps it instead
    (half, None when there is none) and hands it back on the next call.
    A bounded draw in [0, r] is Lemire's method (u * (r + 1) >> 32,
    redrawn while the low 32 bits fall under (2^32 - 1 - r) mod (r + 1)),
    r = 0 drawing nothing; choice is Floyd's sampling (j = n - k .. n - 1
    draws v in [0, j], j itself if v is taken) and then a Fisher-Yates
    shuffle of the k picks.  numpy's tail-shuffle branch of choice needs
    n > 10000 and k > n // 50, which k <= 32 never meets, so bits <= 5;
    n < 2^32 keeps every draw on the 32-bit path.
    """
    if half is None:
        word = bit_generator.random_raw()
        u, stream = word & _LOW32, [word >> 32]
    else:
        u, stream = half, []
    # 2^bits values: Lemire's method never redraws, and the draw is u's top bits
    k = min(n, 1 + (u >> (32 - bits)))
    # k - 1 shuffle draws, and k Floyd draws but for j = 0 when k == n
    end = 2 * k - 1 - (k == n)
    short = end - len(stream)
    if short > 0:
        for word in bit_generator.random_raw((short + 1) // 2).tolist():
            stream += (word & _LOW32, word >> 32)
    pos = 0
    nodes = []
    for j in range(n - k, n):
        if j == 0:
            nodes.append(0)
            continue
        m = stream[pos] * (j + 1)
        pos += 1
        if m & _LOW32 <= j:
            m, pos, end = _lemire_redraw(bit_generator, stream, pos, end, j, m)
        v = m >> 32
        nodes.append(j if v in nodes else v)
    for i in range(k - 1, 0, -1):
        m = stream[pos] * (i + 1)
        pos += 1
        if m & _LOW32 <= i:
            m, pos, end = _lemire_redraw(bit_generator, stream, pos, end, i, m)
        v = m >> 32
        nodes[i], nodes[v] = nodes[v], nodes[i]
    return nodes, (stream[pos] if pos < len(stream) else None)


def _lemire_redraw(bit_generator, stream: list, pos: int, end: int, r: int, m: int) -> tuple:
    """The rare branch of _pick_nodes' bounded draw in [0, r], whose first
    product m = u * (r + 1) has low 32 bits <= r: (m, pos, end) after
    redrawing while they fall under (2^32 - 1 - r) mod (r + 1).  Each
    redraw moves every later draw one value on, so end, the stream
    length the call needs, grows by one, and a word is drawn when the
    stream falls short of it, as numpy would draw it."""
    threshold = (_LOW32 - r) % (r + 1)
    while m & _LOW32 < threshold:
        end += 1
        if len(stream) < end:
            word = bit_generator.random_raw()
            stream += (word & _LOW32, word >> 32)
        m = stream[pos] * (r + 1)
        pos += 1
    return m, pos, end


# bytes one search may hold in its state stack, its frozen Gaussian draw
# or its per-start random generators (1 GiB)
_SEARCH_BYTES_CAP = 2**30

# bytes one np.random.Generator over PCG64 holds, with its SeedSequence,
# rounded up (tracemalloc measures 0.9-1.6 KB a generator)
_GENERATOR_BYTES = 2**11

# real draws per scratch fill in _fill_complex_gaussians (1 MB)
_SCRATCH_ENTRIES = 2**17

# the step schedule of _hill_climb: the first proposal's step size, and the
# factor applied to it after every step
_INITIAL_STEP = 0.5
_ANNEAL = 0.97


# numpy divides a complex array by a real scalar as a product with its
# reciprocal, so scaling each real piece by it gives the same bits
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _fill_complex_gaussians(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill a C-contiguous complex array with complex standard Gaussians; returns out.

    Bit for bit (re + 1j * im) / sqrt(2) with re = rng.standard_normal(out.shape)
    drawn first and im second, but written straight into out through one
    real scratch of at most _SCRATCH_ENTRIES draws (numpy's generator only
    fills contiguous arrays), so no full-size temporary is made.
    gaussian._chunked_moment draws a larger chunk in the same order, in
    row blocks, without holding it as complex numbers.
    """
    flat = out.reshape(-1)
    scratch = np.empty(max(1, min(flat.size, _SCRATCH_ENTRIES)))
    for part in (flat.real, flat.imag):
        for i in range(0, flat.size, scratch.size):
            piece = scratch[:flat.size - i]
            rng.standard_normal(out=piece)
            np.multiply(piece, _INV_SQRT2, out=part[i:i + piece.size])
    return out


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
        return asdict(self)


@dataclass(frozen=True)
class SearchBudget:
    """Sizes of the randomized witness searches.

    restarts/steps drive the prefix-stable schedule of ``_hill_climb``:
    enlarging either never removes candidates, so returned estimates are
    monotone in the budget.  max_vectors caps the vectors of a Gaussian
    search.  search_samples is the (smaller) Monte-Carlo size used while
    climbing; final values are re-evaluated at the sampler's full
    n_samples.  The step schedule is fixed (_INITIAL_STEP, _ANNEAL).
    """

    restarts: int = 64
    steps: int = 200
    max_vectors: int = 8
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
                propose: Callable, score_batch: Callable, budget: SearchBudget,
                lanes: int = 1) -> list:
    """Greedy annealed hill-climbing from n_starts starts in lockstep, in
    each of `lanes` lanes; one (best value, best state) per lane.

    Start i draws from its own stream (op_code, 100 + i), rngs[i], and
    the lanes share the streams: a lane is one more copy of every start,
    climbing on its own scores, so the states hold lanes * n_starts
    rows, lane-major (row l * n_starts + i is start i of lane l).  The
    hooks are batched over the rows, in that order: states =
    start(rngs), then budget.steps times trials = propose(states, step,
    rngs), and score_batch(states) gives one float per row.  A row's
    trial replaces its state only if it scores strictly higher (a NaN
    never does): the rows of that mask are copied, states[i] = trials[i],
    so states may be a list or an array whose first axis is the row.
    step begins at _INITIAL_STEP and is multiplied by _ANNEAL after
    every step.  Each start's trajectory in each lane is the one it
    would follow alone, as long as the hooks draw from rngs[i] only for
    start i, and once per start whatever the lanes.  propose must not mutate states, as starts may be shared.
    Per lane, the best state over its starts wins, with its score as a
    float (an earlier start wins ties, a NaN never wins); no starts, or
    none scoring above -inf, give (-inf, None).  No start depends on
    n_starts or on the other starts, so each lane's best value is
    monotone in (n_starts, steps).  A search whose generators would take
    more than _SEARCH_BYTES_CAP is refused before the first one is built.
    """
    rng_bytes = n_starts * _GENERATOR_BYTES
    if rng_bytes > _SEARCH_BYTES_CAP:
        raise ValueError(
            f"search too large: {n_starts} starts need {rng_bytes / 2**20:.0f} MB of random "
            f"generators, over the {_SEARCH_BYTES_CAP // 2**20} MB cap; lower budget.restarts"
        )
    rngs = [sampler.generator(op_code, 100 + i) for i in range(n_starts)]
    if not rngs:
        return [(-np.inf, None)] * lanes
    states = start(rngs)
    values = np.asarray(score_batch(states), dtype=float)
    step = _INITIAL_STEP
    for _ in range(budget.steps):
        trials = propose(states, step, rngs)
        tvals = np.asarray(score_batch(trials), dtype=float)
        better = tvals > values
        for i in np.flatnonzero(better):
            states[i] = trials[i]
        values[better] = tvals[better]
        step *= _ANNEAL
    # argmax takes the first of equal maxima; a NaN counts as -inf
    ranked = np.where(np.isnan(values), -np.inf, values).reshape(lanes, n_starts)
    best = [lane * n_starts + int(i) for lane, i in enumerate(np.argmax(ranked, axis=1))]
    return [(float(values[i]), states[i]) if ranked.flat[i] > -np.inf else (-np.inf, None)
            for i in best]
