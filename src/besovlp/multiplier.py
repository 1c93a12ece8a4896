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
restarts, each refined greedily on the prefix-stable schedule of
``sampling._hill_climb``).  All starts climb in lockstep on one state
stack (S, n_allowed, n_in): each step draws every start's noise from its
own stream, adds it with one scatter, rescales the stack with one divide
and scores the candidates together from their spectra.  Estimates that
differ only in their score, such as the (p, q) pairs of a sweep on one
grid, share one search: each is a lane of the stack, every draw is made
once for all of them, and the lanes share their duplicate rows too.
Until their acceptances part them, a lane's rows are bitwise copies of
an earlier lane's; each distinct row is proposed, transformed and
normed once, and only the L^p powers, sums and roots are taken per lane.
Each lane's value is the one its own search would give, bit for bit.  A
chunk of witness spectra and their images under the symbol are scored
in one pass, end to end: one batched transform for the L^p scorer, one
round trip and one run of the block core for the Besov scorer, with the
same values, bit for bit, as norm calls on one function at a time.
Verification reports then check the measured lower bound against the
displayed theoretical bound, which is the falsifiable direction.  The
per-annulus gamma-bounds entering the bounds are exact between Hilbert
spaces and search lower bounds otherwise (flagged in the report).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .dyadic import (
    BesovParams,
    DyadicPartition,
    _BLOCK_BATCH_ENTRIES,
    _annulus_mask,
    _besov_norms,
    _besov_weights,
    _node_power,
    _require_band_limited,
    _require_physical,
    _stack_batches,
)
from .gaussian import _gamma_bound, _spectral_norms, _top_right_singular_vector
from .reports import VerificationReport
from .sampling import (
    GaussianSampler,
    SearchBudget,
    _check_search_bytes,
    _complex_normals,
    _hill_climb,
    _pick_nodes,
)
from .spaces import (
    DimensionMismatchError,
    GridFunction,
    GridSpec,
    ValueSpace,
    dft,
    idft,
    _check_exponent,
    _idft_stack,
    _inv,
    _lp_combine,
    _lp_of_node_norms,
    _lp_runs,
    _node_norms,
    _pack_complex,
    _run_slices,
    _space_for,
    _unpack_complex,
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
class _NodeMatrices:
    """An (n_nodes, n_out, n_in) complex array of finite matrices at the
    nodes of a grid, in FFT node order: the storage, checks and file codec
    that symbols and kernels share.  A file carries the class's
    domain_tag, and reading a file with another tag is refused."""

    domain_tag: ClassVar[str]
    noun: ClassVar[str]
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim == 1:
            self.values = self.values[:, None, None]
        if self.values.ndim != 3 or self.values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"values must have shape (n_nodes, n_out, n_in), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.noun} values must be finite on the grid")

    @property
    def n_out(self) -> int:
        return self.values.shape[1]

    @property
    def n_in(self) -> int:
        return self.values.shape[2]

    def to_json_obj(self) -> dict:
        return {
            "d": self.grid.d,
            "n_per_dim": self.grid.n_per_dim,
            "period": self.grid.period,
            "n_out": self.n_out,
            "n_in": self.n_in,
            "domain_tag": self.domain_tag,
            "data": _pack_complex(self.values),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict):
        if obj.get("domain_tag") != cls.domain_tag:
            raise ValueError(f"a {cls.noun} file has domain_tag {cls.domain_tag!r}, "
                             f"got {obj.get('domain_tag')!r}")
        grid = GridSpec(obj["d"], obj["n_per_dim"], obj["period"])
        return cls(grid, _unpack_complex(obj["data"], (-1, obj["n_out"], obj["n_in"])))


@dataclass
class OperatorSymbol(_NodeMatrices):
    """Matrix-valued symbol sampled on the frequency lattice.

    values: (n_nodes, n_out, n_in) in FFT node order.  Homogeneous
    symbols store the zero matrix at xi = 0 (the mode is annihilated for
    mean-zero inputs); inhomogeneous symbols must be finite everywhere.
    On a finite grid every symbol has moderate growth at zero and at
    infinity, so there is nothing to assert or check about it.
    """

    domain_tag = "frequency"
    noun = "symbol"
    derivative_oracle: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    name: str = ""

    @property
    def is_scalar(self) -> bool:
        return self.n_out == 1 and self.n_in == 1

    def opnorms(self) -> np.ndarray:
        """Per-node spectral norms."""
        return _spectral_norms(self.values)

    def adjoint(self) -> "OperatorSymbol":
        """m*: the values and the derivative oracle, if any, conjugate-transposed."""
        base = self.derivative_oracle
        oracle = None if base is None else (
            lambda alpha, xi: np.conj(np.swapaxes(base(alpha, xi), 1, 2)))
        return OperatorSymbol(self.grid, np.conj(np.swapaxes(self.values, 1, 2)), oracle,
                              self.name + "*")

    def scaled(self, c: complex) -> "OperatorSymbol":
        """c m: the values and the derivative oracle, if any, times c."""
        base = self.derivative_oracle
        oracle = None if base is None else (lambda alpha, xi: c * base(alpha, xi))
        return OperatorSymbol(self.grid, c * self.values, oracle, self.name)

    def __mul__(self, other: "OperatorSymbol") -> "OperatorSymbol":
        """Pointwise composition self(xi) @ other(xi)."""
        if other.grid != self.grid or other.n_out != self.n_in:
            raise DimensionMismatchError("symbols do not compose")
        vals = np.einsum("nij,njk->nik", self.values, other.values)
        return OperatorSymbol(self.grid, vals, name=f"{self.name}.{other.name}")


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
    return OperatorSymbol(grid, full, derivative_oracle=oracle, name=f"riesz({sigma:g})")


def annulus_indicator_symbol(grid: GridSpec, k: int, dim: int = 1) -> OperatorSymbol:
    """The indicator of the dyadic annulus I_k (the ball |xi| <= 2 for k = 0)
    times the identity; k must be a non-negative integer whose annulus
    holds a lattice node."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"annulus index k must be a non-negative integer, got {k!r}")
    mags = grid.frequency_magnitudes()
    # past log2(max |xi|) + 1 the annulus lies beyond every node, and 2^k may overflow
    mask = (_annulus_mask(mags, k) if k <= math.log2(mags.max()) + 1
            else np.zeros(mags.shape, dtype=bool))
    if not np.any(mask):
        raise ValueError(f"annulus I_{k} holds no lattice node of the grid")
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
    return OperatorSymbol(grid, vals[:, None, None], name="hilbert")


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


def _require_applicable(m: OperatorSymbol, f: GridFunction) -> None:
    if f.grid != m.grid:
        raise ValueError("symbol and function live on different grids")
    if f.value_dim != m.n_in:
        raise DimensionMismatchError(
            f"symbol expects input dim {m.n_in}, function has {f.value_dim}"
        )


def apply_multiplier(m: OperatorSymbol, f: GridFunction) -> GridFunction:
    """idft(m . dft(f)): frequency-diagonal action, exact on the grid."""
    _require_applicable(m, f)
    ghat = _apply_to_spectrum(m, dft(f).samples)
    return idft(GridFunction(f.grid, ghat, "frequency"))


def _apply_to_spectrum(m: OperatorSymbol, fhat: np.ndarray) -> np.ndarray:
    """m(xi) fhat(xi) at every node, of a spectrum or of each spectrum of a stack."""
    return np.einsum("noi,...ni->...no", m.values, fhat)


def blockwise_extension(
    m: OperatorSymbol, f: GridFunction, part: DyadicPartition
) -> GridFunction:
    """Sum over annuli of per-block multiplier applications.

    Coincides with apply_multiplier on band-limited inputs because the
    partition of unity commutes with the frequency-diagonal action.  The
    blocks are summed as spectra phi_hat_k * fhat, so the whole
    extension costs one forward and one inverse transform.
    """
    _require_physical(f, part)
    _require_applicable(m, f)
    fhat = dft(f).samples
    _require_band_limited(part, _node_power(fhat))
    ghat = sum(_apply_to_spectrum(m, row[:, None] * fhat) for row in part.phi_hat)
    return idft(GridFunction(f.grid, ghat, "frequency"))


def multiplier_norm_l2_exact(m: OperatorSymbol) -> float:
    """Exact L^2 -> L^2 norm on the grid: the largest per-node spectral norm."""
    return float(np.max(m.opnorms()))


# ---------------------------------------------------------------------------
# randomized witness search for operator norms
# ---------------------------------------------------------------------------


def _n_dyadic_annuli(grid: GridSpec) -> int:
    # one annulus past the partition's k_max, up to the Nyquist scale
    return int(math.floor(math.log2(grid.max_axis_frequency))) + 1


def _dyadic_annulus_masks(grid: GridSpec) -> list:
    mags = grid.frequency_magnitudes()
    return [_annulus_mask(mags, k) for k in range(_n_dyadic_annuli(grid))]


def _propose_witnesses(states: np.ndarray, step: float, rngs: list, halves: list,
                       rows: Optional[np.ndarray] = None) -> np.ndarray:
    """One trial per row of a witness state stack: of each of the S rows of
    one lane's stack (S, n_allowed, n_in), or, for a stack (L * S,
    n_allowed, n_in) of L lanes of S starts, lane-major, of each row the
    increasing index array rows lists, in that order.

    Start i's rng picks 1-8 distinct nodes and draws their complex noise,
    once, rngs in start order; all the noise is added with one scatter,
    start i's to every row of start i, and every nonzero trial is divided
    by its largest modulus.  A row's trial depends only on its state and
    its start's draws, so rows holding the same state get the same trial,
    bit for bit, and a caller may propose for one of them only.  The nodes
    come from sampling._pick_nodes: halves[i] holds the 32-bit half of
    start i's stream left unread between its draws, and is updated in
    place.
    """
    n_starts = len(rngs)
    n_allowed, n_in = states.shape[1:]
    cols, sizes, draws = [], [], []
    for i, rng in enumerate(rngs):
        nodes, halves[i] = _pick_nodes(rng.bit_generator, halves[i], n_allowed, 3)
        cols += nodes
        sizes.append(len(nodes))
        draws.append(rng.standard_normal((2, len(nodes), n_in)))
    re, im = np.concatenate(draws, axis=1)
    # one start's nodes are distinct, so each noise term is added once per row
    if rows is None:
        trials = states.copy()
        trials[np.repeat(np.arange(n_starts), sizes), cols, :] += step * (re + 1j * im)
    else:
        trials = states[rows]
        starts = rows % n_starts
        # trial k takes its start s's noise terms, cumsum(sizes)[s] - sizes[s] onwards
        counts = np.asarray(sizes)[starts]
        terms = (np.repeat(np.cumsum(sizes)[starts] - np.cumsum(counts), counts)
                 + np.arange(counts.sum()))
        noise = step * (re + 1j * im)
        trials[np.repeat(np.arange(len(trials)), counts), np.asarray(cols)[terms], :] += \
            noise[terms]
    scale = np.abs(trials).max(axis=(1, 2))[:, None, None]
    return np.divide(trials, scale, out=trials, where=scale > 0)


class _SharedRows:
    """A stack of rows held once per distinct row: row k is rows[pos[k]]."""

    __slots__ = ("rows", "pos")

    def __init__(self, rows: np.ndarray, pos: np.ndarray):
        self.rows, self.pos = rows, pos

    def __getitem__(self, k):
        return self.rows[self.pos[k]]


def _distinct_rows(states: np.ndarray, n_lanes: int) -> tuple:
    """(leads, pos) of a state stack (L * S, n_allowed, n_in) of L lanes of
    S starts, lane-major: the increasing indices of its distinct rows, and
    for each row k the place among them of the row whose bits it holds,
    so states[k] is a bitwise copy of states[leads[pos[k]]].

    Every row of lane 0 is distinct, and a later lane's row is a copy of
    lane 0's row of its start when it holds the same bits, compared
    through a uint64 view (complex == would take -0 for +0 and NaN for
    unequal); otherwise it is distinct, even where it holds another later
    lane's bits.
    """
    n_starts = len(states) // n_lanes
    words = states.reshape(n_lanes, n_starts, -1).view(np.uint64)
    distinct = np.ones(len(states), dtype=bool)
    distinct[n_starts:] = (words[1:] != words[0]).any(axis=2).ravel()
    pos = np.where(distinct, np.cumsum(distinct) - 1, np.arange(len(states)) % n_starts)
    return np.flatnonzero(distinct), pos


def _witness_search(
    m: OperatorSymbol,
    allowed: np.ndarray,
    budget: SearchBudget,
    sampler: GaussianSampler,
    score: Callable,
    lanes: int = 1,
) -> list:
    """Largest score found over witness spectra supported in a node mask,
    one per lane.

    With one lane, score maps a stack (S, n_nodes, n_in) of spectra to
    their S scores; an L^p estimate hands it the joint _lp_scorer on each
    chunk alone.  Every start climbs in lockstep, and the states are
    one array (S, n_allowed, n_in): each start's spectrum at the allowed
    nodes.  A step copies that stack once into the trials, draws every
    start's nodes and noise from its own stream in start order, adds the
    noise with one scatter, rescales every trial by its largest entry
    with one divide, and scores the trials in chunks of at most
    _BLOCK_BATCH_ENTRIES / 2 samples (one spectrum when a spectrum is
    larger), each scattered into one zeroed buffer, so a chunk and its
    image under m fit one scoring batch and the scoring memory stays
    bounded however many starts run.

    Estimates that differ only in their score share one search: each is a
    lane of _hill_climb, and the states hold lanes * S rows, lane-major.
    Every random draw is made once and serves all the lanes, and a lane's
    row holds a bitwise copy of an earlier lane's row of the same start
    until their acceptances part them.  Each step finds the rows that copy
    lane 0's (_distinct_rows), proposes for each distinct row once, and
    hands _hill_climb the distinct trials with each row's place among them
    (_SharedRows), so no trial is stored twice.  The distinct rows are
    scored in the same chunks, yielded one by one: score(chunks, picks)
    gives, for each lane l, the scores of the distinct spectra picks[l],
    one per start, so each distinct row is transformed and takes its node
    norms once and each lane reduces the rows it holds.  Each lane's value
    is, bit for bit, the one a search with its score alone would return.

    The state and trial stacks are capped: a search whose lanes and starts
    could need more than _SEARCH_BYTES_CAP for them is refused before
    anything is allocated.  The scores are deterministic, so the search
    is exact greedy hill-climbing; the schedule is prefix-stable in
    (restarts, steps), which makes every returned value monotone in the
    budget.
    """
    grid, n_in = m.grid, m.n_in
    n_allowed = int(np.count_nonzero(allowed))
    if n_allowed == 0:
        raise ValueError("empty witness support")
    # at most 5 single modes, the flat spectrum and one per annulus, then the restarts
    max_starts = min(5, n_allowed) + 1 + _n_dyadic_annuli(grid) + budget.restarts
    estimates = f"{lanes} estimates x " if lanes > 1 else ""
    _check_search_bytes(2 * lanes * max_starts * n_allowed * n_in * 16, "witness search",
                        f"{estimates}{max_starts} starts x {n_allowed} nodes x {n_in} components",
                        "search state", "budget.restarts or the grid size")
    allowed_idx = np.flatnonzero(allowed)

    # the scorers take a chunk's spectra and their images under m in one
    # pass, so a chunk of half the block budget lets both fit one batch
    per_chunk = max(1, _BLOCK_BATCH_ENTRIES // (2 * grid.n_nodes * max(n_in, m.n_out)))

    # structured starts: single modes at the largest symbol values,
    # a flat spectrum, and flat per-annulus spectra
    modes = np.argsort(m.opnorms()[allowed_idx])[::-1][: min(5, n_allowed)]
    subs = [sub for sub in (mask[allowed_idx] for mask in _dyadic_annulus_masks(grid))
            if np.any(sub)]
    n_structured = len(modes) + 1 + len(subs)

    def start(rngs):
        states = np.zeros((len(rngs), n_allowed, n_in), dtype=np.complex128)
        for i, pos in enumerate(modes):
            states[i, pos] = _top_right_singular_vector(m.values[allowed_idx[pos]])
        states[len(modes), :, 0] = 1.0
        for i, sub in enumerate(subs, len(modes) + 1):
            states[i, sub, 0] = 1.0
        for i, rng in enumerate(rngs[n_structured:], n_structured):
            # 1-32 nodes, as rng.integers(1, 33) and rng.choice would pick them
            idx, halves[i] = _pick_nodes(rng.bit_generator, None, n_allowed, 5)
            states[i, idx] = _complex_normals(rng, (len(idx), n_in))
        return states if lanes == 1 else np.tile(states, (lanes, 1, 1))

    # one zeroed chunk for the whole search, no larger than one lane's
    # states: only the allowed nodes are ever written, and a scorer does
    # not write into its input
    n_starts = n_structured + budget.restarts
    fhats = np.zeros((min(per_chunk, n_starts), grid.n_nodes, n_in), dtype=np.complex128)
    # per start, the 32-bit half of its stream that _pick_nodes left unread
    halves = [None] * n_starts

    def chunks(rows):
        # the rows in chunks of len(fhats), each scattered into the zeroed buffer
        for j in range(0, len(rows), len(fhats)):
            chunk = rows[j:j + len(fhats)]
            fhats[:len(chunk), allowed_idx] = chunk
            yield fhats[:len(chunk)]

    if lanes == 1:
        def propose(states, step, rngs):
            return _propose_witnesses(states, step, rngs, halves)

        def score_batch(specs):
            return [value for chunk in chunks(specs) for value in score(chunk)]
    else:
        def propose(states, step, rngs):
            leads, pos = _distinct_rows(states, lanes)
            return _SharedRows(_propose_witnesses(states, step, rngs, halves, leads), pos)

        def score_batch(specs):
            # the starting states are lane 0's, copied into every lane
            rows, pos = ((specs.rows, specs.pos) if isinstance(specs, _SharedRows)
                         else (specs[:n_starts], np.tile(np.arange(n_starts), lanes)))
            return np.ravel(score(chunks(rows), pos.reshape(lanes, n_starts)))

    found = _hill_climb(sampler, _OP_WITNESS, n_starts, start, propose,
                        score_batch, budget, lanes=lanes)
    return [value for value, _ in found]


def _ratios(num: list, den: list) -> list:
    """num / den, term by term; -inf where den <= 0."""
    return [-np.inf if d <= 0 else v / d for v, d in zip(num, den)]


def _side_norms(m: OperatorSymbol, norms: Callable, fhats: np.ndarray, src: tuple,
                dst: tuple) -> tuple:
    """(norms of f, norms of T f) of a chunk of spectra fhats.

    norms(sides) gives, side after side, the norms of the functions whose
    spectra the stacks of sides (spectra, *side) hold; src and dst are
    the two sides' extra arguments.  The spectra f and T f go through
    norms together, so the chunk pays one pass for both sides, unless a
    symbol with n_out != n_in gives T f another width: stacks of two
    widths cannot share a batch, and the sides take one call each.
    """
    n = len(fhats)
    sides = [(fhats, *src), (_apply_to_spectrum(m, fhats), *dst)]
    if m.n_out == m.n_in:
        vals = norms(sides)
        return vals[:n], vals[n:]
    return norms(sides[:1]), norms(sides[1:])


def _lp_scorer(m: OperatorSymbol, pairs: Sequence[tuple], domain_space: ValueSpace,
               codomain_space: ValueSpace) -> Callable:
    """||T f||_q / ||f||_p of stacks of spectra, for each (p, q) of pairs.

    The scorer takes (chunks, picks): chunks yields stacks of spectra, end
    to end the stack S, and pair l scores the spectra S[picks[l]].  Each
    chunk and its image take one batched idft per batch of _stack_batches
    and their node norms (_node_norms) once, however many pairs read
    them.  Each pair then raises, sums and roots the node norms of its
    picks, gathered into rows of their own, once for all the chunks, so
    every norm has the bits of lp_norm.  One pair scores one stack as
    score([stack], [np.arange(len(stack))])[0].
    """
    grid, measure = m.grid, m.grid.cell_volume

    def node_norms(sides):
        """The node norms of the spectra of sides (spectra, space), end to end."""
        runs = _lp_runs([(len(spectra), None, space) for spectra, space in sides])
        vals = []
        for j, batch in _stack_batches([spectra for spectra, _ in sides]):
            _idft_stack(batch, grid, out=batch)
            vals += [_node_norms(batch[lo:hi], space)
                     for lo, hi, _, space in _run_slices(runs, j, len(batch))]
        return _joined(vals)

    def score(chunks, picks: list) -> list:
        src, dst = zip(*(_side_norms(m, node_norms, fhats, (domain_space,), (codomain_space,))
                         for fhats in chunks))
        src, dst = _joined(src), _joined(dst)
        return [_ratios(_lp_of_node_norms(dst[idx], q, codomain_space, measure),
                        _lp_of_node_norms(src[idx], p, domain_space, measure))
                for (p, q), idx in zip(pairs, picks)]

    return score


def _joined(pieces: list) -> np.ndarray:
    """The arrays of pieces joined along their first axis; a lone piece as it is."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _besov_scorer(m: OperatorSymbol, src: BesovParams, dst: BesovParams,
                  part: DyadicPartition, domain_space: ValueSpace,
                  codomain_space: ValueSpace, homogeneous: bool) -> Callable:
    """||T f||_dst / ||f||_src of a stack of spectra, equal bit for bit to
    the quotient of besov_norm (or homogeneous_besov_norm) calls; -inf
    where ||f||_src <= 0.  The two sides' block weights are computed once,
    for every stack scored."""
    src = (src, domain_space, _besov_weights(part, src, homogeneous))
    dst = (dst, codomain_space, _besov_weights(part, dst, homogeneous))

    def norms(sides):
        return _besov_norms(sides, part, homogeneous)

    def score(fhats: np.ndarray) -> list:
        src_norms, dst_norms = _side_norms(m, norms, fhats, src, dst)
        return _ratios(dst_norms, src_norms)

    return score


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
    """Witness-search lower bound on ||T_m||_{L^p -> L^q}; monotone in budget.

    Witnesses are scored from their spectra: a chunk of witnesses and
    their images take one batched idft, and each side one vectorized L^p
    reduction (one for both when they share p and the value space).
    """
    [est] = _estimate_multiplier_norms(m, [(p, q)], domain_space, codomain_space, budget,
                                       sampler, support_mask, mean_zero)
    return est


def _estimate_multiplier_norms(
    m: OperatorSymbol,
    pairs: Sequence[tuple],
    domain_space: Optional[ValueSpace] = None,
    codomain_space: Optional[ValueSpace] = None,
    budget: SearchBudget = SearchBudget(),
    sampler: GaussianSampler = GaussianSampler(0),
    support_mask: Optional[np.ndarray] = None,
    mean_zero: bool = False,
) -> list:
    """estimate_multiplier_norm of every (p, q) of pairs, bit for bit, from
    one witness search whose lanes share every random draw."""
    for p, q in pairs:
        _check_exponent(p, "p")
        _check_exponent(q, "q")
    domain_space = _space_for(m.n_in, domain_space)
    codomain_space = _space_for(m.n_out, codomain_space)
    allowed = (
        np.ones(m.grid.n_nodes, dtype=bool) if support_mask is None else support_mask.copy()
    )
    if mean_zero:
        allowed[0] = False
    joint = _lp_scorer(m, pairs, domain_space, codomain_space)
    if len(pairs) > 1:
        return _witness_search(m, allowed, budget, sampler, joint, len(pairs))
    # one lane: each chunk is scored alone
    return _witness_search(m, allowed, budget, sampler,
                           lambda fhats: joint([fhats], [np.arange(len(fhats))])[0])


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
    the norm evaluations never hit the spectral-truncation guard.  They
    are scored from their spectra, many witnesses at a time, with the
    results of besov_norm (or homogeneous_besov_norm) bit for bit.
    """
    if part.grid != m.grid:
        raise ValueError("symbol and partition live on different grids")
    domain_space = _space_for(m.n_in, domain_space)
    codomain_space = _space_for(m.n_out, codomain_space)
    allowed = part.band_limit_mask()
    if homogeneous:
        allowed[0] = False
    score = _besov_scorer(m, src, dst, part, domain_space, codomain_space, homogeneous)
    [est] = _witness_search(m, allowed, budget, sampler, score)
    return est


# ---------------------------------------------------------------------------
# verification of the displayed bounds
# ---------------------------------------------------------------------------


def _holder_r(p: float, q: float) -> float:
    """r with 1/r = 1/p - 1/q (inf when p = q)."""
    inv = _inv(p, "p") - _inv(q, "q")
    if inv < -1e-12:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    if inv <= 1e-15:
        return np.inf
    return 1.0 / inv


def _annuli(part: DyadicPartition, homogeneous: bool) -> tuple:
    """(ks, masks) of the inhomogeneous annuli I_k or the homogeneous J_k."""
    ks = part.hom_ks if homogeneous else range(part.k_max + 1)
    mask = part.annulus_mask_hom if homogeneous else part.annulus_mask
    return np.asarray(ks, dtype=float), [mask(k) for k in ks]


def _gamma_bound_terms(
    m: OperatorSymbol,
    p: float,
    q: float,
    masks: Sequence[np.ndarray],
    domain_space: ValueSpace,
    codomain_space: ValueSpace,
    budget: SearchBudget,
    sampler: GaussianSampler,
) -> tuple:
    """The shared front half of the gamma-bound verifiers.

    Returns (r, d/r, tau_p, c_q, gammas, exact): the Hoelder exponent
    with 1/r = 1/p - 1/q, d/r (0 when r = inf), the type and cotype
    constants, and the gamma-bound of the symbol on each mask
    (gaussian._gamma_bound: 0 on an empty one, exact in the Hilbert case
    and a search lower bound otherwise).
    """
    _check_type_cotype_pair(p, q)
    r = _holder_r(p, q)
    dr = 0.0 if np.isinf(r) else m.grid.d / r
    tau = domain_space.type_constant(p)
    c = codomain_space.cotype_constant(q)

    bounds = [_gamma_bound(m.values[mask], domain_space, codomain_space, budget, sampler)
              for mask in masks]
    return r, dr, tau, c, np.asarray([g for g, _ in bounds]), bounds[0][1]


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
) -> VerificationReport:
    """Compact-Fourier-support bound: tau_p c_q (b-a)^(d/r) gamma(m on cube).

    Witnesses are restricted to spectra inside the half-open cube
    [a, b)^d on the frequency lattice, which keeps the lattice point
    count consistent with the continuum cube volume.
    """
    if len(cube) != 2:
        raise ValueError(f"cube must be a pair [a, b], got {list(cube)}")
    a, b = float(cube[0]), float(cube[1])
    if not a < b:
        raise ValueError("cube must satisfy a < b")
    coords = m.grid.frequency_coords()
    mask = np.all((coords >= a) & (coords < b), axis=1)
    if not np.any(mask):
        raise ValueError("cube contains no lattice frequencies")

    r, dr, tau, c, gammas, exact = _gamma_bound_terms(
        m, p, q, [mask], domain_space, codomain_space, budget, sampler
    )
    gamma_hat = float(gammas[0])
    bound = tau * c * (b - a) ** dr * gamma_hat

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
            "p": p, "q": q, "r": r,
            "gamma_hat": gamma_hat,
            "gamma_exact": bool(exact),
            "type_const": tau,
            "cotype_const": c,
            "seed": sampler.seed,
        },
    )


def _check_uvw(u: float, v: float, w: float) -> None:
    if _inv(w, "w") > _inv(u, "u") + _inv(v, "v") + 1e-12:
        raise ValueError(
            f"inadmissible summation exponents: need 1/w <= 1/u + 1/v, "
            f"got u={u}, v={v}, w={w}"
        )


def _check_type_cotype_pair(p: float, q: float) -> None:
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"type exponent p must lie in [1, 2], got {p}")
    if not (2.0 <= q):
        raise ValueError(f"cotype exponent q must lie in [2, inf], got {q}")


def _verify_besov_scale(
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
    budget: SearchBudget,
    sampler: GaussianSampler,
    tolerance: float,
    homogeneous: bool,
) -> VerificationReport:
    """Besov-scale multiplier bound over one annulus system, constant 4^(d/r) tau_p c_q.

    Weight sequence: 2^(k sigma) gamma({m(xi): xi in annulus k}) in l^u;
    destination smoothness s + sigma - d/r.
    """
    _check_uvw(u, v, w)
    ks, masks = _annuli(part, homogeneous)
    r, dr, tau, c, gammas, exact = _gamma_bound_terms(
        m, p, q, masks, domain_space, codomain_space, budget, sampler
    )
    weights = 2.0 ** (ks * sigma) * gammas
    bound = 4.0**dr * tau * c * _lp_combine(weights, u)

    src = BesovParams(s, p, v)
    dst = BesovParams(s + sigma - dr, q, w)
    measured = besov_multiplier_norm_estimate(
        m, src, dst, part, domain_space, codomain_space, budget, sampler,
        homogeneous=homogeneous,
    )
    if homogeneous:
        statement = "Besov multiplier bound (homogeneous annuli)"
        extra = {"k_range": [part.k_min_hom, part.k_max]}
    else:
        statement = "Besov multiplier bound (inhomogeneous annuli)"
        extra = {"dst_smoothness": dst.s}
    return VerificationReport.build(
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        metadata={
            "statement": statement,
            "s": s, "sigma": sigma, "u": u, "p": p, "v": v, "q": q, "w": w,
            **extra,
            "gamma_weights": [float(x) for x in weights],
            "gamma_exact": bool(exact),
            "q_inf_beyond_stated_range": bool(np.isinf(q)),
            "seed": sampler.seed,
        },
    )


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
) -> VerificationReport:
    """Besov-scale multiplier bound with constant 4^(d/r) tau_p c_q.

    Weight sequence: 2^(k sigma) gamma({m(xi): xi in I_k}) in l^u over
    the inhomogeneous annuli; destination smoothness s + sigma - d/r.
    """
    return _verify_besov_scale(
        m, s, sigma, u, p, v, q, w, part, domain_space, codomain_space, budget, sampler,
        tolerance, homogeneous=False,
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
) -> VerificationReport:
    """Homogeneous-scale analog over the annuli J_k with mean-zero witnesses."""
    return _verify_besov_scale(
        m, s, sigma, u, p, v, q, w, part, domain_space, codomain_space, budget, sampler,
        tolerance, homogeneous=True,
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
) -> VerificationReport:
    """L^p -> L^q bound via the l^1 sum of 2^(kd/r) gamma(J_k) weights.

    The displayed bound carries an unspecified constant depending only
    on (p, d); the report therefore records measured/bound as an
    empirical estimate of that constant.  It must stay bounded under
    grid refinement; pass c_cap to turn that into a verdict.
    """
    ks, masks = _annuli(part, homogeneous=True)
    _, dr, tau, c, gammas, exact = _gamma_bound_terms(
        m, p, q, masks, domain_space, codomain_space, budget, sampler
    )
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
            "p": p, "q": q,
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
    if not np.isclose(_inv(r, "r"), _inv(expected_r, "r"), atol=1e-9):
        raise ValueError(f"need 1/r = 1/p - 1/q; got r={r}, p={p}, q={q}")
    _check_type_cotype_pair(p, q)

    opn = m.opnorms()
    cell = m.grid.freq_cell_volume
    _, masks = _annuli(part, homogeneous=False)
    cks = np.asarray([_lp_combine(opn[mask], r, cell) for mask in masks])
    bound = _lp_combine(cks, u)

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
            "r": r, "u": u, "s": s, "p": p, "v": v, "q": q, "w": w,
            "q_inf_beyond_stated_range": bool(np.isinf(q)),
            "seed": sampler.seed,
        },
    )
