"""Periodic grids, vector-valued grid functions, and the norms on them.

Conventions
-----------
The torus is [0, L)^d sampled at N points per axis (N a power of two).
Physical nodes sit at x = j*L/N; the frequency lattice is {j/L} with
j in [-N/2, N/2) per axis, stored in FFT order.

The forward transform matches the continuum normalization
    fhat(xi) = integral exp(-2*pi*i xi.t) f(t) dt,
realized as (L/N)^d times the standard FFT.  With this scaling the
transform is unitary between L^2 of the physical grid (cell measure
(L/N)^d) and L^2 of the frequency grid (cell measure (1/L)^d), and
idft(dft(f)) == f to rounding error.

All quadrature is the rectangle rule; band-limited grid functions are
treated as exact representatives of trigonometric polynomials.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GridSpec",
    "ValueSpace",
    "GridFunction",
    "DimensionMismatchError",
    "SpectralTruncationError",
    "lp_norm",
    "weak_lp_norm",
    "dft",
    "idft",
]


class DimensionMismatchError(ValueError):
    """Value dimensions of the operands do not agree."""


class SpectralTruncationError(ValueError):
    """Too much spectral mass above the representable dyadic range."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# the largest axis frequency N/(2L) a grid may have
_MAX_AXIS_FREQUENCY = 2.0**60


@dataclass(frozen=True)
class GridSpec:
    """Sampling lattice of the torus [0, period)^d.

    n_per_dim must be a power of two and at least 4 so the dyadic cube
    hierarchy and the annulus system are well defined.
    """

    d: int
    n_per_dim: int
    period: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n_per_dim < 4 or not _is_power_of_two(self.n_per_dim):
            raise ValueError(
                f"n_per_dim must be a power of two >= 4, got {self.n_per_dim}"
            )
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        # the partitions hold one row per dyadic scale up to N/(2L), and
        # take base-2 logarithms of it and of 1/L
        if not 0.0 < self.max_axis_frequency <= _MAX_AXIS_FREQUENCY:
            raise ValueError(
                f"period {self.period:g} puts the largest axis frequency "
                f"N/(2L) = {self.max_axis_frequency:g} outside (0, 2^60]"
            )

    @property
    def n_nodes(self) -> int:
        return self.n_per_dim**self.d

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one physical cell, (L/N)^d."""
        return (self.period / self.n_per_dim) ** self.d

    @property
    def freq_cell_volume(self) -> float:
        """Quadrature weight of one frequency node, (1/L)^d."""
        return (1.0 / self.period) ** self.d

    @property
    def max_axis_frequency(self) -> float:
        """Largest representable frequency along a single axis, N/(2L)."""
        return self.n_per_dim / (2.0 * self.period)

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n_per_dim) * (self.period / self.n_per_dim)

    def axis_frequencies(self) -> np.ndarray:
        """Per-axis frequencies j/L in FFT order."""
        return np.fft.fftfreq(self.n_per_dim, d=self.period / self.n_per_dim)

    def _stacked(self, axis_vals: np.ndarray) -> np.ndarray:
        grids = np.meshgrid(*([axis_vals] * self.d), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def physical_coords(self) -> np.ndarray:
        """(n_nodes, d) array of node positions, row-major."""
        return self._stacked(self.axis_coords())

    def frequency_coords(self) -> np.ndarray:
        """(n_nodes, d) array of frequency vectors, FFT order, row-major."""
        return self._stacked(self.axis_frequencies())

    def frequency_magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.frequency_coords(), axis=1)

    def min_image_coords(self) -> np.ndarray:
        """Physical coordinates folded to the symmetric cell [-L/2, L/2)^d."""
        x = self.physical_coords()
        return (x + self.period / 2) % self.period - self.period / 2

    def spatial_shape(self) -> tuple:
        return (self.n_per_dim,) * self.d


def _lp_rows(values: np.ndarray, p: float, weight: float = 1.0) -> list:
    """(weight * sum_j |v_ij|^p)^(1/p) of each row i of a 2-d array, max for p = inf.

    The one l^p reducer: L^p quadratures pass their cell measure as the
    weight, sequence norms the default 1.  The sums are vectorized over
    the rows; the final power stays a scalar power per row, because
    numpy's vectorized power need not round like it.  The results are
    Python floats: the roots are taken on them (see _lp_roots), the
    maxima converted with one tolist.
    """
    if math.isinf(p):
        if not values.shape[-1]:
            return [0.0] * len(values)
        return values.max(axis=-1).tolist()
    return _lp_roots((values**p).sum(axis=-1), p, weight)


def _lp_roots(totals: np.ndarray, p: float, weight: float) -> list:
    """(weight * total)^(1/p) of each row total of |v|^p, as a scalar power each.

    The powers are taken on Python floats: float ** and a numpy float64
    scalar's ** both call libm's pow, so the bits are those of
    float((weight * total) ** (1.0 / p)) at half the cost per row.
    """
    weight, inv = float(weight), 1.0 / float(p)
    return [(weight * t) ** inv for t in totals.tolist()]


def _lp_combine(values: np.ndarray, p: float, weight: float = 1.0) -> float:
    """_lp_rows of a single row."""
    return _lp_rows(values[None], p, weight)[0]


def _fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1), by folding the columns left to right when there are few.

    numpy reduces a short last axis one row at a time, at 15-50 ns a row;
    one ufunc call per column does the same work vectorized over the rows.
    The bits agree: numpy's pairwise summation adds fewer than 8 terms in
    order, as the fold does.  From 8 terms on it sums in blocks of 8, so a
    fold would round differently and wider rows keep the reduce.  One
    column comes back as a view of a.
    """
    dim = a.shape[-1]
    if dim >= 8:
        return ufunc.reduce(a, axis=-1)
    if dim == 1:
        return a[..., 0]
    out = a[..., 0].copy()
    for j in range(1, dim):
        ufunc(out, a[..., j], out=out)
    return out


# below this sum of squares an l^2 row's squares may have underflowed
_L2_SUM_FLOOR = 2.0**-968


def _scaled_l2_rows(a: np.ndarray) -> np.ndarray:
    """l^2 norms of the rows of a nonnegative (k, dim) array, as m * sqrt(sum (a/m)^2)
    with m the row's largest entry, so no square overflows or underflows.

    A zero row gives 0 and a row holding inf gives inf (m = 0 and m = inf
    divide by 1 instead); a norm past the largest double overflows to inf.
    """
    m = _fold_columns(np.maximum, a)
    r = a / np.where((m > 0.0) & (m < np.inf), m, 1.0)[:, None]
    return m * np.sqrt(_fold_columns(np.add, r * r))


def _inv(x: float, name: str = "p") -> float:
    """1/x of an exponent x in [1, inf], with 1/inf = 0.  The one gate of the
    exponents that are only inverted: anything else is refused with
    _check_exponent's message naming the exponent."""
    _check_exponent(x, name)
    return 0.0 if np.isinf(x) else 1.0 / x


def _pack_complex(values: np.ndarray) -> list:
    """Complex array as the interleaved [re, im, re, im, ...] list of the JSON files."""
    flat = np.empty(values.size * 2, dtype=float)
    flat[0::2] = values.real.reshape(-1)
    flat[1::2] = values.imag.reshape(-1)
    return flat.tolist()


def _unpack_complex(data: list, shape: tuple) -> np.ndarray:
    """Inverse of _pack_complex, reshaped to ``shape``."""
    flat = np.asarray(data, dtype=float)
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape)


@dataclass(frozen=True)
class ValueSpace:
    """Finite-dimensional normed space, the stand-in for the Banach space.

    Supported kinds: the l^p_n family (``kind='lp'``) and custom norm
    oracles (``kind='custom'``); the kind is read off norm_oracle.  Only
    the type/cotype constants that are known are given: every space has
    type 1 and cotype infinity with constant 1, and the Hilbert member
    l^2_n has type 2 = cotype 2 with constant 1.  Any other constant is
    refused, and so are the operations that need it.
    """

    dim: int
    p_exponent: float = 2.0
    norm_oracle: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    @classmethod
    def lp(cls, p: float, dim: int) -> "ValueSpace":
        if not (1.0 <= p):
            raise ValueError(f"l^p exponent must be >= 1, got {p}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        ptxt = "inf" if np.isinf(p) else f"{p:g}"
        return cls(dim=dim, p_exponent=p, label=f"l{ptxt}_{dim}")

    @classmethod
    def hilbert(cls, dim: int) -> "ValueSpace":
        return cls.lp(2.0, dim)

    @classmethod
    def scalar(cls) -> "ValueSpace":
        return cls.lp(2.0, 1)

    @classmethod
    def custom(cls, dim: int, norm_oracle, label: str = "custom") -> "ValueSpace":
        if not callable(norm_oracle):
            raise ValueError(f"a custom space needs a callable norm oracle, got {norm_oracle!r}")
        return cls(dim=dim, norm_oracle=norm_oracle, label=label)

    @property
    def kind(self) -> str:
        return "lp" if self.norm_oracle is None else "custom"

    @property
    def is_hilbert(self) -> bool:
        return self.norm_oracle is None and self.p_exponent == 2.0

    def norm_rows(self, rows: np.ndarray) -> np.ndarray:
        """Norms of the rows of an (n, dim) array.

        The l^p sums and maxima fold the columns in order (_fold_columns),
        bit-identical to a reduce over the last axis but without numpy's
        per-row cost on the short rows of a value space.  The l^2 norm of
        one component is |z| itself: sqrt(fl(h*h)) == h in binary64 round
        to nearest wherever h*h neither overflows nor underflows, so this
        is the sum-of-squares root bit for bit on [2^-511, 2^512), and
        exact beyond it.  Rows of two or more components square and sum,
        and the rows whose sum of squares overflows to inf or falls below
        2^-968 (where an underflowed square may have lost bits) are taken
        again scaled by their largest entry (_scaled_l2_rows); at or above
        2^-968 the squares that underflow are below the sum's last bit.
        """
        rows = np.atleast_2d(rows)
        if rows.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected vectors of dimension {self.dim}, got {rows.shape[-1]}"
            )
        if self.norm_oracle is not None:
            return np.asarray(self.norm_oracle(rows), dtype=float)
        p = self.p_exponent
        if p == 2.0 and self.dim == 1:
            return np.abs(rows[..., 0])
        a = np.abs(rows)
        if np.isinf(p):
            return _fold_columns(np.maximum, a)
        if p == 1.0:
            return _fold_columns(np.add, a)
        if p == 2.0:
            # the squares and their root in place need float magnitudes (integer rows)
            a = a.astype(float, copy=False)
            with np.errstate(over="ignore"):
                total = _fold_columns(np.add, np.multiply(a, a, out=a))
                rescale = (total == np.inf) | (total < _L2_SUM_FLOOR)
                norms = np.sqrt(total, out=total)
                if rescale.any():
                    norms[rescale] = _scaled_l2_rows(np.abs(rows[rescale]))
            return norms
        return _fold_columns(np.add, a**p) ** (1.0 / p)

    def norm(self, vec: np.ndarray) -> float:
        return float(self.norm_rows(np.asarray(vec).reshape(1, -1))[0])

    def type_constant(self, p: float) -> float:
        """Valid type-p constant: 1 at p = 1, and at p <= 2 in l^2 (tau_r <= tau_p, r <= p)."""
        if p == 1.0 or (self.is_hilbert and p <= 2.0 + 1e-12):
            return 1.0
        raise ValueError(
            f"no known type-{p} constant for space {self.label or self.kind}"
        )

    def cotype_constant(self, q: float) -> float:
        """Valid cotype-q constant: 1 at q = inf, and at q >= 2 in l^2 (c_s <= c_q, s >= q)."""
        if np.isinf(q) or (self.is_hilbert and q >= 2.0 - 1e-12):
            return 1.0
        raise ValueError(
            f"no known cotype-{q} constant for space {self.label or self.kind}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "p": None if self.kind != "lp" else ("inf" if np.isinf(self.p_exponent) else self.p_exponent),
            "label": self.label,
        }


@dataclass
class GridFunction:
    """Vector-valued samples on a grid, tagged physical or frequency.

    ``samples`` has shape (n_nodes, value_dim), row-major over the
    lattice; frequency-domain samples follow FFT ordering per axis.
    """

    grid: GridSpec
    samples: np.ndarray
    domain_tag: str = "physical"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim == 1:
            self.samples = self.samples[:, None]
        if self.samples.ndim != 2 or self.samples.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"samples must have shape (n_nodes, value_dim) = ({self.grid.n_nodes}, k), "
                f"got {self.samples.shape}"
            )
        if self.domain_tag not in ("physical", "frequency"):
            raise ValueError(f"unknown domain_tag {self.domain_tag!r}")

    @property
    def value_dim(self) -> int:
        return self.samples.shape[1]

    @property
    def measure(self) -> float:
        """Quadrature weight per node in the current domain."""
        if self.domain_tag == "physical":
            return self.grid.cell_volume
        return self.grid.freq_cell_volume

    def spatial_view(self) -> np.ndarray:
        """Samples reshaped to (N, ..., N, value_dim)."""
        return self.samples.reshape(self.grid.spatial_shape() + (self.value_dim,))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.samples.copy(), self.domain_tag)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.samples * c, self.domain_tag)

    __rmul__ = __mul__

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid or other.domain_tag != self.domain_tag:
            raise ValueError("grid functions live on different grids or domains")
        return GridFunction(self.grid, self.samples + other.samples, self.domain_tag)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self + (other * (-1.0))

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "d": self.grid.d,
            "n_per_dim": self.grid.n_per_dim,
            "period": self.grid.period,
            "value_dim": self.value_dim,
            "domain_tag": self.domain_tag,
            "data": _pack_complex(self.samples),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GridFunction":
        grid = GridSpec(obj["d"], obj["n_per_dim"], obj["period"])
        samples = _unpack_complex(obj["data"], (-1, obj["value_dim"]))
        return cls(grid, samples, obj["domain_tag"])

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        return cls.from_json_obj(json.loads(text))

    def to_csv(self, path) -> None:
        """CSV export for 1-d scalar functions: coordinate, re, im."""
        if self.grid.d != 1 or self.value_dim != 1:
            raise ValueError("CSV export is defined for 1-d scalar functions only")
        coords = (
            self.grid.axis_coords()
            if self.domain_tag == "physical"
            else self.grid.axis_frequencies()
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["coord", "re", "im"])
            for c, v in zip(coords, self.samples[:, 0]):
                writer.writerow([repr(float(c)), repr(float(v.real)), repr(float(v.imag))])

    # -- transforms ----------------------------------------------------

    def dft(self) -> "GridFunction":
        return dft(self)

    def idft(self) -> "GridFunction":
        return idft(self)


def _transform_stack(transform, samples: np.ndarray, grid: GridSpec, scale: float,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """The 1-D transform (np.fft.fft or ifft) along every lattice axis of each
    member of a stack (S, n_nodes, dim), times scale.

    The axis passes run last lattice axis first, the order numpy's
    fftn/ifftn take them in, so the result is fftn/ifftn over the lattice
    axes bit for bit, without their argument handling (a third of a small
    transform's time).  Every axis pass and the scaling write into one
    buffer: out, a C-contiguous complex array of the stack's shape that
    may be samples itself, or a new array.  A fresh temporary per pass
    pushes a 256^2 transform out of the L2 cache and doubles its time;
    the bits are the same either way.
    """
    if out is None:
        out = np.empty(samples.shape, dtype=np.complex128)
    lattice = (samples.shape[0],) + grid.spatial_shape() + (samples.shape[-1],)
    buf = out.reshape(lattice)
    src = samples.reshape(lattice)
    for axis in range(grid.d, 0, -1):
        src = transform(src, axis=axis, out=buf)
    np.multiply(buf, scale, out=buf)
    return out


def _dft_stack(samples: np.ndarray, grid: GridSpec, out: Optional[np.ndarray] = None) -> np.ndarray:
    """dft of each member of a stack (S, n_nodes, dim) of physical samples, into out if given."""
    return _transform_stack(np.fft.fft, samples, grid, grid.cell_volume, out)


def _idft_scale(grid: GridSpec) -> float:
    """The factor idft applies after numpy's normalized inverse FFT."""
    return (grid.n_per_dim / grid.period) ** grid.d


def _idft_stack(spectra: np.ndarray, grid: GridSpec, out: Optional[np.ndarray] = None) -> np.ndarray:
    """idft of each member of a stack (S, n_nodes, dim) of spectra, into out if given."""
    return _transform_stack(np.fft.ifft, spectra, grid, _idft_scale(grid), out)


def dft(f: GridFunction) -> GridFunction:
    """Forward transform, physical -> frequency, continuum normalization."""
    if f.domain_tag != "physical":
        raise ValueError("dft expects a physical-domain function")
    return GridFunction(f.grid, _dft_stack(f.samples[None], f.grid)[0], "frequency")


def idft(f: GridFunction) -> GridFunction:
    """Inverse transform, frequency -> physical."""
    if f.domain_tag != "frequency":
        raise ValueError("idft expects a frequency-domain function")
    return GridFunction(f.grid, _idft_stack(f.samples[None], f.grid)[0], "physical")


def _check_exponent(p: float, name: str = "p", allow_inf: bool = True) -> None:
    if np.isinf(p):
        if not allow_inf:
            raise ValueError(f"{name} = inf is not allowed here")
        return
    if not (1.0 <= p < np.inf):
        raise ValueError(f"{name} must lie in [1, inf], got {p}")


def _space_for(value_dim: int, space: Optional[ValueSpace]) -> ValueSpace:
    """The value space of functions with value_dim components; l^2 when None."""
    if space is None:
        return ValueSpace.lp(2.0, value_dim)
    if space.dim != value_dim:
        raise DimensionMismatchError(
            f"value space dimension {space.dim} != function value_dim {value_dim}"
        )
    return space


def _lp_norms(samples: np.ndarray, p: float, space: ValueSpace, measure: float) -> list:
    """lp_norm of each member of a stack (S, n_nodes, dim) of samples."""
    return _lp_of_node_norms(_node_norms(samples, space), p, space, measure)


def _node_norms(samples: np.ndarray, space: ValueSpace) -> np.ndarray:
    """The value-space norm at every node of each member of a stack (S, n_nodes, dim):
    an (S, n_nodes) array, the first half of _lp_norms."""
    return space.norm_rows(samples.reshape(-1, samples.shape[-1])).reshape(samples.shape[:-1])


def _lp_of_node_norms(vals: np.ndarray, p: float, space: ValueSpace, measure: float) -> list:
    """The L^p norms of the members whose _node_norms in space are the rows of
    vals, the second half of _lp_norms; vals may be overwritten."""
    if space.norm_oracle is not None or math.isinf(p):
        return _lp_rows(vals, p, measure)
    # the powers in place, on norm_rows' own temporary; never on a custom
    # oracle's result, which may be the oracle's own memory
    vals **= p
    return _lp_roots(vals.sum(axis=-1), p, measure)


def _lp_runs(sides: list) -> list:
    """The runs of a stack cut into sides, for _lp_norms_by_run.

    sides lists (count, p, space) of consecutive members of the stack;
    neighbours with the same p and space merge into one run (end, p,
    space), end being the index one past the run's last member.
    """
    runs, end = [], 0
    for count, p, space in sides:
        end += count
        if runs and runs[-1][1:] == (p, space):
            runs[-1] = (end, p, space)
        else:
            runs.append((end, p, space))
    return runs


def _run_slices(runs: list, first: int, count: int):
    """(lo, hi, p, space) of each run of _lp_runs that members first..first+count-1
    of the stack meet; lo and hi are counted from member first."""
    lo, last = first, first + count
    for end, p, space in runs:
        hi = min(end, last)
        if hi > lo:
            yield lo - first, hi - first, p, space
            lo = hi


def _lp_norms_by_run(samples: np.ndarray, runs: list, measure: float, first: int = 0) -> list:
    """_lp_norms of each member of a stack (B, n_nodes, dim) that holds members
    first..first+B-1 of a longer stack cut into _lp_runs.

    One _lp_norms call per run the stack meets: every member is reduced on
    its own rows, so a member's norm has the same bits however the stack
    is cut.
    """
    norms = []
    for lo, hi, p, space in _run_slices(runs, first, len(samples)):
        norms += _lp_norms(samples[lo:hi], p, space, measure)
    return norms


def lp_norm(f: GridFunction, p: float, space: Optional[ValueSpace] = None) -> float:
    """Rectangle-rule L^p norm, ((measure) * sum ||f(x)||_X^p)^(1/p).

    Works in either domain; the frequency domain uses the dual cell
    measure (1/L)^d so that Parseval holds exactly for p = 2.
    """
    _check_exponent(p)
    return _lp_norms(f.samples[None], p, _space_for(f.value_dim, space), f.measure)[0]


def weak_lp_norm(f: GridFunction, a: float, space: Optional[ValueSpace] = None) -> float:
    """Weak L^a norm sup_alpha alpha * mu(||f|| > alpha)^(1/a).

    For a grid step function the sup is attained at the attained heights,
    evaluated with the closed sublevel count; this equals the continuum
    sup over alpha > 0.
    """
    _check_exponent(a, "a", allow_inf=False)
    space = _space_for(f.value_dim, space)
    vals = np.sort(space.norm_rows(f.samples))[::-1]
    if vals.size == 0 or vals[0] == 0.0:
        return 0.0
    counts = np.arange(1, vals.size + 1, dtype=float)
    candidates = vals * (counts * f.measure) ** (1.0 / a)
    return float(np.max(candidates))
