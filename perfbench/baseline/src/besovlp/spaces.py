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
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")

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


def _lp_combine(values: np.ndarray, p: float, weight: float) -> float:
    """(sum weight*|v|^p)^(1/p) with max semantics for p = inf."""
    if np.isinf(p):
        return float(np.max(values)) if values.size else 0.0
    return float((weight * np.sum(values**p)) ** (1.0 / p))


@dataclass(frozen=True)
class ValueSpace:
    """Finite-dimensional normed space, the stand-in for the Banach space.

    Supported kinds: the l^p_n family (``kind='lp'``) and custom norm
    oracles.  Type/cotype/Fourier data is attached when it is actually
    known:   every space gets type 1 and cotype infinity with constant 1,
    and the Hilbert member l^2_n carries type 2 = cotype 2 = Fourier
    type 2, all with constant 1.  Other constants stay None and the
    operations that need them refuse to run.
    """

    dim: int
    kind: str = "lp"
    p_exponent: float = 2.0
    norm_oracle: Optional[Callable[[np.ndarray], np.ndarray]] = None
    type_exponent: Optional[float] = None
    type_const: Optional[float] = None
    cotype_exponent: Optional[float] = None
    cotype_const: Optional[float] = None
    fourier_type: Optional[float] = None
    fourier_const: Optional[float] = None
    label: str = ""

    @classmethod
    def lp(cls, p: float, dim: int) -> "ValueSpace":
        if not (1.0 <= p):
            raise ValueError(f"l^p exponent must be >= 1, got {p}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        kwargs = {}
        if p == 2.0:
            kwargs = dict(
                type_exponent=2.0,
                type_const=1.0,
                cotype_exponent=2.0,
                cotype_const=1.0,
                fourier_type=2.0,
                fourier_const=1.0,
            )
        ptxt = "inf" if np.isinf(p) else f"{p:g}"
        return cls(dim=dim, kind="lp", p_exponent=p, label=f"l{ptxt}_{dim}", **kwargs)

    @classmethod
    def hilbert(cls, dim: int) -> "ValueSpace":
        return cls.lp(2.0, dim)

    @classmethod
    def scalar(cls) -> "ValueSpace":
        return cls.lp(2.0, 1)

    @classmethod
    def custom(cls, dim: int, norm_oracle, label: str = "custom") -> "ValueSpace":
        return cls(dim=dim, kind="custom", norm_oracle=norm_oracle, label=label)

    @property
    def is_hilbert(self) -> bool:
        return self.kind == "lp" and self.p_exponent == 2.0

    def norm_rows(self, rows: np.ndarray) -> np.ndarray:
        """Norms of the rows of an (n, dim) array."""
        rows = np.atleast_2d(rows)
        if rows.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected vectors of dimension {self.dim}, got {rows.shape[-1]}"
            )
        if self.kind == "custom":
            return np.asarray(self.norm_oracle(rows), dtype=float)
        p = self.p_exponent
        a = np.abs(rows)
        if np.isinf(p):
            return a.max(axis=-1)
        if p == 1.0:
            return a.sum(axis=-1)
        if p == 2.0:
            return np.sqrt((a * a).sum(axis=-1))
        return (a**p).sum(axis=-1) ** (1.0 / p)

    def norm(self, vec: np.ndarray) -> float:
        return float(self.norm_rows(np.asarray(vec).reshape(1, -1))[0])

    def type_constant(self, p: float) -> float:
        """Valid type-p constant, using monotonicity tau_r <= tau_p for r <= p."""
        if p == 1.0:
            return 1.0
        if self.type_exponent is not None and p <= self.type_exponent + 1e-12:
            return float(self.type_const)
        raise ValueError(
            f"no known type-{p} constant for space {self.label or self.kind}"
        )

    def cotype_constant(self, q: float) -> float:
        """Valid cotype-q constant, using monotonicity c_s <= c_q for s >= q."""
        if np.isinf(q):
            return 1.0
        if self.cotype_exponent is not None and q >= self.cotype_exponent - 1e-12:
            return float(self.cotype_const)
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
        flat = np.empty(self.samples.size * 2, dtype=float)
        flat[0::2] = self.samples.real.reshape(-1)
        flat[1::2] = self.samples.imag.reshape(-1)
        return {
            "d": self.grid.d,
            "n_per_dim": self.grid.n_per_dim,
            "period": self.grid.period,
            "value_dim": self.value_dim,
            "domain_tag": self.domain_tag,
            "data": flat.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GridFunction":
        grid = GridSpec(obj["d"], obj["n_per_dim"], obj["period"])
        flat = np.asarray(obj["data"], dtype=float)
        samples = (flat[0::2] + 1j * flat[1::2]).reshape(-1, obj["value_dim"])
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


def dft(f: GridFunction) -> GridFunction:
    """Forward transform, physical -> frequency, continuum normalization."""
    if f.domain_tag != "physical":
        raise ValueError("dft expects a physical-domain function")
    g = f.spatial_view()
    axes = tuple(range(f.grid.d))
    out = np.fft.fftn(g, axes=axes) * f.grid.cell_volume
    return GridFunction(f.grid, out.reshape(f.grid.n_nodes, f.value_dim), "frequency")


def idft(f: GridFunction) -> GridFunction:
    """Inverse transform, frequency -> physical."""
    if f.domain_tag != "frequency":
        raise ValueError("idft expects a frequency-domain function")
    g = f.spatial_view()
    axes = tuple(range(f.grid.d))
    out = np.fft.ifftn(g, axes=axes) * (f.grid.n_per_dim / f.grid.period) ** f.grid.d
    return GridFunction(f.grid, out.reshape(f.grid.n_nodes, f.value_dim), "physical")


def _check_exponent(p: float, name: str = "p", allow_inf: bool = True) -> None:
    if np.isinf(p):
        if not allow_inf:
            raise ValueError(f"{name} = inf is not allowed here")
        return
    if not (1.0 <= p < np.inf):
        raise ValueError(f"{name} must lie in [1, inf], got {p}")


def _space_for(f: GridFunction, space: Optional[ValueSpace]) -> ValueSpace:
    if space is None:
        return ValueSpace.lp(2.0, f.value_dim)
    if space.dim != f.value_dim:
        raise DimensionMismatchError(
            f"value space dimension {space.dim} != function value_dim {f.value_dim}"
        )
    return space


def lp_norm(f: GridFunction, p: float, space: Optional[ValueSpace] = None) -> float:
    """Rectangle-rule L^p norm, ((measure) * sum ||f(x)||_X^p)^(1/p).

    Works in either domain; the frequency domain uses the dual cell
    measure (1/L)^d so that Parseval holds exactly for p = 2.
    """
    _check_exponent(p)
    space = _space_for(f, space)
    vals = space.norm_rows(f.samples)
    return _lp_combine(vals, p, f.measure)


def weak_lp_norm(f: GridFunction, a: float, space: Optional[ValueSpace] = None) -> float:
    """Weak L^a norm sup_alpha alpha * mu(||f|| > alpha)^(1/a).

    For a grid step function the sup is attained at the attained heights,
    evaluated with the closed sublevel count; this equals the continuum
    sup over alpha > 0.
    """
    _check_exponent(a, "a", allow_inf=False)
    space = _space_for(f, space)
    vals = np.sort(space.norm_rows(f.samples))[::-1]
    if vals.size == 0 or vals[0] == 0.0:
        return 0.0
    counts = np.arange(1, vals.size + 1, dtype=float)
    candidates = vals * (counts * f.measure) ** (1.0 / a)
    return float(np.max(candidates))
