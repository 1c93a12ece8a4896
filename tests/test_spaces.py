import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from besovlp import (
    DimensionMismatchError,
    GridFunction,
    GridSpec,
    ValueSpace,
    dft,
    idft,
    lp_norm,
    weak_lp_norm,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 3, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 12, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(0, 64, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 64, -1.0)


@pytest.mark.parametrize("period", [math.inf, math.nan, 1e308, 1e-17, 1e-100, 1e-320])
def test_grid_refuses_periods_whose_frequencies_overflow_or_vanish(period):
    # N/(2L) must lie in (0, 2^60]: 1e308 makes it 0, 1e-320 inf
    with pytest.raises(ValueError, match="period"):
        GridSpec(1, 64, period)


def test_grid_takes_periods_up_to_the_frequency_cap():
    # N/(2L) = 2^60 exactly, and a period that makes it just under 2^-1000
    assert GridSpec(2, 64, 2.0**-55).max_axis_frequency == 2.0**60
    assert GridSpec(1, 4, 2.0**1002).max_axis_frequency == 2.0**-1001


def test_frequency_lattice_range():
    g = GridSpec(1, 8, 2.0)
    freqs = sorted(g.axis_frequencies())
    assert freqs == [j / 2.0 for j in range(-4, 4)]


def test_lp_norm_constant_function():
    g = GridSpec(1, 4, 1.0)
    f = GridFunction(g, np.full(4, 2.0))
    for p in (1.0, 2.0, 3.0, np.inf):
        assert lp_norm(f, p) == pytest.approx(2.0, abs=1e-14)


def test_lp_norm_indicator():
    g = GridSpec(1, 4, 1.0)
    f = GridFunction(g, np.array([1.0, 1.0, 0.0, 0.0]))
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_lp_norm_matches_direct_loop_oracle(rng):
    # independent straightforward-loop quadrature at full precision
    g = GridSpec(1, 16, 2.0)
    samples = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    f = GridFunction(g, samples)
    space = ValueSpace.lp(2.0, 3)
    p = 3.0
    acc = 0.0
    for row in samples:
        nrm = math.sqrt(sum(abs(z) ** 2 for z in row))
        acc += (2.0 / 16.0) * nrm**p
    expected = acc ** (1.0 / p)
    assert lp_norm(f, p, space) == pytest.approx(expected, rel=1e-13)


def test_weak_norm_single_level():
    g = GridSpec(1, 16, 1.0)
    vals = np.zeros(16)
    vals[:4] = 3.0  # measure 1/4
    f = GridFunction(g, vals)
    assert weak_lp_norm(f, 2.0) == pytest.approx(3.0 * 0.25**0.5, abs=1e-14)


def test_weak_norm_zero():
    g = GridSpec(1, 8, 1.0)
    assert weak_lp_norm(GridFunction(g, np.zeros(8)), 1.5) == 0.0


def test_weak_norm_two_level_matches_alpha_sweep_oracle():
    g = GridSpec(1, 32, 1.0)
    vals = np.zeros(32)
    vals[:4] = 5.0
    vals[4:20] = 1.0
    f = GridFunction(g, vals)
    a = 1.7
    # dense sweep over heights: sup_alpha alpha * mu(>alpha)^(1/a)
    alphas = np.linspace(1e-6, 5.0, 200001)
    cell = g.cell_volume
    sweep = 0.0
    for alpha in alphas:
        mu = cell * np.count_nonzero(vals > alpha)
        sweep = max(sweep, alpha * mu ** (1.0 / a))
    computed = weak_lp_norm(f, a)
    assert computed >= sweep - 1e-12
    assert computed == pytest.approx(sweep, rel=1e-3)


def test_weak_norm_chebyshev(rng):
    g = GridSpec(1, 64, 1.0)
    f = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for a in (1.0, 2.0, 3.5):
        assert weak_lp_norm(f, a) <= lp_norm(f, a) + 1e-12


def test_holder_monotonicity_probability_torus(rng):
    g = GridSpec(1, 64, 1.0)
    f = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    norms = [lp_norm(f, p) for p in (1.0, 1.5, 2.0, 4.0, np.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_absolute_homogeneity(rng):
    g = GridSpec(1, 32, 1.0)
    f = GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    c = -2.3 + 0.7j
    for p in (1.0, 2.7, np.inf):
        assert lp_norm(f * c, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)
    assert weak_lp_norm(f * c, 2.0) == pytest.approx(
        abs(c) * weak_lp_norm(f, 2.0), rel=1e-12
    )


def test_dft_constant_concentrates_at_zero():
    g = GridSpec(1, 16, 2.0)
    c = 1.5 - 0.5j
    fhat = dft(GridFunction(g, np.full(16, c)))
    assert fhat.samples[0, 0] == pytest.approx(c * 2.0, abs=1e-13)
    assert np.abs(fhat.samples[1:]).max() < 1e-13


def test_dft_single_exponential_is_a_spike():
    g = GridSpec(1, 32, 1.0)
    j = 5
    x = g.axis_coords()
    f = GridFunction(g, np.exp(2j * np.pi * j * x))
    fhat = dft(f)
    freqs = g.axis_frequencies()
    spike = np.argmax(np.abs(fhat.samples[:, 0]))
    assert freqs[spike] == pytest.approx(j / g.period)
    others = np.abs(fhat.samples[:, 0]).copy()
    others[spike] = 0.0
    assert others.max() < 1e-12


def test_parseval_and_roundtrip(rng):
    g = GridSpec(2, 16, 3.0)
    f = GridFunction(g, rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)))
    fhat = dft(f)
    assert lp_norm(fhat, 2.0, ValueSpace.lp(2.0, 2)) == pytest.approx(
        lp_norm(f, 2.0, ValueSpace.lp(2.0, 2)), rel=1e-10
    )
    back = idft(fhat)
    rel = np.abs(back.samples - f.samples).max() / np.abs(f.samples).max()
    assert rel < 1e-12


def test_value_space_norms_and_constants():
    linf = ValueSpace.lp(np.inf, 3)
    assert linf.norm([1.0, -2.0, 0.5]) == 2.0
    l1 = ValueSpace.lp(1.0, 2)
    assert l1.norm([3.0, 4.0]) == 7.0
    h = ValueSpace.hilbert(4)
    assert h.type_constant(2.0) == 1.0
    assert h.type_constant(1.5) == 1.0  # monotone in the exponent
    assert h.cotype_constant(3.0) == 1.0
    assert l1.type_constant(1.0) == 1.0
    assert l1.cotype_constant(np.inf) == 1.0
    with pytest.raises(ValueError):
        l1.type_constant(2.0)


# the spaces and exponents of the type/cotype table; "-" marks a refusal
_CONSTANT_SPACES = {
    "l1_3": ValueSpace.lp(1.0, 3),
    "l1.5_3": ValueSpace.lp(1.5, 3),
    "l2_3": ValueSpace.hilbert(3),
    "l2_1": ValueSpace.scalar(),
    "linf_3": ValueSpace.lp(np.inf, 3),
    "custom": ValueSpace.custom(3, lambda rows: np.abs(rows).sum(axis=-1)),
}
_TYPE_EXPONENTS = (1.0, 1.5, 2.0, 2.0 + 1e-13, 2.5)
_COTYPE_EXPONENTS = (1.5, 2.0 - 1e-13, 2.0, 4.0, np.inf)
_CONSTANT_TABLE = {
    # name: (type constants over _TYPE_EXPONENTS, cotype over _COTYPE_EXPONENTS)
    "l1_3": ("1 - - - -", "- - - - 1"),
    "l1.5_3": ("1 - - - -", "- - - - 1"),
    "l2_3": ("1 1 1 1 -", "- 1 1 1 1"),
    "l2_1": ("1 1 1 1 -", "- 1 1 1 1"),
    "linf_3": ("1 - - - -", "- - - - 1"),
    "custom": ("1 - - - -", "- - - - 1"),
}


@pytest.mark.parametrize("name", sorted(_CONSTANT_TABLE))
def test_type_and_cotype_constants_table(name):
    # type 1 and cotype infinity hold with constant 1 in every space, and l^2
    # has type 2 = cotype 2 with constant 1 (monotone, with 1e-12 slack);
    # every other exponent has no known constant and is refused in one line
    space = _CONSTANT_SPACES[name]
    for method, exponents, row in (
        (space.type_constant, _TYPE_EXPONENTS, _CONSTANT_TABLE[name][0]),
        (space.cotype_constant, _COTYPE_EXPONENTS, _CONSTANT_TABLE[name][1]),
    ):
        for exponent, entry in zip(exponents, row.split()):
            if entry == "1":
                assert method(exponent) == 1.0, (name, method.__name__, exponent)
            else:
                with pytest.raises(ValueError, match="no known") as err:
                    method(exponent)
                assert "\n" not in str(err.value)


def test_norm_rows_matches_the_last_axis_reduce_exactly(rng):
    # the column fold below 8 components and the reduce from 8 on must both
    # give the bits of a plain reduce over the last axis
    def reference(rows, p):
        a = np.abs(np.atleast_2d(rows))
        if np.isinf(p):
            return a.max(axis=-1)
        if p == 1.0:
            return a.sum(axis=-1)
        if p == 2.0:
            return np.sqrt((a * a).sum(axis=-1))
        return (a**p).sum(axis=-1) ** (1.0 / p)

    for dim in range(1, 13):
        shape = (3, 500, dim)
        scale = np.exp(rng.uniform(-20.0, 20.0, shape))
        stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        # a block, a 1-d vector, the reshaped (S*n, dim) stack, a column-major block
        inputs = (stack[0], stack[1, 0], stack.reshape(-1, dim), np.asfortranarray(stack[2]))
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            space = ValueSpace.lp(p, dim)
            for rows in inputs:
                assert np.array_equal(space.norm_rows(rows), reference(rows, p)), (dim, p)


def _floats(exponents, mantissas):
    """The binary64 numbers 2^e * (1 + m / 2^52), built from their bits."""
    bits = (np.asarray(exponents, dtype=np.int64) + 1023) << 52 | np.asarray(mantissas, np.int64)
    return bits.view(np.float64)


def _root_of_square(rows):
    """The one-component l^2 norm as norm_rows took it before: abs, square, sqrt."""
    a = np.abs(np.atleast_2d(rows))
    with np.errstate(over="ignore", under="ignore"):
        return np.sqrt((a * a).sum(axis=-1))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_scalar_l2_norm_rows_equal_the_root_of_the_square_exactly():
    # sqrt(fl(h*h)) == h in binary64 wherever h*h neither overflows nor
    # underflows, so |z| keeps the old bits on [2^-511, 2^512): 2^23 random
    # magnitudes and 2^22 random complex values (|z| below 2^511.5), then
    # every exponent with its edge mantissas
    space = ValueSpace.scalar()
    rng = np.random.default_rng(60)
    chunk = 2**20
    for _ in range(8):
        h = _floats(rng.integers(-511, 512, chunk), rng.integers(0, 2**52, chunk))
        h[::2] *= -1.0
        assert _same_bits(space.norm_rows(h[:, None]), _root_of_square(h[:, None]))
    for _ in range(4):
        parts = [_floats(rng.integers(-511, 511, chunk), rng.integers(0, 2**52, chunk))
                 for _ in range(2)]
        z = (parts[0] * rng.choice([-1.0, 1.0], chunk) + 1j * parts[1])[:, None]
        assert _same_bits(space.norm_rows(z), _root_of_square(z))
    exponents = np.repeat(np.arange(-511, 512), 7)
    edges = np.tile([0, 1, 2, 3, 2**51, 2**52 - 2, 2**52 - 1], 1023)
    h = np.concatenate([_floats(exponents, edges), [0.0, -0.0, np.inf, -np.inf]])
    assert _same_bits(space.norm_rows(h[:, None]), _root_of_square(h[:, None]))
    assert np.isnan(space.norm_rows(np.array([[np.nan], [complex(np.nan, 1.0)]]))).all()


def test_scalar_l2_norms_are_exact_where_the_square_leaves_the_range(rng):
    # the old root of the square gave inf at 1e200 and 0.0 at 1e-200
    space = ValueSpace.scalar()
    huge, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
    for h in (1e200, 2.0**512, huge, 1e-200, 2.0**-512, tiny):
        assert space.norm([h]) == space.norm([-h]) == space.norm([1j * h]) == h
    assert _root_of_square([1e200]) == np.inf and _root_of_square([1e-200]) == 0.0
    # magnitudes whose squares are subnormal: [2^-537, 2^-511)
    h = _floats(rng.integers(-537, -511, 10**5), rng.integers(0, 2**52, 10**5))
    assert _same_bits(space.norm_rows(h[:, None]), h)
    assert not np.array_equal(_root_of_square(h[:, None]), h)
    g = GridSpec(1, 8, 1.0)
    for h in (1e-200, 1e200):
        assert lp_norm(GridFunction(g, np.full(8, h)), np.inf) == h
        assert weak_lp_norm(GridFunction(g, np.full(8, -h)), 2.0) == h


def _sum_of_squares_root(rows):
    """The l^2 norm of rows as norm_rows took it before for two or more
    components: abs, square, sum, sqrt."""
    a = np.abs(np.atleast_2d(rows))
    with np.errstate(over="ignore"):
        return np.sqrt((a * a).sum(axis=-1))


def test_l2_norms_of_several_components_neither_overflow_nor_underflow():
    # the sum of squares gave inf, 0.0 and 4.99997e-160 with a RuntimeWarning
    space = ValueSpace.hilbert(2)
    assert _sum_of_squares_root([1e200, 0.0])[0] == np.inf
    assert _sum_of_squares_root([1e-200, 0.0])[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.norm([1e200, 0.0]) == 1e200
        assert space.norm([0.0, -1e-200j]) == 1e-200
        assert abs(space.norm([3e-160, 4e-160]) - 5e-160) <= np.spacing(5e-160)
        huge = np.finfo(float).max
        assert space.norm([huge / 2.0, huge / 2.0]) == pytest.approx(huge / math.sqrt(2.0),
                                                                      rel=1e-15)
        assert space.norm([huge, huge]) == np.inf
        rows = np.array([[0.0, 0.0], [np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0],
                         [np.nan, np.inf], [np.inf, np.nan]])
        got = space.norm_rows(rows)
        assert got[0] == 0.0 and got[1] == got[2] == np.inf and np.isnan(got[3:]).all()
        wide = ValueSpace.hilbert(9)
        assert wide.norm(np.full(9, 1e200)) == pytest.approx(3e200, rel=1e-15)
        assert wide.norm(np.full(9, 1e-200)) == pytest.approx(3e-200, rel=1e-15)
        assert wide.norm(np.zeros(9)) == 0.0
        assert space.norm_rows(np.zeros((0, 2))).shape == (0,)


def test_l2_norms_of_several_components_keep_their_bits_in_range():
    # rows whose sum of squares is finite and at least 2^-968 keep the
    # sum-of-squares root bit for bit, at every width and across the range
    rng = np.random.default_rng(61)
    for dim in (2, 3, 7, 8, 12):
        shape = (2**15, dim)
        scale = 2.0 ** rng.integers(-490, 510, shape[0])[:, None]
        spread = 2.0 ** rng.integers(-30, 1, shape)
        rows = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * spread * scale
        old = _sum_of_squares_root(rows)
        kept = (old < np.inf) & (old * old >= 2.0**-968)
        assert kept.mean() > 0.9
        got = ValueSpace.hilbert(dim).norm_rows(rows)
        assert _same_bits(got[kept], old[kept]), dim


def test_integer_rows_take_the_norms_of_the_same_rows_in_float():
    # l^2 rows of two or more components squared an integer array in place
    # and could not write its float root there
    assert ValueSpace.hilbert(2).norm([3, 4]) == 5.0
    rows = np.array([[3, 4, 0], [1, -2, 2], [0, 0, 0], [-7, 1, 5], [0, 0, -9]])
    spaces = [ValueSpace.lp(p, 3) for p in (1.0, 1.5, 2.0, 3.0, np.inf)]
    spaces.append(ValueSpace.custom(3, lambda r: np.abs(r).sum(axis=-1)))
    for space in spaces:
        assert np.array_equal(space.norm_rows(rows), space.norm_rows(rows.astype(float)))
    scalar = ValueSpace.scalar()
    assert np.array_equal(scalar.norm_rows(rows[:, :1]), scalar.norm_rows(rows[:, :1] * 1.0))


@dataclasses.dataclass(frozen=True)
class _SpaceWithKind:
    """ValueSpace's fields when kind was one of them: the reference for
    equality, hashing and to_dict now that kind is read off norm_oracle."""

    dim: int
    kind: str = "lp"
    p_exponent: float = 2.0
    norm_oracle: object = None
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "p": None if self.kind != "lp" else ("inf" if np.isinf(self.p_exponent) else self.p_exponent),
            "label": self.label,
        }


def test_value_spaces_compare_hash_and_serialize_as_when_kind_was_a_field():
    def taxi(rows):
        return np.abs(rows).sum(axis=-1)

    def peak(rows):
        return np.abs(rows).max(axis=-1)

    spaces = [ValueSpace.lp(1.0, 2), ValueSpace.lp(1.0, 2), ValueSpace.hilbert(2),
              ValueSpace.lp(np.inf, 3), ValueSpace.scalar(), ValueSpace.lp(2.0, 1),
              ValueSpace.custom(2, taxi), ValueSpace.custom(2, taxi), ValueSpace.custom(2, peak),
              ValueSpace.custom(2, taxi, label="taxi"), ValueSpace.custom(3, taxi)]
    refs = [_SpaceWithKind(s.dim, "lp" if s.norm_oracle is None else "custom", s.p_exponent,
                           s.norm_oracle, s.label) for s in spaces]
    for (a, ra), (b, rb) in itertools.product(zip(spaces, refs), repeat=2):
        assert (a == b) == (ra == rb)
        assert (hash(a) == hash(b)) == (hash(ra) == hash(rb))
    assert len(set(spaces)) == len(set(refs)) == 8
    assert [s.to_dict() for s in spaces] == [r.to_dict() for r in refs]
    assert [s.kind for s in spaces] == ["lp"] * 6 + ["custom"] * 5
    with pytest.raises(ValueError, match="callable norm oracle"):
        ValueSpace.custom(2, None)


def test_custom_norm_oracle_spot_checks(rng):
    def taxi(rows):
        return np.abs(rows).sum(axis=-1)

    space = ValueSpace.custom(3, taxi)
    v = rng.standard_normal(3)
    w = rng.standard_normal(3)
    # homogeneity and triangle inequality
    assert space.norm(2.5 * v) == pytest.approx(2.5 * space.norm(v), rel=1e-12)
    assert space.norm(v + w) <= space.norm(v) + space.norm(w) + 1e-12


def test_dimension_mismatch_raises():
    g = GridSpec(1, 8, 1.0)
    f = GridFunction(g, np.ones((8, 2)))
    with pytest.raises(DimensionMismatchError):
        lp_norm(f, 2.0, ValueSpace.lp(2.0, 3))


def test_json_serialization_roundtrip(rng):
    g = GridSpec(1, 8, 2.0)
    f = GridFunction(g, rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    back = GridFunction.from_json(f.to_json())
    assert back.grid == f.grid
    assert back.domain_tag == f.domain_tag
    np.testing.assert_array_equal(back.samples, f.samples)
    obj = json.loads(f.to_json())
    assert set(obj) == {"d", "n_per_dim", "period", "value_dim", "domain_tag", "data"}
    assert len(obj["data"]) == 2 * 8 * 2  # interleaved re/im


def test_csv_export(tmp_path, rng):
    g = GridSpec(1, 8, 1.0)
    f = GridFunction(g, rng.standard_normal(8))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "coord,re,im"
    assert len(lines) == 9
    with pytest.raises(ValueError):
        GridFunction(g, np.ones((8, 2))).to_csv(tmp_path / "g.csv")
