import math
import tracemalloc

import numpy as np
import pytest

from besovlp import GaussianSampler, MCEstimate, SearchBudget, ValueSpace
from besovlp import gaussian
from besovlp.gaussian import _chunked_moment
from besovlp.sampling import _SCRATCH_ENTRIES, _complex_normals


def _old_draw(rng, shape):
    """The draw complex_gaussians made with full-size temporaries: the reference."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("shape", [1, 7, (1,), (4, 3), (2, 5, 3)])
def test_complex_normals_are_the_two_call_draw(shape):
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    got = _complex_normals(rng, shape)
    assert _same_bits(got, ref.standard_normal(shape) + 1j * ref.standard_normal(shape))
    # the two calls consume the stream exactly as far as the one call
    assert rng.random() == ref.random()


def test_sampler_is_deterministic():
    a = GaussianSampler(7).complex_gaussians((4, 3), op_code=2, stream=1)
    b = GaussianSampler(7).complex_gaussians((4, 3), op_code=2, stream=1)
    np.testing.assert_array_equal(a, b)


def test_sampler_streams_are_decorrelated():
    s = GaussianSampler(7)
    a = s.complex_gaussians((1000,), stream=0)
    b = s.complex_gaussians((1000,), stream=1)
    assert np.abs(np.vdot(a, b)) / 1000.0 < 0.2
    assert not np.allclose(a, b)


def test_complex_gaussians_unit_variance():
    g = GaussianSampler(11, 1000).complex_gaussians((200000,))
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=0.02)


def test_sampler_validates_sample_count():
    with pytest.raises(ValueError):
        GaussianSampler(1, 10)


def test_mc_estimate_validates():
    with pytest.raises(ValueError):
        MCEstimate(1.0, -0.1, 100)
    est = MCEstimate(2.0, 0.1, 100, seed=5)
    assert est.to_dict() == {
        "value": 2.0, "std_error": 0.1, "n_samples": 100, "seed": 5,
    }


def test_budget_scaling_is_prefix_stable():
    b = SearchBudget(restarts=10, steps=20)
    b2 = b.scaled(2.0)
    assert (b2.restarts, b2.steps) == (20, 40)
    assert b2.max_vectors == b.max_vectors


@pytest.mark.parametrize("shape", [(0,), (1,), (4, 3), (_SCRATCH_ENTRIES,),
                                   (_SCRATCH_ENTRIES + 1,), (3, _SCRATCH_ENTRIES // 2 + 5),
                                   (20000, 64)])
def test_complex_gaussians_equal_the_old_draw_bit_for_bit(shape):
    s = GaussianSampler(7)
    got = s.complex_gaussians(shape, op_code=3, stream=2)
    assert got.dtype == np.complex128
    assert _same_bits(got, _old_draw(s.generator(3, 2), shape))


def _old_chunked_moment(vectors, space, sampler, op_code, stream):
    """_chunked_moment as it drew each chunk before: the reference."""
    K, n = vectors.shape[0], sampler.n_samples
    rng = sampler.generator(op_code, stream)
    chunk = max(1, min(n, gaussian._CHUNK_ENTRIES // max(K, 1)))
    s1 = s2 = 0.0
    done = 0
    while done < n:
        c = min(chunk, n - done)
        r2 = space.norm_rows(_old_draw(rng, (c, K)) @ vectors) ** 2
        s1 += float(r2.sum())
        s2 += float((r2 * r2).sum())
        done += c
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return math.sqrt(mean), math.sqrt(var / n) / (2.0 * math.sqrt(mean))


@pytest.mark.parametrize("chunk_entries", [None, 7 * 1000, 7 * 1300])
def test_chunked_moment_equals_the_old_loop_exactly(chunk_entries, monkeypatch):
    # 7 vectors, n = 3000: one chunk; chunks of 1000; chunks of 1300 with
    # a short last one of 400
    rng = np.random.default_rng(50)
    vectors = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    if chunk_entries is not None:
        monkeypatch.setattr(gaussian, "_CHUNK_ENTRIES", chunk_entries)
    space, sampler = ValueSpace.lp(3.0, 3), GaussianSampler(8, 3000)
    est = _chunked_moment(vectors, space, sampler, 1, 4)
    assert (est.value, est.std_error) == _old_chunked_moment(vectors, space, sampler, 1, 4)


def test_chunked_moment_holds_one_draw_buffer():
    # K = 64, n = 20000: one 19.5 MB complex chunk and a 1 MB scratch
    # (21.5 MB traced); a real pair plus complex temporaries peaked at 39 MB
    rng = np.random.default_rng(51)
    vectors = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    tracemalloc.start()
    try:
        _chunked_moment(vectors, ValueSpace.lp(3.0, 3), GaussianSampler(9, 20000), 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
