import math
import tracemalloc

import numpy as np
import pytest

from besovlp import GaussianSampler, MCEstimate, ValueSpace
from besovlp import gaussian
from besovlp.gaussian import _block_edges, _chunked_moment
from besovlp.sampling import _complex_normals, _gaussian_blocks, _pick_nodes


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


@pytest.mark.parametrize("shape", [(0,), (1,), (4, 3), (131072,), (131073,), (3, 65541),
                                   (20000, 64)])
def test_complex_gaussians_equal_the_old_draw_bit_for_bit(shape):
    s = GaussianSampler(7)
    got = s.complex_gaussians(shape, op_code=3, stream=2)
    assert got.dtype == np.complex128
    assert _same_bits(got, _old_draw(s.generator(3, 2), shape))


@pytest.mark.parametrize("shape, edges", [
    ((5,), [0, 2, 5]), ((7, 2, 3), [0, 3, 4, 7]), ((2, 131072), [0, 1, 2]),
    ((1000, 3), [0, 256, 512, 1000]), ((6244, 64), _block_edges(6244, 64)),
])
def test_gaussian_blocks_are_the_old_draw_block_by_block(shape, edges):
    # the blocks share one buffer, so each is copied before the next is drawn
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    blocks = [block.copy() for block in _gaussian_blocks(rng, shape, edges)]
    assert [len(block) for block in blocks] == np.diff(edges).tolist()
    assert _same_bits(np.concatenate(blocks), _old_draw(ref, shape))
    assert rng.random() == ref.random()


def test_a_one_block_draw_holds_its_real_parts_and_one_complex_buffer():
    # 24 bytes an entry while the imaginary parts are drawn, and the real
    # parts released before the block is yielded
    entries = 20000 * 8
    blocks = _gaussian_blocks(np.random.default_rng(13), (20000, 8), [0, 20000])
    tracemalloc.start()
    try:
        block = next(blocks)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (20000, 8)
    assert peak <= 24 * entries + 2**16
    assert current <= 16 * entries + 2**16


# n of range(n): 1-9 put k == n within reach of both counts, 2^31 + 5 and
# 3 * 2^30 make Lemire's method redraw about one draw in two and one in four
PICK_NS = [*range(1, 10), 33, 511, 12941, 2**31 + 5, 3 * 2**30]


def _numpy_pick(rng, n, bits):
    """The draws _pick_nodes replays: the reference."""
    k = int(min(n, 1 + rng.integers(0, 2**bits)))
    return rng.choice(n, size=k, replace=False).tolist()


def _assert_same_stream(bit_generator, half, ref):
    """The stream sits where numpy left ref's, with numpy's unread half in half."""
    state = ref.bit_generator.state
    assert bit_generator.state["state"] == state["state"]
    assert half == (state["uinteger"] if state["has_uint32"] else None)


@pytest.mark.parametrize("bits", [3, 5])
@pytest.mark.parametrize("n", PICK_NS)
def test_pick_nodes_replays_numpy_integers_and_choice(n, bits):
    for seed in range(40):
        rng, ref = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        nodes, half = _pick_nodes(rng.bit_generator, None, n, bits)
        assert nodes == _numpy_pick(ref, n, bits)
        _assert_same_stream(rng.bit_generator, half, ref)
        # standard_normal reads whole words and leaves the unread half alone
        assert _same_bits(rng.standard_normal(3), ref.standard_normal(3))
        _assert_same_stream(rng.bit_generator, half, ref)


@pytest.mark.parametrize("n", PICK_NS)
def test_chained_picks_carry_the_unread_half(n):
    # picks from range(3) take all 3 nodes most of the time, which leaves a
    # half unread, so picks from range(n) often start from a carried half
    rng, ref = (np.random.Generator(np.random.PCG64(n)) for _ in range(2))
    half, carried = None, 0
    for step in range(80):
        size, bits = (3, 3) if step % 2 else (n, 5 if step % 3 == 0 else 3)
        carried += size == n and half is not None
        nodes, half = _pick_nodes(rng.bit_generator, half, size, bits)
        assert nodes == _numpy_pick(ref, size, bits)
        _assert_same_stream(rng.bit_generator, half, ref)
        if step % 5 == 0:
            assert _same_bits(rng.standard_normal((2, len(nodes))),
                              ref.standard_normal((2, len(nodes))))
    assert carried >= 10


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


def _row_norm_1_5(rows):
    """A custom norm oracle, row-wise: the l^1.5 norm of each row."""
    return np.sum(np.abs(rows) ** 1.5, axis=1) ** (1.0 / 1.5)


FIVE_SPACES = [ValueSpace.lp(1.0, 3), ValueSpace.lp(np.inf, 3), ValueSpace.hilbert(2),
               ValueSpace.lp(3.0, 5), ValueSpace.scalar()]

# (K vectors, space, n samples, _CHUNK_ENTRIES or None for the module's), by
# id; with K = 64 a block holds 2048 rows, and a chunk of more than 4096
# rows is streamed
CHUNKED_MOMENT_CASES = [
    # 7 vectors, n = 3000: one chunk; chunks of 1000; chunks of 1300 with a
    # short last one of 400; every chunk is one block
    pytest.param(7, ValueSpace.lp(3.0, 3), 3000, None, id="None"),
    pytest.param(7, ValueSpace.lp(3.0, 3), 3000, 7 * 1000, id="7000"),
    pytest.param(7, ValueSpace.lp(3.0, 3), 3000, 7 * 1300, id="9100"),
    pytest.param(64, ValueSpace.lp(3.0, 3), 4096, None, id="two-blocks-as-one"),
    # 2048 + 2048 + 2148 rows: a tail of 100 joins the third block
    pytest.param(64, ValueSpace.lp(3.0, 3), 6244, None, id="blocks-merged-tail"),
    # 2048 + 2048 + 2048 + 300 rows
    pytest.param(64, ValueSpace.lp(3.0, 3), 6444, None, id="blocks-own-tail"),
    # chunks of 5000 rows streamed in 2048 + 2048 + 904, then a last chunk of
    # 4000 rows taken as one block, larger than the full chunks' blocks
    pytest.param(64, ValueSpace.lp(3.0, 3), 14000, 64 * 5000, id="chunks-of-blocks"),
    # chunks of 3000 rows in 2048 + 952, a last one of 1000 rows
    pytest.param(64, ValueSpace.lp(3.0, 3), 7000, 64 * 3000, id="chunks-then-short"),
    # K = 1: blocks of 2^17 rows, a tail of 1000
    pytest.param(1, ValueSpace.lp(3.0, 3), 2**18 + 1000, None, id="K1"),
    # K = 1000: blocks of 256 rows, 256 + 256 + 488 (a tail of 232 joined)
    pytest.param(1000, ValueSpace.lp(3.0, 3), 1000, None, id="K1000"),
    *[pytest.param(64, space, 6244, None, id=f"blocks-{space.label}") for space in FIVE_SPACES],
    pytest.param(40, ValueSpace.custom(3, _row_norm_1_5), 10000, None, id="custom-oracle"),
]


@pytest.mark.parametrize("K, space, n, chunk_entries", CHUNKED_MOMENT_CASES)
def test_chunked_moment_equals_the_old_loop_exactly(K, space, n, chunk_entries, monkeypatch):
    rng = np.random.default_rng(50)
    vectors = rng.standard_normal((K, space.dim)) + 1j * rng.standard_normal((K, space.dim))
    if chunk_entries is not None:
        monkeypatch.setattr(gaussian, "_CHUNK_ENTRIES", chunk_entries)
    sampler = GaussianSampler(8, n)
    est = _chunked_moment(vectors, space, sampler, 1, 4)
    assert (est.value, est.std_error) == _old_chunked_moment(vectors, space, sampler, 1, 4)


def test_block_edges_keep_blocks_of_256_rows_or_the_whole_chunk():
    # K = 64: blocks of 2048 rows; K = 1000: of 256 rows, not 131
    assert _block_edges(4096, 64) == [0, 4096]
    assert _block_edges(6244, 64) == [0, 2048, 4096, 6244]
    assert _block_edges(6444, 64) == [0, 2048, 4096, 6144, 6444]
    assert _block_edges(1000, 1000) == [0, 256, 512, 1000]
    for c, K in [(20000, 8), (20000, 13), (20000, 14), (20000, 64), (4000, 1000), (700, 2**20)]:
        edges = _block_edges(c, K)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == c
        assert len(edges) == 2 or sizes.min() >= 256
    # at the default 20000 samples a chunk of K <= 13 vectors is one block
    assert len(_block_edges(20000, 13)) == 2 and len(_block_edges(20000, 14)) > 2


@pytest.mark.parametrize("K", [1, 3, 8, 14, 64, 200, 1000])
def test_blas_gives_row_blocks_of_the_product_the_same_bits(K):
    # _chunked_moment rests on this property of the installed BLAS: the rows
    # of g[a:b] @ v, b - a >= 256, have the bits of those rows of g @ v
    rng = np.random.default_rng(K)
    g = rng.standard_normal((1500, K)) + 1j * rng.standard_normal((1500, K))
    for cols in range(1, 6):
        v = rng.standard_normal((K, cols)) + 1j * rng.standard_normal((K, cols))
        whole = g @ v
        for a, b in [(0, 256), (256, 700), (700, 1500), (1000, 1256), (0, 1500)]:
            assert _same_bits(g[a:b] @ v, whole[a:b]), (K, cols, a, b)


def test_chunked_moment_holds_one_draw_buffer():
    # K = 64, n = 20000: the real halves of the chunk (9.8 MB) and one
    # complex block of 2048 rows (2 MB), 12.1 MB traced; one complex chunk
    # peaked at 21.5 MB, and a real pair plus complex temporaries at 39 MB
    rng = np.random.default_rng(51)
    vectors = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    tracemalloc.start()
    try:
        _chunked_moment(vectors, ValueSpace.lp(3.0, 3), GaussianSampler(9, 20000), 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20
