import numpy as np
import pytest

from jqpie import jpegcore
from jqpie.imagio import GrayscaleImage, pad_and_partition
from jqpie.jpegcore import (QuantTable, blocks_from_zigzag, classical_reference_decode,
                            dct2_block, dct2_blocks, idct2_block, idct2_blocks,
                            reference_decode_pixels, round_half_away, sparsity_stats,
                            truncate_zigzag, zigzag_coefficients, zigzag_permutation)

from conftest import gradient_image, random_image

#: The published 8x8 zigzag traversal, used as an independent cross-check of
#: the generated table.
ZIGZAG_TABLE = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
]


def naive_dct2(block):
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
            av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
            total = 0.0
            for x in range(8):
                for y in range(8):
                    total += (block[x, y]
                              * np.cos((2 * x + 1) * u * np.pi / 16)
                              * np.cos((2 * y + 1) * v * np.pi / 16))
            out[u, v] = au * av * total
    return out


def naive_idct2(coeffs):
    out = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            total = 0.0
            for u in range(8):
                for v in range(8):
                    au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
                    av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
                    total += (au * av * coeffs[u, v]
                              * np.cos((2 * x + 1) * u * np.pi / 16)
                              * np.cos((2 * y + 1) * v * np.pi / 16))
            out[x, y] = total
    return out


def test_constant_block_dct():
    block = np.full((8, 8), 16.0)
    coeffs = dct2_block(block)
    assert coeffs[0, 0] == pytest.approx(128.0, abs=1e-12)
    ac = coeffs.copy()
    ac[0, 0] = 0.0
    assert np.max(np.abs(ac)) < 1e-12


def test_zero_block_dct():
    assert np.all(dct2_block(np.zeros((8, 8))) == 0)


def test_impulse_dct_matches_naive_sum():
    block = np.zeros((8, 8))
    block[0, 0] = 1.0
    coeffs = dct2_block(block)
    expected = naive_dct2(block)
    assert np.max(np.abs(coeffs - expected)) < 1e-12
    # closed form for the impulse at (0, 0)
    for u in range(8):
        for v in range(8):
            au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
            av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
            assert coeffs[u, v] == pytest.approx(
                au * av * np.cos(u * np.pi / 16) * np.cos(v * np.pi / 16), abs=1e-12)


def test_dct_matches_naive_on_random_blocks(rng):
    for _ in range(5):
        block = rng.uniform(-100, 355, (8, 8))
        assert np.max(np.abs(dct2_block(block) - naive_dct2(block))) < 1e-10
        coeffs = rng.uniform(-500, 500, (8, 8))
        assert np.max(np.abs(idct2_block(coeffs) - naive_idct2(coeffs))) < 1e-10


def test_idct_inverts_dct(rng):
    for _ in range(20):
        block = rng.uniform(0, 255, (8, 8))
        assert np.max(np.abs(idct2_block(dct2_block(block)) - block)) <= 1e-10


def test_dc_only_coefficients_give_constant_block():
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 128.0
    assert np.allclose(idct2_block(coeffs), 16.0, atol=1e-12)


def test_energy_preservation(rng):
    for _ in range(10):
        block = rng.uniform(-200, 200, (8, 8))
        assert np.linalg.norm(dct2_block(block)) == pytest.approx(
            np.linalg.norm(block), abs=1e-12)


def test_batch_transforms_match_single(rng):
    blocks = rng.uniform(0, 255, (6, 8, 8))
    batched = dct2_blocks(blocks)
    for i in range(6):
        assert np.allclose(batched[i], dct2_block(blocks[i]), atol=1e-12)
    assert np.allclose(idct2_blocks(batched), blocks, atol=1e-10)


def _grid_with_coefficients(coeffs):
    """One 8x8 block whose 2D DCT is ``coeffs`` (to rounding)."""
    return pad_and_partition(GrayscaleImage(idct2_block(coeffs)))


def test_quantize_examples():
    assert round_half_away(np.array([100 / 16, -30 / 11])).tolist() == [6.0, -3.0]
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 100.0   # Q(0,0) = 16, zigzag slot 0
    coeffs[0, 1] = -30.0   # Q(0,1) = 11, zigzag slot 1
    grid = _grid_with_coefficients(coeffs)
    zz = zigzag_coefficients(grid, QuantTable())
    assert zz[0, 0] == 6       # round(6.25)
    assert zz[0, 1] == -3      # round(-2.727)
    assert zigzag_coefficients(grid, QuantTable(scale=2.0))[0, 0] == 3   # round(100/32)


def test_quantize_produces_integers(rng):
    grid = _grid_with_coefficients(rng.uniform(-900, 900, (8, 8)))
    q = zigzag_coefficients(grid, QuantTable(scale=0.7))
    assert np.array_equal(q, np.round(q))


def test_round_half_away_from_zero():
    assert round_half_away(np.array([0.5, -0.5, 1.5, -1.5, 2.4])).tolist() == [
        1.0, -1.0, 2.0, -2.0, 2.0]


def test_round_half_away_matches_the_formula_bit_for_bit(rng):
    big = 2.0 ** 52
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0, -0.0, 0.49999999999999994,
                  -0.49999999999999994, big - 0.5, big + 1.0, -(big - 0.5), np.nextafter(big, 0),
                  -np.nextafter(big, 0), 2.0 * big + 2.0, 1e300, -1e-300, *rng.normal(0, 50, 64)])
    before = x.copy()
    expected = np.copysign(np.floor(np.abs(x) + 0.5), x)
    got = round_half_away(x)
    assert got.tobytes() == expected.tobytes()
    assert x.tobytes() == before.tobytes()
    assert np.signbit(got[7]) and not np.signbit(got[6])
    matrix = rng.normal(0, 20, (5, 64))
    assert round_half_away(matrix).tobytes() == np.copysign(
        np.floor(np.abs(matrix) + 0.5), matrix).tobytes()


def test_dequantize_examples():
    # DC 100 quantizes to 6 and dequantizes to 96, a flat block of 96 / 8
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 100.0
    img = GrayscaleImage(idct2_block(coeffs))
    assert np.allclose(reference_decode_pixels(img, "jpeg"), 12.0, atol=1e-12)
    zero = GrayscaleImage(np.zeros((8, 8)))
    assert np.all(reference_decode_pixels(zero, "jpeg") == 0)


def test_quantize_roundtrip_bounded_by_half_step(rng):
    table = QuantTable(scale=1.4)
    coeffs = rng.uniform(-800, 800, (8, 8))
    zz = zigzag_coefficients(_grid_with_coefficients(coeffs), table)
    restored = blocks_from_zigzag(zz)[0] * table.values
    assert np.all(np.abs(coeffs - restored) <= table.values / 2 + 1e-9)


def test_quant_table_invariants():
    table = QuantTable()
    assert table.values[0, 0] == 16 and table.values[7, 7] == 99
    assert table.max_entry == 121.0
    assert QuantTable(scale=2.0).max_entry == 242.0
    for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="scale must be a positive finite number"):
            QuantTable(scale=bad)


def test_zigzag_anchor_values():
    pi = zigzag_permutation()
    assert pi[:5].tolist() == [0, 1, 8, 16, 9]
    assert pi[63] == 63


def test_quantize_strip_is_round_half_away_bit_for_bit(rng):
    """The strip quantizer's sign-bit copysign rounds as
    :func:`round_half_away` does, bit for bit: on ties, signed zeros,
    subnormals and magnitudes of 2^52 and above, where x + 0.5 itself
    rounds, at unit divisors; and on random quotients at a random Q."""
    big = 2.0 ** 52
    tiny = np.finfo(np.float64).smallest_subnormal
    ties = np.arange(40) + 0.5
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 0.49999999999999994,
               -0.49999999999999994, big, -big, big + 1.0, -(big + 1.0), big - 0.5,
               -(big - 0.5), 2.0 * big + 2.0, -(2.0 * big + 2.0), 1e300, -1e300]
    values = np.concatenate([ties, -ties, special])
    x = np.concatenate([values, rng.normal(0, 50, 16 * 16 - len(values))]).reshape(16, 16)
    for divisors in (np.ones((8, 16)), rng.uniform(0.5, 200.0, (8, 16))):
        strip = x.copy()
        jpegcore._quantize_strip(strip, divisors, np.empty((16, 16)))
        expected = round_half_away(x / np.tile(divisors, (2, 1)))
        assert np.array_equal(strip.view(np.uint64), expected.view(np.uint64))
    assert np.signbit(strip.reshape(-1)[81]) and not np.signbit(strip.reshape(-1)[80])


@pytest.mark.parametrize("size", [(1, 64), (8, 8), (37, 61), (57, 33), (200, 72)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_forward_transform_is_the_block_path_bit_for_bit(rng, size):
    """The strip transform, with its product by a contiguous D^T and its
    sign-bit quantization, gives the block path's zigzag matrix as uint64
    words, so the sign of every zero counts: noise, a smooth ramp and a
    constant image, raw and at S = 0.25, 1 and 8."""
    y, x = np.mgrid[0:size[0], 0:size[1]]
    images = (random_image(rng, *size), GrayscaleImage(40.0 + 150.0 * (x + y) / sum(size)),
              GrayscaleImage(np.full(size, 128.0)))
    for img in images:
        grid = pad_and_partition(img)
        for table in (None, QuantTable(0.25), QuantTable(1.0), QuantTable(8.0)):
            got = np.ascontiguousarray(zigzag_coefficients(img, table))
            expected = jpegcore._block_zigzag(grid, table)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_zigzag_matches_published_table_and_is_bijective():
    pi = zigzag_permutation()
    assert pi.tolist() == ZIGZAG_TABLE
    assert sorted(pi.tolist()) == list(range(64))


@pytest.mark.parametrize("size", [(1, 64), (8, 8), (37, 61), (57, 33)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_image_layout_is_the_zigzag_matrix_bit_for_bit(rng, size):
    """Frequency (u, v) of block (i, j) sits at pixel (8i+u, 8j+v) of the
    plane, with the zigzag matrix's bits (signed zeros included), for an
    image and its block grid, quantized and raw."""
    img = GrayscaleImage(rng.uniform(-300.0, 600.0, size))
    for source in (img, pad_and_partition(img)):
        for table in (None, QuantTable(0.25), QuantTable(1.0), QuantTable(50.0)):
            zz = zigzag_coefficients(source, table)
            plane = zigzag_coefficients(source, table, layout="image")
            assert plane.shape == (-(-size[0] // 8) * 8, -(-size[1] // 8) * 8)
            nbx, nby = plane.shape[0] // 8, plane.shape[1] // 8
            blocks = plane.reshape(nbx, 8, nby, 8).transpose(0, 2, 1, 3).reshape(-1, 64)
            assert blocks[:, zigzag_permutation()].tobytes() == np.ascontiguousarray(zz).tobytes()


def test_zigzag_coefficients_rejects_an_unknown_layout():
    with pytest.raises(ValueError, match="layout must be one of"):
        zigzag_coefficients(GrayscaleImage(np.ones((8, 8))), layout="blocks")


def test_zigzag_inverse_is_identity(rng):
    grid = pad_and_partition(GrayscaleImage(rng.uniform(-10, 10, (16, 8))))
    assert np.array_equal(blocks_from_zigzag(zigzag_coefficients(grid)),
                          dct2_blocks(grid.blocks))
    vecs = rng.uniform(-10, 10, (3, 64))
    flat = blocks_from_zigzag(vecs).reshape(3, 64)
    assert np.array_equal(flat[:, zigzag_permutation()], vecs)


def test_truncate_r6_is_identity(rng):
    vec = rng.uniform(-5, 5, 64)
    assert np.array_equal(truncate_zigzag(vec, 6), vec)


def test_truncate_r2_keeps_low_frequencies(rng):
    vec = rng.uniform(1, 5, 64)
    out = truncate_zigzag(vec, 2)
    assert np.array_equal(out[:4], vec[:4])
    assert np.all(out[4:] == 0)
    # surviving frequency indices are exactly 0, 1, 8, 16
    freq = blocks_from_zigzag(out[None, :]).reshape(-1)
    assert set(np.nonzero(freq)[0]) == {0, 1, 8, 16}


def test_truncate_idempotent_on_short_support(rng):
    vec = np.zeros(64)
    vec[:7] = rng.uniform(1, 5, 7)
    assert np.array_equal(truncate_zigzag(vec, 3), vec)
    assert np.array_equal(truncate_zigzag(truncate_zigzag(vec, 3), 3),
                          truncate_zigzag(vec, 3))


def test_truncate_rejects_bad_level(rng):
    with pytest.raises(ValueError):
        truncate_zigzag(np.zeros(64), 1)
    with pytest.raises(ValueError):
        truncate_zigzag(np.zeros(64), 7)


def test_decode_jqpie_oracle_r6_equals_jpeg(rng):
    img = random_image(rng, 24, 16)
    jpeg = reference_decode_pixels(img, "jpeg")
    oracle = reference_decode_pixels(img, "jqpie_oracle", r=6)
    assert np.array_equal(jpeg, oracle)


def test_decode_qf_oracle_r6_is_lossless(rng):
    img = random_image(rng, 16, 16)
    out = reference_decode_pixels(img, "qf_oracle", r=6)
    assert np.max(np.abs(out - img.pixels)) <= 1e-10


def test_decode_unknown_mode():
    img = GrayscaleImage(np.ones((8, 8)))
    with pytest.raises(ValueError):
        reference_decode_pixels(img, "nope")


def test_decode_clamps_by_default(rng):
    img = GrayscaleImage(255.0 * rng.integers(0, 2, (16, 16)))   # ringing overshoots [0, L]
    table = QuantTable(8.0)
    out = classical_reference_decode(zigzag_coefficients(img, table, layout="image"), table, img)
    raw = reference_decode_pixels(img, "jpeg", scale=8.0)
    assert raw.min() < 0.0 and raw.max() > 255.0
    assert np.array_equal(out.pixels, np.clip(raw, 0.0, 255.0))


def test_decode_holds_strip_sized_temporaries(rng):
    """The 1024x1024 baseline decode works 8 block rows at a time: besides
    its output it holds a few 64-row strips (0.0625 of the image each), so
    its peak stays under 1.5 image-sized float64 arrays; a whole-image
    decode held about 2."""
    import tracemalloc
    img = random_image(rng, 1024, 1024)
    table = QuantTable(1.0)
    plane = zigzag_coefficients(img, table, layout="image")
    tracemalloc.start()
    try:
        out = classical_reference_decode(plane, table, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.pixels, np.clip(reference_decode_pixels(img, "jpeg"), 0.0, 255.0))
    assert peak <= 1.5 * img.pixels.nbytes, peak / img.pixels.nbytes


@pytest.mark.parametrize("scale", [None, 1.0], ids=["raw", "quantized"])
def test_transform_holds_one_strip_buffer(rng, scale):
    """The 1024x1024 forward transform (and its quantization) works 8 block
    rows at a time: besides the plane it returns it holds one 64-row strip
    buffer (0.0625 of the image), so its peak stays under 1.15 image-sized
    float64 arrays; a whole-image transform held 2. The plane is the block
    path's, bit for bit."""
    import tracemalloc
    img = random_image(rng, 1024, 1024)
    table = None if scale is None else QuantTable(scale)
    tracemalloc.start()
    try:
        plane = zigzag_coefficients(img, table, layout="image")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = zigzag_coefficients(pad_and_partition(img), table)
    assert np.array_equal(blocks_from_zigzag(expected).reshape(128, 128, 8, 8),
                          plane.reshape(128, 8, 128, 8).transpose(0, 2, 1, 3))
    assert peak <= 1.15 * img.pixels.nbytes, peak / img.pixels.nbytes


def test_decode_converges_as_scale_vanishes(rng):
    img = random_image(rng, 16, 16)
    out = reference_decode_pixels(img, "jpeg", scale=1e-4)
    assert np.max(np.abs(out - img.pixels)) <= 0.5


def _stats(img, scale=1.0):
    return sparsity_stats(zigzag_coefficients(img, QuantTable(scale), layout="image"))


def test_sparsity_dc_only_image_reaches_cr_64():
    # constant blocks quantize to a single DC coefficient each
    pixels = np.kron(np.arange(1, 17).reshape(4, 4), np.ones((8, 8))) * 8.0
    stats = _stats(GrayscaleImage(pixels))
    assert stats.nonzero_count == 16
    assert stats.compression_ratio == 64.0
    assert stats.histogram[0] == 1.0
    assert np.all(stats.histogram[1:] == 0.0)


def test_sparsity_cr_formula(rng):
    img = random_image(rng, 32, 24)
    stats = _stats(img)
    assert stats.pixel_count == 32 * 24
    assert stats.compression_ratio == pytest.approx(stats.pixel_count / stats.nonzero_count)
    assert 1.0 <= stats.compression_ratio <= 64.0


def test_sparsity_all_zero_image_errors():
    with pytest.raises(ValueError):
        _stats(GrayscaleImage(np.zeros((16, 16))))


def test_sparsity_histogram_sums_to_block_average(rng):
    img = random_image(rng, 16, 16)
    stats = _stats(img)
    assert np.sum(stats.histogram) == pytest.approx(stats.nonzero_count / stats.block_count)


def test_sparsity_monotone_in_scale(rng):
    img = random_image(rng, 32, 32)
    counts = [_stats(img, s).nonzero_count for s in (0.5, 1.0, 2.0, 4.0)]
    assert counts == sorted(counts, reverse=True)


def test_sparsity_counts_past_255_block_rows(rng):
    # 300 block rows, each block's DC nonzero: a count past the range of a
    # byte, which must equal the zigzag matrix's count per slot
    plane = np.where(rng.random((8 * 300, 16)) < 0.3, rng.integers(-9, 10, (8 * 300, 16)), 0.0)
    plane[::8, ::8] = 1.0
    stats = sparsity_stats(plane)
    zz = plane.reshape(300, 8, 2, 8).transpose(0, 2, 1, 3).reshape(-1, 64)[:, ZIGZAG_TABLE]
    counts = np.count_nonzero(zz, axis=0)
    assert counts[0] == stats.block_count == 600
    assert np.array_equal(stats.histogram, counts / stats.block_count)
    assert stats.nonzero_count == np.count_nonzero(plane)


def test_smooth_image_compresses_harder_than_noise(rng):
    noise = random_image(rng, 32, 32)
    smooth = gradient_image(32, 32)
    assert _stats(smooth).compression_ratio > _stats(noise).compression_ratio
