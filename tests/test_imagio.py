import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jqpie.imagio import (BT601_WEIGHTS, BlockGrid, GrayscaleImage, ImageFormatError, _load_pnm,
                          assemble_image, load_image, pad_and_partition,
                          pad_to_pow2, write_pgm)

from conftest import random_image


def test_load_p2_ascii(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_text("P2\n2 2\n255\n0 255\n128 64\n")
    img = load_image(path)
    assert np.array_equal(img.pixels, [[0, 255], [128, 64]])
    assert img.max_value == 255
    assert img.bit_depth == 8


def test_load_p5_binary(tmp_path):
    path = tmp_path / "tiny5.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = load_image(path)
    assert np.array_equal(img.pixels, [[0, 255], [128, 64]])


def test_load_p2_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# a comment\n2 1\n255\n7 9\n")
    img = load_image(path)
    assert np.array_equal(img.pixels, [[7, 9]])


def test_rgb_equal_channels_is_identity_luminance(tmp_path):
    path = tmp_path / "rgb.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes([10, 10, 10] * 4))
    img = load_image(path)
    assert np.allclose(img.pixels, 10.0)


def test_rgb_bt601_weights(tmp_path):
    path = tmp_path / "rgb601.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([100, 50, 200]))
    img = load_image(path)
    assert img.pixels[0, 0] == pytest.approx(0.299 * 100 + 0.587 * 50 + 0.114 * 200)


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def test_png_loads_through_pillow_to_luminance(tmp_path, monkeypatch):
    # a stand-in Pillow: the PNG decodes to one RGB raster, which loads as
    # its BT.601 luminance
    path = tmp_path / "im.png"
    path.write_bytes(_PNG_SIGNATURE + bytes(8))
    rgb = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3) * 13
    opened = []

    class Decoded:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def convert(self, mode):
            assert mode == "RGB"
            return rgb

    def open_image(where):
        opened.append(Path(where))
        return Decoded()

    monkeypatch.setitem(sys.modules, "PIL", SimpleNamespace(Image=SimpleNamespace(open=open_image)))
    img = load_image(path)
    assert opened == [path]
    assert img.bit_depth == 8
    assert np.allclose(img.pixels, rgb.astype(np.float64) @ np.array(BT601_WEIGHTS))


def test_png_without_pillow_names_pillow(tmp_path, monkeypatch):
    path = tmp_path / "im.png"
    path.write_bytes(_PNG_SIGNATURE + bytes(8))
    monkeypatch.setitem(sys.modules, "PIL", None)   # import of PIL fails
    with pytest.raises(ImageFormatError, match="PNG support requires Pillow"):
        load_image(path)


def test_truncated_p5_payload_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ImageFormatError, match="corrupt payload"):
        load_image(path)


@pytest.mark.parametrize("maxval", [1, 15, 255])
def test_truncated_p5_payload_errors_at_every_maxval(maxval):
    # one byte short of the raster, at maxvals with and without a range check
    with pytest.raises(ImageFormatError, match="truncated pixel data"):
        _load_pnm(f"P5\n3 2\n{maxval}\n".encode() + bytes(5))


@pytest.mark.parametrize("magic", [b"P5", b"P2"])
def test_sample_above_maxval_errors(magic):
    samples = [0, 15, 16, 3]
    raster = bytes(samples) if magic == b"P5" else b" ".join(b"%d" % v for v in samples)
    with pytest.raises(ImageFormatError, match="sample exceeds maxval"):
        _load_pnm(magic + b"\n2 2\n15\n" + raster)


@pytest.mark.parametrize("maxval", [1, 2, 3, 15, 127, 128, 255])
def test_p5_loads_each_byte_as_its_value(rng, maxval):
    # the raster is read in place from the file's bytes; each sample loads
    # as its own value in float64, at the bit depth of maxval
    samples = rng.integers(0, maxval + 1, (13, 9)).astype(np.uint8)
    samples.flat[:2] = (0, maxval)
    img = _load_pnm(f"P5\n9 13\n{maxval}\n".encode() + samples.tobytes() + b"\xff")
    assert img.pixels.tobytes() == samples.astype(np.float64).tobytes()
    assert img.bit_depth == maxval.bit_length()


@pytest.mark.parametrize("data", [b"P2\n2 1\n255\n-7 +3\n", b"P2\n2 1\n255\n1_0 3\n",
                                  b"P23 1\n255\n1 2 3\n", b"P6", b"P5 ",
                                  b"P5\n2 1\n255#xy\n\x01\x02"],
                         ids=["signed", "underscore", "magic-joined", "magic-only", "no-header",
                              "comment-before-raster"])
def test_malformed_pnm_errors(data):
    with pytest.raises(ImageFormatError, match="corrupt"):
        _load_pnm(data)


def test_comment_directly_after_magic():
    assert np.array_equal(_load_pnm(b"P2# c\n2 1 # d\n255\n7 9\n").pixels, [[7, 9]])


_GAPS = st.lists(st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"# note\n", b"#\n"]),
                 min_size=0, max_size=3).map(b"".join)
_TOKENS = st.sampled_from([b"-1", b"+2", b"1_0", b"0x1", b"x", b"\xff", b"1.5",
                           b"99999999999999999999"])


@st.composite
def _pnm_bytes(draw):
    """A small valid PNM file with comments in odd places, or one corrupted
    by a single fault: a bad header token or ASCII sample, no separator
    after the magic, a maxval edge, zero dimensions, a short or long
    payload, or a cut anywhere.

    Returns the bytes and what loading them must give: the pixels for a
    valid file, ``None`` for a file that must be rejected, and ``...`` when
    either outcome is right (a long payload, a cut that leaves a shorter
    valid file).
    """
    fault = draw(st.sampled_from(["none", "header", "sample", "joined", "maxval", "dims",
                                  "short", "long", "cut"]))
    magic = draw(st.sampled_from([b"P2", b"P3"] if fault == "sample"
                                 else [b"P2", b"P3", b"P5", b"P6"]))
    channels = 3 if magic in (b"P3", b"P6") else 1
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if fault == "dims":
        w, h = draw(st.sampled_from([(0, h), (w, 0), (0, 0)]))
    maxval = draw(st.sampled_from([0, 256]) if fault == "maxval"
                  else st.sampled_from([1, 255]) | st.integers(1, 255))
    header = [str(w).encode(), str(h).encode(), str(maxval).encode()]
    n_values = w * h * channels + {"short": -1, "long": 1}.get(fault, 0)
    samples = draw(st.lists(st.integers(0, min(maxval, 255)), min_size=n_values,
                            max_size=n_values))
    tokens = [str(v).encode() for v in samples]
    if fault in ("header", "sample"):
        target = header if fault == "header" else tokens
        target[draw(st.integers(0, len(target) - 1))] = draw(_TOKENS)
    if fault == "joined":
        data = magic + b" ".join(header)
    else:
        data = magic + draw(_GAPS)
        for token in header:
            data += draw(_GAPS) + (b"" if data[-1:] in b" \n\t" else b" ") + token
    if magic in (b"P5", b"P6"):
        data += b"\n" + bytes(samples)
    else:
        for token in tokens:
            data += draw(_GAPS) + b" " + token
    if fault == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    if fault == "none":
        values = np.array(samples, dtype=np.float64).reshape(h, w, channels)
        return data, values[..., 0] if channels == 1 else values @ BT601_WEIGHTS
    return data, (... if fault in ("long", "cut") else None)


@given(_pnm_bytes())
def test_pnm_parser_raises_only_image_format_error(case):
    data, expected = case
    try:
        img = _load_pnm(data)
    except ImageFormatError:
        assert not isinstance(expected, np.ndarray)
        return
    assert expected is not None
    if isinstance(expected, np.ndarray):
        assert np.allclose(img.pixels, expected, rtol=0, atol=1e-12)
    assert np.all(img.pixels >= 0) and np.all(img.pixels <= 255)


def test_unsupported_format_errors(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"hello world")
    with pytest.raises(ImageFormatError, match="unsupported"):
        load_image(path)


def test_missing_file_errors(tmp_path):
    with pytest.raises(ImageFormatError, match="unreadable"):
        load_image(tmp_path / "nope.pgm")


@pytest.mark.parametrize("bit_depth", range(1, 9))
def test_pgm_write_read_roundtrip(tmp_path, rng, bit_depth):
    maxval = 2 ** bit_depth - 1
    img = GrayscaleImage(rng.integers(0, maxval + 1, (9, 13)).astype(np.float64), bit_depth)
    path = tmp_path / "rt.pgm"
    write_pgm(img, path)
    assert path.read_bytes().startswith(f"P5\n13 9\n{maxval}\n".encode())
    back = load_image(path)
    assert back.bit_depth == bit_depth
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_write_clamps_to_the_bit_depth(tmp_path):
    path = tmp_path / "clamped.pgm"
    write_pgm(GrayscaleImage(np.array([[-3.0, 2.4, 2.5, 99.0]]), bit_depth=2), path)
    assert path.read_bytes() == b"P5\n4 1\n3\n" + bytes([0, 2, 3, 3])
    with pytest.raises(ValueError, match="bit depths 1..8"):
        write_pgm(GrayscaleImage(np.zeros((1, 1)), bit_depth=9), path)


def test_partition_16x16_no_padding(rng):
    img = random_image(rng, 16, 16)
    grid = pad_and_partition(img)
    assert grid.n_b_x == 2 and grid.n_b_y == 2
    assert grid.blocks.shape == (4, 8, 8)
    assert grid.padded_dims == (16, 16)
    # row-major block order: block 1 is the top-right 8x8 tile
    assert np.array_equal(grid.blocks[1], img.pixels[0:8, 8:16])


def test_partition_9x9_pads_with_zeros(rng):
    img = random_image(rng, 9, 9)
    grid = pad_and_partition(img)
    assert grid.padded_dims == (16, 16)
    assert grid.blocks.shape == (4, 8, 8)
    # bottom-right block is mostly padding
    assert np.all(grid.blocks[3][1:, :] == 0)
    assert np.all(grid.blocks[3][:, 1:] == 0)


def test_partition_8x24_block_counts(rng):
    img = random_image(rng, 8, 24)
    grid = pad_and_partition(img)
    assert grid.n_b_x == 1 and grid.n_b_y == 3


def test_partition_assemble_roundtrip_32(rng):
    img = random_image(rng, 32, 32)
    back = assemble_image(pad_and_partition(img))
    assert np.array_equal(back.pixels, img.pixels)


def test_partition_assemble_crops_padding(rng):
    img = random_image(rng, 9, 9)
    back = assemble_image(pad_and_partition(img))
    assert back.pixels.shape == (9, 9)
    assert np.array_equal(back.pixels, img.pixels)


def test_assemble_keeps_out_of_range_values():
    """Reassembly returns the raw decode; clamping is left to scoring and
    to writing a file."""
    blocks = np.full((1, 8, 8), 300.0)
    blocks[0, 0, 0] = -4.0
    out = assemble_image(BlockGrid(blocks, 1, 1, (8, 8)))
    assert np.array_equal(out.pixels, blocks[0])


def test_assemble_dimension_mismatch():
    grid = BlockGrid(np.zeros((1, 8, 8)), 1, 1, (8, 8))
    with pytest.raises(ValueError):
        assemble_image(grid, original_dims=(9, 9))


def test_roundtrip_and_block_count_property(rng):
    # block count is ceil(H/8) * ceil(W/8) for arbitrary dimensions
    for _ in range(25):
        h = int(rng.integers(1, 129))
        w = int(rng.integers(1, 129))
        img = random_image(rng, h, w)
        grid = pad_and_partition(img)
        assert grid.n_b_x == -(-h // 8)
        assert grid.n_b_y == -(-w // 8)
        assert grid.blocks.shape[0] == grid.n_b_x * grid.n_b_y
        back = assemble_image(grid)
        assert np.array_equal(back.pixels, img.pixels)


def test_pad_to_pow2():
    img = GrayscaleImage(np.ones((20, 9)))
    padded = pad_to_pow2(img)
    assert padded.pixels.shape == (32, 16)
    assert padded.original_dims == (20, 9)
    assert np.all(padded.pixels[20:, :] == 0)
    tiny = pad_to_pow2(GrayscaleImage(np.ones((2, 2))))
    assert tiny.pixels.shape == (8, 8)


def test_images_are_immutable(rng):
    img = random_image(rng, 8, 8)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_a_callers_array_is_copied(rng):
    pixels = rng.uniform(0, 255, (16, 8))
    img = GrayscaleImage(pixels)
    blocks = rng.uniform(0, 255, (2, 8, 8))
    grid = BlockGrid(blocks, 2, 1, (16, 8))
    kept_pixels, kept_blocks = pixels.copy(), blocks.copy()
    pixels[:] = -1.0
    blocks[:] = -1.0
    assert np.array_equal(img.pixels, kept_pixels)
    assert np.array_equal(grid.blocks, kept_blocks)
    assert not img.pixels.flags.writeable and not grid.blocks.flags.writeable


def test_a_handover_must_be_float64():
    with pytest.raises(ValueError, match="float64"):
        GrayscaleImage._owning(np.zeros((8, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="float64"):
        BlockGrid._owning(np.zeros((1, 8, 8), dtype=np.int64), 1, 1, (8, 8))


@pytest.mark.parametrize("shape", [(16, 16), (9, 13), (1, 64), (3, 5)], ids=str)
def test_made_images_and_grids_are_read_only(tmp_path, rng, shape):
    from jqpie.jpegcore import QuantTable, classical_reference_decode, zigzag_coefficients
    from jqpie.pipeline import run_jqpie

    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, *shape), path)
    img = load_image(path)
    grid = pad_and_partition(img)
    table = QuantTable(1.0)
    made = {
        "load_image": img.pixels,
        "pad_to_pow2": pad_to_pow2(img).pixels,
        "pad_and_partition": grid.blocks,
        "assemble_image": assemble_image(grid).pixels,
        "classical_reference_decode": classical_reference_decode(
            zigzag_coefficients(grid, table, layout="image"), table, img).pixels,
        "readout_image": run_jqpie(img, 6).reconstructed.pixels,
    }
    for name, array in made.items():
        assert array.dtype == np.float64, name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
