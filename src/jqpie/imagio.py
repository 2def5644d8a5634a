"""Grayscale image loading, padding, block partitioning and reassembly.

Images are carried as real-valued pixel arrays. Integer quantization to the
[0, L] range happens only when a file is written or a metric is computed;
everything in between stays in floating point because the downstream quantum
amplitudes are continuous.

Supported formats: PGM (P2 ascii / P5 binary, maxval <= 255) and PPM
(P3 / P6, reduced to luminance with BT.601 weights). PNG ingestion is
available behind the ``allow_png`` switch and uses Pillow when installed.

All types are immutable after construction and all operations are pure,
so images can be processed in parallel without shared state. Each pixel
array is copied once: an image or grid built from a caller's array copies
it, and the functions here hand the arrays they make over without another
copy (``_owning``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BLOCK = 8
#: Pixel rows in one strip of a run's readout and of its scores: 8 block rows
#: (8 rows of 8x8 SSIM windows).
STRIP_ROWS = 8 * BLOCK

#: BT.601 luminance weights for RGB -> grayscale reduction.
BT601_WEIGHTS = (0.299, 0.587, 0.114)


class ImageFormatError(ValueError):
    """Raised for unreadable, unsupported, or corrupt image files."""


@dataclass(frozen=True)
class _Handover:
    """A float64 array whose maker keeps no other reference to it."""

    array: np.ndarray


def _owned(value, copy) -> np.ndarray:
    """The read-only array an immutable holder keeps.

    A :class:`_Handover` gives its array itself, which must be float64;
    any other value is copied with ``copy``.
    """
    if isinstance(value, _Handover):
        array = value.array
        if array.dtype != np.float64:
            raise ValueError(f"handed-over array must be float64, got {array.dtype}")
    else:
        array = copy(value)
    array.flags.writeable = False
    return array


def _float_copy(value) -> np.ndarray:
    return np.array(value, dtype=np.float64)


@dataclass(frozen=True)
class GrayscaleImage:
    """A 2D grid of real-valued intensities.

    ``original_dims`` tracks the pre-padding height/width so padded copies can
    be cropped back. ``bit_depth`` fixes the intensity ceiling
    L = 2**bit_depth - 1 (255 for ordinary 8-bit material).
    """

    pixels: np.ndarray
    bit_depth: int = 8
    original_dims: tuple[int, int] = None

    def __post_init__(self):
        px = _owned(self.pixels, _float_copy)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a non-empty 2D array")
        object.__setattr__(self, "pixels", px)
        if self.original_dims is None:
            object.__setattr__(self, "original_dims", px.shape)
        oh, ow = self.original_dims
        if oh > px.shape[0] or ow > px.shape[1]:
            raise ValueError("original_dims exceed pixel dimensions")

    @classmethod
    def _owning(cls, pixels: np.ndarray, bit_depth: int = 8,
                original_dims: tuple[int, int] | None = None) -> "GrayscaleImage":
        """Take over a float64 array the caller just made, without copying it.

        The caller must keep no reference through which it could write.
        """
        return cls(_Handover(pixels), bit_depth, original_dims)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def max_value(self) -> float:
        """Intensity ceiling L."""
        return float(2 ** self.bit_depth - 1)


@dataclass(frozen=True)
class BlockGrid:
    """Row-major sequence of 8x8 pixel blocks covering a padded image.

    ``n_b_x`` counts block rows (ceil(H/8)), ``n_b_y`` block columns
    (ceil(W/8)); ``blocks[j]`` is the j-th block with
    j = block_row * n_b_y + block_col.
    """

    blocks: np.ndarray          # (n_blocks, 8, 8)
    n_b_x: int
    n_b_y: int
    original_dims: tuple[int, int]
    bit_depth: int = 8

    def __post_init__(self):
        blocks = _owned(self.blocks, _float_copy)
        if blocks.shape != (self.n_b_x * self.n_b_y, BLOCK, BLOCK):
            raise ValueError("blocks shape inconsistent with block counts")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _owning(cls, blocks: np.ndarray, n_b_x: int, n_b_y: int,
                original_dims: tuple[int, int], bit_depth: int = 8) -> "BlockGrid":
        """Take over a float64 array the caller just made, without copying it.

        The caller must keep no reference through which it could write.
        """
        return cls(_Handover(blocks), n_b_x, n_b_y, original_dims, bit_depth)

    @property
    def padded_dims(self) -> tuple[int, int]:
        return (self.n_b_x * BLOCK, self.n_b_y * BLOCK)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Reduce an (H, W, 3) array to luminance with BT.601 weights."""
    r, g, b = BT601_WEIGHTS
    return r * rgb[..., 0] + g * rgb[..., 1] + b * rgb[..., 2]


def _read_pnm_tokens(data: bytes, count: int, offset: int) -> tuple[list[int], int]:
    """Read whitespace/comment separated integer tokens from a PNM header."""
    tokens = []
    i = offset
    while len(tokens) < count:
        if i >= len(data):
            raise ImageFormatError("corrupt header: unexpected end of file")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise ImageFormatError(f"corrupt header: bad token {tok!r}")
            tokens.append(int(tok))
            i = j
    return tokens, i


def _load_pnm(data: bytes) -> GrayscaleImage:
    magic = data[:2]
    if magic not in (b"P2", b"P5", b"P3", b"P6"):
        raise ImageFormatError(f"unsupported format: magic {magic!r}")
    if not (data[2:3].isspace() or data[2:3] == b"#"):
        raise ImageFormatError(f"corrupt header: magic {magic!r} not followed by whitespace")
    (w, h, maxval), pos = _read_pnm_tokens(data, 3, 2)
    if w <= 0 or h <= 0:
        raise ImageFormatError("corrupt header: non-positive dimensions")
    if maxval <= 0 or maxval > 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (expected 1..255)")
    channels = 3 if magic in (b"P3", b"P6") else 1
    n_values = w * h * channels

    if magic in (b"P5", b"P6"):
        # Binary payload starts after exactly one whitespace byte.
        if not data[pos:pos + 1].isspace():
            raise ImageFormatError("corrupt header: maxval not followed by whitespace")
        if len(data) - (pos + 1) < n_values:
            raise ImageFormatError("corrupt payload: truncated pixel data")
        samples = np.frombuffer(data, dtype=np.uint8, count=n_values, offset=pos + 1)
        # a byte can only exceed a maxval below 255
        if maxval < 255 and np.any(samples > maxval):
            raise ImageFormatError("corrupt payload: sample exceeds maxval")
        values = samples.astype(np.float64)
    else:
        body = re.sub(rb"#[^\n]*", b"", data[pos:])
        fields = body.split()
        if len(fields) < n_values:
            raise ImageFormatError("corrupt payload: truncated pixel data")
        if not all(f.isdigit() for f in fields[:n_values]):
            raise ImageFormatError("corrupt payload: sample is not an unsigned integer")
        values = np.array([int(f) for f in fields[:n_values]], dtype=np.float64)
        if np.any(values > maxval):
            raise ImageFormatError("corrupt payload: sample exceeds maxval")
    if channels == 3:
        pixels = luminance(values.reshape(h, w, 3))
    else:
        pixels = values.reshape(h, w)
    return GrayscaleImage._owning(pixels, bit_depth=maxval.bit_length())


def load_image(path, allow_png: bool = False) -> GrayscaleImage:
    """Load a grayscale image from a PGM/PPM file (or PNG when enabled).

    Multi-channel inputs are reduced to luminance. Raises
    :class:`ImageFormatError` for unreadable or corrupt files.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ImageFormatError(f"unreadable file: {path}") from exc
    if data[:2] in (b"P2", b"P5", b"P3", b"P6"):
        return _load_pnm(data)
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        if not allow_png:
            raise ImageFormatError("PNG support is disabled (pass allow_png=True)")
        try:
            from PIL import Image
        except ImportError as exc:
            raise ImageFormatError("PNG support requires Pillow") from exc
        with Image.open(path) as im:
            arr = np.asarray(im.convert("RGB"), dtype=np.float64)
        return GrayscaleImage._owning(luminance(arr), bit_depth=8)
    raise ImageFormatError(f"unsupported format: {path}")


def write_pgm(img: GrayscaleImage, path) -> None:
    """Write an image as binary PGM (P5) with maxval L = 2^bit_depth - 1.

    Pixels are clamped to [0, L] and rounded half away from zero, so the
    file loads back at the image's bit depth. Bit depths above 8 raise
    ValueError, like maxvals above 255 on loading.
    """
    if not 1 <= img.bit_depth <= 8:
        raise ValueError(f"PGM output supports bit depths 1..8, got {img.bit_depth}")
    maxval = 2 ** img.bit_depth - 1
    px = np.clip(img.pixels, 0.0, maxval)
    px = np.copysign(np.floor(np.abs(px) + 0.5), px).astype(np.uint8)
    h, w = px.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + px.tobytes())


def pad_to_multiple(img: GrayscaleImage) -> GrayscaleImage:
    """Zero-pad along the bottom and right edges to multiples of 8."""
    h, w = img.pixels.shape
    ph = (BLOCK - h % BLOCK) % BLOCK
    pw = (BLOCK - w % BLOCK) % BLOCK
    if ph == 0 and pw == 0:
        return img
    padded = np.pad(img.pixels, ((0, ph), (0, pw)), mode="constant")
    return GrayscaleImage._owning(padded, img.bit_depth, img.original_dims)


def pad_to_pow2(img: GrayscaleImage) -> GrayscaleImage:
    """Zero-pad each dimension up to the next power of two (at least 8).

    The quantum register layout addresses pixels with binary indices, so the
    padded height and width must both be powers of two even though the block
    grid itself only needs multiples of 8. The original dimensions are kept
    for cropping at readout.
    """
    h, w = img.pixels.shape
    th = max(BLOCK, 1 << (h - 1).bit_length())
    tw = max(BLOCK, 1 << (w - 1).bit_length())
    if th == h and tw == w:
        return img
    padded = np.pad(img.pixels, ((0, th - h), (0, tw - w)), mode="constant")
    return GrayscaleImage._owning(padded, img.bit_depth, img.original_dims)


def pad_and_partition(img: GrayscaleImage) -> BlockGrid:
    """Zero-pad to multiples of 8 and split into row-major 8x8 blocks."""
    padded = pad_to_multiple(img)
    h, w = padded.pixels.shape
    nbx, nby = h // BLOCK, w // BLOCK
    blocks = (padded.pixels.reshape(nbx, BLOCK, nby, BLOCK)
              .transpose(0, 2, 1, 3)
              .reshape(nbx * nby, BLOCK, BLOCK))
    return BlockGrid._owning(blocks, nbx, nby, img.original_dims, img.bit_depth)


def assemble_image(grid: BlockGrid,
                   original_dims: tuple[int, int] | None = None) -> GrayscaleImage:
    """Reassemble blocks into an image, cropping away the padding region.

    Inverse of :func:`pad_and_partition` up to the cropped padding. Values
    are not clamped: the decoders' oracles compare the raw pixels, and
    clamping is left to scoring and file writing.
    """
    if original_dims is None:
        original_dims = grid.original_dims
    oh, ow = original_dims
    ph, pw = grid.padded_dims
    if oh > ph or ow > pw:
        raise ValueError(f"original dims {original_dims} exceed padded grid {grid.padded_dims}")
    pixels = (grid.blocks.reshape(grid.n_b_x, grid.n_b_y, BLOCK, BLOCK)
              .transpose(0, 2, 1, 3)
              .reshape(ph, pw))
    # A cropped image gets its own array rather than a view of the padded one.
    if (oh, ow) != (ph, pw):
        pixels = pixels[:oh, :ow].copy()
    return GrayscaleImage._owning(pixels, grid.bit_depth, (oh, ow))
