"""Classical JPEG-style transform stack for 8x8 blocks.

Coefficient blocks, quantized blocks and zigzag vectors are plain numpy
arrays: an 8x8 float array of transform coefficients, an 8x8 integer-valued
array after quantization, and a length-64 vector in zigzag order. Block
matrices of shape (n_blocks, 64) carry one zigzag vector per row.

The 2D transform is orthonormal (energy preserving); the fast implementation
uses the separable matrix form and is validated elsewhere against the naive
quadruple-sum definition. Entropy coding is out of scope: the pipeline needs
fixed-dimensional coefficient vectors, not variable-length bitstreams.

Both production transforms work in the padded image's own (H, W) layout and
never cut it into a stack of blocks. :func:`zigzag_coefficients` contracts
the pixel rows (x) of each tile row first and then each run of 8 columns
(y), the order the block path's ``einsum`` in :func:`dct2_blocks` uses, so
its values are bit for bit those of the block path; its (n_blocks, 64)
result is slot-major (F-contiguous), so one zigzag slot of every block is
contiguous memory. :func:`classical_reference_decode`, the JPEG baseline
every CLI command scores against, undoes it the same way from that matrix,
and :func:`sparsity_stats` counts the same matrix. The classical oracles
(:func:`reference_decode_pixels`) keep the block path of
:func:`~jqpie.imagio.pad_and_partition`, :func:`dct2_blocks` and
:func:`quantize_zigzag`, so they stay an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imagio import (BLOCK, STRIP_ROWS, BlockGrid, GrayscaleImage, assemble_image,
                     pad_and_partition, pad_to_multiple)

#: Standard luminance quantization matrix (scaled by S at table construction).
BASE_QUANT = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)

TRUNCATION_LEVELS = (2, 3, 4, 5, 6)

DECODE_MODES = ("jpeg", "jqpie_oracle", "qf_oracle")


def dct_matrix() -> np.ndarray:
    """The 8-point orthonormal DCT-II matrix M[u, y] = a(u) cos((2y+1)u pi/16)."""
    u = np.arange(BLOCK).reshape(-1, 1)
    y = np.arange(BLOCK).reshape(1, -1)
    m = np.cos((2 * y + 1) * u * np.pi / (2 * BLOCK))
    m *= np.sqrt(2.0 / BLOCK)
    m[0, :] *= np.sqrt(0.5)
    return m


_DCT = dct_matrix()
_DCT.flags.writeable = False


def dct2_block(block: np.ndarray) -> np.ndarray:
    """Forward 2D DCT of one 8x8 block (separable orthonormal form)."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise ValueError("expected an 8x8 block")
    return _DCT @ block @ _DCT.T


def idct2_block(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2D DCT; exact inverse of :func:`dct2_block`."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (BLOCK, BLOCK):
        raise ValueError("expected an 8x8 block")
    return _DCT.T @ coeffs @ _DCT


def dct2_blocks(blocks: np.ndarray) -> np.ndarray:
    """Forward 2D DCT applied to a stack of blocks, shape (n, 8, 8)."""
    return np.einsum("ux,nxy,vy->nuv", _DCT, blocks, _DCT, optimize=True)


def idct2_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2D DCT applied to a stack of coefficient blocks."""
    return np.einsum("ux,nuv,vy->nxy", _DCT, coeffs, _DCT, optimize=True)


def check_scale(scale: float) -> None:
    """Raise ValueError unless the quantization scale is positive and finite."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")


@dataclass(frozen=True)
class QuantTable:
    """Quantization divisors Q = scale * BASE_QUANT.

    Entries stay real-valued for non-unit scales; only the quantized
    coefficients are integers. ``max_entry`` is the normalization constant
    lambda used by the block-encoded rescaler (121 * scale for the standard
    luminance matrix).
    """

    scale: float = 1.0

    def __post_init__(self):
        check_scale(self.scale)
        values = self.scale * BASE_QUANT
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def max_entry(self) -> float:
        return float(self._values.max())


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half away from zero (the usual JPEG encoder convention).

    copysign(floor(|x| + 0.5), x), computed in one new buffer; ``x`` is
    not written.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty_like(x))
    out += 0.5
    np.floor(out, out=out)
    return np.copysign(out, x, out=out)


def zigzag_permutation() -> np.ndarray:
    """Zigzag index map pi: slot k -> row-major frequency index 8u+v.

    Generated by walking the anti-diagonals of the 8x8 grid, alternating
    direction so low frequencies come first: pi(0..4) = 0, 1, 8, 16, 9.
    """
    order = []
    for s in range(2 * BLOCK - 1):
        diag = [(u, s - u) for u in range(BLOCK) if 0 <= s - u < BLOCK]
        if s % 2 == 0:
            diag.reverse()
        order.extend(BLOCK * u + v for u, v in diag)
    return np.array(order, dtype=np.int64)


_ZIGZAG = zigzag_permutation()
_ZIGZAG.flags.writeable = False
#: Zigzag slot of each frequency index 8u+v.
_ZIGZAG_SLOT = np.argsort(_ZIGZAG)
_ZIGZAG_SLOT.flags.writeable = False


def check_truncation(r: int) -> None:
    if r not in TRUNCATION_LEVELS:
        raise ValueError(f"truncation level must be one of {TRUNCATION_LEVELS}, got {r}")


def truncate_zigzag(values: np.ndarray, r: int) -> np.ndarray:
    """Zero all zigzag slots at positions >= 2**r (r=6 keeps everything).

    Works on a single vector or on a (n_blocks, 64) matrix of vectors.
    """
    check_truncation(r)
    out = np.array(values, dtype=np.float64)
    out[..., 2 ** r:] = 0.0
    return out


def zigzag_coefficients(source: GrayscaleImage | BlockGrid,
                        table: QuantTable | None = None) -> np.ndarray:
    """Per-block zigzag-ordered DCT coefficients, shape (n_blocks, 64).

    ``source`` is an image, zero-padded here to multiples of 8, or the block
    grid :func:`~jqpie.imagio.pad_and_partition` makes of one, which is laid
    back out as its padded image; rows follow the row-major block order
    either way. With a table the coefficients are quantized first; without
    one they are the raw transform values. Pixels are transformed as raw
    intensities, without JPEG's 128 level shift, which keeps quantum readout
    scaling simple.

    The transform works in the padded (H, W) layout: one product contracts
    the 8 pixel rows (x) of every tile row, a second each run of 8 columns
    (y). Rows go first, as in :func:`dct2_blocks`, so every value is bit for
    bit the block path's. One transposed copy, dividing by Q when
    quantizing, makes a frequency-major (64, n_blocks) array; a take of its
    rows in zigzag order fills the second buffer, where the quotients are
    rounded half away from zero in place as trunc(x + copysign(0.5, x)),
    bit for bit :func:`round_half_away`. The result is that buffer
    transposed: slot-major (F-contiguous), so a slot of every block, the
    unit the pipeline and the decoder gather, is contiguous memory.
    """
    if isinstance(source, BlockGrid):
        pixels = assemble_image(source, source.padded_dims, clamp=False).pixels
    else:
        pixels = pad_to_multiple(source).pixels
    nbx, nby = pixels.shape[0] // BLOCK, pixels.shape[1] // BLOCK
    rows = np.matmul(_DCT, pixels.reshape(nbx, BLOCK, -1))
    coeffs = np.matmul(rows.reshape(-1, BLOCK), _DCT.T)
    # rows is spent: its buffer takes the frequency-major copy
    freq = rows.reshape(BLOCK, BLOCK, nbx, nby)
    tiles = coeffs.reshape(nbx, BLOCK, nby, BLOCK).transpose(1, 3, 0, 2)
    if table is None:
        np.copyto(freq, tiles)
    else:
        np.divide(tiles, table.values[:, :, None, None], out=freq)
    freq = freq.reshape(BLOCK * BLOCK, -1)
    # an unbuffered take (mode="clip"; every index is in range) into coeffs
    zz = np.take(freq, _ZIGZAG, axis=0, out=coeffs.reshape(freq.shape), mode="clip")
    if table is not None:
        zz += np.copysign(0.5, zz, out=freq)
        np.trunc(zz, out=zz)
    return zz.T


def _block_zigzag(grid: BlockGrid, table: QuantTable | None) -> np.ndarray:
    """The oracles' zigzag matrix, from the block stack of ``grid``.

    The block path :func:`zigzag_coefficients` is checked against:
    :func:`dct2_blocks`, the zigzag gather, then :func:`quantize_zigzag`.
    """
    zz = dct2_blocks(grid.blocks).reshape(-1, BLOCK * BLOCK)[:, _ZIGZAG]
    return zz if table is None else quantize_zigzag(zz, table)


def quantize_zigzag(zz: np.ndarray, table: QuantTable) -> np.ndarray:
    """Quantize zigzag-ordered coefficient rows, slot by slot, at ``table``.

    Element for element the same division and rounding as quantizing the
    8x8 blocks before the zigzag reordering, so the result is identical.
    """
    return round_half_away(zz / table.values.reshape(-1)[_ZIGZAG])


def blocks_from_zigzag(zz: np.ndarray) -> np.ndarray:
    """Inverse of the zigzag reordering for a (n_blocks, 64) matrix."""
    flat = np.empty_like(zz)
    flat[:, _ZIGZAG] = zz
    return flat.reshape(-1, BLOCK, BLOCK)


def reference_decode_pixels(img: GrayscaleImage, mode: str, r: int = 6,
                            scale: float = 1.0) -> np.ndarray:
    """Classical decode path, returning raw pre-clamp pixels (original dims).

    jpeg:          DCT -> quantize -> dequantize -> IDCT
    jqpie_oracle:  as jpeg, with zigzag truncation at r before dequantization
    qf_oracle:     DCT -> zigzag truncation -> IDCT (no quantization)

    These are the classical shadows of the two quantum pipelines and serve as
    their oracles.
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"mode must be one of {DECODE_MODES}, got {mode!r}")
    check_truncation(r)
    grid = pad_and_partition(img)
    if mode == "qf_oracle":
        zz = _block_zigzag(grid, table=None)
        zz = truncate_zigzag(zz, r)
        coeffs = blocks_from_zigzag(zz)
    else:
        table = QuantTable(scale)
        zz = _block_zigzag(grid, table=table)
        if mode == "jqpie_oracle":
            zz = truncate_zigzag(zz, r)
        coeffs = blocks_from_zigzag(zz) * table.values
    pixels = idct2_blocks(coeffs)
    recon = BlockGrid._owning(pixels, grid.n_b_x, grid.n_b_y, grid.original_dims,
                              grid.bit_depth)
    return assemble_image(recon, clamp=False).pixels


def classical_reference_decode(zz: np.ndarray, table: QuantTable,
                               img: GrayscaleImage) -> GrayscaleImage:
    """The classical JPEG baseline: decode ``img`` from its quantized zigzag matrix.

    ``zz`` holds the quantized rows of ``img``'s own block grid
    (:func:`zigzag_coefficients` of ``img``); they are dequantized,
    inverse transformed, cropped to the original dimensions and clamped.
    The same steps as :func:`reference_decode_pixels` in ``jpeg`` mode,
    which stays a separate oracle that computes its own coefficients and
    leaves the pixels unclamped.

    The decode works in the image's own layout, 8 block rows
    (:data:`~jqpie.imagio.STRIP_ROWS` pixel rows) at a time: a strip's
    dequantized coefficients fill a strip of 8x8 tiles, each tile row is
    contracted over u (the pixel rows), then each run of 8 values over v
    into the same strip, which is clamped into the output's rows. So the
    decode holds the output and strip-sized temporaries besides ``zz``.
    Block rows below the original height are not decoded.
    """
    nbx, nby = -(-img.height // BLOCK), -(-img.width // BLOCK)
    oh, ow = img.original_dims
    peak = float(2 ** img.bit_depth - 1)
    out = np.empty((oh, ow))
    per_strip = STRIP_ROWS // BLOCK
    strip = np.empty((min(per_strip, nbx) * BLOCK, nby * BLOCK))
    for first in range(0, -(-oh // BLOCK), per_strip):
        k = min(per_strip, nbx - first)
        pixels = strip[:k * BLOCK]
        coefficients = zz[first * nby:(first + k) * nby][:, _ZIGZAG_SLOT]
        np.multiply(coefficients.reshape(k, nby, BLOCK, BLOCK), table.values,
                    out=pixels.reshape(k, BLOCK, nby, BLOCK).transpose(0, 2, 1, 3))
        rows = np.matmul(_DCT.T, pixels.reshape(k, BLOCK, -1))
        np.matmul(rows.reshape(-1, BLOCK), _DCT, out=pixels.reshape(-1, BLOCK))
        row = first * BLOCK
        n = min(k * BLOCK, oh - row)
        np.clip(pixels[:n, :ow], 0.0, peak, out=out[row:row + n])
    return GrayscaleImage._owning(out, img.bit_depth, (oh, ow))


@dataclass(frozen=True)
class SparsityStats:
    """Nonzero structure of the quantized coefficients of one image.

    ``nonzero_count`` is d, the number of nonzero quantized coefficients over
    all blocks; ``compression_ratio`` is N/d with N the 8-padded pixel count;
    ``histogram[k]`` is the fraction of blocks whose zigzag slot k is nonzero.
    """

    nonzero_count: int
    compression_ratio: float
    histogram: np.ndarray
    pixel_count: int
    block_count: int


def sparsity_stats(zz: np.ndarray) -> SparsityStats:
    """Count nonzero quantized coefficients and their zigzag occupancy.

    ``zz`` is the (n_blocks, 64) quantized zigzag matrix of an image's own
    block grid (:func:`zigzag_coefficients` of the image at a table).
    """
    nonzero = zz != 0
    d = int(nonzero.sum())
    n = nonzero.size
    if d == 0:
        raise ValueError("all quantized coefficients are zero; compression ratio undefined")
    hist = nonzero.mean(axis=0)
    return SparsityStats(d, n / d, hist, n, nonzero.shape[0])
