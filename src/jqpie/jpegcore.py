"""Classical JPEG-style transform stack for 8x8 blocks.

Coefficient blocks, quantized blocks and zigzag vectors are plain numpy
arrays: an 8x8 float array of transform coefficients, an 8x8 integer-valued
array after quantization, and a length-64 vector in zigzag order. Block
matrices of shape (n_blocks, 64) carry one zigzag vector per row.

The 2D transform is orthonormal (energy preserving); the fast implementation
uses the separable matrix form and is validated elsewhere against the naive
quadruple-sum definition. Entropy coding is out of scope: the pipeline needs
fixed-dimensional coefficient vectors, not variable-length bitstreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imagio import BLOCK, BlockGrid, GrayscaleImage, assemble_image, pad_and_partition

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


def zigzag_coefficients(grid: BlockGrid, table: QuantTable | None = None) -> np.ndarray:
    """Per-block zigzag-ordered DCT coefficients, shape (n_blocks, 64).

    With a table the coefficients are quantized first; without one they are
    the raw transform values. Pixels are transformed as raw intensities,
    without JPEG's 128 level shift, which keeps quantum readout scaling
    simple.
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
        zz = zigzag_coefficients(grid, table=None)
        zz = truncate_zigzag(zz, r)
        coeffs = blocks_from_zigzag(zz)
    else:
        table = QuantTable(scale)
        zz = zigzag_coefficients(grid, table=table)
        if mode == "jqpie_oracle":
            zz = truncate_zigzag(zz, r)
        coeffs = blocks_from_zigzag(zz) * table.values
    pixels = idct2_blocks(coeffs)
    recon = BlockGrid._owning(pixels, grid.n_b_x, grid.n_b_y, grid.original_dims,
                              grid.bit_depth)
    return assemble_image(recon, clamp=False).pixels


def classical_reference_decode(img: GrayscaleImage, mode: str, r: int = 6,
                               scale: float = 1.0, clamp: bool = True) -> GrayscaleImage:
    """Classical decode returning a GrayscaleImage (clamped by default)."""
    pixels = reference_decode_pixels(img, mode, r=r, scale=scale)
    out = GrayscaleImage(pixels, img.bit_depth, img.original_dims)
    return out.clamped() if clamp else out


def jpeg_decode(zz: np.ndarray, table: QuantTable, img: GrayscaleImage) -> GrayscaleImage:
    """Classical JPEG decode of ``img`` from its quantized zigzag matrix.

    ``zz`` holds the quantized rows of ``img``'s own block grid
    (:func:`~jqpie.imagio.pad_and_partition`); they are dequantized,
    inverse transformed, cropped to the original dimensions and clamped.
    The same steps as :func:`classical_reference_decode` in ``jpeg`` mode,
    which stays a separate oracle that computes its own coefficients.

    The decode works in the image's own layout: the dequantized coefficients
    fill an (H, W) array of 8x8 tiles, each tile row is contracted over u
    (the pixel rows), then each run of 8 values over v into the same array,
    so the decode holds two image-sized arrays besides ``zz``.
    """
    nbx, nby = -(-img.height // BLOCK), -(-img.width // BLOCK)
    pixels = np.empty((nbx * BLOCK, nby * BLOCK))
    np.multiply(zz[:, _ZIGZAG_SLOT].reshape(nbx, nby, BLOCK, BLOCK), table.values,
                out=pixels.reshape(nbx, BLOCK, nby, BLOCK).transpose(0, 2, 1, 3))
    rows = np.matmul(_DCT.T, pixels.reshape(nbx, BLOCK, -1))
    np.matmul(rows.reshape(-1, BLOCK), _DCT, out=pixels.reshape(-1, BLOCK))
    del rows
    np.clip(pixels, 0.0, float(2 ** img.bit_depth - 1), out=pixels)
    oh, ow = img.original_dims
    if pixels.shape != (oh, ow):
        pixels = pixels[:oh, :ow].copy()
    return GrayscaleImage._owning(pixels, img.bit_depth, (oh, ow))


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


def sparsity_stats(source: GrayscaleImage | np.ndarray, scale: float = 1.0) -> SparsityStats:
    """Count nonzero quantized coefficients and their zigzag occupancy.

    ``source`` is an image, quantized here at ``scale``, or the (n_blocks,
    64) quantized zigzag matrix of an image's own block grid
    (:func:`~jqpie.imagio.pad_and_partition`), which already fixes the scale.
    """
    if isinstance(source, GrayscaleImage):
        source = zigzag_coefficients(pad_and_partition(source), QuantTable(scale))
    nonzero = source != 0
    d = int(nonzero.sum())
    n = nonzero.size
    if d == 0:
        raise ValueError("all quantized coefficients are zero; compression ratio undefined")
    hist = nonzero.mean(axis=0)
    return SparsityStats(d, n / d, hist, n, nonzero.shape[0])
