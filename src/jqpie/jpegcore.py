"""Classical JPEG-style transform stack for 8x8 blocks.

Coefficient blocks, quantized blocks and zigzag vectors are plain numpy
arrays: an 8x8 float array of transform coefficients, an 8x8 integer-valued
array after quantization, and a length-64 vector in zigzag order. Block
matrices of shape (n_blocks, 64) carry one zigzag vector per row.

The 2D transform is orthonormal (energy preserving); the fast implementation
uses the separable matrix form and is validated elsewhere against the naive
quadruple-sum definition. Entropy coding is out of scope: the pipeline needs
fixed-dimensional coefficient vectors, not variable-length bitstreams.

The production path never cuts the image into a stack of blocks. Its unit
is the coefficient plane: the transform of the padded (H, W) image in the
image's own layout, where frequency (u, v) of block (i, j) sits at pixel
(8i+u, 8j+v). :func:`zigzag_coefficients` makes it 8 block rows at a time
by contracting the pixel rows (x) of each tile row first and then each run
of 8 columns (y), the order the block path's ``einsum`` in
:func:`dct2_blocks` uses, so its values are bit for bit those of the block
path; it quantizes each strip in place by a tiled Q while the strip is in
cache (as :func:`quantize_plane` does), and gives the zigzag matrix only
when asked for it. The plane is decoded 8 block rows at a time by one strip
loop with two first stages. :func:`idct_strips`, the pipeline's operator
backend, folds an 8x8 weight into the inverse DCT's first product
(:func:`fold_weight`), as fast decoders fold dequantization into their
IDCT's multipliers. :func:`classical_reference_decode`, the JPEG baseline
every CLI command scores against, dequantizes first by a tiled Q and then
transforms, because its pixels are pinned bit for bit to the oracle's.
:func:`sparsity_stats` counts the same plane. The classical oracles
(:func:`reference_decode_pixels`) keep the block path of
:func:`~jqpie.imagio.pad_and_partition`, :func:`dct2_blocks` and
:func:`quantize_zigzag`, so they stay an independent reference.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
# the forward transform's right factor (see zigzag_coefficients)
_DCT_T = np.ascontiguousarray(_DCT.T)
_DCT_T.flags.writeable = False

# float64 bit masks for the sign-bit form of copysign(0.5, x)
_SIGN_BIT = np.uint64(1 << 63)
_HALF_BITS = np.float64(0.5).view(np.uint64)


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

#: Output layouts of :func:`zigzag_coefficients`.
LAYOUTS = ("zigzag", "image")


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
                        table: QuantTable | None = None, layout: str = "zigzag") -> np.ndarray:
    """Per-block DCT coefficients: the zigzag matrix or the coefficient plane.

    ``source`` is an image, zero-padded here to multiples of 8, or the block
    grid :func:`~jqpie.imagio.pad_and_partition` makes of one, which is laid
    back out as its padded image. With a table the coefficients are
    quantized; without one they are the raw transform values. Pixels are
    transformed as raw intensities, without JPEG's 128 level shift, which
    keeps quantum readout scaling simple.

    The transform works in the padded (H, W) layout, 8 block rows
    (:data:`~jqpie.imagio.STRIP_ROWS` pixel rows) at a time: one product
    contracts the 8 pixel rows (x) of every tile row into a strip buffer, a
    second each run of 8 columns (y) into the plane. Rows go first, as in
    :func:`dct2_blocks`, so every value is bit for bit the block path's.
    The second product multiplies by a C-contiguous, read-only copy of D^T
    made once at import, which BLAS runs 2.5x faster than the transposed
    view of D with the same bits.
    The second product's (H, W) result is the coefficient plane, frequency
    (u, v) of block (i, j) at (8i+u, 8j+v); with a table each strip of it
    is quantized in place while it is still in cache, as
    :func:`quantize_plane` does, with the spent strip buffer as scratch.
    ``layout="image"`` returns it. The default ``"zigzag"`` reorders it into
    the (n_blocks, 64) matrix of zigzag rows, blocks in row-major order: one
    transposed copy makes it frequency-major, a take of its rows in zigzag
    order fills the plane's buffer, and the result is that buffer
    transposed, slot-major (F-contiguous).
    """
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if isinstance(source, BlockGrid):
        pixels = assemble_image(source, source.padded_dims).pixels
    else:
        pixels = pad_to_multiple(source).pixels
    height, width = pixels.shape
    plane = np.empty(pixels.shape)
    rows = np.empty((min(STRIP_ROWS, height), width))
    divisors = None if table is None else _tiled(table.values, BLOCK, width)
    for first in range(0, height, STRIP_ROWS):
        strip = plane[first:first + STRIP_ROWS]
        half = rows[:len(strip)]
        np.matmul(_DCT, pixels[first:first + STRIP_ROWS].reshape(-1, BLOCK, width),
                  out=half.reshape(-1, BLOCK, width))
        np.matmul(half.reshape(-1, BLOCK), _DCT_T, out=strip.reshape(-1, BLOCK))
        if divisors is not None:
            _quantize_strip(strip, divisors, half)
    if layout == "image":
        return plane
    nbx, nby = height // BLOCK, width // BLOCK
    freq = np.empty((BLOCK, BLOCK, nbx, nby))
    np.copyto(freq, plane.reshape(nbx, BLOCK, nby, BLOCK).transpose(1, 3, 0, 2))
    # an unbuffered take (mode="clip"; every index is in range) into the plane
    zz = np.take(freq.reshape(BLOCK * BLOCK, -1), _ZIGZAG, axis=0,
                 out=plane.reshape(BLOCK * BLOCK, -1), mode="clip")
    return zz.T


def _tiled(weight: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """An 8x8 weight repeated over ``rows`` x ``cols`` pixels (multiples of 8)."""
    tiled = np.empty((rows, cols))
    tiled.reshape(rows // BLOCK, BLOCK, cols // BLOCK, BLOCK)[...] = weight[:, None, :]
    return tiled


def quantize_plane(plane: np.ndarray, table: QuantTable) -> np.ndarray:
    """Quantize a coefficient plane in place at ``table`` and return it.

    Each 8-row band is divided by Q tiled along it, and the quotients are
    rounded half away from zero as trunc(x + copysign(0.5, x)), bit for bit
    :func:`round_half_away`: the same division and rounding as
    :func:`quantize_zigzag`, element for element. The copysign is formed
    on the bits: each quotient's sign bit ORed into those of 0.5, two
    integer passes that numpy vectorizes, where its ``copysign`` has no
    vector loop; it is the same value, on signed zeros and subnormals too.
    The plane is walked 8 block rows at a time, so each strip's five passes
    run in cache, and a strip-sized scratch array takes the copysign.
    """
    divisors = _tiled(table.values, BLOCK, plane.shape[1])
    scratch = np.empty((min(STRIP_ROWS, len(plane)), plane.shape[1]))
    for first in range(0, len(plane), STRIP_ROWS):
        _quantize_strip(plane[first:first + STRIP_ROWS], divisors, scratch)
    return plane


def _quantize_strip(strip: np.ndarray, divisors: np.ndarray, scratch: np.ndarray) -> None:
    """Quantize whole 8-row bands in place by ``divisors``, Q tiled over one
    band, as :func:`quantize_plane` describes; ``scratch``, a C-contiguous
    array of at least the strip's rows, takes copysign(0.5, x) in its
    sign-bit form."""
    bands = strip.reshape(-1, BLOCK, strip.shape[1])
    np.divide(bands, divisors, out=bands)
    half = scratch[:len(strip)]
    bits = half.view(np.uint64)
    np.bitwise_and(strip.view(np.uint64), _SIGN_BIT, out=bits)
    np.bitwise_or(bits, _HALF_BITS, out=bits)
    strip += half
    np.trunc(strip, out=strip)


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
    return assemble_image(recon).pixels


def fold_weight(weight: np.ndarray) -> np.ndarray:
    """The 8x8 ``weight`` folded into the inverse DCT's product over v.

    Row class u of a tile gets N_u = diag(weight[u, :]) D, so a row of 8
    coefficients times N_u is the row weighted and contracted over v in
    one product. Returns the read-only stack of the eight N_u, (8, 8, 8).
    """
    folded = weight[:, :, None] * _DCT
    folded.flags.writeable = False
    return folded


def _by_row_class(strip: np.ndarray) -> np.ndarray:
    """A strip of whole tile rows viewed as (u, tile row, tile column, v)."""
    return strip.reshape(-1, BLOCK, strip.shape[1] // BLOCK, BLOCK).transpose(1, 0, 2, 3)


def _decode_strips(plane: np.ndarray, dims: tuple[int, int], folded: np.ndarray | None,
                   weight: np.ndarray | None) -> Iterator[tuple[int, np.ndarray]]:
    """The strip loop both decodes share; only their first stage differs.

    Folded (:func:`idct_strips`): one batched product of each row class u
    with its N_u contracts v with the weight inside it, then the product
    with D^T contracts u. Multiply-first (``weight``, the JPEG baseline):
    the weight tiled over the strip multiplies it, then the product with
    D^T contracts u and the product with D contracts v, the order and the
    rounding of :func:`idct2_blocks`. Both hold two strip-sized buffers,
    and the baseline its tiled weight too.
    """
    oh, ow = dims
    height, cols = -(-oh // BLOCK) * BLOCK, -(-ow // BLOCK) * BLOCK
    rows = min(STRIP_ROWS, height)
    tiled = None if weight is None else _tiled(weight, rows, cols)
    strip, spare = np.empty((rows, cols)), np.empty((rows, cols))
    for first in range(0, height, STRIP_ROWS):
        n = min(STRIP_ROWS, height - first)
        coefficients, pixels, half = plane[first:first + n, :cols], strip[:n], spare[:n]
        if tiled is None:
            np.matmul(_by_row_class(coefficients), folded[:, None], out=_by_row_class(half))
        else:
            np.multiply(coefficients, tiled[:n], out=half)
        np.matmul(_DCT.T, half.reshape(-1, BLOCK, cols), out=pixels.reshape(-1, BLOCK, cols))
        if tiled is not None:
            np.matmul(pixels.reshape(-1, BLOCK), _DCT, out=half.reshape(-1, BLOCK))
            pixels = half
        yield first, pixels[:min(n, oh - first), :ow]


def idct_strips(plane: np.ndarray, folded: np.ndarray,
                dims: tuple[int, int]) -> Iterator[tuple[int, np.ndarray]]:
    """Decode a weighted coefficient plane 8 block rows at a time.

    ``folded`` is a weight folded into the inverse DCT by
    :func:`fold_weight`. Each strip of 8 block rows
    (:data:`~jqpie.imagio.STRIP_ROWS` pixel rows) of ``plane`` is weighted
    and contracted over v in one batched product, then contracted over u;
    no weighted copy of the plane is made. Only the block rows and columns
    that hold the top-left ``dims`` pixels are decoded. Yields the first
    pixel row of each strip and its pixels cropped to ``dims``; the pixel
    array is overwritten by the next strip, and a caller may change it.
    The kernel holds two strip-sized buffers.
    """
    return _decode_strips(plane, dims, folded, None)


def classical_reference_decode(plane: np.ndarray, table: QuantTable,
                               img: GrayscaleImage) -> GrayscaleImage:
    """The classical JPEG baseline: decode ``img`` from its quantized plane.

    ``plane`` is the quantized coefficient plane of ``img``'s own block grid
    (:func:`zigzag_coefficients` of ``img`` with ``layout="image"``). Each
    strip of 8 block rows is dequantized by Q tiled over it and then
    inverse transformed, u first, and cropped to the original dimensions
    and clamped into the output: the same steps, in the same order, as
    :func:`reference_decode_pixels` in ``jpeg`` mode, which stays a separate
    oracle that computes its own coefficients and leaves the pixels
    unclamped, so the two agree bit for bit. That is why the baseline does
    not fold Q into the product over v as :func:`idct_strips` does: a
    folded product rounds differently. It shares the strip loop, its
    buffers, the product over u and the crop with :func:`idct_strips`. The
    decode holds the output and strip-sized temporaries besides ``plane``.
    """
    peak = float(2 ** img.bit_depth - 1)
    out = np.empty(img.original_dims)
    for row, pixels in _decode_strips(plane, img.original_dims, None, table.values):
        np.clip(pixels, 0.0, peak, out=out[row:row + len(pixels)])
    return GrayscaleImage._owning(out, img.bit_depth, img.original_dims)


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


def sparsity_stats(plane: np.ndarray) -> SparsityStats:
    """Count nonzero quantized coefficients and their zigzag occupancy.

    ``plane`` is the quantized coefficient plane of an image's own block
    grid (:func:`zigzag_coefficients` of the image at a table, with
    ``layout="image"``).
    """
    nonzero = plane != 0
    # nonzero blocks per frequency: over block rows, in the narrowest exact type, then columns
    rows = nonzero.reshape(-1, BLOCK * plane.shape[1])
    bands = rows.sum(axis=0, dtype=np.min_scalar_type(len(rows)))
    counts = bands.reshape(BLOCK, -1, BLOCK).sum(axis=1).reshape(-1)[_ZIGZAG]
    d = int(counts.sum())
    n = nonzero.size
    if d == 0:
        raise ValueError("all quantized coefficients are zero; compression ratio undefined")
    n_blocks = n // (BLOCK * BLOCK)
    return SparsityStats(d, n / d, counts / n_blocks, n, n_blocks)
