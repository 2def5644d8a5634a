"""End-to-end hybrid image preparation pipelines and classical readout.

Entry points:

  * :func:`encode_image` - the classical front end of one image (pad to
    powers of two, 2D DCT of every block, quantize at S or not) as a
    reusable :class:`ImageEncoding`, whose coefficient plane keeps the
    image's layout; a sweep encodes each image once per method and hands
    the encoding to every r;
  * :func:`run_qpie_direct` - plain amplitude encoding of the padded image;
  * :func:`run_jqpie` - quantized truncated coefficients loaded on the active
    qubits in the load order of :func:`~jqpie.synth.load_order`, then the
    inverse zigzag (a few signed swaps), block-encoded inverse quantization
    with one ancilla, inverse 2D DCT, and post-selection of the ancilla-0
    branch;
  * :func:`run_qf_jqpie` - the quantization-free variant: unquantized
    truncated coefficients, no ancilla, no post-selection, fully unitary;
  * :class:`HybridRun` - one hybrid run of an encoding whose reconstruction
    is walked in strips of 8 block rows (64 pixel rows), the strips a sweep
    scores (:class:`~jqpie.metrics.Scores`) without making an image-sized
    array; :func:`readout_image` reads a state out in the same strips;
  * :func:`hybrid_circuit` - the full gate-level circuit of either hybrid
    method (state-preparation cascade plus decompression, all RY/CX), built
    without simulating it, for export.

The two hybrid methods run through one body. They share the classical front
end (:func:`encode_image`, then normalize per run), the state load, the
decompression and the readout; passing a quantization scale is the
only difference, and it adds the quantization step, the ancilla with the
block-encoded rescaler, and the post-selection. Either run takes the image
or its encoding; given the image, it encodes it first.

Backends:

  * ``operator`` - the decompression touches only the 6 data qubits and the
    ancilla, and only the 2^r low slots of a block are loaded, so its
    ancilla-0 branch is one real 64 x 2^r matrix M(r, S), read off the
    decompression circuit once and cached. M must be kron(D^T, D^T)[:, f]
    d_f, the inverse 2D DCT of each loaded frequency f scaled by the
    rescaler's d_f, within 1e-12, or the run is refused. A run's loaded
    amplitudes are the normalized (n_blocks, 2^r) coefficients, exactly
    what the state-preparation cascade would load, so none is built; their
    readout, lambda M times the coefficients, is the plane weighted by
    lambda d_f on the loaded frequencies (zero elsewhere) and inverse
    transformed, 8 block rows at a time, by
    :func:`~jqpie.jpegcore.idct_strips`, which folds the weight into the
    inverse DCT's first product. Since the inverse DCT is
    orthonormal, the success probability is the sum of d_f^2 times the
    loaded amplitudes' energies per frequency, and the ancilla-1 branch is
    never built. The state is the decoded padded strips divided by the
    readout factor. Block rows below the original height hold only zero
    padding; a sweep cell skips them.
  * ``gate_exact`` - the reference and the only backend that builds and
    runs the state-preparation cascade: every gate of the cascade and the
    decompression circuit, once and in order. The cascade never touches
    the ancilla, so it runs on the 2^(h+w) amplitudes of the image qubits;
    for JQPIE the ancilla then joins in |0>, as a zero upper half of the
    state, and the decompression runs on the 2^(h+w+1)-amplitude state,
    which is post-selected. :func:`hybrid_circuit` and export keep the
    full-width circuit, the cascade with the ancilla idle.

The decompression circuit is built once per (h, w, r, S) and cached; the
operator probe, ``gate_exact`` and export all read that one circuit.

Images are zero-padded to power-of-two dimensions (at least 8) so pixels can
be addressed by binary registers; the original dimensions are cropped back at
readout. The basis layout follows the project convention documented in
:mod:`jqpie.qsim`: state index = ancilla * 2^(h+w) + j * 64 + k with j the
row-major block index and k the 6-bit intra-block position.

Normalization modes:

  * ``global``  - one scalar for the whole coefficient vector (default);
    relative block brightness is preserved with a single classical number.
  * ``per_block`` - each block normalized separately; the per-block norms are
    classical side information replayed at readout, and blocks whose
    truncated coefficients vanish are flagged and reconstructed as zeros.

Readout uses the signed simulated amplitudes, a privilege of simulation: the
real states carry the coefficients' signs, which measured probabilities
would lose.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .imagio import BLOCK, STRIP_ROWS, GrayscaleImage, pad_to_pow2
from .jpegcore import (_DCT, QuantTable, fold_weight, idct_strips, quantize_plane,
                       zigzag_coefficients)
from .qcircuit import Circuit, ResourceReport, compose
from .qsim import (StateVector, apply_circuit, from_amplitudes, log2_exact,
                   postselect_ancilla, zero_state)
from .synth import (DATA_DIM, DATA_QUBITS, block_encoded_rescaler, closed_form_resources,
                    load_order, lower_circuit, lower_multiplexed_ry, synth_inverse_qdct_gates,
                    synth_state_prep, synth_truncated_zigzag)

METHODS = ("jqpie", "qf_jqpie")
NORM_MODES = ("global", "per_block")
BACKENDS = ("operator", "gate_exact")


@dataclass(frozen=True)
class NormalizationRecord:
    """Classical scaling data needed to turn amplitudes back into pixels.

    In ``global`` mode ``global_norm`` is the norm of the truncated
    coefficient vector. In ``per_block`` mode it is not a norm: it holds
    sqrt(n_active), n_active being the number of blocks with nonzero
    truncated coefficients, because each such block is loaded with weight
    1/sqrt(n_active); the block norms are in ``per_block_norms``.
    """

    global_norm: float
    lam: float | None
    mode: str
    per_block_norms: np.ndarray | None
    padded_dims: tuple[int, int]
    bit_depth: int = 8

    def __post_init__(self):
        if not self.global_norm > 0:
            raise ValueError("global_norm must be positive")
        if self.mode not in NORM_MODES:
            raise ValueError(f"mode must be one of {NORM_MODES}")
        if (self.per_block_norms is not None) != (self.mode == "per_block"):
            raise ValueError("per_block_norms present iff mode == 'per_block'")
        if self.per_block_norms is not None:
            norms = np.asarray(self.per_block_norms, dtype=np.float64).copy()
            norms.flags.writeable = False
            object.__setattr__(self, "per_block_norms", norms)


@dataclass(frozen=True)
class PipelineResult:
    state: StateVector
    success_probability: float
    norm_record: NormalizationRecord
    resources: ResourceReport
    reconstructed: GrayscaleImage

    def to_json(self) -> dict:
        rec = self.norm_record
        return {
            "success_probability": self.success_probability,
            "normalization": {
                "mode": rec.mode,
                "global_norm": rec.global_norm,
                "lambda": rec.lam,
                "padded_dims": list(rec.padded_dims),
                "per_block_norms": (None if rec.per_block_norms is None
                                    else rec.per_block_norms.tolist()),
            },
            "resources": self.resources.to_json(),
        }


def _normalize_rows(zz: np.ndarray, mode: str) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Scale a (n_blocks, 2^r) coefficient matrix into unit amplitudes."""
    if mode not in NORM_MODES:
        raise ValueError(f"norm_mode must be one of {NORM_MODES}")
    if mode == "global":
        norm = float(np.linalg.norm(zz))
        if norm == 0.0:
            raise ValueError("truncated coefficient vector is identically zero")
        return zz / norm, norm, None
    row_norms = np.linalg.norm(zz, axis=1)
    active = row_norms > 0.0
    n_active = int(active.sum())
    if n_active == 0:
        raise ValueError("truncated coefficient vector is identically zero")
    amps = np.zeros_like(zz)
    amps[active] = zz[active] / (row_norms[active, None] * math.sqrt(n_active))
    return amps, math.sqrt(n_active), row_norms


@dataclass(frozen=True)
class ImageEncoding:
    """The classical front end of one image, shared by every run on it.

    ``plane`` is the read-only coefficient plane of the image zero-padded to
    2^h x 2^w pixels: frequency (u, v) of block (i, j) at pixel
    (8i+u, 8j+v), quantized at ``scale`` for JQPIE, unquantized (``scale``
    None) for QF-JQPIE. It depends on neither r nor the normalization mode:
    the operator backend decodes it with weights that zero the frequencies
    a run does not load, and :func:`_amplitudes` gathers a run's load-ordered
    rows from it for the cascade. :attr:`energies` is computed on first use
    and kept on the encoding, so it lives and dies with the plane.
    """

    image: GrayscaleImage
    scale: float | None
    h: int
    w: int
    plane: np.ndarray

    def __post_init__(self):
        self.plane.flags.writeable = False

    @cached_property
    def energies(self) -> np.ndarray:
        """The plane's energies per frequency, read-only 8 x 8: the sum over
        blocks of each coefficient squared (:func:`_plane_energies`)."""
        return _plane_energies(self.plane)

    @property
    def table(self) -> QuantTable | None:
        return None if self.scale is None else QuantTable(self.scale)

    def jpeg_coefficients(self, scale: float) -> np.ndarray:
        """The quantized coefficient plane of the image's own block grid.

        The part of the plane that covers the image padded to multiples of
        8 only, as :func:`~jqpie.jpegcore.zigzag_coefficients` pads it,
        quantized at ``scale``: an unquantized plane is quantized into a
        copy here, a quantized one must already be at ``scale``. This is the
        input of the classical JPEG baseline and of the sparsity statistics.
        """
        rows, cols = (-(-n // BLOCK) * BLOCK for n in (self.image.height, self.image.width))
        plane = self.plane[:rows, :cols]
        if self.scale is None:
            return quantize_plane(plane.copy(), QuantTable(scale))
        _check_scale(self, scale)
        return plane


def encode_image(img: GrayscaleImage, scale: float | None) -> ImageEncoding:
    """The classical front end: pad to powers of two, 2D DCT of every block.

    Quantizes at ``scale`` (JQPIE); ``scale=None`` keeps the raw transform
    values (QF-JQPIE). The coefficients stay in the image layout
    (``layout="image"``). The result feeds :func:`run_jqpie` or
    :func:`run_qf_jqpie` at every r and normalization mode.
    """
    padded = pad_to_pow2(img)
    h = log2_exact(padded.height, "padded height")
    w = log2_exact(padded.width, "padded width")
    table = None if scale is None else QuantTable(scale)
    plane = zigzag_coefficients(padded, table=table, layout="image")
    return ImageEncoding(img, scale, h, w, plane)


def _check_scale(encoding: ImageEncoding, scale: float | None) -> None:
    if encoding.scale != scale:
        def kind(s):
            return "unquantized" if s is None else f"quantized at S={s:g}"
        raise ValueError(f"encoding is {kind(encoding.scale)}, not {kind(scale)}")


def _plane_energies(plane: np.ndarray) -> np.ndarray:
    """The sum over blocks of each frequency's coefficient squared (8 x 8):
    one pass over the plane's 8-row bands."""
    bands = plane.reshape(-1, BLOCK * plane.shape[1])
    energies = np.einsum("ij,ij->j", bands, bands).reshape(BLOCK, -1, BLOCK).sum(axis=1)
    energies.flags.writeable = False
    return energies


def _encoding(source: GrayscaleImage | ImageEncoding, scale: float | None) -> ImageEncoding:
    """``source`` itself when it is an encoding at ``scale``, else its encoding."""
    if isinstance(source, ImageEncoding):
        _check_scale(source, scale)
        return source
    return encode_image(source, scale)


def _record(encoding: ImageEncoding, global_norm: float, mode: str,
            per_block_norms: np.ndarray | None) -> NormalizationRecord:
    table = encoding.table
    return NormalizationRecord(global_norm, None if table is None else table.max_entry, mode,
                               per_block_norms, (2 ** encoding.h, 2 ** encoding.w),
                               encoding.image.bit_depth)


def _amplitudes(encoding: ImageEncoding, r: int,
                norm_mode: str) -> tuple[np.ndarray, NormalizationRecord]:
    """Gather an encoding's first 2^r zigzag coefficients in load order and normalize.

    Column s of the returned (n_blocks, 2^r) amplitude matrix holds the
    coefficient of frequency ``load_order(r)[s]`` of each block, gathered
    from the plane; the record undoes the scaling. This is the cascade's
    input (``gate_exact``, export).
    """
    f = load_order(r)
    plane = encoding.plane
    blocks = plane.reshape(plane.shape[0] // BLOCK, BLOCK, -1, BLOCK)
    zz = blocks[:, f // BLOCK, :, f % BLOCK].reshape(len(f), -1).T
    amp_matrix, global_norm, per_block = _normalize_rows(zz, norm_mode)
    return amp_matrix, _record(encoding, global_norm, norm_mode, per_block)


@lru_cache(maxsize=None)
def _kept(r: int) -> np.ndarray:
    """1 at the frequencies (u, v) a run at r loads, 0 elsewhere (8 x 8)."""
    kept = np.zeros(BLOCK * BLOCK)
    kept[load_order(r)] = 1.0
    kept.flags.writeable = False
    return kept.reshape(BLOCK, BLOCK)


def _load_norms(encoding: ImageEncoding, r: int,
                mode: str) -> tuple[NormalizationRecord, np.ndarray]:
    """The normalization of :func:`_amplitudes`, read off the plane
    without gathering a coefficient.

    Returns the record and the energies of the loaded amplitudes per
    frequency, an 8 x 8 array that is zero off the kept frequencies: the
    sum over blocks of each amplitude squared. Under ``global`` they are the
    plane's energies per frequency (:attr:`ImageEncoding.energies`, computed
    once per encoding) over the squared norm; under
    ``per_block`` each block's squares over its squared norm, summed and
    divided by n_active. They sum to 1. The norms sum in another order than
    :func:`_amplitudes`, so they may differ from its in the last bits.
    """
    if mode not in NORM_MODES:
        raise ValueError(f"norm_mode must be one of {NORM_MODES}")
    plane, kept = encoding.plane, _kept(r)
    per_block = None
    if mode == "global":
        energies = encoding.energies * kept
        total = float(energies.sum())   # the squared norm
    else:
        nby = plane.shape[1] // BLOCK
        chunks, energies = [], np.zeros((BLOCK, BLOCK))
        for first in range(0, plane.shape[0], STRIP_ROWS):
            strip = plane[first:first + STRIP_ROWS]
            squares = (strip * strip).reshape(-1, BLOCK, nby, BLOCK)
            block_energy = np.einsum("iujv,uv->ij", squares, kept)
            inverse = np.divide(1.0, block_energy, out=np.zeros_like(block_energy),
                                where=block_energy > 0.0)
            energies += np.einsum("iujv,ij->uv", squares, inverse)
            chunks.append(block_energy.reshape(-1))
        per_block = np.sqrt(np.concatenate(chunks))
        energies *= kept
        total = np.count_nonzero(per_block)   # n_active
    if total == 0:
        raise ValueError("truncated coefficient vector is identically zero")
    energies /= total
    return _record(encoding, math.sqrt(total), mode, per_block), energies


def _state_prep_circuit(amp_matrix: np.ndarray, h: int, w: int, r: int,
                        ancilla: bool) -> Circuit:
    """Cascade loading the (n_blocks, 2^r) load-ordered amplitudes.

    The circuit acts on the index register plus the low r data qubits; the
    remaining data qubits stay |0>. With ``ancilla`` it is declared on the
    full width, the ancilla idle above them (export); without, on the h + w
    image qubits alone (the ``gate_exact`` run). The gates are the same.
    """
    index_qubits = list(range(h + w - 1, DATA_QUBITS - 1, -1))
    data_low = list(range(r - 1, -1, -1))
    return synth_state_prep(amp_matrix.reshape(-1),
                            targets=index_qubits + data_low,
                            n_qubits=h + w + (1 if ancilla else 0))


@lru_cache(maxsize=64)
def _decompression_circuit(h: int, w: int, r: int, scale: float | None) -> Circuit:
    """Inverse zigzag, block-encoded rescaling at ``scale`` (none for None),
    inverse 2D DCT, every stage built as RY/CX gates: the one circuit the
    operator probe, ``gate_exact`` and export read. It passes through
    :func:`~jqpie.synth.lower_circuit`, which returns it unchanged."""
    ancilla = scale is not None
    n = h + w + (1 if ancilla else 0)
    gates = list(synth_truncated_zigzag(r).gates)
    if ancilla:
        diag = block_encoded_rescaler(QuantTable(scale))
        controls = list(range(DATA_QUBITS - 1, -1, -1))
        gates.extend(lower_multiplexed_ry(diag.angles, controls, n - 1,
                                          tag="inverse_quantization"))
    gates.extend(synth_inverse_qdct_gates())
    return lower_circuit(Circuit(n, tuple(gates)))


@lru_cache(maxsize=64)
def _decompression_operator(r: int, scale: float | None) -> np.ndarray:
    """The ancilla-0 branch of the decompression as a real 64 x 2^r matrix M.

    The decompression acts only on the data register and the ancilla, and a
    block's 2^r loaded amplitudes a sit in its low slots, so they come out
    of it as M @ a. M is read off the circuit itself: simulated on a
    2^r-block register whose block s holds the basis vector e_s, block s of
    the ancilla-0 branch is column s of M. The ancilla-0 and ancilla-1
    branches stacked must form a real isometry (for QF-JQPIE, with no
    ancilla, M itself has orthonormal columns).
    """
    kept = 2 ** r
    # h + w = 6 + r: an r-qubit index register, one block per loaded slot
    circuit = _decompression_circuit(DATA_QUBITS, r, r, scale)
    probe = np.zeros((1 if scale is None else 2, kept, DATA_DIM))
    probe[0, :, :kept] = np.eye(kept) / math.sqrt(kept)
    out = apply_circuit(from_amplitudes(probe.reshape(-1)), circuit)
    branches = out.amplitudes.reshape(-1, kept, DATA_DIM) * math.sqrt(kept)
    stacked = np.concatenate([b.T for b in branches])
    if not np.max(np.abs(stacked.T @ stacked - np.eye(kept))) <= 1e-9:   # NaN fails too
        raise ArithmeticError("decompression operator is not an isometry within 1e-9")
    matrix = np.ascontiguousarray(branches[0].T)
    matrix.flags.writeable = False
    return matrix


#: kron(D^T, D^T): column 8u+v is the inverse 2D DCT of frequency (u, v) as a
#: block of the data register, pixel (x, y) at 8x+y.
_INVERSE_DCT = np.kron(_DCT.T, _DCT.T)
_INVERSE_DCT.flags.writeable = False


@lru_cache(maxsize=64)
def _decompression_weights(r: int, scale: float | None) -> np.ndarray:
    """The decompression's diagonal d_f as an 8 x 8 weight, zero off the kept
    frequencies, read off :func:`_decompression_operator`.

    The ancilla-0 branch of the inverse zigzag, the rescaler and the inverse
    2D DCT is the inverse DCT of each loaded frequency f scaled by d_f
    (Q_f / lambda for JQPIE, 1 for QF-JQPIE), so M = kron(D^T, D^T)[:, f] d_f.
    Each d_f is column f of the operator projected onto its inverse DCT;
    an operator that is not that product within 1e-12 is refused.
    """
    operator, f = _decompression_operator(r, scale), load_order(r)
    columns = _INVERSE_DCT[:, f]
    d = np.einsum("ks,ks->s", columns, operator)
    if not np.max(np.abs(operator - columns * d)) <= 1e-12:   # NaN fails too
        raise ArithmeticError("decompression operator is not the inverse DCT of its "
                              "loaded frequencies times d_f within 1e-12")
    weights = np.zeros(BLOCK * BLOCK)
    weights[f] = d
    weights = weights.reshape(BLOCK, BLOCK)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=64)
def _folded_decompression(r: int, scale: float | None) -> np.ndarray:
    """A run's decode weight, folded into the inverse DCT by
    :func:`~jqpie.jpegcore.fold_weight`: lambda d_f (d_f for QF-JQPIE,
    which has no lambda) on the kept frequencies and zero elsewhere, from
    :func:`_decompression_weights`. Built once per (r, S)."""
    d = _decompression_weights(r, scale)
    return fold_weight(d if scale is None else d * QuantTable(scale).max_entry)


def _branch_probability(squared_norm: float, n_image_qubits: int, scale: float | None) -> float:
    """The success probability of the operator backend, from the squared
    norm of its whole ancilla-0 branch; 1 for QF-JQPIE, which has no ancilla."""
    if not math.isfinite(squared_norm):
        raise ArithmeticError(f"decompressed branch has squared norm {squared_norm}")
    if scale is None:
        if abs(math.sqrt(squared_norm) - 1.0) > 1e-9:
            raise ArithmeticError("statevector norm drifted beyond 1e-9")
        return 1.0
    if squared_norm <= 0.0:
        raise ValueError(f"zero-probability branch: qubit {n_image_qubits} never reads 0")
    if squared_norm > 1.0 + 1e-9:
        raise ArithmeticError("post-selection probability exceeds 1 beyond 1e-9")
    return squared_norm


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


class HybridRun:
    """One hybrid run of an encoding, its reconstruction decoded in strips.

    :meth:`strips` walks the block rows that hold original pixels, 8 at a
    time (:data:`~jqpie.imagio.STRIP_ROWS` pixel rows); the block rows below
    the original height hold only zero padding and are skipped. For each
    strip it yields the first pixel row and the strip's pixels, cropped to
    the original width and not clamped. The pixel array is overwritten by
    the next strip; a caller may change it.

    Under ``operator`` the plane itself is decoded:
    :func:`~jqpie.jpegcore.idct_strips` weights it by lambda d_f on the
    loaded frequencies and zero elsewhere inside the inverse DCT's first
    product (``folded``, :func:`_folded_decompression`), which is the
    readout of the ancilla-0 branch: the loading norms, post-selection's
    1/sqrt(p) and the readout's sqrt(p) all cancel. Because the inverse DCT
    is orthonormal, ``success_probability`` is the sum of d_f^2 times the
    loaded amplitudes' energies per frequency (:func:`_load_norms`), known
    and checked before any strip is decoded. Under ``gate_exact`` the
    circuit runs gate by gate when the run is made: the cascade on the
    h + w image qubits, then, with the ancilla joined in |0> above them for
    JQPIE, the decompression on h + w + 1. The strips read the
    post-selected ``state`` as :func:`readout_image` does.
    """

    def __init__(self, encoding: ImageEncoding, r: int, backend: str, norm_mode: str):
        _check_backend(backend)
        self.encoding, self.r = encoding, r
        self.state: StateVector | None = None
        h, w, scale = encoding.h, encoding.w, encoding.scale
        if backend == "operator":
            self.record, energies = _load_norms(encoding, r, norm_mode)
            d = _decompression_weights(r, scale)
            self.folded = _folded_decompression(r, scale)
            self.success_probability = _branch_probability(float(np.sum(d * d * energies)),
                                                           h + w, scale)
            return
        amp_matrix, self.record = _amplitudes(encoding, r, norm_mode)
        prep = _state_prep_circuit(amp_matrix, h, w, r, ancilla=False)
        sv = apply_circuit(zero_state(h + w), prep)
        if scale is not None:   # the ancilla joins in |0>: a zero ancilla-1 half
            sv = StateVector._owning(np.concatenate((sv.amplitudes, np.zeros(2 ** (h + w)))),
                                     h + w + 1)
        sv = apply_circuit(sv, _decompression_circuit(h, w, r, scale))
        probability = 1.0
        if scale is not None:
            post = postselect_ancilla(sv, qubit=h + w, outcome=0)
            sv, probability = post.state, post.probability
        self.state, self.success_probability = sv, probability

    def strips(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first pixel row, pixels) of each strip, in order."""
        dims = self.encoding.image.original_dims
        if self.state is not None:
            return _state_strips(self.state, self.record, dims, self.success_probability)
        return idct_strips(self.encoding.plane, self.folded, dims)

    def resources(self) -> ResourceReport:
        """The run's resource model, :func:`~jqpie.synth.closed_form_resources`."""
        method = "qf_jqpie" if self.encoding.scale is None else "jqpie"
        return closed_form_resources(self.encoding.h, self.encoding.w, self.r, method=method)


def _operator_state(run: HybridRun) -> tuple[StateVector, GrayscaleImage]:
    """The post-selected state and the reconstruction of an operator run.

    The whole padded plane is decoded; each strip's tiles are the blocks'
    ancilla-0 branch times the readout factor (lambda, the norms and
    sqrt(p)), which is divided out per block, and its top-left part is the
    reconstruction.
    """
    encoding, record = run.encoding, run.record
    (ph, pw), (oh, ow) = record.padded_dims, encoding.image.original_dims
    branch = np.empty((ph // BLOCK, pw // BLOCK, BLOCK, BLOCK))
    pixels = np.empty((oh, ow))
    for row, strip in idct_strips(encoding.plane, run.folded, (ph, pw)):
        first = row // BLOCK
        tiles = strip.reshape(-1, BLOCK, pw // BLOCK, BLOCK).transpose(0, 2, 1, 3)
        branch[first:first + len(tiles)] = tiles
        pixels[row:row + len(strip)] = strip[:max(0, oh - row), :ow]
    factor = record.global_norm * math.sqrt(run.success_probability)
    if record.lam is not None:
        factor *= record.lam
    blocks = branch.reshape(-1, DATA_DIM)
    if record.per_block_norms is None:
        blocks /= factor
    else:
        divisor = record.per_block_norms[:, None] * factor
        np.divide(blocks, divisor, out=blocks, where=divisor > 0.0)
    state = StateVector._owning(blocks.reshape(-1), encoding.h + encoding.w)
    return state, GrayscaleImage._owning(pixels, encoding.image.bit_depth, (oh, ow))


def _run_hybrid(source: GrayscaleImage | ImageEncoding, r: int, scale: float | None,
                backend: str, norm_mode: str) -> PipelineResult:
    """Both hybrid methods; a quantization scale selects JQPIE.

    Under ``operator`` the state and the reconstruction come from the
    decoded padded strips (:func:`_operator_state`). Under ``gate_exact``
    the run's post-selected state is read out by :func:`readout_image`.
    """
    _check_backend(backend)
    run = HybridRun(_encoding(source, scale), r, backend, norm_mode)
    if run.state is None:
        state, recon = _operator_state(run)
    else:
        state = run.state
        recon = readout_image(state, run.record, run.encoding.image.original_dims,
                              run.success_probability)
    return PipelineResult(state, run.success_probability, run.record, run.resources(), recon)


def run_jqpie(source: GrayscaleImage | ImageEncoding, r: int, scale: float = 1.0,
              backend: str = "operator", norm_mode: str = "global") -> PipelineResult:
    """Quantized hybrid preparation with coherent decompression.

    Classical stage: pad, block, 2D DCT, quantize at ``scale``, zigzag, keep
    the first 2^r slots in load order. Quantum stage: load, apply the truncated inverse
    zigzag, the block-encoded inverse quantization on an ancilla, the
    inverse 2D DCT, then post-select the ancilla-0 branch. The recorded
    success probability is the simulated branch weight.

    The ``operator`` backend takes the normalized coefficients as the loaded
    amplitudes and evaluates the decompression as the inverse DCT of the
    coefficient plane weighted by the decompression's diagonal, read off its
    64 x 2^r per-block operator (:class:`HybridRun`); ``gate_exact`` builds the
    state-preparation cascade and applies the full gate-level circuit gate
    by gate, the reference the operator backend is checked against.
    ``source`` is the image or its :func:`encode_image` at ``scale``, which
    skips the classical transform. Raises ValueError for an unknown
    backend, when the truncated coefficients are all zero or when the
    encoding is not quantized at ``scale``.
    """
    return _run_hybrid(source, r, scale, backend, norm_mode)


def run_qf_jqpie(source: GrayscaleImage | ImageEncoding, r: int, backend: str = "operator",
                 norm_mode: str = "global") -> PipelineResult:
    """Quantization-free hybrid preparation: truncation only, fully unitary.

    Loads the unquantized truncated zigzag coefficients, applies the
    truncated inverse zigzag and the inverse 2D DCT. No ancilla, no block
    encoding, and the success probability is exactly 1. ``source`` is the
    image or its unquantized :func:`encode_image`. The backends load as in
    :func:`run_jqpie`. Raises ValueError for an unknown backend, when the
    truncated coefficients are all zero or when the encoding is quantized.
    """
    return _run_hybrid(source, r, None, backend, norm_mode)


def method_scale(method: str, scale: float) -> float | None:
    """The quantization scale a hybrid method encodes at: None for QF-JQPIE."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return scale if method == "jqpie" else None


def hybrid_circuit(source: GrayscaleImage | ImageEncoding, method: str, r: int,
                   scale: float = 1.0) -> Circuit:
    """Full gate-level circuit of a hybrid run, built without simulating it.

    The state-preparation cascade for the globally normalized coefficients,
    followed by the decompression as RY/CX gates; ``scale`` only
    matters for ``jqpie``. ``source`` is the image or its encoding for the
    method, as for the runs.
    """
    scale = method_scale(method, scale)
    encoding = _encoding(source, scale)
    amp_matrix, _ = _amplitudes(encoding, r, "global")
    h, w = encoding.h, encoding.w
    prep = _state_prep_circuit(amp_matrix, h, w, r, ancilla=scale is not None)
    return compose(prep, _decompression_circuit(h, w, r, scale))


def run_qpie_direct(img: GrayscaleImage, backend: str = "operator") -> PipelineResult:
    """Direct amplitude encoding of the (already power-of-two) pixel grid.

    For dimensions of at least 8 the state uses the project block-major
    layout (index register = block, data register = intra-block position) so
    it is directly comparable with the hybrid pipelines; smaller images fall
    back to a plain row-major flattening. The operator backend takes the
    normalized pixels as the state; ``gate_exact`` builds the
    state-preparation cascade and runs it. Raises ValueError for an unknown
    backend.
    """
    _check_backend(backend)
    h = log2_exact(img.height, "image height")
    w = log2_exact(img.width, "image width")
    pixels = img.pixels
    norm = float(np.linalg.norm(pixels))
    if norm == 0.0:
        raise ValueError("cannot encode an all-zero image")
    if img.height >= BLOCK and img.width >= BLOCK:
        nbx, nby = img.height // BLOCK, img.width // BLOCK
        flat = (pixels.reshape(nbx, BLOCK, nby, BLOCK)
                .transpose(0, 2, 1, 3).reshape(-1)) / norm
    else:
        flat = pixels.reshape(-1) / norm
    n = h + w
    if backend == "operator":
        sv = from_amplitudes(flat)
    else:
        sv = apply_circuit(zero_state(n), synth_state_prep(flat, n_qubits=n))
    record = NormalizationRecord(norm, None, "global", None,
                                 (img.height, img.width), img.bit_depth)
    resources = closed_form_resources(h, w, r=6, method="qpie")
    recon = readout_image(sv, record, img.original_dims)
    return PipelineResult(sv, 1.0, record, resources, recon)


def _tile(padded_dims: tuple[int, int]) -> tuple[int, int]:
    """The pixel tile of one block: 8x8, or the whole image when a side is under 8."""
    ph, pw = padded_dims
    return (BLOCK, BLOCK) if ph >= BLOCK and pw >= BLOCK else (ph, pw)


def _state_strips(state: StateVector, record: NormalizationRecord,
                  original_dims: tuple[int, int],
                  success_probability: float) -> Iterator[tuple[int, np.ndarray]]:
    """The readout of a post-selected state, 8 block rows at a time.

    Checks the state's size first. Each strip's amplitudes are multiplied by
    sqrt(p) and the global norm, then by lambda and the block norms when
    the record has them, straight into the tiles of the strip's pixel rows,
    and cropped to the original dimensions; block rows below the original
    height are skipped.
    """
    ph, pw = record.padded_dims
    if state.n != log2_exact(ph, "padded height") + log2_exact(pw, "padded width"):
        raise ValueError("state size does not match the recorded padded dimensions")
    th, tw = _tile(record.padded_dims)
    amplitudes = state.amplitudes.reshape(-1, th * tw)
    factor = math.sqrt(success_probability) * record.global_norm
    nby = pw // tw
    oh, ow = original_dims
    used = -(-oh // th)   # block rows that hold original pixels
    per_strip = STRIP_ROWS // BLOCK
    pixels = np.empty((min(per_strip, used) * th, pw))
    for first in range(0, used, per_strip):
        k = min(per_strip, used - first)
        blocks = slice(first * nby, (first + k) * nby)
        tiles = pixels[:k * th].reshape(k, th, nby, tw).transpose(0, 2, 1, 3)
        np.multiply(amplitudes[blocks].reshape(k, nby, th, tw), factor, out=tiles)
        if record.lam is not None:
            tiles *= record.lam
        if record.per_block_norms is not None:
            tiles *= record.per_block_norms[blocks].reshape(k, nby, 1, 1)
        row = first * th
        yield row, pixels[:min(k * th, oh - row), :ow]


def readout_image(state: StateVector, norm_record: NormalizationRecord,
                  original_dims: tuple[int, int],
                  success_probability: float = 1.0) -> GrayscaleImage:
    """Convert a post-selected image state back into (pre-clamp) pixels.

    The signed amplitudes are rescaled by the recorded norms (and, when
    present, the quantization constant lambda). The post-selection
    probability undoes the renormalization applied when the ancilla branch
    was projected out. Pixels are cropped to the original dimensions;
    clamping is left to metric/file-writing time. The pixels are assembled
    from the strips a sweep scores (:meth:`HybridRun.strips`).
    """
    pixels = np.empty(original_dims)
    for row, rows in _state_strips(state, norm_record, original_dims, success_probability):
        pixels[row:row + len(rows)] = rows
    return GrayscaleImage._owning(pixels, norm_record.bit_depth, original_dims)
