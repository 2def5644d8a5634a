"""End-to-end hybrid image preparation pipelines and classical readout.

Entry points:

  * :func:`encode_image` - the classical front end of one image (pad to
    powers of two, 2D DCT of every block, quantize at S or not) as a
    reusable :class:`ImageEncoding`, whose coefficient plane keeps the
    image's layout; a sweep encodes each image once per method and hands
    the encoding to every r;
  * :func:`run_qpie_direct` - plain amplitude encoding of the image, which
    it pads itself;
  * :func:`run_jqpie` - quantized truncated coefficients loaded on the active
    qubits in the load order of :func:`~jqpie.synth.load_order`, then the
    inverse zigzag (a few signed swaps), block-encoded inverse quantization
    with one ancilla, inverse 2D DCT, and post-selection of the ancilla-0
    branch;
  * :func:`run_qf_jqpie` - the quantization-free variant: unquantized
    truncated coefficients, no ancilla, no post-selection, fully unitary;
  * :class:`HybridRun` - what both hybrid runs return and a sweep cell
    makes directly, and :class:`QpieRun`, what :func:`run_qpie_direct`
    returns: one interface, whose ``strips()`` walk the reconstruction 8
    block rows (64 pixel rows) at a time for ``simulate`` and sweep cells to
    score (:func:`~jqpie.metrics.score_strips`); ``reconstructed`` is lazy;
  * :func:`hybrid_circuit` - the full gate-level circuit of either hybrid
    method (state-preparation cascade plus decompression, all RY/CX), built
    without simulating it, for export.

The two hybrid methods run through one body. They share the classical front
end (:func:`encode_image`, then one normalization per run,
:func:`_load_norms`), the state load, the decompression and the readout;
passing a quantization scale is the only difference, and it adds the
quantization step, the ancilla with the block-encoded rescaler, and the
post-selection. Either run takes the image or its encoding; given the
image, it encodes it first.

Backends:

  * ``operator`` - the decompression touches only the 6 data qubits and the
    ancilla, and only the 2^r low slots of a block are loaded, so its
    ancilla-0 branch is one real 64 x 2^r matrix M(r, S), read off the
    decompression circuit once and cached with its d_f
    (:func:`_decompression`). M must be kron(D^T, D^T)[:, f] d_f, the
    inverse 2D DCT of each loaded frequency f scaled by the rescaler's d_f,
    within 1e-12, or the run is refused. A run's loaded amplitudes are the
    normalized (n_blocks, 2^r) coefficients, exactly what the
    state-preparation cascade would load, so none is built; their readout,
    lambda M times the coefficients, is the plane weighted by lambda d_f on
    the loaded frequencies (zero elsewhere) and inverse transformed, 8 block
    rows at a time, by :func:`~jqpie.jpegcore.idct_strips`, which folds the
    weight into the inverse DCT's first product. Since the inverse DCT is
    orthonormal, the success probability is the sum of d_f^2 times the
    loaded amplitudes' energies per frequency, and the ancilla-1 branch is
    never built. The state, built only when it is asked for, is the loaded
    amplitudes times M^T over sqrt(p), exactly the backend's definition.
    Block rows below the original height hold only zero padding; a sweep
    cell skips them.
  * ``gate_exact`` - the reference and the only backend that builds and
    runs the state-preparation cascade: every gate of the two circuits that
    :func:`hybrid_circuit` composes and export writes, once and in order,
    the cascade (:func:`_state_prep_circuit`) from |0...0> and then the
    decompression, post-selected. The cascade names only the
    m = h + w - 6 + r qubits it loads, so the simulator's live prefix
    keeps it on 2^m amplitudes, 2^(6-r) times fewer than the image register.

The decompression circuit is built once per (h + w, r, S) and cached; the
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
from .qsim import (StateVector, _refuse_empty_branch, apply_circuit, from_amplitudes,
                   log2_exact, postselect_ancilla, zero_state)
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
        if not all(n >= BLOCK and n & (n - 1) == 0 for n in self.padded_dims):
            raise ValueError("padded_dims must be powers of two of at least 8")
        if self.per_block_norms is not None:
            norms = np.asarray(self.per_block_norms, dtype=np.float64).copy()
            norms.flags.writeable = False
            object.__setattr__(self, "per_block_norms", norms)


class _Report:
    """The JSON report of a run, read off its ``success_probability``,
    ``norm_record`` and ``resources``: one body for :class:`HybridRun` and
    :class:`QpieRun`."""

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


@dataclass(frozen=True)
class ImageEncoding:
    """The classical front end of one image, shared by every run on it.

    ``plane`` is the read-only coefficient plane of the image zero-padded to
    2^h x 2^w pixels: frequency (u, v) of block (i, j) at pixel
    (8i+u, 8j+v), quantized at ``scale`` for JQPIE, unquantized (``scale``
    None) for QF-JQPIE. It depends on neither r nor the normalization mode:
    the operator backend decodes it with weights that zero the frequencies
    a run does not load, and :func:`_amplitudes` gathers a run's load-ordered
    rows from it for the cascade and the operator state. :attr:`energies`
    is computed on first use and kept on the encoding, so it lives and dies
    with the plane.
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


@lru_cache(maxsize=None)
def _kept(r: int) -> np.ndarray:
    """1 at the frequencies (u, v) a run at r loads, 0 elsewhere (8 x 8)."""
    kept = np.zeros(BLOCK * BLOCK)
    kept[load_order(r)] = 1.0
    kept.flags.writeable = False
    return kept.reshape(BLOCK, BLOCK)


def _load_norms(encoding: ImageEncoding, r: int,
                mode: str) -> tuple[NormalizationRecord, np.ndarray]:
    """The one normalization of a run, read off the plane without gathering
    a coefficient; :func:`_amplitudes` divides by it.

    Returns the record and the energies of the loaded amplitudes per
    frequency, an 8 x 8 array that is zero off the kept frequencies: the
    sum over blocks of each amplitude squared. Under ``global`` they are the
    plane's energies per frequency (:attr:`ImageEncoding.energies`, computed
    once per encoding) over the squared norm; under
    ``per_block`` each block's squares over its squared norm, summed and
    divided by n_active. They sum to 1.
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
    table = encoding.table
    record = NormalizationRecord(math.sqrt(total), None if table is None else table.max_entry,
                                 mode, per_block, (2 ** encoding.h, 2 ** encoding.w),
                                 encoding.image.bit_depth)
    return record, energies


def _amplitudes(encoding: ImageEncoding, r: int,
                norm_mode: str) -> tuple[np.ndarray, NormalizationRecord]:
    """Gather an encoding's first 2^r zigzag coefficients in load order and normalize.

    Column s of the returned (n_blocks, 2^r) amplitude matrix holds the
    coefficient of frequency ``load_order(r)[s]`` of each block, gathered
    from the plane and divided by the norms of :func:`_load_norms`, whose
    record undoes the scaling; a block whose norm is zero stays 0. This is
    the cascade's input (``gate_exact``, export) and the operator state's.
    """
    record, _ = _load_norms(encoding, r, norm_mode)
    f = load_order(r)
    plane = encoding.plane
    blocks = plane.reshape(plane.shape[0] // BLOCK, BLOCK, -1, BLOCK)
    zz = blocks[:, f // BLOCK, :, f % BLOCK].reshape(len(f), -1).T
    if record.per_block_norms is None:
        return zz / record.global_norm, record
    norms = record.per_block_norms[:, None] * record.global_norm
    return np.divide(zz, norms, out=np.zeros_like(zz), where=norms > 0.0), record


def _state_prep_circuit(amp_matrix: np.ndarray, h: int, w: int, r: int,
                        ancilla: bool) -> Circuit:
    """Cascade loading the (n_blocks, 2^r) load-ordered amplitudes.

    The circuit acts on the index register plus the low r data qubits; the
    remaining data qubits stay |0>. It is declared on the h + w image
    qubits, plus the ancilla idle above them with ``ancilla``: the one
    cascade of :func:`hybrid_circuit`, export and the ``gate_exact`` run.
    """
    index_qubits = list(range(h + w - 1, DATA_QUBITS - 1, -1))
    data_low = list(range(r - 1, -1, -1))
    return synth_state_prep(amp_matrix.reshape(-1),
                            targets=index_qubits + data_low,
                            n_qubits=h + w + (1 if ancilla else 0))


@lru_cache(maxsize=64)
def _decompression_circuit(n_image: int, r: int, scale: float | None) -> Circuit:
    """Inverse zigzag, block-encoded rescaling at ``scale`` (none for None),
    inverse 2D DCT, every stage built as RY/CX gates on ``n_image`` image
    qubits (and the ancilla above them at a scale): the one circuit the
    operator probe, ``gate_exact`` and export read. It passes through
    :func:`~jqpie.synth.lower_circuit`, which returns it unchanged."""
    ancilla = scale is not None
    n = n_image + (1 if ancilla else 0)
    operations = list(synth_truncated_zigzag(r).operations)
    if ancilla:
        diag = block_encoded_rescaler(QuantTable(scale))
        controls = list(range(DATA_QUBITS - 1, -1, -1))
        operations.append(lower_multiplexed_ry(diag.angles, controls, n - 1,
                                               tag="inverse_quantization"))
    operations.extend(synth_inverse_qdct_gates())
    return lower_circuit(Circuit(n, tuple(operations)))


@dataclass(frozen=True)
class _Decompression:
    """The decompression at one (r, S), read-only (:func:`_decompression`):
    M as ``matrix``, d_f as 8 x 8 ``weights`` zero off the kept frequencies,
    and a run's decode weight lambda d_f (d_f for QF-JQPIE, which has no
    lambda) folded into the inverse DCT by :func:`~jqpie.jpegcore.fold_weight`."""

    matrix: np.ndarray
    weights: np.ndarray
    folded: np.ndarray


@lru_cache(maxsize=64)
def _decompression(r: int, scale: float | None) -> _Decompression:
    """The decompression at (r, S), read off its circuit once and checked.

    The decompression acts only on the data register and the ancilla, and a
    block's 2^r loaded amplitudes a sit in its low slots, so they come out
    of it as M @ a. M is read off the circuit itself: simulated on a
    2^r-block register whose block s holds the basis vector e_s, block s of
    the ancilla-0 branch is column s of M. The ancilla-0 and ancilla-1
    branches stacked must form a real isometry (for QF-JQPIE, with no
    ancilla, M itself has orthonormal columns) within 1e-9.

    The ancilla-0 branch of the inverse zigzag, the rescaler and the inverse
    2D DCT is the inverse DCT of each loaded frequency f scaled by d_f
    (Q_f / lambda for JQPIE, 1 for QF-JQPIE), so M = kron(D^T, D^T)[:, f] d_f.
    Each d_f is column f of M projected onto its inverse DCT; an M that is
    not that product within 1e-12 is refused.
    """
    kept, f = 2 ** r, load_order(r)
    # 6 + r image qubits: an r-qubit index register, one block per loaded slot
    circuit = _decompression_circuit(DATA_QUBITS + r, r, scale)
    probe = np.zeros((1 if scale is None else 2, kept, DATA_DIM))
    probe[0, :, :kept] = np.eye(kept) / math.sqrt(kept)
    out = apply_circuit(from_amplitudes(probe.reshape(-1)), circuit)
    branches = out.amplitudes.reshape(-1, kept, DATA_DIM) * math.sqrt(kept)
    stacked = np.concatenate([b.T for b in branches])
    if not np.max(np.abs(stacked.T @ stacked - np.eye(kept))) <= 1e-9:   # NaN fails too
        raise ArithmeticError("decompression operator is not an isometry within 1e-9")
    matrix = np.ascontiguousarray(branches[0].T)
    # kron(D^T, D^T): column 8u+v is the inverse 2D DCT of frequency (u, v) as a
    # block of the data register, pixel (x, y) at 8x+y.
    columns = np.kron(_DCT.T, _DCT.T)[:, f]
    d = np.einsum("ks,ks->s", columns, matrix)
    if not np.max(np.abs(matrix - columns * d)) <= 1e-12:   # NaN fails too
        raise ArithmeticError("decompression operator is not the inverse DCT of its "
                              "loaded frequencies times d_f within 1e-12")
    weights = np.zeros(BLOCK * BLOCK)
    weights[f] = d
    weights = weights.reshape(BLOCK, BLOCK)
    folded = fold_weight(weights if scale is None else weights * QuantTable(scale).max_entry)
    matrix.flags.writeable = False
    weights.flags.writeable = False
    return _Decompression(matrix, weights, folded)


def _branch_probability(squared_norm: float, n_image_qubits: int, scale: float | None) -> float:
    """The success probability of the operator backend, from the squared
    norm of its whole ancilla-0 branch; 1 for QF-JQPIE, which has no ancilla.
    A branch at rounding level is refused, as in
    :func:`~jqpie.qsim.postselect_ancilla`."""
    if not math.isfinite(squared_norm):
        raise ArithmeticError(f"decompressed branch has squared norm {squared_norm}")
    if scale is None:
        if abs(math.sqrt(squared_norm) - 1.0) > 1e-9:
            raise ArithmeticError("statevector norm drifted beyond 1e-9")
        return 1.0
    _refuse_empty_branch(squared_norm, n_image_qubits, 0)
    if squared_norm > 1.0 + 1e-9:
        raise ArithmeticError("post-selection probability exceeds 1 beyond 1e-9")
    return squared_norm


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


class HybridRun(_Report):
    """One hybrid run of an encoding: what :func:`run_jqpie` and
    :func:`run_qf_jqpie` return and what a sweep cell makes directly.

    :meth:`strips` walks the block rows that hold original pixels, 8 at a
    time (:data:`~jqpie.imagio.STRIP_ROWS` pixel rows); the block rows below
    the original height hold only zero padding and are skipped. For each
    strip it yields the first pixel row and the strip's pixels, cropped to
    the original width and not clamped. The pixel array is overwritten by
    the next strip; a caller may change it. ``reconstructed`` is the strips
    assembled into an image, and ``state``, ``reconstructed`` and
    ``resources`` are built on first use, so a sweep cell, which reads only
    the strips, makes no image-sized array.

    Under ``operator`` the plane itself is decoded:
    :func:`~jqpie.jpegcore.idct_strips` weights it by lambda d_f on the
    loaded frequencies and zero elsewhere inside the inverse DCT's first
    product (the ``folded`` weight of :func:`_decompression`), which is the
    readout of the ancilla-0 branch: the loading norms, post-selection's
    1/sqrt(p) and the readout's sqrt(p) all cancel. Because the inverse DCT
    is orthonormal, ``success_probability`` is the sum of d_f^2 times the
    loaded amplitudes' energies per frequency (:func:`_load_norms`), known
    and checked before any strip is decoded. Under ``gate_exact`` the
    circuit runs gate by gate when the run is made, in the two applies of
    the circuits :func:`hybrid_circuit` composes: the cascade
    (:func:`_state_prep_circuit`) from |0...0>, then the decompression
    (:func:`_decompression_circuit`) on its output. The strips read the
    post-selected ``state`` out, times sqrt(p), by :func:`_state_strips`.
    """

    def __init__(self, encoding: ImageEncoding, r: int, backend: str, norm_mode: str):
        _check_backend(backend)
        self.encoding, self.r, self.backend = encoding, r, backend
        h, w, scale = encoding.h, encoding.w, encoding.scale
        if backend == "operator":
            self.norm_record, energies = _load_norms(encoding, r, norm_mode)
            d = _decompression(r, scale).weights
            self.success_probability = _branch_probability(float(np.sum(d * d * energies)),
                                                           h + w, scale)
            return
        amp_matrix, self.norm_record = _amplitudes(encoding, r, norm_mode)
        prep = _state_prep_circuit(amp_matrix, h, w, r, ancilla=scale is not None)
        loaded = apply_circuit(zero_state(prep.n_qubits), prep)
        sv = apply_circuit(loaded, _decompression_circuit(h + w, r, scale))
        probability = 1.0
        if scale is not None:
            post = postselect_ancilla(sv, qubit=h + w, outcome=0)
            sv, probability = post.state, post.probability
        # the simulated state, set here, takes the place of the lazy one
        self.state, self.success_probability = sv, probability

    @cached_property
    def state(self) -> StateVector:
        """The post-selected state. Under ``operator`` it is built on first
        use: the load-ordered amplitudes (:func:`_amplitudes`) times M^T
        (:func:`_decompression`), over sqrt(p)."""
        amp_matrix, _ = _amplitudes(self.encoding, self.r, self.norm_record.mode)
        branch = amp_matrix @ _decompression(self.r, self.encoding.scale).matrix.T
        branch /= math.sqrt(self.success_probability)
        return StateVector._owning(branch.reshape(-1), self.encoding.h + self.encoding.w)

    def strips(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first pixel row, pixels) of each strip, in order."""
        dims = self.encoding.image.original_dims
        if self.backend == "gate_exact":
            return _state_strips(self.state, self.norm_record, dims, self.success_probability)
        return idct_strips(self.encoding.plane,
                           _decompression(self.r, self.encoding.scale).folded, dims)

    @cached_property
    def reconstructed(self) -> GrayscaleImage:
        """The cropped, not clamped reconstruction: the strips assembled
        into an image."""
        return _assemble(self.strips(), self.encoding.image.original_dims,
                         self.norm_record.bit_depth)

    @cached_property
    def resources(self) -> ResourceReport:
        """The run's resource model, :func:`~jqpie.synth.closed_form_resources`."""
        method = "qf_jqpie" if self.encoding.scale is None else "jqpie"
        return closed_form_resources(self.encoding.h, self.encoding.w, self.r, method=method)


def run_jqpie(source: GrayscaleImage | ImageEncoding, r: int, scale: float = 1.0,
              backend: str = "operator", norm_mode: str = "global") -> HybridRun:
    """Quantized hybrid preparation with coherent decompression.

    Classical stage: pad, block, 2D DCT, quantize at ``scale``, zigzag, keep
    the first 2^r slots in load order. Quantum stage: load, apply the truncated inverse
    zigzag, the block-encoded inverse quantization on an ancilla, the
    inverse 2D DCT, then post-select the ancilla-0 branch. The recorded
    success probability is the simulated branch weight.

    The ``operator`` backend takes the normalized coefficients as the loaded
    amplitudes and evaluates the decompression as the inverse DCT of the
    coefficient plane weighted by the decompression's diagonal, read off its
    64 x 2^r per-block operator; ``gate_exact`` builds the
    state-preparation cascade and applies the full gate-level circuit gate
    by gate, the reference the operator backend is checked against.
    ``source`` is the image or its :func:`encode_image` at ``scale``, which
    skips the classical transform. Returns the :class:`HybridRun`, whose
    ``state`` and ``reconstructed`` are built on first use. Raises
    ValueError for an unknown backend (before encoding), when the truncated
    coefficients are all zero or when the encoding is not quantized at
    ``scale``.
    """
    _check_backend(backend)
    return HybridRun(_encoding(source, scale), r, backend, norm_mode)


def run_qf_jqpie(source: GrayscaleImage | ImageEncoding, r: int, backend: str = "operator",
                 norm_mode: str = "global") -> HybridRun:
    """Quantization-free hybrid preparation: truncation only, fully unitary.

    Loads the unquantized truncated zigzag coefficients, applies the
    truncated inverse zigzag and the inverse 2D DCT. No ancilla, no block
    encoding, and the success probability is exactly 1. ``source`` is the
    image or its unquantized :func:`encode_image`. The backends load, and
    the :class:`HybridRun` returned reads out, as in :func:`run_jqpie`.
    Raises ValueError for an unknown backend (before encoding), when the
    truncated coefficients are all zero or when the encoding is quantized.
    """
    _check_backend(backend)
    return HybridRun(_encoding(source, None), r, backend, norm_mode)


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
    return compose(prep, _decompression_circuit(h + w, r, scale))


class QpieRun(_Report):
    """The run of :func:`run_qpie_direct`, with :class:`HybridRun`'s interface:
    its state, made with the run, read out at p = 1 by :meth:`strips` and, on
    first use, by ``reconstructed`` (:func:`readout_image`), neither clamped."""

    success_probability = 1.0

    def __init__(self, state: StateVector, norm_record: NormalizationRecord,
                 resources: ResourceReport, original_dims: tuple[int, int]):
        self.state, self.norm_record, self.resources = state, norm_record, resources
        self._original_dims = original_dims

    def strips(self) -> Iterator[tuple[int, np.ndarray]]:
        return _state_strips(self.state, self.norm_record, self._original_dims, 1.0)

    @cached_property
    def reconstructed(self) -> GrayscaleImage:
        return readout_image(self.state, self.norm_record, self._original_dims)


def run_qpie_direct(img: GrayscaleImage, backend: str = "operator") -> QpieRun:
    """Direct amplitude encoding of the image zero-padded to powers of two
    (:func:`~jqpie.imagio.pad_to_pow2`, at least 8 a side; padding an
    already padded image changes nothing).

    The state uses the project block-major layout (index register = block,
    data register = intra-block position), so it is directly comparable
    with the hybrid pipelines. The operator backend takes the normalized
    pixels as the state; ``gate_exact`` builds the state-preparation
    cascade and runs it. Raises ValueError for an unknown backend, before
    padding, and for an all-zero image.
    """
    _check_backend(backend)
    padded = pad_to_pow2(img)
    h = log2_exact(padded.height, "padded height")
    w = log2_exact(padded.width, "padded width")
    pixels = padded.pixels
    norm = float(np.linalg.norm(pixels))
    if norm == 0.0:
        raise ValueError("cannot encode an all-zero image")
    nbx, nby = padded.height // BLOCK, padded.width // BLOCK
    flat = (pixels.reshape(nbx, BLOCK, nby, BLOCK)
            .transpose(0, 2, 1, 3).reshape(-1)) / norm
    n = h + w
    if backend == "operator":
        sv = from_amplitudes(flat)
    else:
        sv = apply_circuit(zero_state(n), synth_state_prep(flat, n_qubits=n))
    record = NormalizationRecord(norm, None, "global", None,
                                 (padded.height, padded.width), img.bit_depth)
    return QpieRun(sv, record, closed_form_resources(h, w, r=6, method="qpie"),
                   img.original_dims)


def _state_strips(state: StateVector, record: NormalizationRecord,
                  original_dims: tuple[int, int],
                  success_probability: float) -> Iterator[tuple[int, np.ndarray]]:
    """The readout of a post-selected state, 8 block rows at a time.

    Checks the state's size first. Each strip's amplitudes are multiplied by
    sqrt(p) and the global norm, then by lambda and the block norms when
    the record has them, straight into the 8 x 8 tiles of the strip's pixel
    rows, and cropped to the original dimensions; block rows below the
    original height are skipped.
    """
    ph, pw = record.padded_dims
    if 2 ** state.n != ph * pw:
        raise ValueError("state size does not match the recorded padded dimensions")
    amplitudes = state.amplitudes.reshape(-1, DATA_DIM)
    factor = math.sqrt(success_probability) * record.global_norm
    nby = pw // BLOCK
    oh, ow = original_dims
    used = -(-oh // BLOCK)   # block rows that hold original pixels
    per_strip = STRIP_ROWS // BLOCK
    pixels = np.empty((min(per_strip, used) * BLOCK, pw))
    for first in range(0, used, per_strip):
        k = min(per_strip, used - first)
        blocks = slice(first * nby, (first + k) * nby)
        tiles = pixels[:k * BLOCK].reshape(k, BLOCK, nby, BLOCK).transpose(0, 2, 1, 3)
        np.multiply(amplitudes[blocks].reshape(k, nby, BLOCK, BLOCK), factor, out=tiles)
        if record.lam is not None:
            tiles *= record.lam
        if record.per_block_norms is not None:
            tiles *= record.per_block_norms[blocks].reshape(k, nby, 1, 1)
        row = first * BLOCK
        yield row, pixels[:min(k * BLOCK, oh - row), :ow]


def _assemble(strips: Iterator[tuple[int, np.ndarray]], original_dims: tuple[int, int],
              bit_depth: int) -> GrayscaleImage:
    """The image of a run's strips (:meth:`HybridRun.strips`), not clamped."""
    pixels = np.empty(original_dims)
    for row, rows in strips:
        pixels[row:row + len(rows)] = rows
    return GrayscaleImage._owning(pixels, bit_depth, original_dims)


def readout_image(state: StateVector, norm_record: NormalizationRecord,
                  original_dims: tuple[int, int]) -> GrayscaleImage:
    """QPIE's readout (:attr:`QpieRun.reconstructed`): a state that no
    post-selection renormalized, rescaled by the recorded norms (and lambda
    when present) into pixels cropped to the original dimensions, not
    clamped, and assembled from its strips as :class:`HybridRun` assembles."""
    return _assemble(_state_strips(state, norm_record, original_dims, 1.0),
                     original_dims, norm_record.bit_depth)
