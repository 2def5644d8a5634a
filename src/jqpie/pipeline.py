"""End-to-end hybrid image preparation pipelines and classical readout.

Entry points:

  * :func:`encode_image` - the classical front end of one image (pad to
    powers of two, block, 2D DCT, quantize at S or not, zigzag) as a
    reusable :class:`ImageEncoding`; a sweep encodes each image once per
    method and hands the encoding to every r;
  * :func:`run_qpie_direct` - plain amplitude encoding of the padded image;
  * :func:`run_jqpie` - quantized truncated coefficients loaded on the active
    qubits in the load order of :func:`~jqpie.synth.load_order`, then the
    inverse zigzag (a few signed swaps), block-encoded inverse quantization
    with one ancilla, inverse 2D DCT, and post-selection of the ancilla-0
    branch;
  * :func:`run_qf_jqpie` - the quantization-free variant: unquantized
    truncated coefficients, no ancilla, no post-selection, fully unitary;
  * :func:`hybrid_circuit` - the full gate-level circuit of either hybrid
    method (state-preparation cascade plus lowered decompression), built
    without simulating it, for export.

The two hybrid methods run through one body. They share the classical front
end (:func:`encode_image`, then gather and normalize per run), the state
load, the decompression and the readout; passing a quantization scale is the
only difference, and it adds the quantization step, the ancilla with the
block-encoded rescaler, and the post-selection. Either run takes the image
or its encoding; given the image, it encodes it first.

Backends:

  * ``operator`` - the decompression touches only the 6 data qubits and the
    ancilla, and only the 2^r low slots of a block are loaded, so its
    ancilla-0 branch is one real 64 x 2^r matrix M(r, S), read off the
    decompression circuit once and cached. A run loads the (n_blocks, 2^r)
    amplitudes on the h + w image qubits (directly, or up to
    14 active qubits by the state-preparation cascade, evaluated from its
    layer angles without building a gate) and decompresses every block with
    one product, ``amps @ M.T``; the success probability is the squared norm
    of the result and the ancilla-1 branch is never built.
  * ``gate_exact`` - the full-width reference: the cascade and the lowered
    decompression circuit, ancilla included, applied gate by gate to the
    2^(h+w+1)-amplitude state, then post-selected. The lowered circuit is
    built once per (h, w, r, S) and cached.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .imagio import (BLOCK, BlockGrid, GrayscaleImage, assemble_image,
                     pad_and_partition, pad_to_pow2)
from .jpegcore import _ZIGZAG_SLOT, QuantTable, quantize_zigzag, zigzag_coefficients
from .qcircuit import Circuit, ResourceReport, compose
from .qsim import (StateVector, apply_circuit, from_amplitudes, log2_exact,
                   postselect_ancilla, zero_state)
from .synth import (DATA_DIM, DATA_QUBITS, block_encoded_rescaler, closed_form_resources,
                    load_order, lower_circuit, lower_multiplexed_ry, state_prep_angles,
                    synth_inverse_qdct_gates, synth_state_prep, synth_truncated_zigzag)

METHODS = ("jqpie", "qf_jqpie")
NORM_MODES = ("global", "per_block")


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
        if self.global_norm <= 0:
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


def registers_for(h: int, w: int, ancilla: bool):
    regs = [("index", h + w - DATA_QUBITS), ("data", DATA_QUBITS)]
    if ancilla:
        regs.insert(0, ("ancilla", 1))
    return tuple(regs)


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

    ``coefficients`` is the read-only (n_blocks, 64) zigzag matrix of the
    image zero-padded to 2^h x 2^w pixels, blocks in row-major order:
    quantized at ``scale`` for JQPIE, unquantized (``scale`` None) for
    QF-JQPIE. It depends on neither r nor the normalization mode, so a run
    at any of them only gathers its kept coefficients and normalizes them.
    """

    image: GrayscaleImage
    scale: float | None
    h: int
    w: int
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients.flags.writeable = False

    @property
    def table(self) -> QuantTable | None:
        return None if self.scale is None else QuantTable(self.scale)

    def jpeg_coefficients(self, scale: float) -> np.ndarray:
        """Quantized zigzag rows of the image's own block grid.

        The rows of the blocks :func:`~jqpie.imagio.pad_and_partition` makes
        of the image (padded to multiples of 8 only), quantized at ``scale``:
        unquantized coefficients are quantized here, quantized ones must
        already be at ``scale``. This is the input of the classical JPEG
        baseline and of the sparsity statistics.
        """
        nbx, nby = -(-self.image.height // BLOCK), -(-self.image.width // BLOCK)
        grid = self.coefficients.reshape(2 ** self.h // BLOCK, 2 ** self.w // BLOCK, -1)
        rows = grid[:nbx, :nby].reshape(nbx * nby, -1)
        if self.scale is None:
            return quantize_zigzag(rows, QuantTable(scale))
        _check_scale(self, scale)
        return rows


def encode_image(img: GrayscaleImage, scale: float | None) -> ImageEncoding:
    """The classical front end: pad to powers of two, block, 2D DCT, zigzag.

    Quantizes at ``scale`` (JQPIE); ``scale=None`` keeps the raw transform
    values (QF-JQPIE). The result feeds :func:`run_jqpie` or
    :func:`run_qf_jqpie` at every r and normalization mode.
    """
    padded = pad_to_pow2(img)
    h = log2_exact(padded.height, "padded height")
    w = log2_exact(padded.width, "padded width")
    table = None if scale is None else QuantTable(scale)
    coefficients = zigzag_coefficients(pad_and_partition(padded), table=table)
    return ImageEncoding(img, scale, h, w, coefficients)


def _check_scale(encoding: ImageEncoding, scale: float | None) -> None:
    if encoding.scale != scale:
        def kind(s):
            return "unquantized" if s is None else f"quantized at S={s:g}"
        raise ValueError(f"encoding is {kind(encoding.scale)}, not {kind(scale)}")


def _encoding(source: GrayscaleImage | ImageEncoding, scale: float | None) -> ImageEncoding:
    """``source`` itself when it is an encoding at ``scale``, else its encoding."""
    if isinstance(source, ImageEncoding):
        _check_scale(source, scale)
        return source
    return encode_image(source, scale)


def _amplitudes(encoding: ImageEncoding, r: int,
                norm_mode: str) -> tuple[np.ndarray, NormalizationRecord]:
    """Gather an encoding's first 2^r zigzag coefficients in load order and normalize.

    Column s of the returned (n_blocks, 2^r) amplitude matrix holds the
    coefficient of frequency ``load_order(r)[s]``; the record undoes the
    scaling.
    """
    zz = encoding.coefficients[:, _ZIGZAG_SLOT[load_order(r)]]
    amp_matrix, global_norm, per_block = _normalize_rows(zz, norm_mode)
    table = encoding.table
    record = NormalizationRecord(global_norm, None if table is None else table.max_entry,
                                 norm_mode, per_block, (2 ** encoding.h, 2 ** encoding.w),
                                 encoding.image.bit_depth)
    return amp_matrix, record


def _state_prep_circuit(amp_matrix: np.ndarray, h: int, w: int, r: int,
                        ancilla: bool) -> Circuit:
    """Cascade loading the (n_blocks, 2^r) load-ordered amplitudes.

    The circuit acts on the index register plus the low r data qubits; the
    remaining data qubits (and the ancilla) stay |0>.
    """
    index_qubits = list(range(h + w - 1, DATA_QUBITS - 1, -1))
    data_low = list(range(r - 1, -1, -1))
    return synth_state_prep(amp_matrix.reshape(-1),
                            targets=index_qubits + data_low,
                            n_qubits=h + w + (1 if ancilla else 0),
                            registers=registers_for(h, w, ancilla))


def _direct_load(backend: str, direct_load: bool | None, by_default: bool) -> bool:
    """Whether to skip the state-preparation cascade and inject the amplitudes.

    Only the operator backend may skip it; ``direct_load=None`` skips it
    there when ``by_default`` holds. The hybrid runs skip it by default above
    14 active qubits. The cascade load (:func:`_load_state`) is O(2^active),
    but above that cut it dominates the run: a 1024x1024 :func:`run_jqpie`
    at r = 5 / 6 (19 / 20 active qubits; 2-CPU host, one BLAS thread, median
    of 5) takes 0.058 / 0.062 s injecting directly and 0.105 / 0.161 s
    through the cascade.
    """
    if direct_load and backend != "operator":
        raise ValueError("direct amplitude loading requires the operator backend")
    if direct_load is None:
        return backend == "operator" and by_default
    return direct_load


def _load_state(amplitudes: np.ndarray) -> np.ndarray:
    """The state-preparation cascade applied to |0...0>, from its layer angles.

    ``amplitudes`` is the real unit vector to load, in any shape; its flat
    row-major order runs over the active qubits most significant first, as
    the targets of :func:`~jqpie.synth.synth_state_prep`. Layer k rotates
    the k-th active qubit by ``alphas[c]`` when the qubits above it hold c;
    on |0...0> only the 2^k patterns already rotated carry weight, so the
    layer maps v to the interleave of cos(alphas/2) v and sin(alphas/2) v.
    Returns, in the input's shape, what the cascade circuit leaves on the
    active qubits, at O(2^active) cost with no gate built or applied. The
    checks are the circuit path's: the input must be unit within 1e-10 and
    the loaded norm may not drift beyond 1e-9. The ``gate_exact`` backend
    runs the circuit itself (:func:`_state_prep_circuit`).
    """
    vector = amplitudes.reshape(-1)
    loaded = np.ones(1)
    for alphas in state_prep_angles(vector):
        half = alphas / 2.0
        loaded = np.stack([np.cos(half) * loaded, np.sin(half) * loaded], -1).reshape(-1)
    if abs(np.linalg.norm(loaded) - 1.0) > 1e-9:
        raise ArithmeticError("statevector norm drifted beyond 1e-9")
    return loaded.reshape(amplitudes.shape)


@lru_cache(maxsize=64)
def _decompression_circuit(h: int, w: int, r: int, scale: float | None,
                           backend: str) -> Circuit:
    """Inverse zigzag, block-encoded rescaling at ``scale`` (none for None),
    inverse 2D DCT, every stage built as RY/CX gates. ``gate_exact`` still
    passes the circuit through :func:`~jqpie.synth.lower_circuit`, which
    finds nothing to lower; perfbench's tracer times that step."""
    ancilla = scale is not None
    n = h + w + (1 if ancilla else 0)
    regs = registers_for(h, w, ancilla)
    gates = list(synth_truncated_zigzag(r).gates)
    if ancilla:
        diag = block_encoded_rescaler(QuantTable(scale))
        controls = list(range(DATA_QUBITS - 1, -1, -1))
        gates.extend(lower_multiplexed_ry(diag.angles, controls, n - 1,
                                          tag="inverse_quantization"))
    gates.extend(synth_inverse_qdct_gates())
    circuit = Circuit(n, tuple(gates), regs)
    if backend == "gate_exact":
        circuit = lower_circuit(circuit)
    return circuit


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
    circuit = _decompression_circuit(DATA_QUBITS, r, r, scale, "operator")
    probe = np.zeros((1 if scale is None else 2, kept, DATA_DIM))
    probe[0, :, :kept] = np.eye(kept) / math.sqrt(kept)
    out = apply_circuit(from_amplitudes(probe.reshape(-1)), circuit, backend="operator")
    branches = out.amplitudes.reshape(-1, kept, DATA_DIM) * math.sqrt(kept)
    stacked = np.concatenate([b.T for b in branches])
    if np.max(np.abs(stacked.T @ stacked - np.eye(kept))) > 1e-9:
        raise ArithmeticError("decompression operator is not an isometry within 1e-9")
    matrix = np.ascontiguousarray(branches[0].T)
    matrix.flags.writeable = False
    return matrix


def _fused_decompression(loaded: np.ndarray, h: int, w: int, r: int,
                         scale: float | None) -> tuple[StateVector, float]:
    """Decompress every block with one product and keep the ancilla-0 branch.

    ``loaded`` holds the (n_blocks, 2^r) real amplitudes. Returns the
    renormalized image state on h + w qubits and the branch probability;
    the ancilla-1 branch is never built.
    """
    out = loaded @ _decompression_operator(r, scale).T
    probability = float(np.vdot(out, out))
    if scale is None:
        if abs(math.sqrt(probability) - 1.0) > 1e-9:
            raise ArithmeticError("statevector norm drifted beyond 1e-9")
        probability = 1.0
    else:
        if probability <= 0.0:
            raise ValueError(f"zero-probability branch: qubit {h + w} never reads 0")
        if probability > 1.0 + 1e-9:
            raise ArithmeticError("post-selection probability exceeds 1 beyond 1e-9")
        out /= math.sqrt(probability)
    return StateVector._owning(out.reshape(-1), h + w), probability


def _run_hybrid(source: GrayscaleImage | ImageEncoding, r: int, scale: float | None,
                backend: str, norm_mode: str, direct_load: bool | None) -> PipelineResult:
    """Both hybrid methods; a quantization scale selects JQPIE.

    The operator backend loads the h + w image qubits only and decompresses
    with the fused per-block product; ``gate_exact`` runs the full lowered
    circuit, ancilla included, gate by gate and post-selects.
    """
    encoding = _encoding(source, scale)
    amp_matrix, record = _amplitudes(encoding, r, norm_mode)
    h, w = encoding.h, encoding.w
    ancilla = scale is not None
    direct = _direct_load(backend, direct_load, h + w - (DATA_QUBITS - r) > 14)
    if backend == "operator":
        loaded = amp_matrix if direct else _load_state(amp_matrix)
        sv, probability = _fused_decompression(loaded, h, w, r, scale)
    else:
        prep = _state_prep_circuit(amp_matrix, h, w, r, ancilla)
        sv = apply_circuit(zero_state(prep.n_qubits), prep, backend=backend)
        sv = apply_circuit(sv, _decompression_circuit(h, w, r, scale, backend),
                           backend=backend)
        probability = 1.0
        if ancilla:
            post = postselect_ancilla(sv, qubit=h + w, outcome=0)
            sv, probability = post.state, post.probability
    resources = closed_form_resources(h, w, r, method="jqpie" if ancilla else "qf_jqpie")
    recon = readout_image(sv, record, encoding.image.original_dims,
                          success_probability=probability)
    return PipelineResult(sv, probability, record, resources, recon)


def run_jqpie(source: GrayscaleImage | ImageEncoding, r: int, scale: float = 1.0,
              backend: str = "operator", norm_mode: str = "global",
              direct_load: bool | None = None) -> PipelineResult:
    """Quantized hybrid preparation with coherent decompression.

    Classical stage: pad, block, 2D DCT, quantize at ``scale``, zigzag, keep
    the first 2^r slots in load order. Quantum stage: load, apply the truncated inverse
    zigzag, the block-encoded inverse quantization on an ancilla, the
    inverse 2D DCT, then post-select the ancilla-0 branch. The recorded
    success probability is the simulated branch weight.

    The ``operator`` backend evaluates the quantum stage as one fused 64x64
    product per block on the image qubits; ``gate_exact`` applies the full
    lowered circuit gate by gate and is the reference it is checked against.
    ``direct_load`` skips the state-preparation cascade (operator backend
    only; by default above 14 active qubits). ``source`` is the image or
    its :func:`encode_image` at ``scale``, which skips the classical
    transform. Raises ValueError when the truncated coefficients are all
    zero or the encoding is not quantized at ``scale``.
    """
    return _run_hybrid(source, r, scale, backend, norm_mode, direct_load)


def run_qf_jqpie(source: GrayscaleImage | ImageEncoding, r: int, backend: str = "operator",
                 norm_mode: str = "global",
                 direct_load: bool | None = None) -> PipelineResult:
    """Quantization-free hybrid preparation: truncation only, fully unitary.

    Loads the unquantized truncated zigzag coefficients, applies the
    truncated inverse zigzag and the inverse 2D DCT. No ancilla, no block
    encoding, and the success probability is exactly 1. ``source`` is the
    image or its unquantized :func:`encode_image`. Raises ValueError when
    the truncated coefficients are all zero or the encoding is quantized.
    """
    return _run_hybrid(source, r, None, backend, norm_mode, direct_load)


def method_scale(method: str, scale: float) -> float | None:
    """The quantization scale a hybrid method encodes at: None for QF-JQPIE."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return scale if method == "jqpie" else None


def hybrid_circuit(source: GrayscaleImage | ImageEncoding, method: str, r: int,
                   scale: float = 1.0) -> Circuit:
    """Full gate-level circuit of a hybrid run, built without simulating it.

    The state-preparation cascade for the globally normalized coefficients,
    followed by the decompression lowered to RY/CX gates; ``scale`` only
    matters for ``jqpie``. ``source`` is the image or its encoding for the
    method, as for the runs.
    """
    scale = method_scale(method, scale)
    encoding = _encoding(source, scale)
    amp_matrix, _ = _amplitudes(encoding, r, "global")
    h, w = encoding.h, encoding.w
    prep = _state_prep_circuit(amp_matrix, h, w, r, ancilla=scale is not None)
    return compose(prep, _decompression_circuit(h, w, r, scale, "gate_exact"))


def run_qpie_direct(img: GrayscaleImage, backend: str = "operator",
                    direct_load: bool | None = None) -> PipelineResult:
    """Direct amplitude encoding of the (already power-of-two) pixel grid.

    For dimensions of at least 8 the state uses the project block-major
    layout (index register = block, data register = intra-block position) so
    it is directly comparable with the hybrid pipelines; smaller images fall
    back to a plain row-major flattening. Under the operator backend the
    amplitudes are injected directly unless ``direct_load`` is False, which
    loads them through the state-preparation cascade (:func:`_load_state`);
    ``gate_exact`` always runs the cascade circuit and, like the hybrid
    runs, raises ValueError for ``direct_load=True``.
    """
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
    if _direct_load(backend, direct_load, by_default=True):
        sv = from_amplitudes(flat)
    elif backend == "operator":
        sv = from_amplitudes(_load_state(flat))
    else:
        sv = apply_circuit(zero_state(n), synth_state_prep(flat, n_qubits=n), backend=backend)
    record = NormalizationRecord(norm, None, "global", None,
                                 (img.height, img.width), img.bit_depth)
    resources = closed_form_resources(h, w, r=6, method="qpie")
    recon = readout_image(sv, record, img.original_dims)
    return PipelineResult(sv, 1.0, record, resources, recon)


def readout_image(state: StateVector, norm_record: NormalizationRecord,
                  original_dims: tuple[int, int],
                  success_probability: float = 1.0) -> GrayscaleImage:
    """Convert a post-selected image state back into (pre-clamp) pixels.

    The signed amplitudes are rescaled by the recorded norms (and, when
    present, the quantization constant lambda). The post-selection
    probability undoes the renormalization applied when the ancilla branch
    was projected out. Pixels are cropped to the original dimensions;
    clamping is left to metric/file-writing time.
    """
    ph, pw = norm_record.padded_dims
    if state.n != log2_exact(ph, "padded height") + log2_exact(pw, "padded width"):
        raise ValueError("state size does not match the recorded padded dimensions")
    values = state.amplitudes * (math.sqrt(success_probability) * norm_record.global_norm)
    if norm_record.lam is not None:
        values *= norm_record.lam
    if ph >= BLOCK and pw >= BLOCK:
        nbx, nby = ph // BLOCK, pw // BLOCK
        matrix = values.reshape(nbx * nby, BLOCK * BLOCK)
        if norm_record.per_block_norms is not None:
            matrix = matrix * norm_record.per_block_norms[:, None]
        blocks = matrix.reshape(-1, BLOCK, BLOCK)
        grid = BlockGrid._owning(blocks, nbx, nby, original_dims, norm_record.bit_depth)
        return assemble_image(grid, original_dims, clamp=False)
    pixels = values.reshape(ph, pw)[:original_dims[0], :original_dims[1]].copy()
    return GrayscaleImage._owning(pixels, norm_record.bit_depth, original_dims)
