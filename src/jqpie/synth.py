"""Circuit synthesis for the four pipeline stages.

* amplitude-encoding state preparation (uniformly controlled RY cascade),
* truncated inverse zigzag as a few signed plane swaps,
* block-encoded inverse quantization (uniformly controlled RY on an ancilla),
* the inverse 2D DCT as two fixed 8-point passes, built from the DCT's
  even/odd split with closed-form angles (16 CX per pass),

plus a resource model that counts the emitted stages (the image-sized
cascade in closed form). Every stage is emitted directly as RY/CX gates
from closed-form angles; no numerical decomposition is needed. A
uniformly controlled RY is emitted as one operation,
:class:`~jqpie.qcircuit.MultiplexedRY`, whose chain angles stand for its
gates: the cascade's layers and the rescaler hold no object per gate.

Everything here targets real signed amplitudes, so RY rotations suffice and
the synthesized circuits are real orthogonal operators.

The load order of the kept coefficients is a classical choice, made here
once per r and read by both sides: the front end loads slot s < 2^r with
the coefficient of frequency ``load_order(r)[s]``, and the inverse zigzag
only has to move the frequencies it placed away from their own index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jpegcore import QuantTable, check_truncation, dct_matrix, zigzag_permutation
from .qcircuit import (Circuit, Gate, MultiplexedRY, Operation, PIPELINE_STAGES,
                       ResourceReport, StageCost, cx, resource_counts, ry)

DATA_QUBITS = 6           # 8x8 block -> 6-bit intra-block index
DATA_DIM = 64


def walsh_hadamard(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform in natural order.

    ``out[c] = sum_m (-1)^popcount(c & m) * values[m]``, by log2(len)
    butterfly stages. A uniformly controlled RY and its interleaved RY/CX
    chain are related by this transform.
    """
    out = np.array(values, dtype=np.float64)
    n = len(out)
    if n & (n - 1):
        raise ValueError("Walsh-Hadamard length must be a power of two")
    h = 1
    while h < n:
        view = out.reshape(-1, 2, h)
        left, right = view[:, 0, :].copy(), view[:, 1, :].copy()
        view[:, 0, :] = left + right
        view[:, 1, :] = left - right
        h *= 2
    return out


def multiplexed_ry_angles(alphas: np.ndarray) -> np.ndarray:
    """Map per-pattern rotation angles to the interleaved RY/CX chain angles.

    theta[i] = 2^-k * sum_j (-1)^(gray(i) . j) alpha[j], computed with a fast
    Walsh-Hadamard transform instead of the dense matrix.
    """
    spectrum = walsh_hadamard(alphas) / len(alphas)
    i = np.arange(len(spectrum))
    return spectrum[i ^ (i >> 1)]


def lower_multiplexed_ry(alphas, controls, target: int, skip_zero: bool = False,
                         tag: str | None = None) -> MultiplexedRY:
    """Uniformly controlled RY, lowered to the standard interleaved RY/CX chain.

    ``alphas[c]`` is the rotation applied to ``target`` when the controls
    (listed most-significant first) hold the basis value c. A k-control
    multiplexer lowers to 2^k rotations and 2^k CX gates. With ``skip_zero``
    rotations of |angle| <= 1e-12, zero up to rounding, are dropped (the CX
    skeleton always remains). Returns the chain as one operation, its
    angles :func:`multiplexed_ry_angles` of ``alphas``; iterating over it
    yields the gates.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    k = len(controls)
    if len(alphas) != 2 ** k:
        raise ValueError(f"need {2 ** k} angles for {k} controls, got {len(alphas)}")
    return MultiplexedRY(tuple(controls), target, multiplexed_ry_angles(alphas), tag, skip_zero)


# --- amplitude-encoding state preparation ------------------------------------

def state_prep_angles(vector: np.ndarray) -> list[np.ndarray]:
    """Per-layer multiplexer angles that load a real signed unit vector.

    Layer k (k = 0..m-1) rotates the k-th most significant qubit conditioned
    on the ones above it. Interior layers split unsigned subtree norms; the
    last layer resolves the signed leaf pairs, which is where RY picks up the
    signs. Zero-norm subtrees get angle 0. Raises ValueError unless the
    vector has a power-of-two length and unit norm within 1e-10.
    """
    vector = np.asarray(vector, dtype=np.float64)
    n = len(vector)
    if n < 1 or n & (n - 1):
        raise ValueError("amplitude vector length must be a power of two")
    if not abs(np.linalg.norm(vector) - 1.0) <= 1e-10:   # NaN fails too
        raise ValueError("amplitude vector must be L2-normalized within 1e-10")
    m = n.bit_length() - 1
    levels = [np.abs(vector)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(np.sqrt(prev[0::2] ** 2 + prev[1::2] ** 2))
    levels.reverse()   # levels[t] has 2^t entries
    layers = []
    for k in range(m):
        child = vector if k == m - 1 else levels[k + 1]
        layers.append(2.0 * np.arctan2(child[1::2], child[0::2]))
    return layers


def synth_state_prep(amplitudes, targets=None, n_qubits: int | None = None) -> Circuit:
    """Circuit of uniformly controlled RY layers preparing a real unit vector.

    ``targets`` lists the active qubits most-significant first (default: the
    m lowest qubits, MSB down to 0). Applied to |0...0> the circuit produces
    the target amplitudes exactly; layer k contributes 2^k rotations and, for
    k >= 1, 2^k CX gates, totalling 2^m - 1 rotations and 2^m - 2 CX.
    """
    layers = state_prep_angles(amplitudes)
    m = len(layers)
    if targets is None:
        targets = list(range(m - 1, -1, -1))
    targets = [int(q) for q in targets]
    if len(targets) != m:
        raise ValueError(f"need {m} target qubits for {2 ** m} amplitudes")
    if n_qubits is None:
        n_qubits = max(targets) + 1 if targets else 1
    return Circuit(n_qubits, tuple(
        lower_multiplexed_ry(alphas, targets[:k], targets[k], tag="state_prep")
        for k, alphas in enumerate(layers)))


# --- truncated inverse zigzag -------------------------------------------------

def truncated_zigzag_map(r: int) -> np.ndarray:
    """Bijection on 0..63 equal to the zigzag map on the first 2^r slots.

    Slots k < 2^r map to their frequency index pi(k); the remaining indices
    are fixed except where a chain of displaced targets must be closed to
    keep the map a permutation.
    """
    check_truncation(r)
    pi = zigzag_permutation()
    kept = 2 ** r
    sigma = {k: int(pi[k]) for k in range(kept)}
    retained = set(range(kept))
    # Close each open chain: a displaced target (image outside the retained
    # slots) maps back to the chain's free starting slot. For r=2 this yields
    # exactly the pairing 2<->8, 3<->16; indices not touched stay fixed.
    for start in sorted(retained - set(sigma.values())):
        cur = start
        while sigma[cur] in retained:
            cur = sigma[cur]
        sigma[sigma[cur]] = start
    return np.array([sigma.get(k, k) for k in range(DATA_DIM)], dtype=np.int64)


@lru_cache(maxsize=None)
def _swap_pairs(r: int) -> tuple[tuple[int, int], ...]:
    """(s, o) for each low slot s < 2^r whose own frequency is not kept.

    The kept frequencies are pi(0..2^r-1), those of the first 2^r zigzag
    slots; a kept frequency o >= 2^r has no low slot of its own index, so it
    is loaded into a free low slot s and swapped to o. Slots are paired in ascending
    order, each with the lowest-Hamming-distance o left (then the lowest o),
    which keeps the CX conjugation of each swap short.
    """
    check_truncation(r)
    kept = 2 ** r
    frequencies = {int(f) for f in zigzag_permutation()[:kept]}
    high = sorted(f for f in frequencies if f >= kept)
    pairs = []
    for s in (s for s in range(kept) if s not in frequencies):
        o = min(high, key=lambda f: (bin(s ^ f).count("1"), f))
        high.remove(o)
        pairs.append((s, o))
    return tuple(pairs)


def load_order(r: int) -> np.ndarray:
    """Frequency index 8u+v whose coefficient is loaded into slot s < 2^r.

    A slot whose own index is a kept frequency holds that frequency; every
    other slot holds the kept frequency it is paired with in
    :func:`synth_truncated_zigzag`. The 2^r entries are exactly the kept
    frequencies pi(0..2^r-1).
    """
    order = np.arange(2 ** r)
    for s, o in _swap_pairs(r):
        order[s] = o
    return order


def synth_truncated_zigzag(r: int) -> Circuit:
    """Truncated inverse zigzag over the 6-qubit data register.

    One signed swap ``lower_givens(s, o, pi)`` per pair of
    :func:`load_order`: it sends the loaded |s> to +|o> and |o> to -|s>.
    No |o> >= 2^r is loaded, so the -1 never acts and the network maps every
    loaded slot s to +|load_order(r)[s]>. Empty at r = 6, where the load
    order is the identity.
    """
    qubits = list(range(DATA_QUBITS - 1, -1, -1))
    operations = [op for s, o in _swap_pairs(r)
                  for op in lower_givens(s, o, math.pi, qubits, tag="inverse_zigzag")]
    return Circuit(DATA_QUBITS, tuple(operations))


# --- block-encoded inverse quantization ---------------------------------------

@dataclass(frozen=True)
class BlockEncodedDiag:
    """Rescaled quantization diagonal embedded in a unitary.

    ``diagonal[k] = Q(k) / lam`` for frequency index k = 8u+v, with
    lam = max_k Q(k), so every entry lies in (0, 1] and the largest is
    exactly 1. ``angles[k] = 2 arccos(diagonal[k])`` are the ancilla
    rotations realizing the embedding.
    """

    diagonal: np.ndarray
    lam: float

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=np.float64).copy()
        if not (np.all(d > 0) and np.all(d <= 1.0 + 1e-12) and abs(d.max() - 1.0) <= 1e-12):
            raise ValueError("diagonal entries must lie in (0, 1] with max exactly 1")
        d.flags.writeable = False
        object.__setattr__(self, "diagonal", d)

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.arccos(np.clip(self.diagonal, -1.0, 1.0))


def block_encoded_rescaler(table: QuantTable) -> BlockEncodedDiag:
    """Normalize the quantization divisors into a block-encodable diagonal."""
    q = table.values.reshape(-1)
    lam = float(q.max())
    return BlockEncodedDiag(q / lam, lam)


def synth_inverse_quantization(table: QuantTable) -> tuple[Circuit, float]:
    """Block-encoded inverse quantization over data register + ancilla.

    A 6-control uniformly controlled RY on the ancilla, lowered to exactly
    64 CX and 64 rotations. Acting on |0>_a |k> it produces
    d_k |0>_a |k> + sqrt(1 - d_k^2) |1>_a |k>, so the |0>_a branch applies
    the rescaled divisor d_k = Q(k)/lam. Returns the circuit and lam.
    """
    diag = block_encoded_rescaler(table)
    ancilla = DATA_QUBITS
    controls = list(range(DATA_QUBITS - 1, -1, -1))
    mux = lower_multiplexed_ry(diag.angles, controls, ancilla, tag="inverse_quantization")
    return Circuit(DATA_QUBITS + 1, (mux,)), diag.lam


# --- inverse DCT operator ------------------------------------------------------

def _inverse_qdct_pass(qubits, tag: str) -> list[Gate]:
    """The 8-point inverse DCT on ``qubits`` (a, b, c), most significant first.

    The even/odd split of the DCT (Chen, Smith & Fralick 1977): frequency
    k = 2m + c holds the 4-point DCT-II row m (c = 0) or DCT-IV row m (c = 1)
    of the sample pair (n, 7 - n), scaled by 1/sqrt(2). So the inverse first
    applies C4^T or -C4^IV^T to m on (a, b), multiplexed by c: 12 CX by the
    closed-form cosine-sine split (:func:`_lower_multiplexed_so4`). RY(pi/2)
    on c then forms (e + o, e - o) / sqrt(2), the samples n and 7 - n, and
    four CX move (n, c) to the index n or 7 - n: (a, b, c) -> (c, a ^ c,
    b ^ c). Both blocks have det +1, so no sign fix-up is needed: 16 CX and
    12 RY per pass (one multiplexer angle is zero up to rounding).
    """
    a, b, c = qubits
    half = dct_matrix()[:, :4] * math.sqrt(2.0)
    blocks = [half[0::2].T, -half[1::2].T]
    gates = _lower_multiplexed_so4(blocks, c, (a, b), tag)
    gates.append(ry(c, math.pi / 2, tag=tag))
    gates += [cx(b, c, tag=tag), cx(c, b, tag=tag), cx(a, b, tag=tag), cx(b, a, tag=tag)]
    return gates


@lru_cache(maxsize=None)
def synth_inverse_qdct_gates() -> tuple[Gate, ...]:
    """Inverse 2D DCT on the data register as RY/CX gates: one 8-point pass
    (:func:`_inverse_qdct_pass`) on the row qubits (5, 4, 3) of u, one on the
    column qubits (2, 1, 0) of v. Every angle is closed form; the gates,
    which are immutable, are built once per process."""
    return tuple(_inverse_qdct_pass((5, 4, 3), "inverse_qdct")
                 + _inverse_qdct_pass((2, 1, 0), "inverse_qdct"))


# --- exact gate-level lowering --------------------------------------------------

def _pattern_without_bit(index: int, bit: int) -> int:
    """Drop one bit position from an index, keeping the relative order."""
    high = index >> (bit + 1)
    low = index & ((1 << bit) - 1)
    return (high << bit) | low


def lower_givens(i: int, j: int, theta: float, qubits,
                 tag: str | None = None) -> list[Operation]:
    """Plane rotation between basis states i and j of a qubit subset.

    ``qubits`` lists the subset most-significant first; i and j index its
    2^t-dimensional subspace. The pair is first collapsed onto a single-bit
    difference with CX conjugation, then rotated with a one-hot uniformly
    controlled RY, one operation whose zero rotations are not emitted.
    Orientation: amplitude at i transforms as cos(theta/2) a_i -
    sin(theta/2) a_j.
    """
    if i == j:
        raise ValueError("Givens rotation needs two distinct basis states")
    t = len(qubits)
    diff = i ^ j
    pivot = (diff & -diff).bit_length() - 1
    conj: list[Gate] = []
    for bit in range(t):
        if bit != pivot and (diff >> bit) & 1:
            conj.append(cx(qubits[t - 1 - pivot], qubits[t - 1 - bit], tag=tag))
    i_star = i
    for bit in range(t):
        if bit != pivot and (diff >> bit) & 1 and (i >> pivot) & 1:
            i_star ^= 1 << bit
    # After conjugation the pair differs only in the pivot bit; the state
    # with pivot bit 0 plays the role of i when i itself has pivot bit 0.
    if (i >> pivot) & 1:
        theta = -theta
        i_star ^= 1 << pivot
    pattern = _pattern_without_bit(i_star, pivot)
    controls = [q for b, q in enumerate(qubits) if (t - 1 - b) != pivot]
    alphas = np.zeros(2 ** (t - 1))
    alphas[pattern] = theta
    mux = lower_multiplexed_ry(alphas, controls, qubits[t - 1 - pivot],
                               skip_zero=True, tag=tag)
    return [*conj, mux, *conj[::-1]]


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _svd_2x2(m: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(phi, sigma, theta) with m = R(phi) diag(sigma) R(theta), in closed form.

    Splits m into its rotation part (e, h) and reflection part (f, g); sigma
    is signed (sigma[0] >= |sigma[1]|), so both factors are rotations.
    """
    e, f = (m[0, 0] + m[1, 1]) / 2, (m[0, 0] - m[1, 1]) / 2
    g, h = (m[1, 0] + m[0, 1]) / 2, (m[1, 0] - m[0, 1]) / 2
    q, r = math.hypot(e, h), math.hypot(f, g)
    a1, a2 = math.atan2(g, f), math.atan2(h, e)
    return (a2 + a1) / 2, np.array([q + r, q - r]), (a2 - a1) / 2


def _column_rotation(m: np.ndarray) -> np.ndarray:
    """The rotation whose columns are parallel to the orthogonal columns of
    m, read off the longer one (the positive multiple of it)."""
    if math.hypot(m[0, 1], m[1, 1]) >= math.hypot(m[0, 0], m[1, 0]):
        return _rotation(math.atan2(-m[0, 1], m[1, 1]))
    return _rotation(math.atan2(m[1, 0], m[0, 0]))


def _cs_split_4x4(b: np.ndarray):
    """Closed-form cosine-sine split of a 4x4 orthogonal matrix with det +1.

    b = diag(u1, u2) [[C, -S], [S, C]] diag(v1h, v2h) with C = diag(c),
    S = diag(s) and every corner a rotation, so no det fix-up follows. The
    middle factor is returned as the rotations [[c_i, -s_i], [s_i, c_i]].
    The shared right factor v1h comes from the 2x2 SVD of whichever left
    block, b11 = u1 C v1h or b21 = u2 S v1h, has the smaller norm: the
    other block's singular values lie nearer 1, where they can coincide to
    rounding and leave its singular vectors undetermined. The other left
    factor is read off the other block's (orthogonal) columns. v2h is the
    rotation nearest K = -S u1^T b12 + C u2^T b22, which equals v2h.
    """
    b11, b21 = b[:2, :2], b[2:, :2]
    if np.sum(b11 * b11) <= np.sum(b21 * b21):
        phi, c, theta = _svd_2x2(b11)
        u1, v1h = _rotation(phi), _rotation(theta)
        t = b21 @ v1h.T
        u2 = _column_rotation(t)
        s = np.diag(u2.T @ t)
    else:
        phi, s, theta = _svd_2x2(b21)
        u2, v1h = _rotation(phi), _rotation(theta)
        x = b11 @ v1h.T
        u1 = _column_rotation(x)
        c = np.diag(u1.T @ x)
    k = -s[:, None] * (u1.T @ b[:2, 2:]) + c[:, None] * (u2.T @ b[2:, 2:])
    v2h = _rotation(math.atan2(k[1, 0] - k[0, 1], k[0, 0] + k[1, 1]))
    return (u1, u2), [np.array([[ci, -si], [si, ci]]) for ci, si in zip(c, s)], (v1h, v2h)


def _lower_multiplexed_so4(blocks, control: int, targets, tag: str) -> list[Gate]:
    """``blocks[c]`` (4x4, det +1) on ``targets`` (a, b), most significant
    first, when ``control`` holds c, as three uniformly controlled RY layers.

    Each block splits by :func:`_cs_split_4x4` into rotations, so
    diag(B0, B1) = U M V with V and U multiplexed rotations of b under
    (control, a) and the middle M one of a under (control, b): 12 CX.
    """
    a, b = targets
    splits = [_cs_split_4x4(m) for m in blocks]

    def layer(rotations, controls, target):
        thetas = [2.0 * math.atan2(g[1, 0], g[0, 0]) for g in rotations]
        return lower_multiplexed_ry(thetas, controls, target, skip_zero=True, tag=tag)

    return [*layer([v for _, _, vs in splits for v in vs], [control, a], b),
            *layer([m for _, mids, _ in splits for m in mids], [control, b], a),
            *layer([u for us, _, _ in splits for u in us], [control, a], b)]


def lower_circuit(circuit: Circuit) -> Circuit:
    """The circuit itself: every stage is emitted as RY/CX gates, so there is
    nothing to lower. Kept only because the benchmark tracer
    (``perfbench/tracing.py``) binds ``jqpie.pipeline.lower_circuit``."""
    return circuit


# --- resource model -------------------------------------------------------------

@lru_cache(maxsize=None)
def _emitted_stage_cost(stage: str, r: int | None = None) -> StageCost:
    """Gate counts of one lowered decompression stage: the inverse zigzag at
    truncation ``r``, the inverse quantization (its counts do not depend on
    the table) or the inverse 2D QDCT."""
    if stage == "inverse_zigzag":
        circuit = synth_truncated_zigzag(r)
    elif stage == "inverse_quantization":
        circuit, _ = synth_inverse_quantization(QuantTable())
    else:
        circuit = Circuit(DATA_QUBITS, synth_inverse_qdct_gates())
    return resource_counts(circuit).breakdown[stage]


def state_prep_cost(m: int) -> StageCost:
    """Gate counts of the m-qubit preparation cascade: 2^m - 1 rotations,
    2^m - 2 CX. Scheduled depth is 2^(m+1) - m - 2: layer k chains
    2^(k+1) - 1 steps onto the previous layer's end, while its leading
    rotation runs in parallel with earlier layers."""
    if m < 1:
        return StageCost(0, 0, 0)
    return StageCost(2 ** m - 2, 2 ** m - 1, 2 ** (m + 1) - m - 2)


@lru_cache(maxsize=None)
def closed_form_resources(h: int, w: int, r: int, method: str = "jqpie") -> ResourceReport:
    """Stage-by-stage resources of a 2^h x 2^w image at truncation r.

    state_prep is the closed-form cost of the cascade on the h+w-l active
    qubits (l = 6 - r inactive data qubits). The other stages (inverse
    quantization for JQPIE only) are the counts of their lowered circuits,
    the gates that ``export-circuit`` writes. A report is made once per
    (h, w, r, method) and shared; reports are immutable.
    """
    check_truncation(r)
    if method not in ("jqpie", "qf_jqpie", "qpie"):
        raise ValueError(f"unknown method {method!r}")
    stages: dict[str, StageCost] = {name: StageCost() for name in PIPELINE_STAGES}
    if method == "qpie":
        stages["state_prep"] = state_prep_cost(h + w)
    else:
        if h + w < DATA_QUBITS:
            raise ValueError("block pipelines span at least the 6 data qubits (h + w >= 6)")
        ell = DATA_QUBITS - r
        stages["state_prep"] = state_prep_cost(h + w - ell)
        stages["inverse_zigzag"] = _emitted_stage_cost("inverse_zigzag", r)
        stages["inverse_qdct"] = _emitted_stage_cost("inverse_qdct")
        if method == "jqpie":
            stages["inverse_quantization"] = _emitted_stage_cost("inverse_quantization")
    total = sum(stages.values(), StageCost())
    return ResourceReport(total.cx, total.rotations, total.depth, stages)
