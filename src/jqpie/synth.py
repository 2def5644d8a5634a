"""Circuit synthesis for the four pipeline stages.

* amplitude-encoding state preparation (uniformly controlled RY cascade),
* truncated inverse zigzag permutation,
* block-encoded inverse quantization (uniformly controlled RY on an ancilla),
* the inverse 2D DCT as two 8-point orthogonal blocks,

plus exact gate-level lowering of operator-level gates (permutations and
real orthogonal blocks) into the RY/CX alphabet, and a resource model that
counts the lowered stages (the image-sized cascade in closed form).

Everything here targets real signed amplitudes, so RY rotations suffice and
the synthesized circuits are real orthogonal operators. A basis permutation
is exactly realizable on its own qubits only when it is an even permutation
(every gate in the alphabet acts as a determinant +1 operator on three or
more qubits); all truncated zigzag permutations are even, and odd ones are
rejected with instructions to add a helper qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cossin

from .jpegcore import QuantTable, check_truncation, dct_matrix, zigzag_permutation
from .qcircuit import (Circuit, Gate, PIPELINE_STAGES, ResourceReport, StageCost,
                       cx, perm_gate, resource_counts, ry, ublock)

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
                         tag: str | None = None) -> list[Gate]:
    """Uniformly controlled RY, lowered to the standard interleaved RY/CX chain.

    ``alphas[c]`` is the rotation applied to ``target`` when the controls
    (listed most-significant first) hold the basis value c. A k-control
    multiplexer lowers to 2^k rotations and 2^k CX gates. With ``skip_zero``
    exactly-zero rotations are dropped (the CX skeleton always remains).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    k = len(controls)
    if len(alphas) != 2 ** k:
        raise ValueError(f"need {2 ** k} angles for {k} controls, got {len(alphas)}")
    if k == 0:
        if skip_zero and alphas[0] == 0.0:
            return []
        return [ry(target, alphas[0], tag=tag)]
    thetas = multiplexed_ry_angles(alphas)
    gates: list[Gate] = []
    for i in range(2 ** k):
        if not (skip_zero and thetas[i] == 0.0):
            gates.append(ry(target, thetas[i], tag=tag))
        if i == 2 ** k - 1:
            bit = k - 1
        else:
            bit = ((i + 1) & -(i + 1)).bit_length() - 1
        gates.append(cx(controls[k - 1 - bit], target, tag=tag))
    return gates


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
    if abs(np.linalg.norm(vector) - 1.0) > 1e-10:
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


def synth_state_prep(amplitudes, targets=None, n_qubits: int | None = None,
                     registers=(), tag: str = "state_prep") -> Circuit:
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
    gates: list[Gate] = []
    for k, alphas in enumerate(layers):
        gates.extend(lower_multiplexed_ry(alphas, targets[:k], targets[k], tag=tag))
    return Circuit(n_qubits, tuple(gates), registers)


# --- truncated inverse zigzag -------------------------------------------------

@lru_cache(maxsize=None)
def _truncated_zigzag_tuple(r: int) -> tuple[int, ...]:
    check_truncation(r)
    pi = zigzag_permutation()
    kept = 2 ** r
    sigma = {k: int(pi[k]) for k in range(kept)}
    retained = set(range(kept))
    targets = set(sigma.values())
    # Close each open chain: a displaced target (image outside the retained
    # slots) maps back to the chain's free starting slot. For r=2 this yields
    # exactly the pairing 2<->8, 3<->16; indices not touched stay fixed.
    for start in sorted(retained - targets):
        cur = start
        while sigma[cur] in retained:
            cur = sigma[cur]
        sigma[sigma[cur]] = start
    full = tuple(sigma.get(k, k) for k in range(DATA_DIM))
    if sorted(full) != list(range(DATA_DIM)):
        raise AssertionError("truncated zigzag completion failed to produce a bijection")
    return full


def truncated_zigzag_map(r: int) -> np.ndarray:
    """Bijection on 0..63 equal to the zigzag map on the first 2^r slots.

    Slots k < 2^r map to their frequency index pi(k); the remaining indices
    are fixed except where a chain of displaced targets must be closed to
    keep the map a permutation.
    """
    return np.array(_truncated_zigzag_tuple(r), dtype=np.int64)


def synth_truncated_zigzag(r: int, tag: str = "inverse_zigzag") -> Circuit:
    """Truncated inverse zigzag as a PERM gate over the 6-qubit data register."""
    mapping = _truncated_zigzag_tuple(r)
    gate = perm_gate(list(range(DATA_QUBITS - 1, -1, -1)), mapping, tag=tag)
    return Circuit(DATA_QUBITS, (gate,), (("data", DATA_QUBITS),))


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
        if np.any(d <= 0) or np.any(d > 1.0 + 1e-12) or abs(d.max() - 1.0) > 1e-12:
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


def synth_inverse_quantization(table: QuantTable,
                               tag: str = "inverse_quantization") -> tuple[Circuit, float]:
    """Block-encoded inverse quantization over data register + ancilla.

    A 6-control uniformly controlled RY on the ancilla, lowered to exactly
    64 CX and 64 rotations. Acting on |0>_a |k> it produces
    d_k |0>_a |k> + sqrt(1 - d_k^2) |1>_a |k>, so the |0>_a branch applies
    the rescaled divisor d_k = Q(k)/lam. Returns the circuit and lam.
    """
    diag = block_encoded_rescaler(table)
    ancilla = DATA_QUBITS
    controls = list(range(DATA_QUBITS - 1, -1, -1))
    gates = lower_multiplexed_ry(diag.angles, controls, ancilla, tag=tag)
    circuit = Circuit(DATA_QUBITS + 1, tuple(gates),
                      (("ancilla", 1), ("data", DATA_QUBITS)))
    return circuit, diag.lam


# --- inverse DCT operator ------------------------------------------------------

def synth_inverse_qdct_gates(tag: str = "inverse_qdct") -> list[Gate]:
    """Inverse 2D DCT as two UBLOCK gates on the data register: one on the
    row qubits (5, 4, 3) of u, one on the column qubits (2, 1, 0) of v."""
    inv = dct_matrix().T
    return [ublock((5, 4, 3), inv, tag=tag), ublock((2, 1, 0), inv, tag=tag)]


# --- exact gate-level lowering --------------------------------------------------

def _pattern_without_bit(index: int, bit: int, width: int) -> int:
    """Drop one bit position from an index, keeping the relative order."""
    high = index >> (bit + 1)
    low = index & ((1 << bit) - 1)
    return (high << bit) | low


def lower_givens(i: int, j: int, theta: float, qubits, skip_zero: bool = True,
                 tag: str | None = None) -> list[Gate]:
    """Plane rotation between basis states i and j of a qubit subset.

    ``qubits`` lists the subset most-significant first; i and j index its
    2^t-dimensional subspace. The pair is first collapsed onto a single-bit
    difference with CX conjugation, then rotated with a one-hot uniformly
    controlled RY. Orientation: amplitude at i transforms as
    cos(theta/2) a_i - sin(theta/2) a_j.
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
    pattern = _pattern_without_bit(i_star, pivot, t)
    controls = [q for b, q in enumerate(qubits) if (t - 1 - b) != pivot]
    alphas = np.zeros(2 ** (t - 1))
    alphas[pattern] = theta
    mux = lower_multiplexed_ry(alphas, controls, qubits[t - 1 - pivot],
                               skip_zero=skip_zero, tag=tag)
    return conj + mux + conj[::-1]


def _givens_dense(dim: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(dim)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    g[i, i] = c
    g[j, i] = s
    g[i, j] = -s
    g[j, j] = c
    return g


def permutation_cycles(mapping) -> list[list[int]]:
    mapping = list(int(v) for v in mapping)
    seen = [False] * len(mapping)
    cycles = []
    for start in range(len(mapping)):
        if seen[start] or mapping[start] == start:
            seen[start] = True
            continue
        cycle = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            cur = mapping[cur]
        cycles.append(cycle)
    return cycles


def lower_permutation(mapping, qubits, tag: str | None = None) -> list[Gate]:
    """Exact RY/CX network realizing a basis permutation |k> -> |mapping[k]>.

    Each transposition becomes a signed plane swap (Givens at pi); the
    residual +-1 diagonal left over from the signs is cancelled by full-turn
    rotations in pairs. Only even permutations are realizable on their own
    qubits; odd ones raise (extend the qubit set by one inert helper and
    double the permutation to make it even).
    """
    mapping = [int(v) for v in mapping]
    dim = len(mapping)
    if dim != 2 ** len(qubits):
        raise ValueError("permutation size must be 2^len(qubits)")
    transpositions: list[tuple[int, int]] = []
    for cycle in permutation_cycles(mapping):
        anchor = cycle[0]
        for other in cycle[1:]:
            transpositions.append((anchor, other))
    if not transpositions:
        return []
    if len(transpositions) % 2:
        raise ValueError(
            "odd permutation: not exactly realizable over RY/CX on its own "
            "qubits; add a helper qubit and double the permutation")
    gates: list[Gate] = []
    achieved = np.eye(dim)
    for a, b in transpositions:
        gates.extend(lower_givens(a, b, math.pi, qubits, tag=tag))
        achieved = _givens_dense(dim, a, b, math.pi) @ achieved
    target = np.zeros((dim, dim))
    for src, dst in enumerate(mapping):
        target[dst, src] = 1.0
    residual = np.diag(target @ achieved.T)
    flipped = [k for k in range(dim) if residual[k] < 0]
    if len(flipped) % 2:
        raise AssertionError("sign residual of an even permutation must be even")
    for p, q in zip(flipped[0::2], flipped[1::2]):
        gates.extend(lower_givens(p, q, 2.0 * math.pi, qubits, tag=tag))
    return gates


def _reflection_angle(g: np.ndarray) -> float:
    # det -1 blocks factor as RY(theta) . X with X applied first.
    return 2.0 * math.atan2(-g[0, 0], g[0, 1])


def _emit_multiplexed_o2(blocks, controls, target: int, tag: str | None) -> list[Gate]:
    """Multiplexed 2x2 orthogonal blocks: rotations plus paired reflections."""
    thetas = np.empty(len(blocks))
    reflections = []
    for c, g in enumerate(blocks):
        if np.linalg.det(g) < 0:
            reflections.append(c)
            thetas[c] = _reflection_angle(g)
        else:
            thetas[c] = 2.0 * math.atan2(g[1, 0], g[0, 0])
    if len(reflections) % 2:
        raise AssertionError("reflection count must be even in a det +1 lowering")
    gates: list[Gate] = []
    qubits = list(controls) + [target]
    if reflections:
        # X on the flagged patterns, applied before the rotations: signed
        # swaps (c,0)<->(c,1) then a diagonal fix of -1 at each (c,0).
        for c in reflections:
            gates.extend(lower_givens(2 * c, 2 * c + 1, math.pi, qubits, tag=tag))
        for c1, c2 in zip(reflections[0::2], reflections[1::2]):
            gates.extend(lower_givens(2 * c1, 2 * c2, 2.0 * math.pi, qubits, tag=tag))
    gates.extend(lower_multiplexed_ry(thetas, list(controls), target,
                                      skip_zero=True, tag=tag))
    return gates


def _flip_last_column(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    out[:, -1] = -out[:, -1]
    return out


def _flip_last_row(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    out[-1, :] = -out[-1, :]
    return out


def _lower_blockdiag_orthogonal(blocks, controls, targets, tag) -> list[Gate]:
    """Recursive cosine-sine lowering of multiplexed orthogonal operators.

    ``blocks[c]`` (each det +1) acts on ``targets`` when ``controls`` hold c.
    Every split keeps the corner factors in SO by absorbing any det -1 into
    the middle multiplexer, which then carries an even number of reflection
    patterns that :func:`_emit_multiplexed_o2` realizes exactly.
    """
    t = len(targets)
    if t == 1:
        return _emit_multiplexed_o2(blocks, controls, targets[0], tag)
    half = 2 ** (t - 1)
    mid_blocks: list[np.ndarray] = []
    u_blocks: list[np.ndarray] = []
    v_blocks: list[np.ndarray] = []
    for b in blocks:
        (u1, u2), theta, (v1h, v2h) = cossin(b, p=half, q=half, separate=True)
        mids = [np.array([[math.cos(th), -math.sin(th)],
                          [math.sin(th), math.cos(th)]]) for th in theta]
        if np.linalg.det(u1) < 0:
            u1 = _flip_last_column(u1)
            mids[-1] = np.diag([-1.0, 1.0]) @ mids[-1]
        if np.linalg.det(u2) < 0:
            u2 = _flip_last_column(u2)
            mids[-1] = np.diag([1.0, -1.0]) @ mids[-1]
        if np.linalg.det(v1h) < 0:
            v1h = _flip_last_row(v1h)
            mids[-1] = mids[-1] @ np.diag([-1.0, 1.0])
        if np.linalg.det(v2h) < 0:
            v2h = _flip_last_row(v2h)
            mids[-1] = mids[-1] @ np.diag([1.0, -1.0])
        mid_blocks.extend(mids)
        u_blocks.extend([u1, u2])
        v_blocks.extend([v1h, v2h])
    msb = targets[0]
    rest = list(targets[1:])
    gates = _lower_blockdiag_orthogonal(v_blocks, list(controls) + [msb], rest, tag)
    gates += _emit_multiplexed_o2(mid_blocks, list(controls) + rest, msb, tag)
    gates += _lower_blockdiag_orthogonal(u_blocks, list(controls) + [msb], rest, tag)
    return gates


def lower_orthogonal(matrix: np.ndarray, qubits, tag: str | None = None) -> list[Gate]:
    """Exact RY/CX network for a real orthogonal operator with det +1.

    Recursive real cosine-sine decomposition; reflections that appear inside
    the splits are paired up and realized exactly, so the resulting circuit
    equals the operator with no global phase.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    dim = 2 ** len(qubits)
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim} for {len(qubits)} qubits")
    if not np.allclose(mat @ mat.T, np.eye(dim), atol=1e-10):
        raise ValueError("matrix is not orthogonal within 1e-10")
    if np.linalg.det(mat) < 0:
        raise ValueError(
            "det -1 operators are not exactly realizable over RY/CX on their "
            "own qubits; lower the operator jointly with another register")
    return _lower_blockdiag_orthogonal([mat], [], list(qubits), tag)


def lower_circuit(circuit: Circuit) -> Circuit:
    """Replace every PERM/UBLOCK gate with an exact elementary network.

    UBLOCK lowering supports the real orthogonal det +1 operators this
    project produces; stage tags are preserved.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind == "perm":
            gates.extend(lower_permutation(g.perm, list(g.qubits), tag=g.tag))
        elif g.kind == "ublock":
            gates.extend(lower_orthogonal(g.matrix, list(g.qubits), tag=g.tag))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, tuple(gates), circuit.registers)


# --- resource model -------------------------------------------------------------

@lru_cache(maxsize=None)
def _emitted_stage_cost(stage: str, r: int | None = None) -> StageCost:
    """Gate counts of one lowered decompression stage: the inverse zigzag at
    truncation ``r``, the inverse quantization (its counts do not depend on
    the table) or the inverse 2D QDCT."""
    if stage == "inverse_zigzag":
        circuit = lower_circuit(synth_truncated_zigzag(r))
    elif stage == "inverse_quantization":
        circuit, _ = synth_inverse_quantization(QuantTable())
    else:
        circuit = lower_circuit(Circuit(DATA_QUBITS, tuple(synth_inverse_qdct_gates())))
    return resource_counts(circuit).breakdown[stage]


def state_prep_cost(m: int) -> StageCost:
    """Gate counts of the m-qubit preparation cascade: 2^m - 1 rotations,
    2^m - 2 CX. Scheduled depth is 2^(m+1) - m - 2: layer k chains
    2^(k+1) - 1 steps onto the previous layer's end, while its leading
    rotation runs in parallel with earlier layers."""
    if m < 1:
        return StageCost(0, 0, 0)
    return StageCost(2 ** m - 2, 2 ** m - 1, 2 ** (m + 1) - m - 2)


def closed_form_resources(h: int, w: int, r: int, method: str = "jqpie") -> ResourceReport:
    """Stage-by-stage resources of a 2^h x 2^w image at truncation r.

    state_prep is the closed-form cost of the cascade on the h+w-l active
    qubits (l = 6 - r inactive data qubits). The other stages (inverse
    quantization for JQPIE only) are the counts of their lowered circuits,
    the gates that ``export-circuit`` writes.
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
