"""Dense statevector simulation with gate-exact and operator-level backends.

Project basis convention (single source of truth, consumed by every module):

  * qubit 0 is the least-significant bit of the statevector index;
  * register significance order is ancilla | index | data, i.e. the 6-qubit
    data register sits in qubits 0..5, the block-index register above it,
    and the single ancilla (when present) is the most significant qubit;
  * within the data register the high three qubits address the block row u
    and the low three the block column v, so the register value is
    k = 8u + v;
  * the index register value is j = block_row * (padded_width / 8)
    + block_col, i.e. blocks enumerate row-major.

Backends: ``gate_exact`` applies every elementary gate, one pass over the
state each, and rejects operator-level entries; it is the reference.
``operator`` applies the same elementary gates one by one and, in addition,
PERM/UBLOCK gates directly on their target subspace.
:func:`apply_circuit` is the only way to apply an operator: a permutation, a
dense unitary or a block encoding is wrapped in a PERM or UBLOCK gate of a
:class:`~jqpie.qcircuit.Circuit`, whose construction validates it. Both
backends are double precision and unitary to machine accuracy; they agree to
rounding (about 1e-15 per amplitude).

The pipelines' ``operator`` backend runs neither the state-preparation
cascade nor the decompression here over the whole image state:
:mod:`jqpie.pipeline` loads the cascade's amplitudes from its layer angles,
and simulates the decompression once, on a 64-block probe register, to read
off its 64x64 per-block operator, then applies that operator to every block
with one matrix product. The ``gate_exact`` pipeline backend runs the full
gate-level circuit through :func:`apply_circuit` and is the reference.

A statevector is owned by one simulation at a time; all functions return new
values and distinct simulations share nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qcircuit import Circuit, Gate, UnloweredGateError

BACKENDS = ("gate_exact", "operator")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over 2^n basis states (qubit 0 = LSB)."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** self.n,):
            raise ValueError(f"expected 2^{self.n} amplitudes, got shape {amps.shape}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class PostSelectResult:
    """Renormalized projected state plus the branch probability."""

    state: StateVector
    probability: float


def log2_exact(value: int, what: str) -> int:
    """Exact base-2 logarithm of a positive power of two, else ValueError."""
    bits = int(value).bit_length() - 1
    if 2 ** bits != value:
        raise ValueError(f"{what} must be a power of two, got {value}")
    return bits


def zero_state(n: int) -> StateVector:
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(amps, n)


def basis_state(n: int, index: int) -> StateVector:
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, n)


def from_amplitudes(vector, normalized: bool = True) -> StateVector:
    amps = np.asarray(vector, dtype=np.complex128)
    n = log2_exact(len(amps), "amplitude count")
    if normalized and abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise ValueError("state is not normalized within 1e-9")
    return StateVector(amps, n)


# --- in-place kernels on raw arrays -------------------------------------------

def _apply_1q(amps: np.ndarray, q: int, mat) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = mat[0][0] * a0 + mat[0][1] * a1
    view[:, 1, :] = mat[1][0] * a0 + mat[1][1] * a1


def _apply_x(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    tmp = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = tmp


def _apply_cx(amps: np.ndarray, control: int, target: int) -> None:
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(-1, 2, 1 << (hi - lo) >> 1, 2, 1 << lo)
    if control == hi:
        sel0 = (slice(None), 1, slice(None), 0, slice(None))
        sel1 = (slice(None), 1, slice(None), 1, slice(None))
    else:
        sel0 = (slice(None), 0, slice(None), 1, slice(None))
        sel1 = (slice(None), 1, slice(None), 1, slice(None))
    tmp = view[sel0].copy()
    view[sel0] = view[sel1]
    view[sel1] = tmp


def _ry_matrix(theta: float):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return ((c, -s), (s, c))


def _rz_matrix(theta: float):
    return ((np.exp(-0.5j * theta), 0.0), (0.0, np.exp(0.5j * theta)))


def _subspace_view(amps: np.ndarray, n: int, targets) -> tuple[np.ndarray, tuple, list]:
    """Bring target qubits (MSB-first) to the front axes of a reshaped view."""
    t = len(targets)
    axes = [n - 1 - q for q in targets]
    psi = amps.reshape([2] * n)
    psi = np.moveaxis(psi, axes, range(t))
    return psi, psi.shape, axes


def _apply_dense(amps: np.ndarray, n: int, matrix: np.ndarray, targets) -> np.ndarray:
    t = len(targets)
    psi, shape, axes = _subspace_view(amps, n, targets)
    flat = psi.reshape(2 ** t, -1)
    flat = matrix @ flat
    psi = flat.reshape(shape)
    psi = np.moveaxis(psi, range(t), axes)
    return psi.reshape(-1)


def _apply_perm(amps: np.ndarray, n: int, perm, targets) -> np.ndarray:
    t = len(targets)
    psi, shape, axes = _subspace_view(amps, n, targets)
    flat = psi.reshape(2 ** t, -1)
    out = np.empty_like(flat)
    out[np.asarray(perm, dtype=np.int64)] = flat
    psi = out.reshape(shape)
    psi = np.moveaxis(psi, range(t), axes)
    return psi.reshape(-1)


# --- public operations ----------------------------------------------------------

def apply_gate(amps: np.ndarray, n: int, gate: Gate, operator_ok: bool) -> np.ndarray:
    if gate.kind == "ry":
        _apply_1q(amps, gate.qubits[0], _ry_matrix(gate.angle))
    elif gate.kind == "rz":
        _apply_1q(amps, gate.qubits[0], _rz_matrix(gate.angle))
    elif gate.kind == "x":
        _apply_x(amps, gate.qubits[0])
    elif gate.kind == "cx":
        _apply_cx(amps, gate.qubits[0], gate.qubits[1])
    elif not operator_ok:
        raise UnloweredGateError(
            f"{gate.kind} gate is not valid under the gate_exact backend; lower first")
    elif gate.kind == "perm":
        amps = _apply_perm(amps, n, gate.perm, gate.qubits)
    else:
        amps = _apply_dense(amps, n, gate.matrix, gate.qubits)
    return amps


def apply_circuit(sv: StateVector, circuit: Circuit,
                  backend: str = "operator", check_norm: bool = True) -> StateVector:
    """Apply a circuit to a state gate by gate, returning the new state.

    ``gate_exact`` requires a fully lowered circuit. ``operator`` also
    applies PERM and UBLOCK entries directly on their subspaces.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if sv.n != circuit.n_qubits:
        raise ValueError(f"state has {sv.n} qubits, circuit expects {circuit.n_qubits}")
    amps = sv.amplitudes.copy()
    operator_ok = backend == "operator"
    for gate in circuit.gates:
        amps = apply_gate(amps, sv.n, gate, operator_ok)
    if check_norm and abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise ArithmeticError("statevector norm drifted beyond 1e-9")
    return StateVector(amps, sv.n)


def postselect_ancilla(sv: StateVector, qubit: int, outcome: int) -> PostSelectResult:
    """Project a qubit onto an outcome, dropping it from the register.

    Returns the renormalized (n-1)-qubit state and the branch probability
    (the squared norm of the branch before renormalization).
    """
    if not 0 <= qubit < sv.n:
        raise ValueError(f"qubit {qubit} out of range")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    view = sv.amplitudes.reshape(-1, 2, 1 << qubit)
    branch = view[:, outcome, :].reshape(-1)
    probability = float(np.vdot(branch, branch).real)
    if probability <= 0.0:
        raise ValueError(f"zero-probability branch: qubit {qubit} never reads {outcome}")
    return PostSelectResult(StateVector(branch / np.sqrt(probability), sv.n - 1),
                            probability)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 (insensitive to global phase)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def dump_statevector(sv: StateVector, path) -> None:
    """Raw binary dump: little-endian float64 pairs (re, im), 2^(n+1) values."""
    interleaved = np.empty(2 * len(sv.amplitudes), dtype="<f8")
    interleaved[0::2] = sv.amplitudes.real
    interleaved[1::2] = sv.amplitudes.imag
    Path(path).write_bytes(interleaved.tobytes())


def load_statevector(path) -> StateVector:
    """Read a statevector written by :func:`dump_statevector`."""
    raw = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    amps = raw[0::2] + 1j * raw[1::2]
    n = log2_exact(len(amps), "dump length")
    return StateVector(amps, n)
