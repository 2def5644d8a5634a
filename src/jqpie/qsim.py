"""Dense real statevector simulation of RY/CX circuits.

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

:func:`apply_circuit` applies every gate, one pass over the state each.
Amplitudes are real float64: RY and CX map real states to real states, so
the signed JPEG coefficients never need a complex type, and complex input
is rejected rather than cast.

The pipelines' ``operator`` backend runs neither the state-preparation
cascade nor the decompression here over the whole image state:
:mod:`jqpie.pipeline` takes the normalized coefficients as the loaded
amplitudes, and simulates the decompression once, on a probe register of
one block per loaded slot, to read off its 64 x 2^r per-block operator,
then applies that operator to every block with one matrix product. The
``gate_exact`` pipeline backend runs the full gate-level circuit, cascade
included, through :func:`apply_circuit` and is the reference.

A statevector is owned by one simulation at a time; all functions return new
values and distinct simulations share nothing. Each state is copied once: a
:class:`StateVector` built from a caller's array copies it, and the
functions here hand the arrays they make over without another copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imagio import _Handover, _owned
from .qcircuit import Circuit, Gate


def _real_copy(values) -> np.ndarray:
    """A float64 copy of ``values``; complex input is an error, never cast."""
    if np.iscomplexobj(values):
        raise ValueError("amplitudes must be real, got complex input")
    return np.array(values, dtype=np.float64)


@dataclass(frozen=True)
class StateVector:
    """Real amplitudes over 2^n basis states (qubit 0 = LSB), read-only.

    The amplitudes are a float64 copy of the given values; complex values
    raise ValueError.
    """

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        amps = _owned(self.amplitudes, _real_copy)
        if amps.shape != (2 ** self.n,):
            raise ValueError(f"expected 2^{self.n} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _owning(cls, amps: np.ndarray, n: int) -> "StateVector":
        """Take over a float64 array the caller just made, without copying it.

        The caller must keep no reference through which it could write.
        """
        return cls(_Handover(amps), n)


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
    return basis_state(n, 0)


def basis_state(n: int, index: int) -> StateVector:
    amps = np.zeros(2 ** n)
    amps[index] = 1.0
    return StateVector._owning(amps, n)


def from_amplitudes(vector) -> StateVector:
    """A unit-norm state from a real vector of power-of-two length."""
    amps = _real_copy(vector)
    n = log2_exact(len(amps), "amplitude count")
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise ValueError("state is not normalized within 1e-9")
    return StateVector._owning(amps, n)


# --- in-place kernels on raw arrays -------------------------------------------

def _apply_1q(amps: np.ndarray, q: int, mat) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = mat[0][0] * a0 + mat[0][1] * a1
    view[:, 1, :] = mat[1][0] * a0 + mat[1][1] * a1


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


# --- public operations ----------------------------------------------------------

def apply_gate(amps: np.ndarray, gate: Gate) -> None:
    """Apply one RY or CX gate to ``amps`` in place."""
    if gate.kind == "ry":
        _apply_1q(amps, gate.qubits[0], _ry_matrix(gate.angle))
    else:
        _apply_cx(amps, gate.qubits[0], gate.qubits[1])


def apply_circuit(sv: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit to a state gate by gate, returning the new state.

    Raises ArithmeticError if the norm drifts beyond 1e-9.
    """
    if sv.n != circuit.n_qubits:
        raise ValueError(f"state has {sv.n} qubits, circuit expects {circuit.n_qubits}")
    amps = sv.amplitudes.copy()
    for gate in circuit.gates:
        apply_gate(amps, gate)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise ArithmeticError("statevector norm drifted beyond 1e-9")
    return StateVector._owning(amps, sv.n)


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
    probability = float(np.vdot(branch, branch))
    if probability <= 0.0:
        raise ValueError(f"zero-probability branch: qubit {qubit} never reads {outcome}")
    state = StateVector._owning(branch * (1.0 / np.sqrt(probability)), sv.n - 1)
    return PostSelectResult(state, probability)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """<a|b>^2 (insensitive to the global sign)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
