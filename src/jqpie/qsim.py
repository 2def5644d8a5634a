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

:func:`apply_circuit` applies every gate, once and in order, one pass
over the state each; no gates are fused. An RY is one BLAS matrix product
written back into the state (:func:`_apply_1q`): the 2x2 rotation times
the state's pairs of 2^q-amplitude rows on qubit q >= 4, or the state in
rows of 16 amplitudes times a 16x16 kron(I, R^T, I) on qubits 0..3, whose
2^q-amplitude rows are too short for a fast product. A CX between two of
qubits 0..3 is one product of those rows with a 16x16 permutation; any
other CX swaps two slices of the state. Amplitudes are real float64: RY
and CX map real states to real states, so the signed JPEG coefficients
never need a complex type, and complex input is rejected rather than
cast. Every norm and probability check also fails on NaN.

The pipelines' ``operator`` backend runs neither the state-preparation
cascade nor the decompression here over the whole image state:
:mod:`jqpie.pipeline` takes the normalized coefficients as the loaded
amplitudes, and simulates the decompression once, on a probe register of
one block per loaded slot, to read off its 64 x 2^r per-block operator,
then applies that operator to every block with one matrix product. The
``gate_exact`` pipeline backend runs every gate of the circuit, cascade
included, through :func:`apply_circuit` and is the reference: the cascade
on the image qubits, the decompression with the ancilla joined above them.

A statevector is owned by one simulation at a time; all functions return new
values and distinct simulations share nothing. Each state is copied once: a
:class:`StateVector` built from a caller's array copies it, and the
functions here hand the arrays they make over without another copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-9:   # NaN fails too
        raise ValueError("state is not normalized within 1e-9")
    return StateVector._owning(amps, n)


# --- in-place kernels on raw arrays -------------------------------------------

#: Row width of the one product that applies a gate on the low qubits.
_LOW_WIDTH = 16


@lru_cache(maxsize=None)
def _low_qubit_basis(width: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """I and J, width x width, with J = kron(I, [[0, 1], [-1, 0]], I) on
    bit q: c*I + s*J is kron(I, R^T, I) for the rotation R = [[c, -s],
    [s, c]], the matrix that applies R on bit q of each row it multiplies."""
    index = np.arange(width)
    low = index[index & (1 << q) == 0]
    basis = np.zeros((width, width))
    basis[low, low | (1 << q)] = 1.0
    basis[low | (1 << q), low] = -1.0
    identity = np.eye(width)
    identity.flags.writeable = basis.flags.writeable = False
    return identity, basis


@lru_cache(maxsize=None)
def _low_cx_permutation(width: int, control: int, target: int) -> np.ndarray:
    """The width x width 0/1 matrix P with row @ P = the row after a CX
    on its bits ``control`` and ``target``."""
    index = np.arange(width)
    source = np.where(index >> control & 1, index ^ (1 << target), index)
    permutation = np.zeros((width, width))
    permutation[source, index] = 1.0
    permutation.flags.writeable = False
    return permutation


def _low_rows(amps: np.ndarray) -> np.ndarray:
    """The state as rows of 16 amplitudes, qubits 0..3 (or one row, when
    the state is shorter)."""
    return amps.reshape(-1, min(_LOW_WIDTH, amps.size))


def _apply_1q(amps: np.ndarray, q: int, c: float, s: float) -> None:
    """The rotation R = [[c, -s], [s, c]] on qubit q, as one matrix product
    written back into ``amps``: still one pass over the state per gate.

    On a qubit q >= 4 the state viewed (-1, 2, 2^q) is multiplied by R from
    the left, one product per pair of 2^q-amplitude rows. On a lower qubit
    those rows are too short for a fast product, so the state's rows of 16
    amplitudes (:func:`_low_rows`) are multiplied from the right by
    kron(I, R^T, I) on bit q of a row (:func:`_low_qubit_basis`). Either
    way each new amplitude is c*a - s*b or s*a + c*b of its pair.
    """
    if (1 << q) >= _LOW_WIDTH:
        view = amps.reshape(-1, 2, 1 << q)
        np.matmul(np.array(((c, -s), (s, c))), view, out=view)
        return
    rows = _low_rows(amps)
    identity, basis = _low_qubit_basis(rows.shape[1], q)
    np.matmul(rows, c * identity + s * basis, out=rows)


def _apply_cx(amps: np.ndarray, control: int, target: int) -> None:
    """CX in place, one pass over the state. Between two of the qubits
    0..3 it is one product of the state's rows of 16 amplitudes with a
    permutation matrix (:func:`_low_cx_permutation`), exact because every
    output is one amplitude times 1 plus zeros; otherwise the two slices
    it exchanges are swapped."""
    hi, lo = max(control, target), min(control, target)
    if (1 << hi) < _LOW_WIDTH:
        rows = _low_rows(amps)
        np.matmul(rows, _low_cx_permutation(rows.shape[1], control, target), out=rows)
        return
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


# --- public operations ----------------------------------------------------------

def apply_gate(amps: np.ndarray, gate: Gate) -> None:
    """Apply one RY or CX gate to ``amps`` in place."""
    if gate.kind == "ry":
        half = gate.angle / 2.0
        _apply_1q(amps, gate.qubits[0], math.cos(half), math.sin(half))
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
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-9:   # NaN fails too
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
    if not math.isfinite(probability):
        raise ArithmeticError(f"branch probability is {probability}")
    if probability <= 0.0:
        raise ValueError(f"zero-probability branch: qubit {qubit} never reads {outcome}")
    state = StateVector._owning(branch * (1.0 / np.sqrt(probability)), sv.n - 1)
    return PostSelectResult(state, probability)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """<a|b>^2 (insensitive to the global sign)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
