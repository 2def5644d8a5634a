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
over the state each; no gate is fused or relabelled. While a circuit runs
the state is held in a working layout with the bit order reversed, qubit q
at memory bit n-1-q (:func:`_reverse_qubit_order`, n//2 slice swaps in
place on entry and again on exit), so the low qubits, which carry most of
the state-preparation cascade and the whole data register, have long
contiguous pair rows. An RY is one BLAS matrix product written into a
scratch state (:func:`_apply_ry`): the 2x2 rotation times each pair of
2^k-amplitude rows on memory bit k >= 4, or the state's rows of 2^(k+1)
amplitudes times kron(R^T, I) on the short rows of memory bits 0..3. The
scratch array is made at a circuit's first RY, and the two arrays swap
roles after each RY, so no RY allocates a state. A CX swaps two
quarter-state slices in place. Amplitudes are real float64: RY and CX map real
states to real states, so the signed JPEG coefficients never need a
complex type, and complex input is rejected rather than cast. Every norm
and probability check also fails on NaN.

The pipelines' ``operator`` backend runs neither the state-preparation
cascade nor the decompression here over the whole image state:
:mod:`jqpie.pipeline` takes the normalized coefficients as the loaded
amplitudes, and simulates the decompression once, on a probe register of
one block per loaded slot, to read off its 64 x 2^r per-block operator,
whose diagonal then weights a classical inverse DCT of every block. The
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


# --- kernels on the working layout ---------------------------------------------

#: Pair rows shorter than 2^_SHORT_BITS amplitudes are too short for a fast
#: product of the 2x2 rotation with each pair.
_SHORT_BITS = 4


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    """Exchange the contents of two disjoint views of one array."""
    held = a.copy()
    a[...] = b
    b[...] = held


def _reverse_qubit_order(amps: np.ndarray, n: int) -> None:
    """Reverse the bit order of the state's index in place, so the amplitude
    of qubit q moves from memory bit q to memory bit n-1-q: one slice swap
    per bit pair (b, n-1-b), b < n // 2, exchanging the amplitudes whose two
    bits differ. The pairs are disjoint, so this is its own inverse."""
    for low in range(n // 2):
        view = amps.reshape(-1, 2, 1 << (n - 2 - 2 * low), 2, 1 << low)
        _swap(view[:, 1, :, 0, :], view[:, 0, :, 1, :])


@lru_cache(maxsize=None)
def _short_pair_basis(bit: int) -> tuple[np.ndarray, np.ndarray]:
    """I and J, 2^(bit+1) square, with J = kron([[0, 1], [-1, 0]], I):
    c*I + s*J is kron(R^T, I) for the rotation R = [[c, -s], [s, c]], the
    matrix that applies R to memory bit ``bit`` of each row it multiplies."""
    basis = np.kron(np.array(((0.0, 1.0), (-1.0, 0.0))), np.eye(1 << bit))
    identity = np.eye(2 << bit)
    identity.flags.writeable = basis.flags.writeable = False
    return identity, basis


def _apply_ry(amps: np.ndarray, out: np.ndarray, bit: int, c: float, s: float) -> None:
    """The rotation R = [[c, -s], [s, c]] on memory bit ``bit`` of ``amps``,
    written into ``out``: one matrix product, one pass over the state.

    With bit >= 4 the state viewed (-1, 2, 2^bit) is multiplied by R from
    the left, one product per pair of 2^bit-amplitude rows. On a lower bit
    those rows are too short for a fast product, so the state's rows of
    2^(bit+1) amplitudes are multiplied from the right by kron(R^T, I)
    (:func:`_short_pair_basis`). Either way each new amplitude is c*a - s*b
    or s*a + c*b of its pair.
    """
    if bit >= _SHORT_BITS:
        rows = amps.reshape(-1, 2, 1 << bit)
        np.matmul(np.array(((c, -s), (s, c))), rows, out=out.reshape(rows.shape))
        return
    identity, basis = _short_pair_basis(bit)
    rows = amps.reshape(-1, 2 << bit)
    np.matmul(rows, c * identity + s * basis, out=out.reshape(rows.shape))


def _apply_cx(amps: np.ndarray, control: int, target: int) -> None:
    """CX on memory bits ``control`` and ``target`` in place, one pass over
    the state: the slices with the control set and the target clear or set
    are swapped."""
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(-1, 2, 1 << (hi - lo) >> 1, 2, 1 << lo)
    if control == hi:
        _swap(view[:, 1, :, 0, :], view[:, 1, :, 1, :])
    else:
        _swap(view[:, 0, :, 1, :], view[:, 1, :, 1, :])


def _apply_gate(amps: np.ndarray, spare: np.ndarray | None,
                gate: Gate) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply one gate to a state in the working layout (qubit q at memory
    bit n-1-q), with ``spare`` a state-sized scratch array or None.

    Returns (state, scratch): an RY writes its product into the scratch
    array, made here on the first RY, and the two swap roles; a CX works in
    place.
    """
    top = amps.size.bit_length() - 2   # n - 1
    if gate.kind == "cx":
        _apply_cx(amps, top - gate.qubits[0], top - gate.qubits[1])
        return amps, spare
    if spare is None:
        spare = np.empty_like(amps)
    half = gate.angle / 2.0
    _apply_ry(amps, spare, top - gate.qubits[0], math.cos(half), math.sin(half))
    return spare, amps


# --- public operations ----------------------------------------------------------

def apply_circuit(sv: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit to a state gate by gate, returning the new state.

    Raises ArithmeticError if the norm drifts beyond 1e-9.
    """
    if sv.n != circuit.n_qubits:
        raise ValueError(f"state has {sv.n} qubits, circuit expects {circuit.n_qubits}")
    amps, spare = sv.amplitudes.copy(), None
    _reverse_qubit_order(amps, sv.n)
    for gate in circuit.gates:
        amps, spare = _apply_gate(amps, spare, gate)
    del spare   # freed before the conversion back makes its temporaries
    _reverse_qubit_order(amps, sv.n)
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
