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

:func:`apply_circuit` applies every gate, once and in order, one kernel call
each, over the amplitudes the gate can reach; no gate is fused or
relabelled. While a circuit runs the state is held in a working layout
(:func:`_layout`): first the qubits some nonzero amplitude of the input
sets, highest first; then the others in the order the circuit first names
them, an operation its controls before its target; last, highest first,
those it never names. It is made in place on entry and undone on exit by the
fewest exchanges of two memory bits, each one slice swap
(:func:`_swap_bits`). A dense input is held bit-reversed, so the data
register has long contiguous pair rows. An RY is one matrix product written
into a scratch state (:func:`_rotate`): the 2x2 rotation times each pair of
2^k-amplitude rows on memory bit k, whatever k is. The scratch array is made
once per circuit that rotates, and the two arrays swap roles after each RY.
A CX swaps two quarter-state slices in place, through two quarters of the
array that does not hold the state (:func:`_swap`), so no gate allocates. A
multiplexer (:class:`~jqpie.qcircuit.MultiplexedRY`) is applied from its
arrays (:func:`_apply_multiplexer`): its rotation matrices, with c and s
computed as for one RY, and its views of both arrays are made once, then its
RYs and CXs run one by one, in chain order, through the same two kernels.

Work follows the state's support. The live prefix is the smallest L such
that every amplitude at index >= 2^L is exactly 0: at entry, the number of
qubits the input sets. Each gate runs on the first 2^L' entries of both
arrays, L' the larger of L and the gate's highest memory bit plus one, which
is the prefix of the gates after it. Both arrays are zero above the prefix
(the scratch array is zeroed there after the entry exchanges), so no gate
reads a stale value. A cascade run from |0...0> puts layer k's target at
memory bit k, so that layer runs on 2^(k+1) amplitudes, and the qubits it
never names stay above the prefix. A multiplexer grows the prefix once, when
it starts, to its highest memory bit, as one gate does. An RY's bits do not
depend on the number of rows it multiplies, so in one layout a multiplexer
and its expansion give the same state bit for bit. Amplitudes are real
float64: RY and CX map real states to real states, so the signed JPEG
coefficients never need a complex type, and complex input is rejected rather
than cast. Every norm and probability check also fails on NaN, and
post-selection refuses a branch whose probability is rounding noise
(:data:`MIN_BRANCH_PROBABILITY`).

The pipelines' ``operator`` backend runs neither the state-preparation
cascade nor the decompression here over the whole image state:
:mod:`jqpie.pipeline` takes the normalized coefficients as the loaded
amplitudes, and simulates the decompression once, on a probe register of
one block per loaded slot, to read off its 64 x 2^r per-block operator,
whose diagonal then weights a classical inverse DCT of every block. The
``gate_exact`` backend is the reference: it runs the circuit that export
writes, the cascade from |0...0> and then the decompression, through
:func:`apply_circuit`.

A statevector is owned by one simulation at a time; all functions return new
values and distinct simulations share nothing. Each state is copied once: a
:class:`StateVector` built from a caller's array copies it, and the
functions here hand the arrays they make over without another copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .imagio import _Handover, _owned
from .qcircuit import Circuit, Gate, MultiplexedRY


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

def _held(other: np.ndarray, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two buffers a swap of ``like`` (a quarter-state slice) and its
    partner passes through: the first two quarters of ``other``, the
    working array not holding the state, in the slice's shape."""
    size = like.size
    return other[:size].reshape(like.shape), other[size:2 * size].reshape(like.shape)


def _swap(a: np.ndarray, b: np.ndarray, held_a: np.ndarray, held_b: np.ndarray) -> None:
    """Exchange the contents of two disjoint views of one array through two
    buffers of their shape. Both are read out first: numpy assigns a view
    of an array to another view of it through a temporary copy of its own."""
    held_a[...] = a
    held_b[...] = b
    a[...] = held_b
    b[...] = held_a


def _layout(amps: np.ndarray, circuit: Circuit) -> tuple[list[int], int]:
    """The working layout of a run of ``circuit`` on the state ``amps``: the
    qubit at each memory bit, as the module describes it, and the live
    prefix, the number of qubits some nonzero amplitude sets."""
    n = amps.size.bit_length() - 1
    occupied = int(np.bitwise_or.reduce(np.flatnonzero(amps)))
    live = [q for q in range(n - 1, -1, -1) if occupied >> q & 1]
    named = (q for op in circuit.operations for q in op.qubits)
    return list(dict.fromkeys(chain(live, named, range(n - 1, -1, -1)))), len(live)


def _transpositions(order: list[int]) -> list[tuple[int, int]]:
    """The fewest memory bit pairs (low, high) whose exchanges, in turn,
    take each qubit q from memory bit q to the bit b with ``order[b]`` = q:
    n // 2 for the reversal. Exchanged in reverse order, they undo it."""
    at = list(range(len(order)))   # the qubit at each memory bit
    pairs = []
    for low, qubit in enumerate(order):
        high = at.index(qubit)
        if high != low:
            pairs.append((low, high))
            at[low], at[high] = qubit, at[low]
    return pairs


def _swap_bits(amps: np.ndarray, pairs: list[tuple[int, int]], other: np.ndarray) -> None:
    """Exchange memory bits low < high of each pair in turn, in place: one
    slice swap through half of ``other`` (:func:`_held`) per pair."""
    for low, high in pairs:
        view = amps.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
        a, b = view[:, 1, :, 0, :], view[:, 0, :, 1, :]
        _swap(a, b, *_held(other, a))


def _cx_slices(amps: np.ndarray, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """The two quarter-state slices a CX on memory bits ``control`` and
    ``target`` exchanges: control set, target clear and set."""
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(-1, 2, 1 << (hi - lo) >> 1, 2, 1 << lo)
    if control == hi:
        return view[:, 1, :, 0, :], view[:, 1, :, 1, :]
    return view[:, 0, :, 1, :], view[:, 1, :, 1, :]


def _pair_rows(amps: np.ndarray, bit: int) -> np.ndarray:
    """The view of a state an RY on memory bit ``bit`` multiplies: its pairs
    of 2^bit-amplitude rows, (-1, 2, 2^bit)."""
    return amps.reshape(-1, 2, 1 << bit)


def _ry_matrices(halves: list[float]) -> np.ndarray:
    """The rotation R = [[c, -s], [s, c]] of each half-angle, with c and s
    from ``math.cos`` and ``math.sin``, as one (N, 2, 2) array."""
    c = np.array([math.cos(half) for half in halves])
    s = np.array([math.sin(half) for half in halves])
    matrices = np.empty((len(halves), 2, 2))
    matrices[:, 0, 0] = matrices[:, 1, 1] = c
    matrices[:, 0, 1] = -s
    matrices[:, 1, 0] = s
    return matrices


def _rotate(rows: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> None:
    """One RY, one matrix product and one pass over the state, written into
    ``out``: R times each pair of rows (:func:`_pair_rows`), so each new
    amplitude is c*a - s*b or s*a + c*b of its pair, whatever the number
    of rows."""
    np.matmul(matrix, rows, out=out)


def _apply_gate(buffers: tuple[np.ndarray, np.ndarray], current: int, live: int,
                gate: Gate, bits: list[int]) -> tuple[int, int]:
    """Apply one gate to the state in ``buffers[current]``, in the working
    layout (qubit q at memory bit ``bits[q]``), and return which buffer holds
    the state after it and the live prefix after it: an RY writes its
    product into the other buffer, a CX swaps in place through half of the
    other (:func:`_held`). Either acts on the first 2^L' entries of both
    buffers, L' the larger of ``live`` and the gate's highest memory bit
    plus one; every amplitude above them is 0 and stays 0."""
    amps, other = buffers[current], buffers[1 - current]
    memory = [bits[q] for q in gate.qubits]
    if live < len(bits):   # part of the state is still zero: act on the prefix
        live = max(live, max(memory) + 1)
        amps, other = amps[:1 << live], other[:1 << live]
    if gate.kind == "cx":
        a, b = _cx_slices(amps, *memory)
        _swap(a, b, *_held(other, a))
        return current, live
    bit = memory[0]
    _rotate(_pair_rows(amps, bit), _ry_matrices([gate.angle / 2.0])[0], _pair_rows(other, bit))
    return 1 - current, live


def _apply_multiplexer(buffers: tuple[np.ndarray, np.ndarray], current: int, live: int,
                       op: MultiplexedRY, bits: list[int]) -> tuple[int, int]:
    """Apply a multiplexer's chain from its arrays, gate by gate, as
    :func:`_apply_gate` would apply its expansion, and return which buffer
    holds the state after it and the live prefix after it.

    The prefix grows once, at the start, to the highest memory bit of the
    target and controls, as for one gate. The rotation matrices
    (:func:`_ry_matrices`), the target's pair rows and each control's two
    CX slices and held buffers are made once. Then every kept RY is one
    :func:`_rotate` and every CX one :func:`_swap`, in chain order. An RY's
    bits do not depend on the prefix it runs on, and above the expansion's
    prefix the chain moves only zeros, so in one layout the two give the
    same state bit for bit.
    """
    if not len(op):
        return current, live
    bit = bits[op.target]
    controls = [bits[c] for c in op.controls]
    live = max(live, max([bit, *controls]) + 1)
    prefix = [b[:1 << live] for b in buffers]
    # the state stays in one buffer when the chain rotates nothing
    holders = (0, 1) if op.rotations else (current,)
    rows = {i: _pair_rows(prefix[i], bit) for i in holders}
    swaps = {}
    for control in controls:
        for i in holders:
            a, b = _cx_slices(prefix[i], control, bit)
            swaps[control, i] = (a, b, *_held(prefix[1 - i], a))
    matrices = iter(_ry_matrices((op.angles[op.kept] / 2.0).tolist()))
    steps = len(op.angles)
    links = np.asarray(bits)[op.links(0, steps)].tolist() if op.controls else [None] * steps
    for kept, link in zip(op.kept.tolist(), links):
        if kept:
            _rotate(rows[current], next(matrices), rows[1 - current])
            current = 1 - current
        if link is not None:
            _swap(*swaps[link, current])
    return current, live


# --- public operations ----------------------------------------------------------

def apply_circuit(sv: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit to a state gate by gate, returning the new state.

    Raises ArithmeticError if the norm drifts beyond 1e-9.
    """
    if sv.n != circuit.n_qubits:
        raise ValueError(f"state has {sv.n} qubits, circuit expects {circuit.n_qubits}")
    order, live = _layout(sv.amplitudes, circuit)
    bits = np.argsort(order).tolist()   # the memory bit of each qubit
    amps = sv.amplitudes.copy()
    rotates = any(op.rotations if isinstance(op, MultiplexedRY) else op.kind == "ry"
                  for op in circuit.operations)
    # a state-sized scratch array for the RYs, else half of one for the swaps
    buffers = (amps, np.empty(amps.size if rotates else amps.size // 2))
    pairs = _transpositions(order)
    _swap_bits(amps, pairs, buffers[1])
    buffers[1][1 << live:] = 0.0   # both buffers stay zero above the live prefix
    current = 0
    for op in circuit.operations:
        if isinstance(op, MultiplexedRY):
            current, live = _apply_multiplexer(buffers, current, live, op, bits)
        else:
            current, live = _apply_gate(buffers, current, live, op, bits)
    amps = buffers[current]
    _swap_bits(amps, pairs[::-1], buffers[1 - current])
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-9:   # NaN fails too
        raise ArithmeticError("statevector norm drifted beyond 1e-9")
    return StateVector._owning(amps, sv.n)


#: Branch probabilities at or below this are rounding noise, not a branch.
#: An RY/CX circuit never leaves an exactly empty branch in float64: a
#: rescaler of RY(pi) alone, which flips the ancilla, leaves an ancilla-0
#: branch of p about 4e-33. Every branch a JQPIE run can reach has p at
#: least the smallest d_f^2 = (10/121)^2, about 6.8e-3, at any scale.
MIN_BRANCH_PROBABILITY = 1e-12


def _refuse_empty_branch(probability: float, qubit: int, outcome: int) -> None:
    """Raise ValueError for a branch probability at or below
    :data:`MIN_BRANCH_PROBABILITY`."""
    if probability <= MIN_BRANCH_PROBABILITY:
        raise ValueError(f"zero-probability branch: qubit {qubit} never reads {outcome} "
                         f"(p = {probability:.3g}, at most the rounding floor "
                         f"{MIN_BRANCH_PROBABILITY:g})")


def postselect_ancilla(sv: StateVector, qubit: int, outcome: int) -> PostSelectResult:
    """Project a qubit onto an outcome, dropping it from the register.

    Returns the renormalized (n-1)-qubit state and the branch probability
    (the squared norm of the branch before renormalization). A branch at
    rounding level (:data:`MIN_BRANCH_PROBABILITY`) is refused.
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
    _refuse_empty_branch(probability, qubit, outcome)
    state = StateVector._owning(branch * (1.0 / np.sqrt(probability)), sv.n - 1)
    return PostSelectResult(state, probability)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """<a|b>^2 (insensitive to the global sign)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
