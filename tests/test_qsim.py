import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jqpie import pipeline, qsim
from jqpie.jpegcore import QuantTable
from jqpie.qcircuit import Circuit, MultiplexedRY, cx, ry
from jqpie.qsim import (StateVector, apply_circuit, basis_state, from_amplitudes,
                        postselect_ancilla, state_fidelity, zero_state)
from jqpie.synth import (BlockEncodedDiag, block_encoded_rescaler, lower_multiplexed_ry,
                         synth_inverse_quantization, synth_state_prep)


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3), 2)
    sv = zero_state(3)
    assert np.linalg.norm(sv.amplitudes) == 1.0
    with pytest.raises(ValueError):
        from_amplitudes(np.ones(4))


def _peak_bytes(make):
    """The value ``make()`` returns and the peak traced allocation while making it."""
    tracemalloc.start()
    try:
        value = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def test_statevector_copies_float_input_once():
    amps = np.zeros(2 ** 16)
    amps[0] = 1.0
    sv, peak = _peak_bytes(lambda: StateVector(amps, 16))
    assert sv.amplitudes.dtype == np.float64
    assert peak <= 1.1 * sv.amplitudes.nbytes


def test_from_amplitudes_copies_input_once():
    amps = np.zeros(2 ** 16)
    amps[0] = 1.0
    sv, peak = _peak_bytes(lambda: from_amplitudes(amps))
    assert sv.amplitudes.dtype == np.float64
    assert peak <= 1.1 * sv.amplitudes.nbytes


def test_apply_circuit_copies_the_state_once():
    sv = from_amplitudes(np.full(2 ** 16, 2.0 ** -8))
    out, peak = _peak_bytes(lambda: apply_circuit(sv, Circuit(16, (cx(15, 0),))))
    assert out.amplitudes.dtype == np.float64
    assert peak <= 1.6 * sv.amplitudes.nbytes


def test_apply_circuit_holds_at_most_one_scratch_state():
    # RYs on both sides of the working layout's short-row threshold, both ends included
    sv = from_amplitudes(np.full(2 ** 16, 2.0 ** -8))
    gates = tuple(ry(q, 0.3) for q in (0, 3, 4, 15))
    _, peak = _peak_bytes(lambda: apply_circuit(sv, Circuit(16, gates)))
    assert peak <= 2.1 * sv.amplitudes.nbytes


def test_apply_circuit_allocates_nothing_per_gate():
    sv = from_amplitudes(np.full(2 ** 16, 2.0 ** -8))
    peaks = [_peak_bytes(lambda: apply_circuit(sv, Circuit(16, tuple(ry(i % 16, 0.1 * i)
                                                                  for i in range(count)))))[1]
             for count in (1, 64)]
    assert peaks[1] <= 1.05 * peaks[0]


@pytest.mark.parametrize("values", [np.array([1.0 + 0j, 0.0]), np.array([0.6, 0.8j]),
                                    [1j, 0.0]], ids=["zero-imag", "array", "list"])
def test_complex_amplitudes_are_rejected(values):
    with pytest.raises(ValueError, match="must be real"):
        StateVector(values, 1)
    with pytest.raises(ValueError, match="must be real"):
        from_amplitudes(values)


def test_from_amplitudes_rejects_empty():
    with np.errstate(all="raise"), pytest.raises(ValueError, match="power of two"):
        from_amplitudes([])


def test_cx_flips_target_when_control_set():
    # |10>: qubit 1 (control) set, qubit 0 (target) clear
    sv = basis_state(2, 0b10)
    out = apply_circuit(sv, Circuit(2, (cx(1, 0),)))
    assert out.amplitudes[0b11] == 1.0
    # control clear: nothing happens
    sv2 = basis_state(2, 0b01)
    out2 = apply_circuit(sv2, Circuit(2, (cx(1, 0),)))
    assert out2.amplitudes[0b01] == 1.0


def test_ry_pi_maps_zero_to_one():
    out = apply_circuit(zero_state(1), Circuit(1, (ry(0, math.pi),)))
    assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-15)


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        apply_circuit(zero_state(2), Circuit(3, (ry(0, 0.1),)))


def _random_state(rng, n):
    vec = rng.standard_normal(2 ** n)
    return vec / np.linalg.norm(vec)


def _applied_steps(monkeypatch):
    """qsim's kernel calls from now on, in order: ("ry", c, s) per rotation
    product, read off the matrix it multiplies by, and ("cx",) per swap."""
    calls = []
    rotate, swap = qsim._rotate, qsim._swap

    def rotating(rows, matrix, out):
        # R = [[c, -s], [s, c]]
        s = matrix[1, 0]
        calls.append(("ry", matrix[0, 0], s))
        rotate(rows, matrix, out)

    def swapping(*args):
        calls.append(("cx",))
        swap(*args)

    monkeypatch.setattr(qsim, "_rotate", rotating)
    monkeypatch.setattr(qsim, "_swap", swapping)
    return calls


def _layout(vec, circuit):
    """The working layout of a run of ``circuit`` on ``vec`` by its rule, as
    the qubit at each memory bit: the qubits a nonzero amplitude sets,
    highest first, then the others in the order the circuit first names
    them, then the rest, highest first."""
    n = circuit.n_qubits
    support = np.flatnonzero(vec)
    order = [q for q in range(n - 1, -1, -1) if any(int(i) >> q & 1 for i in support)]
    named = [q for op in circuit.operations for q in op.qubits]
    for q in named + list(range(n - 1, -1, -1)):
        if q not in order:
            order.append(q)
    return order


def _fewest_exchanges(order):
    """The fewest bit exchanges that make the layout ``order``: n minus the
    number of cycles of the permutation."""
    seen, cycles = set(), 0
    for start in range(len(order)):
        cycles += start not in seen
        q = start
        while q not in seen:
            seen.add(q)
            q = order[q]
    return len(order) - cycles


def _expected_steps(circuit, vec):
    """One kernel call per gate of ``circuit``, in order, with c and s as
    one RY computes them, between the swaps that lay ``vec`` out on entry
    and back on exit, the fewest the layout needs."""
    layout = [("cx",)] * _fewest_exchanges(_layout(vec, circuit))
    steps = [("ry", math.cos(g.angle / 2.0), math.sin(g.angle / 2.0)) if g.kind == "ry"
             else ("cx",) for g in circuit.gates]
    return layout + steps + layout


def test_gate_exact_applies_every_gate_and_never_folds(rng, monkeypatch):
    # one kernel call per gate, in order: no run of gates is fused into one
    # pass, though each multiplexer is applied from its arrays
    vec = rng.standard_normal(2 ** 6)
    circuit = synth_state_prep(vec / np.linalg.norm(vec))
    assert all(isinstance(op, MultiplexedRY) for op in circuit.operations)
    calls = _applied_steps(monkeypatch)
    apply_circuit(zero_state(6), circuit)
    assert calls == _expected_steps(circuit, zero_state(6).amplitudes)


def test_operator_applies_every_elementary_gate_once(monkeypatch):
    # the operator backend's one simulation is the probe its per-block
    # decompression operator is read off: every gate of the circuit, once
    circuit = pipeline._decompression_circuit(9, 3, 1.0)
    inputs = []

    def spy(sv, circuit):
        inputs.append(sv.amplitudes)
        return apply_circuit(sv, circuit)

    monkeypatch.setattr(pipeline, "apply_circuit", spy)
    calls = _applied_steps(monkeypatch)
    pipeline._decompression.__wrapped__(3, 1.0)
    [probe] = inputs
    assert calls == _expected_steps(circuit, probe)


def test_block_encoding_identity_branch():
    diag = block_encoded_rescaler(QuantTable())
    k_max = int(np.argmax(diag.diagonal))   # entry with d_k = 1
    sv = basis_state(7, k_max)              # ancilla (qubit 6) clear
    circuit, _ = synth_inverse_quantization(QuantTable())
    out = apply_circuit(sv, circuit)
    assert out.amplitudes[k_max] == pytest.approx(1.0, abs=1e-12)


def test_block_encoding_all_ones_is_identity(rng):
    trivial = BlockEncodedDiag(np.ones(64), 1.0)
    payload = _random_state(rng, 6)
    amps = np.zeros(128)
    amps[:64] = payload                     # ancilla |0>
    gates = lower_multiplexed_ry(trivial.angles, [5, 4, 3, 2, 1, 0], 6)
    out = apply_circuit(StateVector(amps, 7), Circuit(7, tuple(gates)))
    assert np.max(np.abs(out.amplitudes[:64] - payload)) < 1e-12
    assert np.max(np.abs(out.amplitudes[64:])) < 1e-12


def test_postselect_product_state():
    # ancilla |0> x arbitrary payload: probability 1, payload unchanged
    payload = np.array([0.6, 0.0, 0.0, 0.8])
    amps = np.zeros(8)
    amps[:4] = payload
    result = postselect_ancilla(StateVector(amps, 3), qubit=2, outcome=0)
    assert result.probability == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(result.state.amplitudes, payload)


def test_postselect_balanced_ancilla():
    payload = np.array([1.0, -1.0]) / math.sqrt(2)
    amps = np.concatenate([payload, payload]) / math.sqrt(2)
    result = postselect_ancilla(StateVector(amps, 2), qubit=1, outcome=0)
    assert result.probability == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(result.state.amplitudes, payload)


def test_postselect_probabilities_sum_to_one(rng):
    sv = from_amplitudes(_random_state(rng, 6))
    for qubit in range(6):
        p0 = postselect_ancilla(sv, qubit, 0).probability
        p1 = postselect_ancilla(sv, qubit, 1).probability
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_postselect_zero_probability_branch():
    with pytest.raises(ValueError, match="zero-probability"):
        postselect_ancilla(zero_state(2), qubit=1, outcome=1)


def test_postselect_refuses_a_rounding_level_branch():
    # a branch of amplitude 1e-17 is rounding noise, not a branch to renormalize
    amps = np.array([1.0, 0.0, 1e-17, 0.0])
    with pytest.raises(ValueError, match=r"zero-probability branch: qubit 1 never reads 1 "
                                         r"\(p = 1e-34, at most the rounding floor 1e-12\)"):
        postselect_ancilla(StateVector(amps, 2), qubit=1, outcome=1)
    # the floor is far under any branch a JQPIE run reaches, (10/121)^2
    small = math.sqrt(1e-6)
    result = postselect_ancilla(StateVector([math.sqrt(1 - 1e-6), 0.0, small, 0.0], 2), 1, 1)
    assert result.probability == pytest.approx(1e-6, rel=1e-12)


def test_fidelity_examples(rng):
    sv = from_amplitudes(_random_state(rng, 4))
    assert state_fidelity(sv, sv) == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(basis_state(3, 1), basis_state(3, 5)) == 0.0
    flipped = StateVector(-sv.amplitudes, 4)
    assert state_fidelity(sv, flipped) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        state_fidelity(zero_state(2), zero_state(3))


def test_norm_preserved_over_many_operations(rng):
    sv = from_amplitudes(_random_state(rng, 6))
    for _ in range(1000):
        if rng.integers(2) == 0:
            gate = ry(int(rng.integers(6)), float(rng.uniform(-3, 3)))
        else:
            a, b = rng.choice(6, size=2, replace=False)
            gate = cx(int(a), int(b))
        sv = apply_circuit(sv, Circuit(6, (gate,)))
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) <= 1e-9


# --- the gate kernels against dense kron oracles -----------------------------------

#: RY angles, the edges 0, +-pi and 2 pi among them.
_ANGLES = st.one_of(st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi]),
                    st.floats(-4 * math.pi, 4 * math.pi))
_SEEDS = st.integers(0, 2 ** 32 - 1)


def _ry_oracle(vec, q, theta):
    """RY(theta) on qubit q by a dense kron product on the shorter side of
    q: kron(R, I) on the rows of the state holding qubits q..0, or
    kron(I, R) on its columns above qubit q, so no operator is wider than
    2^7 on 13 qubits."""
    n = len(vec).bit_length() - 1
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rot = np.array([[c, -s], [s, c]])
    if 2 * q < n:
        rows = vec.reshape(-1, 2 ** (q + 1))
        return (rows @ np.kron(rot, np.eye(2 ** q)).T).reshape(-1)
    return (np.kron(np.eye(2 ** (n - 1 - q)), rot) @ vec.reshape(-1, 2 ** q)).reshape(-1)


def _cx_oracle(n, control, target):
    """The dense 2^n x 2^n CX: |0><0| on the control plus |1><1| on the
    control times X on the target, each a kron over qubits n-1..0."""
    def on(ops):
        out = np.ones((1, 1))
        for q in range(n - 1, -1, -1):
            out = np.kron(out, ops.get(q, np.eye(2)))
        return out
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (on({control: np.diag([1.0, 0.0])})
            + on({control: np.diag([0.0, 1.0]), target: x}))


def _one_gate(vec, gate):
    """``vec`` after a circuit of the one gate ``gate``."""
    n = len(vec).bit_length() - 1
    return apply_circuit(StateVector(vec, n), Circuit(n, (gate,))).amplitudes


@given(st.integers(1, 13), _ANGLES, _SEEDS)
def test_ry_kernel_matches_the_kron_oracle_on_every_target(n, theta, seed):
    vec = _random_state(np.random.default_rng(seed), n)
    for q in range(n):
        assert np.max(np.abs(_one_gate(vec, ry(q, theta)) - _ry_oracle(vec, q, theta))) <= 1e-14


@settings(max_examples=20)
@given(st.integers(2, 8), _SEEDS)
def test_cx_kernel_matches_the_kron_oracle_on_every_pair(n, seed):
    vec = _random_state(np.random.default_rng(seed), n)
    for control in range(n):
        for target in range(n):
            if control == target:
                continue
            expected = _cx_oracle(n, control, target) @ vec
            assert np.max(np.abs(_one_gate(vec, cx(control, target)) - expected)) <= 1e-14


def _cx_tensor_oracle(vec, control, target):
    """CX as the dense 4x4 kron(|0><0|, I) + kron(|1><1|, X) on the
    (control, target) axes of the state as an n-axis tensor, axis n-1-q
    holding qubit q: the 2^n x 2^n :func:`_cx_oracle` is too big at 13 qubits."""
    n = len(vec).bit_length() - 1
    op = (np.kron(np.diag([1.0, 0.0]), np.eye(2))
          + np.kron(np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])))
    axes = [n - 1 - control, n - 1 - target]
    front = np.moveaxis(vec.reshape((2,) * n), axes, [0, 1])
    out = (op @ front.reshape(4, -1)).reshape(front.shape)
    return np.moveaxis(out, [0, 1], axes).reshape(-1)


@pytest.mark.parametrize("n", range(1, 14))
@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, edge=st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi]))
def test_random_circuits_match_the_kron_oracle(n, seed, edge):
    # every target and every ordered CX pair, in a random order; each
    # parity of n runs the in-place layout reversal with and without a middle bit
    rng = np.random.default_rng(seed)
    angles = np.append(rng.uniform(-4 * math.pi, 4 * math.pi, n - 1), edge)
    gates = [ry(q, a) for q, a in zip(range(n), rng.permutation(angles))]
    gates += [cx(c, t) for c in range(n) for t in range(n) if c != t]
    gates = [gates[i] for i in rng.permutation(len(gates))]
    vec = _random_state(rng, n)
    out = apply_circuit(StateVector(vec, n), Circuit(n, tuple(gates))).amplitudes
    assert np.max(np.abs(out - _oracle_run(vec, gates))) <= 1e-13


def _oracle_run(vec, gates):
    """``vec`` after ``gates``, one dense kron oracle per gate."""
    for gate in gates:
        vec = (_ry_oracle(vec, gate.qubits[0], gate.angle) if gate.kind == "ry"
               else _cx_tensor_oracle(vec, *gate.qubits))
    return vec


def _every_gate(rng, n):
    """An RY on every qubit and a CX on every ordered pair, in a random order."""
    gates = [ry(q, float(a)) for q, a in zip(range(n), rng.uniform(-4 * math.pi, 4 * math.pi, n))]
    gates += [cx(c, t) for c in range(n) for t in range(n) if c != t]
    return [gates[i] for i in rng.permutation(len(gates))]


def _permuted(vec, order):
    """``vec`` laid out as ``order`` and, second, laid back: the entry and
    exit exchanges of :func:`~jqpie.qsim.apply_circuit`, through a scratch
    array."""
    amps, other = vec.copy(), np.empty(len(vec))
    pairs = qsim._transpositions(order)
    qsim._swap_bits(amps, pairs, other)
    entry = amps.copy()
    qsim._swap_bits(amps, pairs[::-1], other)
    return entry, amps, len(pairs)


def _transposed(vec, order):
    """``vec`` with qubit order[b] at bit b, by a transpose of its n axes,
    axis n-1-q holding qubit q."""
    n = len(order)
    axes = [n - 1 - order[n - 1 - axis] for axis in range(n)]
    return vec.reshape((2,) * n).transpose(axes).reshape(-1)


@pytest.mark.parametrize("n", range(1, 14))
def test_qubit_order_reversal_matches_a_transpose_and_undoes_itself(n):
    vec = np.arange(2.0 ** n)
    order = list(range(n - 1, -1, -1))
    entry, back, swaps = _permuted(vec, order)
    assert np.array_equal(entry, vec.reshape((2,) * n).transpose().reshape(-1))
    assert np.array_equal(back, vec) and swaps == n // 2
    # its exchanges are disjoint, so the entry exchanges undo themselves
    amps, other = entry.copy(), np.empty(2 ** n)
    qsim._swap_bits(amps, qsim._transpositions(order), other)
    assert np.array_equal(amps, vec)


@pytest.mark.parametrize("n", range(1, 14))
def test_bit_permutation_matches_a_transpose_and_exit_undoes_entry(n):
    # random layouts, in place through half of the scratch array, with the
    # fewest exchanges each
    rng = np.random.default_rng(n)
    vec = np.arange(2.0 ** n)
    for _ in range(4):
        order = [int(q) for q in rng.permutation(n)]
        entry, back, swaps = _permuted(vec, order)
        assert np.array_equal(entry, _transposed(vec, order))
        assert np.array_equal(back, vec)
        assert swaps == _fewest_exchanges(order)


# --- the live prefix: each gate on the amplitudes it can reach ---------------------

def _low_prefix_state(rng, n, live):
    """A random unit state whose nonzero amplitudes set qubits n-live..n-1,
    which the working layout puts at memory bits live-1..0, so its
    amplitudes at index >= 2^live are 0."""
    vec = np.zeros(2 ** n)
    vec[::2 ** (n - live)] = rng.standard_normal(2 ** live)
    return vec / np.linalg.norm(vec)


def _support_state(rng, n, qubits):
    """A random unit state whose nonzero amplitudes set exactly ``qubits``."""
    vec = np.zeros(2 ** n)
    index = np.zeros(1, dtype=np.int64)
    for q in qubits:
        index = np.concatenate([index, index + (1 << q)])
    vec[index] = rng.uniform(0.5, 1.0, len(index)) * rng.choice([-1.0, 1.0], len(index))
    return vec / np.linalg.norm(vec)


def _working_live_bits(vec, circuit):
    """The live prefix of ``vec`` laid out for ``circuit``, and whether the
    entry exchanges leave a nonzero value in the scratch array above it."""
    order, live = qsim._layout(vec, circuit)
    assert order == _layout(vec, circuit)
    amps, other = vec.copy(), np.zeros(len(vec))
    qsim._swap_bits(amps, qsim._transpositions(order), other)
    assert not amps[1 << live:].any() and (live == 0 or amps[1 << (live - 1):].any())
    return live, bool(other[1 << live:].any())


@pytest.mark.parametrize("n", range(1, 11))
def test_low_prefix_inputs_match_the_kron_oracle(n):
    # zero_state, basis states, states with every live prefix and states
    # whose nonzero amplitudes set a random set of qubits, under an RY on
    # every qubit and a CX on every pair in a random order
    rng = np.random.default_rng(n)
    states = [zero_state(n).amplitudes, basis_state(n, int(rng.integers(2 ** n))).amplitudes]
    states += [_low_prefix_state(rng, n, live) for live in range(n + 1)]
    sets = [sorted(int(q) for q in rng.choice(n, size=k, replace=False)) for k in range(n + 1)]
    states += [_support_state(rng, n, qubits) for qubits in sets]
    live = [_working_live_bits(v, Circuit(n))[0] for v in states[2:]]
    assert live == list(range(n + 1)) * 2
    for vec in states:
        gates = _every_gate(rng, n)
        out = apply_circuit(StateVector(vec, n), Circuit(n, tuple(gates))).amplitudes
        assert np.max(np.abs(out - _oracle_run(vec, gates))) <= 1e-13


def test_gates_first_touching_a_high_bit_late_match_the_kron_oracle():
    # from |0...0> the prefix is one entry; RYs on qubits 7 and 6 grow it
    # to memory bits 0..1, one on qubit 2 to bit 5, a CX whose control,
    # qubit 0 at bit 7, reads 0 to the whole state without moving an
    # amplitude, and the gates after it move amplitudes into the new part;
    # the state after every gate is checked
    n = 8
    gates = [ry(7, 0.9), ry(6, -1.3), ry(2, 2.1), cx(0, 7), cx(2, 4), cx(6, 0),
             ry(0, 0.4), cx(0, 3), ry(3, -2.5)]
    for count in range(1, len(gates) + 1):
        head = gates[:count]
        vec = zero_state(n).amplitudes
        out = apply_circuit(zero_state(n), Circuit(n, tuple(head))).amplitudes
        assert np.max(np.abs(out - _oracle_run(vec, head))) <= 1e-14


@pytest.mark.parametrize("target_bit", [0, 2, 3, 5])
def test_a_multiplexer_grows_the_prefix_as_its_expansion(target_bit):
    # the prefix just covers the target; controls above it are first
    # reached by a CX of the chain. The multiplexer grows the prefix to
    # them at its start, where its expansion grows it at that CX; an RY's
    # bits do not depend on the prefix it runs on, and the chain moves only
    # zeros above the expansion's prefix, so both give the same bits and
    # the oracle's state
    n = 10
    target = n - 1 - target_bit
    for seed in range(3):
        rng = np.random.default_rng([target_bit, seed])
        controls = [int(q) for q in rng.permutation([q for q in range(n) if q != target])[:3]]
        op = lower_multiplexed_ry(rng.uniform(-3, 3, 8), controls, target, tag="state_prep")
        vec = _low_prefix_state(rng, n, target_bit + 1)
        sv = StateVector(vec, n)
        as_op = apply_circuit(sv, Circuit(n, (op,))).amplitudes
        assert np.array_equal(as_op, apply_circuit(sv, Circuit(n, tuple(op))).amplitudes)
        assert np.max(np.abs(as_op - _oracle_run(vec, list(op)))) <= 1e-14


def test_a_multiplexer_makes_its_views_once_on_the_grown_prefix(monkeypatch):
    # the input sets only qubit 9, at memory bit 0; the controls 0, 3 and 5
    # are laid out at bits 1..3, so the chain's views span 2^4 amplitudes
    # from its start: pair rows per buffer and two CX slices per control
    # and buffer, each made once
    n = 10
    op = lower_multiplexed_ry(np.linspace(-2, 2, 8), [0, 3, 5], 9, tag="state_prep")
    vec = _low_prefix_state(np.random.default_rng(4), n, 1)
    views = []
    pair_rows, cx_slices = qsim._pair_rows, qsim._cx_slices

    def rows_of(amps, bit):
        views.append(("rows", amps.size))
        return pair_rows(amps, bit)

    def slices_of(amps, control, target):
        views.append(("cx", amps.size))
        return cx_slices(amps, control, target)

    monkeypatch.setattr(qsim, "_pair_rows", rows_of)
    monkeypatch.setattr(qsim, "_cx_slices", slices_of)
    out = apply_circuit(StateVector(vec, n), Circuit(n, (op,))).amplitudes
    assert views == [("rows", 16)] * 2 + [("cx", 16)] * 6
    assert np.max(np.abs(out - _oracle_run(vec, list(op)))) <= 1e-14


@pytest.mark.parametrize("bit", range(8))
def test_an_ry_gives_the_same_bits_on_every_prefix(bit):
    # an RY on memory bit ``bit`` of a state that is zero above 2^L, run on
    # the live prefix L and on the whole register: the product rounds each
    # pair alone, so the number of rows it multiplies moves no bit
    n = 12
    bits = list(range(n))
    gate = ry(bit, 0.7 + bit)
    for live in range(bit + 1, n + 1):
        rng = np.random.default_rng([bit, live])
        vec = np.zeros(2 ** n)
        vec[:1 << live] = rng.standard_normal(1 << live)
        outs = []
        for prefix in (live, n):
            buffers = (vec.copy(), np.zeros(2 ** n))
            current, _ = qsim._apply_gate(buffers, 0, prefix, gate, bits)
            outs.append(buffers[current][:1 << live])
        assert np.array_equal(*outs), (bit, live)


def test_the_scratch_array_reads_no_stale_value_above_the_prefix():
    # (|1> + |2>)/sqrt(2) sets qubits 1 and 0, which the entry exchange of
    # memory bits 0 and 1 lays out in the 2^2-entry prefix; it leaves the
    # amplitude of |1> in the scratch array above the prefix. An RY inside
    # the prefix hands that array the state, and an RY on memory bit 2
    # then reads it
    vec = (basis_state(4, 1).amplitudes + basis_state(4, 2).amplitudes) / math.sqrt(2)
    circuit = Circuit(4, (ry(1, 0.7), ry(2, 1.1)))
    assert _layout(vec, circuit) == [1, 0, 2, 3]
    assert _working_live_bits(vec, circuit) == (2, True)
    out = apply_circuit(StateVector(vec, 4), circuit).amplitudes
    assert np.max(np.abs(out - _oracle_run(vec, list(circuit.gates)))) <= 1e-15


# --- non-finite values never pass a check -------------------------------------------

def test_apply_circuit_rejects_a_kernel_that_writes_nan(monkeypatch):
    monkeypatch.setattr(qsim, "_rotate", lambda rows, matrix, out: out.fill(np.nan))
    with pytest.raises(ArithmeticError, match="norm drifted"):
        apply_circuit(zero_state(3), Circuit(3, (ry(0, 0.5),)))
    with pytest.raises(ArithmeticError, match="norm drifted"):
        apply_circuit(StateVector([np.nan, 0.0], 1), Circuit(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_amplitudes_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="not normalized"):
        from_amplitudes([bad, 0.0])


def test_postselect_rejects_a_nan_branch():
    with pytest.raises(ArithmeticError, match="branch probability is nan"):
        postselect_ancilla(StateVector([np.nan, 0.0, 0.0, 0.0], 2), qubit=1, outcome=0)
