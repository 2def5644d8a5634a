import math
import tracemalloc

import numpy as np
import pytest

from jqpie import qsim
from jqpie.jpegcore import QuantTable, dct_matrix
from jqpie.qcircuit import Circuit, Gate, UnloweredGateError, cx, ry
from jqpie.qsim import (StateVector, apply_circuit, apply_gate, basis_state,
                        from_amplitudes, postselect_ancilla, state_fidelity, zero_state)
from jqpie.synth import (BlockEncodedDiag, block_encoded_rescaler, lower_circuit,
                         lower_multiplexed_ry, synth_inverse_quantization, synth_state_prep)


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


def test_gate_exact_rejects_operator_gates():
    circ = Circuit(3, (Gate("ublock", (2, 1, 0), matrix=np.eye(8)),))
    with pytest.raises(UnloweredGateError, match="ublock gate is not valid"):
        apply_circuit(zero_state(3), circ, backend="gate_exact")


def test_backends_agree_on_random_circuits(rng):
    n = 8
    for _ in range(5):
        gates = []
        for _ in range(60):
            if rng.integers(2) == 0:
                gates.append(ry(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(cx(int(a), int(b)))
        circ = Circuit(n, tuple(gates))
        sv = from_amplitudes(_random_state(rng, n))
        out1 = apply_circuit(sv, circ, backend="gate_exact")
        out2 = apply_circuit(sv, circ, backend="operator")
        assert np.linalg.norm(out1.amplitudes - out2.amplitudes) <= 1e-10


def _random_state(rng, n):
    vec = rng.standard_normal(2 ** n)
    return vec / np.linalg.norm(vec)


def _applied_gates(rng, monkeypatch, backend):
    vec = rng.standard_normal(2 ** 6)
    circuit = synth_state_prep(vec / np.linalg.norm(vec))
    calls = []

    def counting(*args):
        calls.append(args[2])
        return apply_gate(*args)

    monkeypatch.setattr(qsim, "apply_gate", counting)
    apply_circuit(zero_state(6), circuit, backend=backend)
    return calls, list(circuit.gates)


def test_gate_exact_applies_every_gate_and_never_folds(rng, monkeypatch):
    # one apply_gate call per gate, in order: no run of gates is fused into one pass
    calls, gates = _applied_gates(rng, monkeypatch, "gate_exact")
    assert calls == gates


def test_operator_applies_every_elementary_gate_once(rng, monkeypatch):
    calls, gates = _applied_gates(rng, monkeypatch, "operator")
    assert calls == gates


def test_lowered_vs_operator_gate_for_ublock(rng):
    op = dct_matrix().T
    circ = Circuit(4, (Gate("ublock", (3, 1, 0), matrix=op),))
    sv = from_amplitudes(_random_state(rng, 4))
    direct = apply_circuit(sv, circ, backend="operator")
    lowered = apply_circuit(sv, lower_circuit(circ), backend="gate_exact")
    assert np.linalg.norm(direct.amplitudes - lowered.amplitudes) <= 1e-10


def _permutation_matrix(perm):
    mat = np.zeros((len(perm), len(perm)))
    mat[perm, np.arange(len(perm))] = 1.0
    return mat


def test_perm_swap_on_subspace():
    # a basis permutation is a UBLOCK; swap a single qubit's basis values
    swap = Gate("ublock", [0], matrix=_permutation_matrix([1, 0]))
    out = apply_circuit(basis_state(2, 0b01), Circuit(2, (swap,)))
    assert out.amplitudes[0b00] == 1.0
    high = Gate("ublock", [1], matrix=swap.matrix)
    out2 = apply_circuit(basis_state(2, 0b00), Circuit(2, (high,)))
    assert out2.amplitudes[0b10] == 1.0


def test_perm_on_multi_qubit_subspace(rng):
    # |k> -> |perm[k]> on scattered targets, against index arithmetic
    perm = rng.permutation(8)
    sv = from_amplitudes(_random_state(rng, 5))
    gate = Gate("ublock", [4, 2, 0], matrix=_permutation_matrix(perm))
    out = apply_circuit(sv, Circuit(5, (gate,)))
    expected = np.empty(32)
    for index in range(32):
        k = (index >> 4 & 1) << 2 | (index >> 2 & 1) << 1 | (index & 1)
        v = perm[k]
        moved = index & 0b01010 | (v >> 2 & 1) << 4 | (v >> 1 & 1) << 2 | (v & 1)
        expected[moved] = sv.amplitudes[index]
    assert np.array_equal(out.amplitudes, expected)


def test_block_encoding_identity_branch():
    diag = block_encoded_rescaler(QuantTable())
    k_max = int(np.argmax(diag.diagonal))   # entry with d_k = 1
    sv = basis_state(7, k_max)              # ancilla (qubit 6) clear
    circuit, _ = synth_inverse_quantization(QuantTable())
    out = apply_circuit(sv, circuit, backend="gate_exact")
    assert out.amplitudes[k_max] == pytest.approx(1.0, abs=1e-12)


def test_block_encoding_all_ones_is_identity(rng):
    trivial = BlockEncodedDiag(np.ones(64), 1.0)
    payload = _random_state(rng, 6)
    amps = np.zeros(128)
    amps[:64] = payload                     # ancilla |0>
    gates = lower_multiplexed_ry(trivial.angles, [5, 4, 3, 2, 1, 0], 6)
    out = apply_circuit(StateVector(amps, 7), Circuit(7, tuple(gates)), backend="gate_exact")
    assert np.max(np.abs(out.amplitudes[:64] - payload)) < 1e-12
    assert np.max(np.abs(out.amplitudes[64:])) < 1e-12


def test_ublock_matches_dense_kron_oracle(rng):
    # 8x8 operator on the low data qubits of a 10-qubit product state
    op = dct_matrix()
    sv = from_amplitudes(_random_state(rng, 10))
    out = apply_circuit(sv, Circuit(10, (Gate("ublock", [2, 1, 0], matrix=op),)))
    dense = np.kron(np.eye(2 ** 7), op)
    expected = dense @ sv.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


def test_operator_gate_validation():
    with pytest.raises(ValueError):
        Gate("ublock", [0, 0], matrix=np.eye(4))
    with pytest.raises(ValueError):
        Circuit(3, (Gate("ublock", [0, 5], matrix=np.eye(4)),))
    with pytest.raises(ValueError):
        Gate("ublock", [1, 0], matrix=np.ones((4, 4)))


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
