import dataclasses
import math

import numpy as np
import pytest

from jqpie import qcircuit
from jqpie.jpegcore import QuantTable
from jqpie.qcircuit import (Circuit, Gate, MultiplexedRY, compose, cx, export_qasm,
                            parse_qasm, resource_counts, ry)
from jqpie.qsim import StateVector, apply_circuit
from jqpie.synth import (closed_form_resources, lower_multiplexed_ry, multiplexed_ry_angles,
                         synth_inverse_qdct_gates, synth_inverse_quantization,
                         synth_state_prep)


def small_circuit():
    return Circuit(3, (ry(0, 0.5), cx(1, 0), ry(2, -0.25), ry(1, math.pi)))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("ry", (0,))            # missing angle
    # RY and CX are the whole alphabet: no operator-level gate can be built
    for kind in ("perm", "ublock"):
        with pytest.raises(ValueError, match=f"unknown gate kind '{kind}'"):
            Gate(kind, (0, 1))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_ry_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="ry angle must be finite"):
        ry(0, angle)
    with pytest.raises(ValueError, match="ry angle must be finite"):
        Gate("ry", (0,), angle=angle)
    with pytest.raises(ValueError, match="ry angle must be finite"):
        parse_qasm(f"OPENQASM 3.0;\nqubit[1] q;\nry({angle}) q[0];\n")


def test_multiplexer_gates_equal_validated_gates():
    angles = np.array([0.5, -0.0, math.pi, 1e-300])
    gates = list(MultiplexedRY((2, 7), 4, angles, "inverse_quantization", False))
    rotations = [g for g in gates if g.kind == "ry"]
    for gate, angle in zip(rotations, angles):
        expected = ry(4, angle, tag="inverse_quantization")
        assert (gate.kind, gate.qubits, gate.angle, gate.tag) == (
            expected.kind, expected.qubits, expected.angle, expected.tag)
        assert type(gate.angle) is float and type(gate.qubits[0]) is int
    with pytest.raises(dataclasses.FrozenInstanceError):
        gates[0].angle = 0.0
    # no attribute can be added either (a slotted frozen dataclass raises
    # TypeError for a new name on Python 3.10 and 3.11)
    with pytest.raises((AttributeError, TypeError)):
        gates[0].note = "none"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ry angle must be finite"):
            MultiplexedRY((1,), 0, np.array([0.1, bad]), None, False)


def test_multiplexer_checks_its_qubits_and_angles_once():
    op = MultiplexedRY([np.int64(3), 1], np.int64(0), [0.1, 0.2, 0.3, 0.4], "t", False)
    assert op.qubits == (3, 1, 0) and all(type(q) is int for q in op.qubits)
    assert op.angles.dtype == np.float64 and not op.angles.flags.writeable
    for bad in ((3, 0), (3, 3)):
        with pytest.raises(ValueError, match="duplicate qubits in multiplexer"):
            MultiplexedRY(bad, 0, np.zeros(4), None, False)
    with pytest.raises(ValueError, match="need 4 chain angles for 2 controls"):
        MultiplexedRY((2, 1), 0, np.zeros(3), None, False)
    with pytest.raises(ValueError, match="outside 0..2"):
        Circuit(3, (MultiplexedRY((3,), 0, np.zeros(2), None, False),))


def test_circuit_gates_expand_lazily_and_count_without_expanding(monkeypatch):
    op = MultiplexedRY((2, 1), 0, np.array([0.1, 0.0, 0.3, 0.4]), "state_prep", True)
    circuit = Circuit(3, (ry(2, 0.5), op, cx(2, 1)))
    expected = [ry(2, 0.5), *op, cx(2, 1)]
    assert len(circuit.gates) == len(expected) == 9
    assert [(g.kind, g.qubits, g.angle) for g in circuit.gates] == [
        (g.kind, g.qubits, g.angle) for g in expected]
    assert circuit.gates[-1] is cx(2, 1) and circuit.gates[2].kind == "cx"
    assert [circuit.gates[i].kind for i in (1, 2, -3)] == ["ry", "cx", "ry"]
    with pytest.raises(IndexError):
        circuit.gates[9]
    # the count reads the operations' closed-form lengths: no gate is made
    monkeypatch.setattr(MultiplexedRY, "__iter__", None)
    assert len(circuit.gates) == 9


def test_circuit_gates_equal_themselves():
    # each expansion makes new RY gates, which compare by identity, equal in
    # every field to the last; plain gates are read out as they are held
    vec = np.arange(1.0, 9.0) / np.linalg.norm(np.arange(1.0, 9.0))
    circuit = synth_state_prep(vec)
    assert any(isinstance(op, MultiplexedRY) and op.rotations for op in circuit.operations)
    assert _fields(circuit.gates) == _fields(circuit.gates)
    assert _fields(circuit.gates) == _fields(synth_state_prep(vec).gates)
    assert tuple(circuit.gates) != tuple(circuit.gates)
    plain = Circuit(2, (ry(0, 0.5), cx(0, 1)))
    assert tuple(plain.gates) == plain.operations == tuple(Circuit(2, plain.operations).gates)


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(2, (ry(5, 0.1),))


def test_compose_identities():
    c = small_circuit()
    empty = Circuit(3)
    assert tuple(compose(c, empty).gates) == tuple(c.gates)
    assert tuple(compose(empty, c).gates) == tuple(c.gates)
    both = compose(c, c)
    assert len(both.gates) == 2 * len(c.gates)


def test_compose_rejects_a_qubit_count_mismatch():
    with pytest.raises(ValueError, match="qubit counts do not match: 3 and 4"):
        compose(Circuit(3), Circuit(4))
    with pytest.raises(ValueError, match="qubit counts do not match: 7 and 6"):
        compose(synth_inverse_quantization(QuantTable())[0], Circuit(6))


def test_resource_counts_single_cx():
    report = resource_counts(Circuit(2, (cx(0, 1),)))
    assert report.cx_count == 1
    assert report.rotation_count == 0
    assert report.depth == 1


def test_resource_counts_block_encoding():
    circuit, _ = synth_inverse_quantization(QuantTable())
    report = resource_counts(circuit)
    assert report.cx_count == 64
    assert report.rotation_count == 64
    assert report.depth in (128, 129)
    stage = report.breakdown["inverse_quantization"]
    assert (stage.cx, stage.rotations) == (64, 64)


def test_resource_counts_state_prep_cascade(rng):
    for m in (3, 5, 6):
        vec = rng.standard_normal(2 ** m)
        vec /= np.linalg.norm(vec)
        report = resource_counts(synth_state_prep(vec))
        assert report.cx_count == 2 ** m - 2
        assert report.rotation_count == 2 ** m - 1
        assert report.depth == 2 ** (m + 1) - m - 2


def test_resource_counts_additive_under_compose():
    c = small_circuit()
    ra, rboth = resource_counts(c), resource_counts(compose(c, c))
    assert rboth.cx_count == 2 * ra.cx_count
    assert rboth.rotation_count == 2 * ra.rotation_count
    assert rboth.depth <= 2 * ra.depth


def test_depth_bounds_random_circuits(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 30))
        gates = []
        for _ in range(k):
            if rng.random() < 0.5:
                gates.append(ry(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(cx(int(a), int(b)))
        depth = resource_counts(Circuit(n, tuple(gates))).depth
        assert depth <= k
        assert depth >= math.ceil(k / n)


def test_two_disjoint_qdct_blocks_share_depth():
    # the row and column 8-point QDCTs act on disjoint registers: the 2D
    # stage doubles the gate counts of one 1D pass at its depth
    gates = synth_inverse_qdct_gates()
    one = resource_counts(Circuit(3, tuple(g for g in gates if max(g.qubits) < 3)))
    for method in ("jqpie", "qf_jqpie"):
        stage = closed_form_resources(4, 4, 3, method=method).breakdown["inverse_qdct"]
        assert (stage.cx, stage.rotations, stage.depth) == (32, 24, 26)
        assert stage.depth == one.depth
        assert stage.cx == 2 * one.cx_count


def test_breakdown_sums_to_totals():
    circuit, _ = synth_inverse_quantization(QuantTable())
    extra = Circuit(7, (ry(0, 0.3, tag="state_prep"), cx(1, 0, tag="state_prep")))
    report = resource_counts(compose(extra, circuit))
    assert report.cx_count == sum(c.cx for c in report.breakdown.values())
    assert report.rotation_count == sum(c.rotations for c in report.breakdown.values())
    assert report.depth == sum(c.depth for c in report.breakdown.values())
    for stage in ("state_prep", "inverse_zigzag", "inverse_quantization", "inverse_qdct"):
        assert stage in report.breakdown


def test_report_json_schema():
    payload = resource_counts(small_circuit()).to_json()
    assert payload["cx_count"] == 1
    assert "breakdown" in payload and "other" in payload["breakdown"]


def test_export_empty_circuit_is_header_only():
    text = export_qasm(Circuit(2))
    assert text.startswith("OPENQASM 3.0;")
    assert "qubit[2] q;" in text
    assert "cx" not in text and "ry" not in text


def test_export_single_rotation():
    text = export_qasm(Circuit(1, (ry(0, math.pi / 2),)))
    lines = [l for l in text.splitlines() if l.startswith("ry")]
    assert len(lines) == 1
    assert f"({math.pi / 2!r})" in lines[0]


def test_qasm_roundtrip(rng):
    gates = []
    for _ in range(40):
        q = int(rng.integers(5))
        if rng.integers(2) == 0:
            gates.append(ry(q, float(rng.uniform(-2 * math.pi, 2 * math.pi))))
        else:
            a, b = rng.choice(5, size=2, replace=False)
            gates.append(cx(int(a), int(b)))
    circ = Circuit(5, tuple(gates))
    back = parse_qasm(export_qasm(circ))
    assert back.n_qubits == 5
    assert len(back.gates) == len(circ.gates)
    for g1, g2 in zip(circ.gates, back.gates):
        assert (g2.kind, g2.qubits) == (g1.kind, g1.qubits)
        assert (g2.angle is None) == (g1.angle is None)
        if g1.angle is not None:
            assert abs(g2.angle - g1.angle) <= 1e-12


def test_parse_rejects_garbage():
    for statement in ("hadamard q[0];",
                      "x q[0];",                   # not in the alphabet
                      "ry q[0];",                  # angle missing
                      "ry(0.1) q[0], q[1];",       # extra operand
                      "ry(abc) q[0];",             # angle not a number
                      "cx(1.0) q[0], q[1];",       # cx takes no angle
                      "cx q[0];"):                 # operand missing
        with pytest.raises(ValueError):
            parse_qasm(f"OPENQASM 3.0;\nqubit[2] q;\n{statement}")


# --- a multiplexer as one operation against its gate-by-gate chain -----------------

def _chain_gates(alphas, controls, target, skip_zero, tag):
    """The uniformly controlled RY lowered gate by gate, one validated gate
    per RY and CX: step i is RY(theta_i) on the target (dropped under
    ``skip_zero`` when |theta_i| <= 1e-12), then CX from the control of the
    Gray-code bit that flips after step i, or the top bit for the last."""
    theta = multiplexed_ry_angles(np.asarray(alphas, dtype=np.float64))
    k = len(controls)
    links = [cx(control, target, tag=tag) for control in reversed(controls)]
    bits = [((i + 1) & -(i + 1)).bit_length() - 1 for i in range(2 ** k - 1)] + [k - 1]
    gates = []
    for angle, bit in zip(theta.tolist(), bits):
        if not (skip_zero and abs(angle) <= 1e-12):
            gates.append(ry(target, angle, tag=tag))
        if k:
            gates.append(links[bit])
    return gates


def _fields(gates):
    return [(g.kind, g.qubits, g.angle, g.tag, type(g.angle)) for g in gates]


_N = 10   # qubits: a target, up to 7 controls, and room around them


@pytest.mark.parametrize("k", range(8))
@pytest.mark.parametrize("target_bit", [1, 4, 7], ids=lambda b: f"bit{b}")
@pytest.mark.parametrize("skip_zero", [False, True], ids=["all", "skip"])
@pytest.mark.parametrize("pattern", ["random", "repeated"])
def test_multiplexer_equals_its_gate_by_gate_chain(k, target_bit, skip_zero, pattern,
                                                   monkeypatch):
    rng = np.random.default_rng([k, target_bit, skip_zero, pattern == "random"])
    target = _N - 1 - target_bit          # memory bit n-1-q in the working layout
    others = [q for q in range(_N) if q != target]
    controls = [int(q) for q in rng.permutation(others)[:k]]
    if pattern == "random":
        alphas = rng.uniform(-2 * math.pi, 2 * math.pi, 2 ** k)
    else:   # set by the top controls alone: most chain angles are exactly 0
        alphas = np.repeat(rng.uniform(-3, 3, 2 ** (k // 2)), 2 ** (k - k // 2))
        if k == 0:
            alphas = np.zeros(1)
    op = lower_multiplexed_ry(alphas, controls, target, skip_zero=skip_zero, tag="state_prep")
    expected = _chain_gates(alphas, controls, target, skip_zero, "state_prep")
    assert isinstance(op, MultiplexedRY)
    # the expansion, field by field
    assert _fields(op) == _fields(expected) and len(op) == len(expected)
    # a prefix of gates of the same stage leaves the qubits' fronts uneven, so
    # the multiplexer's schedule starts from a real front
    prefix = [ry(int(q), float(rng.uniform(-3, 3)), tag="state_prep") for q in rng.permutation(_N)]
    prefix += [cx(*map(int, rng.choice(_N, 2, replace=False)), tag="state_prep")
               for _ in range(6)]
    for head in ((), tuple(prefix)):
        as_op, as_gates = Circuit(_N, head + (op,)), Circuit(_N, head + tuple(expected))
        assert _fields(as_op.gates) == _fields(as_gates.gates)
        # counts and depth
        got, want = resource_counts(as_op), resource_counts(as_gates)
        assert (got.cx_count, got.rotation_count, got.depth) == (
            want.cx_count, want.rotation_count, want.depth)
        assert dict(got.breakdown) == dict(want.breakdown)
        # the state, bit for bit
        vec = rng.standard_normal(2 ** _N)
        sv = StateVector(vec / np.linalg.norm(vec), _N)
        assert np.array_equal(apply_circuit(sv, as_op).amplitudes,
                              apply_circuit(sv, as_gates).amplitudes)
        # the text, byte for byte, also when a chain is written in many pieces
        text = export_qasm(as_gates)
        assert export_qasm(as_op) == text
        monkeypatch.setattr(qcircuit, "_QASM_STEPS", 3)
        assert export_qasm(as_op) == text
        monkeypatch.undo()
