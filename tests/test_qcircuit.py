import math

import numpy as np
import pytest

from jqpie.jpegcore import QuantTable
from jqpie.qcircuit import (Circuit, Gate, UnloweredGateError, compose, cx, export_qasm,
                            parse_qasm, resource_counts, ry, schedule_depth)
from jqpie.synth import (closed_form_resources, synth_inverse_qdct_gates,
                         synth_inverse_quantization, synth_state_prep)


def small_circuit():
    return Circuit(3, (ry(0, 0.5), cx(1, 0), ry(2, -0.25), ry(1, math.pi)))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("ry", (0,))            # missing angle
    with pytest.raises(ValueError, match="unknown gate kind 'perm'"):
        Gate("perm", (0, 1))
    with pytest.raises(ValueError):
        Gate("ublock", (0,), matrix=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="must be real"):
        Gate("ublock", (0,), matrix=1j * np.eye(2))        # unitary, but not real


def test_ublock_accepts_valid_input():
    u = Gate("ublock", (0,), matrix=np.eye(2))
    assert u.matrix.dtype == np.float64


def test_circuit_register_layout():
    circ = Circuit(9, (), (("ancilla", 1), ("index", 2), ("data", 6)))
    assert circ.registers == (("ancilla", 1), ("index", 2), ("data", 6))
    assert Circuit(3).registers == (("q", 3),)
    with pytest.raises(ValueError):
        Circuit(4, (), (("a", 1), ("b", 2)))


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(2, (ry(5, 0.1),))


def test_compose_identities():
    c = small_circuit()
    empty = Circuit(3)
    assert compose(c, empty).gates == c.gates
    assert compose(empty, c).gates == c.gates
    both = compose(c, c)
    assert len(both.gates) == 2 * len(c.gates)


def test_compose_rejects_register_mismatch():
    a = Circuit(3, (), (("q", 3),))
    b = Circuit(3, (), (("data", 3),))
    with pytest.raises(ValueError):
        compose(a, b)
    with pytest.raises(ValueError):
        compose(a, Circuit(4))


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


@pytest.mark.parametrize("gate", [Gate("ublock", (1, 0), matrix=np.eye(4), tag="inverse_qdct")],
                         ids=["ublock"])
def test_resource_counts_rejects_operator_gates(gate):
    circuit = Circuit(3, (ry(2, 0.1), gate))
    with pytest.raises(UnloweredGateError, match="lower"):
        resource_counts(circuit)
    with pytest.raises(UnloweredGateError, match="lower"):
        schedule_depth(circuit.gates)


def test_two_disjoint_qdct_blocks_share_depth():
    # the row and column 8-point QDCTs act on disjoint registers: the 2D
    # stage doubles the gate counts of one 1D pass at its depth
    gates = synth_inverse_qdct_gates()
    one = resource_counts(Circuit(3, tuple(g for g in gates if max(g.qubits) < 3)))
    for method in ("jqpie", "qf_jqpie"):
        stage = closed_form_resources(4, 4, 3, method=method).breakdown["inverse_qdct"]
        assert (stage.cx, stage.rotations, stage.depth) == (32, 26, 27)
        assert stage.depth == one.depth
        assert stage.cx == 2 * one.cx_count


def test_breakdown_sums_to_totals():
    circuit, _ = synth_inverse_quantization(QuantTable())
    extra = Circuit(7, (ry(0, 0.3, tag="state_prep"), cx(1, 0, tag="state_prep")),
                    circuit.registers)
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


def test_export_rejects_operator_gates():
    circ = Circuit(3, (Gate("ublock", (2, 1, 0), matrix=np.eye(8)),))
    with pytest.raises(UnloweredGateError, match="UBLOCK gates: lower"):
        export_qasm(circ)


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
        assert (g2.kind, g2.qubits, g2.matrix) == (g1.kind, g1.qubits, g1.matrix)
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
