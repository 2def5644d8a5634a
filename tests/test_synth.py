import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.stats import ortho_group

from jqpie import synth
from jqpie.jpegcore import QuantTable, dct_matrix, zigzag_permutation
from jqpie.qcircuit import Circuit, StageCost, resource_counts, ry
from jqpie.qsim import apply_circuit, basis_state, zero_state
from jqpie.synth import (block_encoded_rescaler, closed_form_resources, load_order,
                         lower_circuit, lower_givens, lower_multiplexed_ry,
                         multiplexed_ry_angles, state_prep_cost,
                         synth_inverse_qdct_gates, synth_inverse_quantization, synth_state_prep,
                         synth_truncated_zigzag, truncated_zigzag_map, walsh_hadamard)


def circuit_matrix(gates, n):
    """Dense operator of a gate list, column by column (basis-state probes)."""
    dim = 2 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    circ = Circuit(n, tuple(gates))
    for b in range(dim):
        out = apply_circuit(basis_state(n, b), circ)
        mat[:, b] = out.amplitudes
    return mat


def multiplexed_ry_dense(angles, k):
    dim = 2 ** (k + 1)
    mat = np.zeros((dim, dim))
    for c, theta in enumerate(angles):
        co, si = math.cos(theta / 2), math.sin(theta / 2)
        mat[2 * c, 2 * c] = co
        mat[2 * c, 2 * c + 1] = -si
        mat[2 * c + 1, 2 * c] = si
        mat[2 * c + 1, 2 * c + 1] = co
    return mat


# --- multiplexer --------------------------------------------------------------

def _loop_walsh_hadamard(a):
    """Butterfly loop reference: the same stages, one slice pair at a time."""
    a = np.array(a, dtype=np.float64)
    h = 1
    while h < len(a):
        for i in range(0, len(a), 2 * h):
            left = a[i:i + h].copy()
            right = a[i + h:i + 2 * h].copy()
            a[i:i + h] = left + right
            a[i + h:i + 2 * h] = left - right
        h *= 2
    return a


def test_walsh_hadamard_matches_loop_butterflies_bit_for_bit(rng):
    for k in range(0, 11):
        values = rng.uniform(-4, 4, 2 ** k)
        assert np.array_equal(walsh_hadamard(values), _loop_walsh_hadamard(values))
    with pytest.raises(ValueError):
        walsh_hadamard(np.ones(6))


def test_multiplexed_ry_angle_transform_matches_dense_matrix(rng):
    for k in (1, 2, 3, 4):
        alphas = rng.uniform(-4, 4, 2 ** k)
        m = np.array([[(-1) ** bin(j & (i ^ (i >> 1))).count("1") for j in range(2 ** k)]
                      for i in range(2 ** k)]) / 2 ** k
        assert np.allclose(multiplexed_ry_angles(alphas), m @ alphas, atol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_multiplexed_ry_lowering_is_exact(rng, k):
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, 2 ** k)
    gates = lower_multiplexed_ry(angles, list(range(k, 0, -1)), 0)
    assert sum(1 for g in gates if g.kind == "ry") == 2 ** k
    assert sum(1 for g in gates if g.kind == "cx") == (2 ** k if k else 0)
    got = circuit_matrix(gates, k + 1)
    assert np.max(np.abs(got - multiplexed_ry_dense(angles, k))) < 1e-12


def test_multiplexed_ry_scattered_qubits(rng):
    # controls need not be contiguous or ordered by index
    angles = rng.uniform(-3, 3, 4)
    gates = lower_multiplexed_ry(angles, [0, 3], 2)
    got = circuit_matrix(gates, 4)
    dim = 16
    expected = np.zeros((dim, dim))
    for b in range(dim):
        c = (((b >> 0) & 1) << 1) | ((b >> 3) & 1)   # pattern (q0, q3), q0 = MSB
        theta = angles[c]
        co, si = math.cos(theta / 2), math.sin(theta / 2)
        flipped = b ^ (1 << 2)
        if (b >> 2) & 1 == 0:
            expected[b, b] += co
            expected[flipped, b] += si
        else:
            expected[b, b] += co
            expected[flipped, b] += -si
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("skip_zero", [False, True])
def test_multiplexed_ry_gates_equal_validated_ones(rng, skip_zero):
    # angles set by the top control alone: 6 of the 8 chain angles are exactly 0
    angles = np.repeat(rng.uniform(-3, 3, 2), 4)
    gates = lower_multiplexed_ry(angles, [3, 2, 1], 0, skip_zero=skip_zero, tag="state_prep")
    expected = [ry(0, theta, tag="state_prep") for theta in multiplexed_ry_angles(angles)
                if not (skip_zero and abs(theta) <= 1e-12)]
    rotations = [g for g in gates if g.kind == "ry"]
    assert len(rotations) == (2 if skip_zero else 8)
    assert [(g.kind, g.qubits, g.angle, g.tag) for g in rotations] == [
        (g.kind, g.qubits, g.angle, g.tag) for g in expected]
    assert all(type(g.angle) is float for g in rotations)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rotations[0].angle = 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multiplexed_ry_and_state_prep_reject_a_non_finite_angle(bad, monkeypatch):
    for skip_zero in (False, True):
        with pytest.raises(ValueError, match="ry angle must be finite"):
            lower_multiplexed_ry([0.1, bad, 0.3, 0.4], [2, 1], 0, skip_zero=skip_zero)
        with pytest.raises(ValueError, match="ry angle must be finite"):
            lower_multiplexed_ry([bad], [], 0, skip_zero=skip_zero)
    # angles of a normalized vector are always finite: feed the cascade one that is not
    monkeypatch.setattr(synth, "state_prep_angles",
                        lambda vector: [np.array([0.5]), np.array([0.2, bad])])
    with pytest.raises(ValueError, match="ry angle must be finite"):
        synth_state_prep([0.6, 0.0, 0.0, 0.8])


# --- state preparation ---------------------------------------------------------

def test_state_prep_trivial_basis_vector():
    circuit = synth_state_prep([1.0, 0.0])
    assert len(circuit.gates) == 1
    gate = circuit.gates[0]
    assert gate.kind == "ry" and gate.angle == 0.0


def test_state_prep_single_qubit_example():
    circuit = synth_state_prep([0.6, 0.8])
    assert len(circuit.gates) == 1
    assert circuit.gates[0].angle == pytest.approx(2 * math.atan2(0.8, 0.6), abs=1e-15)
    out = apply_circuit(zero_state(1), circuit)
    assert np.allclose(out.amplitudes.real, [0.6, 0.8], atol=1e-15)


def test_state_prep_uniform_vector():
    vec = np.full(4, 0.5)
    out = apply_circuit(zero_state(2), synth_state_prep(vec))
    assert np.max(np.abs(out.amplitudes - vec)) < 1e-12


def test_state_prep_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        synth_state_prep([0.5, 0.5])           # not normalized
    with pytest.raises(ValueError):
        synth_state_prep(rng.standard_normal(6) / 10)   # not a power of two


def test_state_prep_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="L2-normalized"):
            synth.state_prep_angles([bad, 0.0])


def test_state_prep_random_vectors_high_accuracy(rng):
    # broad randomized check across sizes, including signed entries
    for _ in range(200):
        m = int(rng.integers(1, 9))
        vec = rng.standard_normal(2 ** m)
        vec /= np.linalg.norm(vec)
        out = apply_circuit(zero_state(m), synth_state_prep(vec))
        assert np.max(np.abs(out.amplitudes.real - vec)) < 1e-9
        assert np.max(np.abs(out.amplitudes.imag)) == 0.0


def test_state_prep_sparse_vectors(rng):
    # zero-norm subtrees take the angle-0 tie-break
    vec = np.zeros(16)
    vec[3] = -1.0
    out = apply_circuit(zero_state(4), synth_state_prep(vec))
    assert np.max(np.abs(out.amplitudes.real - vec)) < 1e-12


def test_state_prep_on_scattered_targets(rng):
    vec = rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    circuit = synth_state_prep(vec, targets=[3, 1], n_qubits=4)
    out = apply_circuit(zero_state(4), circuit)
    expected = np.zeros(16)
    for v in range(4):
        idx = ((v >> 1) << 3) | ((v & 1) << 1)
        expected[idx] = vec[v]
    assert np.max(np.abs(out.amplitudes.real - expected)) < 1e-12


# --- truncated zigzag -----------------------------------------------------------

def test_truncated_zigzag_r2_map():
    mapping = truncated_zigzag_map(2)
    expected_moves = {2: 8, 3: 16, 8: 2, 16: 3}
    for k in range(64):
        assert mapping[k] == expected_moves.get(k, k)


def test_truncated_zigzag_retained_slots_follow_zigzag():
    pi = zigzag_permutation()
    for r in (2, 3, 4, 5, 6):
        mapping = truncated_zigzag_map(r)
        assert np.array_equal(mapping[:2 ** r], pi[:2 ** r])
        assert sorted(mapping.tolist()) == list(range(64))


def test_truncated_zigzag_r6_is_full_zigzag():
    assert np.array_equal(truncated_zigzag_map(6), zigzag_permutation())


def test_truncated_zigzag_circuit_fixes_untouched_states():
    # slot 5 is kept as itself at r=2 and is in no swap
    circuit = synth_truncated_zigzag(2)
    out = apply_circuit(basis_state(6, 5), circuit)
    assert abs(out.amplitudes[5] - 1.0) <= 1e-12


def test_truncated_zigzag_unitary_roundtrip():
    for r in (2, 4, 6):
        mapping = truncated_zigzag_map(r)
        inverse = np.argsort(mapping)
        for k in range(64):
            assert inverse[mapping[k]] == k


def test_truncated_zigzag_invalid_level():
    with pytest.raises(ValueError):
        synth_truncated_zigzag(1)
    with pytest.raises(ValueError):
        load_order(7)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_load_order_holds_the_kept_frequencies(r):
    order = load_order(r)
    kept = zigzag_permutation()[:2 ** r]
    assert sorted(order.tolist()) == sorted(kept.tolist())
    for s in range(2 ** r):
        if s in kept:
            assert order[s] == s


def test_load_order_pairs_at_low_r():
    # a displaced slot s holds the kept frequency o >= 2^r closest in
    # Hamming distance (then the lowest o); r=6 keeps every slot as itself
    moved = {r: {s: int(o) for s, o in enumerate(load_order(r)) if s != o} for r in (2, 3, 6)}
    assert moved == {2: {2: 8, 3: 16}, 3: {4: 8, 5: 9, 6: 10, 7: 16}, 6: {}}
    assert [sum(load_order(r) != np.arange(2 ** r)) for r in (4, 5)] == [6, 6]


def test_zigzag_network_maps_loaded_slots_to_their_frequencies():
    # no sign fix-up: the -1 of each signed swap lands on an unloaded slot
    for r in (2, 3, 4, 5, 6):
        circuit = synth_truncated_zigzag(r)
        assert all(g.tag == "inverse_zigzag" for g in circuit.gates)
        for s, f in enumerate(load_order(r)):
            out = apply_circuit(basis_state(6, s), circuit).amplitudes
            expected = np.zeros(64)
            expected[f] = 1.0
            assert np.max(np.abs(out - expected)) <= 1e-12


# --- block encoding --------------------------------------------------------------

def test_rescaler_max_entry_angle_zero():
    diag = block_encoded_rescaler(QuantTable())
    assert diag.lam == 121.0
    k_max = int(np.argmax(diag.diagonal))
    assert diag.diagonal[k_max] == 1.0
    assert diag.angles[k_max] == 0.0


def test_rescaler_dc_angle():
    diag = block_encoded_rescaler(QuantTable())
    assert diag.diagonal[0] == pytest.approx(16 / 121)
    assert diag.angles[0] == pytest.approx(2 * math.acos(16 / 121), abs=1e-12)
    assert diag.angles[0] == pytest.approx(2.876, abs=1e-3)


def test_rescaler_scale_invariance():
    d1 = block_encoded_rescaler(QuantTable(1.0))
    d2 = block_encoded_rescaler(QuantTable(2.0))
    assert d2.lam == 242.0
    assert np.allclose(d1.diagonal, d2.diagonal, atol=1e-15)


def test_rescaler_two_by_two_blocks(rng):
    diag = block_encoded_rescaler(QuantTable())
    circuit, _ = synth_inverse_quantization(QuantTable())
    u = circuit_matrix(circuit.gates, 7).real
    assert np.allclose(u @ u.T, np.eye(128), atol=1e-12)
    for k in (0, 13, 53):
        d = diag.diagonal[k]
        # upper-left entry of the embedded 2x2 rotation equals d_k
        assert u[k, k] == pytest.approx(d, abs=1e-12)
        assert u[64 + k, k] == pytest.approx(math.sqrt(1 - d * d), abs=1e-12)


def test_block_encoding_circuit_counts_and_action():
    circuit, lam = synth_inverse_quantization(QuantTable())
    assert lam == 121.0
    report = resource_counts(circuit)
    assert (report.cx_count, report.rotation_count) == (64, 64)
    diag = block_encoded_rescaler(QuantTable())
    for k in range(64):
        out = apply_circuit(basis_state(7, k), circuit)
        amp0 = out.amplitudes[k]
        amp1 = out.amplitudes[64 + k]
        assert abs(amp0.real - diag.diagonal[k]) < 1e-10
        assert abs(amp1.real - math.sqrt(1 - diag.diagonal[k] ** 2)) < 1e-10


# --- inverse DCT operator ---------------------------------------------------------

def test_qdct_matrix_rows():
    m = dct_matrix()
    assert np.allclose(m[0], np.full(8, 1 / math.sqrt(8)), atol=1e-15)
    assert np.allclose(m @ m.T, np.eye(8), atol=1e-12)


def _one_qdct_pass():
    """The emitted 1D inverse QDCT: the gates of the column pass on qubits 2, 1, 0."""
    return Circuit(3, tuple(g for g in synth_inverse_qdct_gates() if max(g.qubits) < 3))


def test_emitted_1d_qdct_cost_against_published():
    # The model counts the emitted 8-point pass: the even/odd split's two
    # 4-point blocks (12 CX) and its butterfly (RY(pi/2) + 4 CX). It must
    # cost no more than the published 18 CX / 33 rotations / depth 35.
    report = resource_counts(_one_qdct_pass())
    assert (report.cx_count, report.rotation_count, report.depth) == (16, 12, 26)
    assert report.cx_count <= 18 and report.rotation_count <= 33 and report.depth <= 35
    print(f"note: emitted 1D inverse QDCT {report.cx_count} CX / {report.rotation_count} "
          f"rotations / depth {report.depth} (published: 18 CX / 33 rotations / depth 35)")


def test_emitted_qdct_pass_is_the_inverse_dct():
    one = _one_qdct_pass()
    assert all(g.tag == "inverse_qdct" for g in one.gates)
    got = circuit_matrix(one.gates, 3).real
    assert np.max(np.abs(got - dct_matrix().T)) <= 1e-12
    both = circuit_matrix(synth_inverse_qdct_gates(), 6).real
    assert np.max(np.abs(both - np.kron(dct_matrix().T, dct_matrix().T))) <= 1e-12
    # built once per process: every call returns the same immutable gates
    assert synth_inverse_qdct_gates() is synth_inverse_qdct_gates()
    assert isinstance(synth_inverse_qdct_gates(), tuple)


def test_qdct_angles_are_closed_form(monkeypatch):
    # no SVD, determinant or other LAPACK call builds a pass
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call while building the QDCT")

    for name in ("svd", "det", "qr", "eig", "eigh", "solve", "inv", "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)
    gates = synth._inverse_qdct_pass((2, 1, 0), "inverse_qdct")
    monkeypatch.undo()
    got = circuit_matrix(gates, 3).real
    assert np.max(np.abs(got - dct_matrix().T)) <= 1e-12


def _signed_permutations():
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            q = np.eye(4)[:, perm] * np.array(signs)
            if np.linalg.det(q) > 0:
                yield q


def _plane_pair(a, b):
    """Rotations by a in the (0, 2) plane and by b in the (1, 3) plane:
    cosine-sine values (cos a, cos b) with no corner factor."""
    q = np.eye(4)
    for (i, j), t in (((0, 2), a), ((1, 3), b)):
        q[i, i] = q[j, j] = math.cos(t)
        q[j, i], q[i, j] = math.sin(t), -math.sin(t)
    return q


def _rotation_pair(rng):
    top, bottom = (synth._rotation(t) for t in rng.uniform(-math.pi, math.pi, 2))
    return np.block([[top, np.zeros((2, 2))], [np.zeros((2, 2)), bottom]])


def test_closed_form_cs_split_reconstructs_its_input(rng):
    cases = [np.eye(4), *_signed_permutations()]
    for trial in range(200):
        q = ortho_group.rvs(4, random_state=trial)
        if np.linalg.det(q) < 0:
            q[:, [0, 1]] = q[:, [1, 0]]
        cases.append(q)
    # c = 0, s = 0, equal and nearly equal values, with random corners
    for a in (0.0, 1e-12, 1e-8, 0.3, math.pi / 2 - 1e-10, math.pi / 2, math.pi, 2.0):
        for b in (0.0, 1e-9, 0.3, math.pi / 2, a, a + 1e-11):
            plane = _plane_pair(a, b)
            cases += [plane, _rotation_pair(rng) @ plane @ _rotation_pair(rng)]
    for q in cases:
        (u1, u2), mids, (v1h, v2h) = synth._cs_split_4x4(q)
        for corner in (u1, u2, v1h, v2h, *mids):
            assert corner[0, 0] == corner[1, 1] and corner[0, 1] == -corner[1, 0]
            assert abs(np.linalg.det(corner) - 1.0) <= 1e-14
        cos, sin = np.diag([m[0, 0] for m in mids]), np.diag([m[1, 0] for m in mids])
        zero = np.zeros((2, 2))
        rebuilt = (np.block([[u1, zero], [zero, u2]]) @ np.block([[cos, -sin], [sin, cos]])
                   @ np.block([[v1h, zero], [zero, v2h]]))
        assert np.max(np.abs(rebuilt - q)) <= 1e-12


# --- gate-level lowering -----------------------------------------------------------

def test_lower_givens_rotates_exactly_one_plane(rng):
    for _ in range(10):
        n = 4
        i, j = rng.choice(16, size=2, replace=False)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gates = lower_givens(int(i), int(j), theta, [3, 2, 1, 0])
        got = circuit_matrix(gates, n).real
        expected = np.eye(16)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected[i, i] = c
        expected[j, i] = s
        expected[i, j] = -s
        expected[j, j] = c
        assert np.max(np.abs(got - expected)) < 1e-12


def _random_so4(rng):
    q = ortho_group.rvs(4, random_state=rng)
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def test_multiplexed_so4_lowering_matches_block_diagonal_oracle(rng):
    # 4x4 blocks with det +1 on targets (a, b) = (1, 0) under control 2
    permutations = list(_signed_permutations())
    pairs = [(_random_so4(rng), _random_so4(rng)) for _ in range(20)]
    pairs += [(permutations[i], permutations[j])
              for i, j in rng.integers(len(permutations), size=(20, 2))]
    pairs += [(np.eye(4), _random_so4(rng)), (_random_so4(rng), np.eye(4))]
    zero = np.zeros((4, 4))
    for blocks in pairs:
        gates = synth._lower_multiplexed_so4(blocks, 2, (1, 0), "inverse_qdct")
        assert sum(g.kind == "cx" for g in gates) == 12
        got = circuit_matrix(gates, 3).real
        expected = np.block([[blocks[0], zero], [zero, blocks[1]]])
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_lower_circuit_preserves_semantics_and_tags():
    # every stage is emitted as RY/CX gates: nothing is left to lower
    circuit = Circuit(6, (ry(4, 0.3, tag="state_prep"), *synth_inverse_qdct_gates()))
    assert lower_circuit(circuit) is circuit


# --- synthesized-circuit unitarity (6 to 8 qubits) ---------------------------------

def test_synthesized_circuits_are_unitary(rng):
    vec = rng.standard_normal(2 ** 7)
    vec /= np.linalg.norm(vec)
    prep = synth_state_prep(vec)
    u = circuit_matrix(prep.gates, 7)
    assert np.max(np.abs(u.conj().T @ u - np.eye(128))) < 1e-10
    blockenc, _ = synth_inverse_quantization(QuantTable())
    u2 = circuit_matrix(blockenc.gates, 7)
    assert np.max(np.abs(u2.conj().T @ u2 - np.eye(128))) < 1e-10
    zig = synth_truncated_zigzag(4)
    u3 = circuit_matrix(zig.gates, 6)
    assert np.max(np.abs(u3.conj().T @ u3 - np.eye(64))) < 1e-10


# --- closed-form resources -----------------------------------------------------------

def test_closed_form_state_prep_counts():
    report = closed_form_resources(3, 3, 6)
    assert report.breakdown["state_prep"].cx == 62    # 2^6 - 2
    assert report.breakdown["state_prep"].rotations == 63


def test_closed_form_matches_emitted_prep(rng):
    for r in (3, 6):
        m = 8 - (6 - r)
        vec = rng.standard_normal(2 ** m)
        vec /= np.linalg.norm(vec)
        emitted = resource_counts(synth_state_prep(vec))
        model = state_prep_cost(m)
        assert emitted.cx_count == model.cx
        assert emitted.rotation_count == model.rotations
        assert emitted.depth == model.depth


def test_closed_form_reduction_ratios():
    base = closed_form_resources(8, 8, 6).breakdown["state_prep"].cx
    half = closed_form_resources(8, 8, 5).breakdown["state_prep"].cx
    quarter = closed_form_resources(8, 8, 4).breakdown["state_prep"].cx
    assert abs(half / base - 0.5) < 1e-3
    assert abs(quarter / base - 0.25) < 1e-3


def test_closed_form_stage_composition():
    report = closed_form_resources(4, 4, 3, method="jqpie")
    assert report.breakdown["inverse_quantization"].cx == 64
    assert report.breakdown["inverse_qdct"].cx == 32
    assert report.breakdown["inverse_qdct"].depth == 26
    assert report.cx_count == sum(c.cx for c in report.breakdown.values())
    qf = closed_form_resources(4, 4, 3, method="qf_jqpie")
    assert qf.breakdown["inverse_quantization"].cx == 0


def test_closed_form_zigzag_counts_match_lowered_network():
    # one signed swap per displaced slot: 2 / 4 / 6 / 6 / 0 swaps at r = 2..6
    counts = []
    for r in (2, 3, 4, 5, 6):
        stage = closed_form_resources(5, 5, r).breakdown["inverse_zigzag"]
        emitted = resource_counts(synth_truncated_zigzag(r)).breakdown["inverse_zigzag"]
        assert stage == emitted
        counts.append((stage.cx, stage.depth))
    assert counts == [(70, 134), (140, 267), (216, 408), (228, 420), (0, 0)]


def test_closed_form_reports_are_shared_and_read_only():
    report = closed_form_resources(7, 5, 4, "jqpie")
    assert closed_form_resources(7, 5, 4, "jqpie") is report
    with pytest.raises(TypeError):
        report.breakdown["state_prep"] = StageCost()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.cx_count = 0
    assert closed_form_resources(7, 5, 4, "jqpie").to_json() == report.to_json()


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_resources(2, 3, 4)
    with pytest.raises(ValueError):
        closed_form_resources(4, 4, 1)
    with pytest.raises(ValueError):
        closed_form_resources(4, 4, 4, method="teleport")
