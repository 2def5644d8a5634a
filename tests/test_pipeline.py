import gc
import json
import math
import re
import weakref
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jqpie import bench, pipeline, qsim
from jqpie.bench import SweepConfig, main, run_sweep
from jqpie.imagio import GrayscaleImage, pad_and_partition, pad_to_pow2, write_pgm
from jqpie.jpegcore import (TRUNCATION_LEVELS, QuantTable, _block_zigzag, blocks_from_zigzag,
                            classical_reference_decode, dct2_block, dct_matrix, fold_weight,
                            idct2_block, idct2_blocks, reference_decode_pixels, sparsity_stats,
                            truncate_zigzag, zigzag_coefficients, zigzag_permutation)
from jqpie.pipeline import (NORM_MODES, NormalizationRecord, readout_image, run_jqpie,
                            run_qf_jqpie, run_qpie_direct)
from jqpie.qcircuit import Circuit, compose, export_qasm, parse_qasm, resource_counts
from jqpie.qsim import (MIN_BRANCH_PROBABILITY, StateVector, apply_circuit, from_amplitudes,
                        postselect_ancilla, state_fidelity, zero_state)
from jqpie.synth import (block_encoded_rescaler, closed_form_resources, load_order,
                         synth_state_prep, synth_truncated_zigzag, truncated_zigzag_map)

from conftest import gradient_image, random_image


# --- direct amplitude encoding -------------------------------------------------

def test_qpie_two_by_two_amplitudes():
    # padded to one 8 x 8 block: pixel (1, 1) sits at index 8 + 1
    img = GrayscaleImage(np.array([[3.0, 0.0], [0.0, 4.0]]))
    result = run_qpie_direct(img)
    assert np.allclose(result.reconstructed.pixels, img.pixels, atol=1e-12)
    expected = np.zeros(64)
    expected[[0, 9]] = 0.6, 0.8
    assert np.allclose(result.state.amplitudes, expected, atol=1e-15)
    assert result.norm_record.padded_dims == (8, 8)
    assert result.success_probability == 1.0


@pytest.mark.parametrize("backend", ["operator", "gate_exact"])
def test_qpie_run_has_the_hybrid_run_interface(rng, backend):
    # strips of 8 block rows read the state out at p = 1, not clamped; the
    # reconstruction is assembled only when read, from the same pixels
    img = GrayscaleImage(random_image(rng, 70, 21).pixels * 3.0 - 200.0)
    run = run_qpie_direct(img, backend=backend)
    assert "reconstructed" not in vars(run)
    strips = [(row, pixels.copy()) for row, pixels in run.strips()]
    assert [row for row, _ in strips] == [0, 64]
    assert np.array_equal(np.concatenate([pixels for _, pixels in strips]),
                          run.reconstructed.pixels)
    assert np.max(np.abs(run.reconstructed.pixels - img.pixels)) <= 1e-9
    payload = run.to_json()
    assert payload.keys() == run_jqpie(img, 3).to_json().keys()
    assert payload["success_probability"] == 1.0
    assert payload["resources"] == closed_form_resources(7, 5, 6, method="qpie").to_json()


def test_qpie_uniform_image_gives_uniform_superposition(rng):
    img = GrayscaleImage(np.full((8, 8), 37.0))
    result = run_qpie_direct(img)
    assert np.allclose(np.abs(result.state.amplitudes), 1 / 8, atol=1e-12)


def test_qpie_readout_roundtrip(rng):
    img = random_image(rng, 16, 16)
    result = run_qpie_direct(img)
    assert np.max(np.abs(result.reconstructed.pixels - img.pixels)) <= 1e-9


def test_qpie_pads_its_input_and_rejects_zero():
    # 12 x 16 pads to 16 x 16 and crops back; an all-zero image is refused
    result = run_qpie_direct(GrayscaleImage(np.ones((12, 16))))
    assert result.norm_record.padded_dims == (16, 16) and result.state.n == 8
    assert np.max(np.abs(result.reconstructed.pixels - 1.0)) <= 1e-12
    assert result.reconstructed.pixels.shape == (12, 16)
    with pytest.raises(ValueError, match="all-zero"):
        run_qpie_direct(GrayscaleImage(np.zeros((8, 8))))


def test_qpie_gate_backend_matches_direct_injection(rng):
    img = random_image(rng, 8, 8)
    a = run_qpie_direct(img, backend="gate_exact")
    b = run_qpie_direct(img, backend="operator")
    assert np.linalg.norm(a.state.amplitudes - b.state.amplitudes) <= 1e-10


def test_qpie_resources_full_register():
    report = run_qpie_direct(GrayscaleImage(np.ones((16, 16)))).resources
    assert report.breakdown["state_prep"].cx == 2 ** 8 - 2
    # 256x256 configuration, straight from the closed form
    big = closed_form_resources(8, 8, 6, method="qpie")
    assert big.breakdown["state_prep"].cx == 2 ** 16 - 2


# --- quantized pipeline ---------------------------------------------------------

def test_jqpie_r6_matches_classical_jpeg(rng):
    img = random_image(rng, 16, 16)
    result = run_jqpie(img, r=6, scale=1.0)
    oracle = reference_decode_pixels(img, "jpeg", scale=1.0)
    assert np.max(np.abs(result.reconstructed.pixels - oracle)) <= 1e-6
    assert 0.0 < result.success_probability <= 1.0


def test_jqpie_r3_matches_truncation_oracle(rng):
    img = random_image(rng, 16, 16)
    result = run_jqpie(img, r=3, scale=1.0)
    oracle = reference_decode_pixels(img, "jqpie_oracle", r=3, scale=1.0)
    assert np.max(np.abs(result.reconstructed.pixels - oracle)) <= 1e-6


def test_jqpie_success_probability_one_on_max_entry_support():
    # craft a block whose only quantized coefficient sits at the divisor
    # maximum (frequency index 53, divisor 121), where d_k = 1
    coeffs = np.zeros((8, 8))
    coeffs[6, 5] = 3 * 121.0
    block = idct2_block(coeffs)
    img = GrayscaleImage(block)
    result = run_jqpie(img, r=6, scale=1.0)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_jqpie_probability_matches_classical_norm(rng):
    for size in ((16, 16), (24, 24)):
        img = random_image(rng, *size)
        for r in (2, 4, 6):
            result = run_jqpie(img, r=r, scale=1.0)
            padded = pad_to_pow2(img)
            zz = truncate_zigzag(zigzag_coefficients(pad_and_partition(padded),
                                                     table=QuantTable(1.0)), r)
            amps = zz / np.linalg.norm(zz)
            diag = block_encoded_rescaler(QuantTable(1.0)).diagonal
            sigma = truncated_zigzag_map(r)
            expected = float(np.sum((amps * diag[sigma][None, :]) ** 2))
            assert abs(result.success_probability - expected) <= 1e-10


def test_jqpie_rejects_flat_zero_truncation():
    with pytest.raises(ValueError, match="zero"):
        # uniform mid-gray: nothing but tiny DC, scale huge -> all-zero quantized
        run_jqpie(GrayscaleImage(np.full((8, 8), 1.0)), r=2, scale=100.0)


# --- quantization-free pipeline ---------------------------------------------------

def test_qf_r6_equals_direct_qpie(rng):
    img = random_image(rng, 16, 16)
    qf = run_qf_jqpie(img, r=6)
    qpie = run_qpie_direct(pad_to_pow2(img))
    assert state_fidelity(qf.state, qpie.state) >= 1.0 - 1e-10
    assert qf.success_probability == 1.0


def test_qf_r5_matches_oracle_on_gradient():
    img = gradient_image(16, 16)
    result = run_qf_jqpie(img, r=5)
    oracle = reference_decode_pixels(img, "qf_oracle", r=5)
    assert np.max(np.abs(result.reconstructed.pixels - oracle)) <= 1e-6


def test_qf_monotone_truncation_error(rng):
    img = random_image(rng, 16, 16)
    errors = []
    for r in (2, 3, 4, 5, 6):
        recon = run_qf_jqpie(img, r=r).reconstructed.pixels
        errors.append(np.linalg.norm(img.pixels - recon))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-9


# --- the central oracle-equivalence property ---------------------------------------

@pytest.mark.parametrize("size", [(16, 16), (24, 24), (32, 32)])
def test_oracle_equivalence_sweep(rng, size):
    img = random_image(rng, *size)
    for r in (2, 3, 4, 5, 6):
        qf = run_qf_jqpie(img, r=r)
        qf_oracle = reference_decode_pixels(img, "qf_oracle", r=r)
        assert np.max(np.abs(qf.reconstructed.pixels - qf_oracle)) <= 1e-6
        for scale in (0.5, 1.0, 2.0):
            jq = run_jqpie(img, r=r, scale=scale)
            jq_oracle = reference_decode_pixels(img, "jqpie_oracle", r=r, scale=scale)
            assert np.max(np.abs(jq.reconstructed.pixels - jq_oracle)) <= 1e-6


def test_oracle_equivalence_per_block_mode(rng):
    img = random_image(rng, 16, 16)
    for r in (3, 6):
        jq = run_jqpie(img, r=r, scale=1.0, norm_mode="per_block")
        oracle = reference_decode_pixels(img, "jqpie_oracle", r=r, scale=1.0)
        assert np.max(np.abs(jq.reconstructed.pixels - oracle)) <= 1e-6
        qf = run_qf_jqpie(img, r=r, norm_mode="per_block")
        qo = reference_decode_pixels(img, "qf_oracle", r=r)
        assert np.max(np.abs(qf.reconstructed.pixels - qo)) <= 1e-6


def test_per_block_flags_degenerate_blocks():
    # left half bright, right half exactly zero: the zero blocks carry no
    # coefficients and must come back as zero blocks
    pixels = np.zeros((8, 16))
    pixels[:, :8] = 200.0
    img = GrayscaleImage(pixels)
    result = run_qf_jqpie(img, r=6, norm_mode="per_block")
    assert result.norm_record.per_block_norms[1] == 0.0
    assert np.allclose(result.reconstructed.pixels[:, 8:], 0.0, atol=1e-12)
    assert np.allclose(result.reconstructed.pixels[:, :8], 200.0, atol=1e-9)


def test_non_pow2_images_pad_and_crop(rng):
    img = random_image(rng, 20, 12)   # pads to 32 x 16
    result = run_qf_jqpie(img, r=6)
    assert result.norm_record.padded_dims == (32, 16)
    assert result.reconstructed.pixels.shape == (20, 12)
    assert np.max(np.abs(result.reconstructed.pixels - img.pixels)) <= 1e-8


_DIMS = st.sampled_from([1, 7, 8, 9, 63, 64, 80]) | st.integers(1, 80)


@st.composite
def _edge_images(draw):
    """Odd sizes (1xN, Nx1, non-multiples of 8), low bit depths, and constant,
    all-zero or partly zero-block images."""
    h, w = draw(_DIMS), draw(_DIMS)
    bit_depth = draw(st.integers(1, 8))
    peak = 2 ** bit_depth - 1
    kind = draw(st.sampled_from(["random", "constant", "zero", "zero_blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "constant":
        pixels = np.full((h, w), float(draw(st.integers(0, peak))))
    elif kind == "zero":
        pixels = np.zeros((h, w))
    else:
        pixels = rng.integers(0, peak + 1, (h, w)).astype(np.float64)
        if kind == "zero_blocks":
            keep = rng.random((-(-h // 8), -(-w // 8))) < 0.5
            pixels *= np.kron(keep, np.ones((8, 8)))[:h, :w]
    return GrayscaleImage(pixels, bit_depth=bit_depth)


@given(_edge_images(), st.sampled_from(pipeline.METHODS), st.integers(2, 6),
       st.floats(0.05, 50), st.sampled_from(NORM_MODES))
def test_hybrid_methods_match_oracles_at_the_edges(img, method, r, scale, norm_mode):
    # the default operator path: every padded size here loads by the cascade
    if method == "jqpie":
        table, oracle_mode = QuantTable(scale), "jqpie_oracle"
        run = lambda: run_jqpie(img, r, scale=scale, norm_mode=norm_mode)
    else:
        table, oracle_mode = None, "qf_oracle"
        run = lambda: run_qf_jqpie(img, r, norm_mode=norm_mode)
    if not np.any(truncate_zigzag(zigzag_coefficients(pad_and_partition(img), table), r)):
        with pytest.raises(ValueError, match="truncated coefficient vector is identically zero"):
            run()
        return
    oracle = reference_decode_pixels(img, oracle_mode, r=r, scale=scale)
    assert np.max(np.abs(run().reconstructed.pixels - oracle)) <= 1e-6


# --- stage-state check ---------------------------------------------------------------

def test_zigzag_stage_moves_amplitudes_exhaustively(rng):
    # the load-ordered amplitudes in the low slots of each block come out of
    # the zigzag stage as the truncated coefficients in frequency order
    img = random_image(rng, 16, 16)
    encoding = pipeline.encode_image(img, None)
    for r in TRUNCATION_LEVELS:
        amp_matrix, record = pipeline._amplitudes(encoding, r, "global")
        amps = np.zeros((4, 64))
        amps[:, :2 ** r] = amp_matrix
        circ = Circuit(8, synth_truncated_zigzag(r).gates)
        out = apply_circuit(from_amplitudes(amps.reshape(-1)), circ)
        zz = truncate_zigzag(_zigzag(encoding.plane), r)
        expected = blocks_from_zigzag(zz).reshape(4, 64) / record.global_norm
        assert np.max(np.abs(out.amplitudes.reshape(4, 64) - expected)) <= 1e-12


# --- readout ---------------------------------------------------------------------------

def test_per_block_readout_matches_global_for_equal_energy(rng):
    # tile one block so every block carries identical energy
    block = rng.uniform(10, 200, (8, 8))
    img = GrayscaleImage(np.tile(block, (2, 2)))
    a = run_qf_jqpie(img, r=6, norm_mode="global").reconstructed.pixels
    b = run_qf_jqpie(img, r=6, norm_mode="per_block").reconstructed.pixels
    assert np.max(np.abs(a - b)) <= 1e-9


def test_readout_validation(rng):
    record = NormalizationRecord(10.0, None, "global", None, (8, 8))
    state = StateVector(np.zeros(64), 6)
    bad_record = NormalizationRecord(10.0, None, "global", None, (16, 16))
    with pytest.raises(ValueError):
        readout_image(state, bad_record, (16, 16))


def test_normalization_record_validation():
    with pytest.raises(ValueError):
        NormalizationRecord(0.0, None, "global", None, (8, 8))
    with pytest.raises(ValueError):
        NormalizationRecord(1.0, None, "weird", None, (8, 8))
    with pytest.raises(ValueError):
        NormalizationRecord(1.0, None, "global", np.ones(4), (8, 8))
    for dims in ((4, 8), (8, 12), (16, 0)):
        with pytest.raises(ValueError, match="powers of two of at least 8"):
            NormalizationRecord(1.0, None, "global", None, dims)


def test_pipeline_result_serializes(rng):
    img = random_image(rng, 16, 16)
    result = run_jqpie(img, r=4)
    payload = result.to_json()
    assert 0 < payload["success_probability"] <= 1
    assert payload["normalization"]["lambda"] == 121.0
    assert payload["resources"]["breakdown"]["inverse_quantization"]["cx"] == 64
    assert json.loads(json.dumps(payload)) == payload


def test_backend_equivalence_full_pipelines(rng):
    img = random_image(rng, 16, 16)
    for r in (2, 4, 6):
        a = run_jqpie(img, r=r, backend="gate_exact")
        b = run_jqpie(img, r=r, backend="operator")
        assert np.linalg.norm(a.state.amplitudes - b.state.amplitudes) <= 1e-8
        qa = run_qf_jqpie(img, r=r, backend="gate_exact")
        qb = run_qf_jqpie(img, r=r, backend="operator")
        assert np.linalg.norm(qa.state.amplitudes - qb.state.amplitudes) <= 1e-8


@pytest.mark.parametrize("r", [2, 6])
def test_backend_equivalence_per_block(rng, r):
    # 24 x 40 pads to 32 x 64, so padding blocks join an all-zero block
    # and a constant block, whose per-block norms are 0 and the DC alone
    pixels = rng.integers(0, 256, (24, 40)).astype(np.float64)
    pixels[:8, :8] = 0.0
    pixels[8:16, 16:24] = 93.0
    img = GrayscaleImage(pixels)
    for method in (run_jqpie, run_qf_jqpie):
        a = method(img, r, backend="gate_exact", norm_mode="per_block")
        b = method(img, r, backend="operator", norm_mode="per_block")
        # one normalization: the records are equal, the zero block's norm 0
        assert a.to_json()["normalization"] == b.to_json()["normalization"]
        assert np.count_nonzero(b.norm_record.per_block_norms == 0.0) >= 1
        assert np.max(np.abs(a.state.amplitudes - b.state.amplitudes)) <= 1e-12
        assert abs(a.success_probability - b.success_probability) <= 1e-12
        assert np.max(np.abs(a.reconstructed.pixels - b.reconstructed.pixels)) <= 1e-9


def test_runs_reject_an_unknown_backend(rng, monkeypatch):
    img = random_image(rng, 8, 8)

    def encoded(*args, **kwargs):
        raise AssertionError("encoded before the backend was checked")

    # encoding a hybrid run, and QPIE's own padding, both start with pad_to_pow2
    for name in ("encode_image", "pad_to_pow2", "log2_exact"):
        monkeypatch.setattr(pipeline, name, encoded)
    for run in (lambda: run_jqpie(img, r=4, backend="bogus"),
                lambda: run_qf_jqpie(img, r=4, backend="bogus"),
                lambda: run_qpie_direct(img, backend="bogus")):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            run()


def test_large_image_operator_backend(rng):
    # the operator backend decodes the plane in strips, which keeps large cases fast
    img = random_image(rng, 128, 128)
    result = run_qf_jqpie(img, r=4)
    oracle = reference_decode_pixels(img, "qf_oracle", r=4)
    assert np.max(np.abs(result.reconstructed.pixels - oracle)) <= 1e-6


# --- operator-backend decompression ----------------------------------------------------

def _gate_by_gate_reference(img, r, scale, norm_mode):
    """The decompression circuit applied gate by gate to the full register,
    ancilla included, then post-selected: what the operator backend replaces."""
    encoding = pipeline.encode_image(img, scale)
    amp_matrix, _ = pipeline._amplitudes(encoding, r, norm_mode)
    h, w = encoding.h, encoding.w
    ancilla = scale is not None
    amps = np.zeros((2 if ancilla else 1, len(amp_matrix), 64))
    amps[0, :, :2 ** r] = amp_matrix
    circuit = pipeline._decompression_circuit(h + w, r, scale)
    sv = apply_circuit(from_amplitudes(amps.reshape(-1)), circuit)
    if not ancilla:
        return sv.amplitudes, 1.0
    post = postselect_ancilla(sv, qubit=h + w, outcome=0)
    return post.state.amplitudes, post.probability


@pytest.mark.parametrize("size", [(256, 256), (57, 33)], ids=["256x256", "57x33"])
def test_fused_decompression_matches_gate_by_gate(rng, size):
    img = random_image(rng, *size)
    for norm_mode in NORM_MODES:
        for r in (2, 3, 4, 5, 6):
            for scale in (None, 0.25, 1.0, 8.0):
                if scale is None:
                    result = run_qf_jqpie(img, r, norm_mode=norm_mode)
                else:
                    result = run_jqpie(img, r, scale=scale, norm_mode=norm_mode)
                amps, probability = _gate_by_gate_reference(img, r, scale, norm_mode)
                assert np.max(np.abs(result.state.amplitudes - amps)) <= 1e-12
                assert abs(result.success_probability - probability) <= 1e-12


def _fresh_decompression(monkeypatch):
    """Runs build their decompression circuit and record through caches
    apart from the real ones, so a substituted stage reaches them."""
    for name in ("_decompression_circuit", "_decompression"):
        monkeypatch.setattr(pipeline, name,
                            lru_cache(maxsize=None)(getattr(pipeline, name).__wrapped__))


def test_fused_decompression_zero_branch_raises(tmp_path, rng, monkeypatch):
    # no RY/CX circuit has an exactly zero ancilla-0 branch in float64 (an
    # all-RY(pi) rescaler leaves cos(pi/2) = 6e-17), so the record is zero
    zero = np.zeros((8, 8))
    record = pipeline._Decompression(np.zeros((64, 16)), zero, fold_weight(zero))
    monkeypatch.setattr(pipeline, "_decompression", lambda r, scale: record)
    img = random_image(rng, 16, 16)
    with pytest.raises(ValueError, match="zero-probability branch: qubit 8 never reads 0"):
        run_jqpie(img, r=4)
    write_pgm(img, tmp_path / "img.pgm")
    rows = run_sweep(SweepConfig(inputs=(str(tmp_path / "img.pgm"),), methods=("jqpie",),
                                 r_set=(4,)))
    assert "zero-probability branch" in rows[0]["error"]


@pytest.mark.parametrize("backend", pipeline.BACKENDS)
def test_a_rounding_level_branch_is_refused(tmp_path, rng, monkeypatch, backend):
    # a rescaler of RY(pi) alone flips the ancilla: the ancilla-0 branch holds
    # only rounding noise, p of about 4e-33 and not exactly 0, far under the
    # floor and far under any branch a run can reach, (10/121)^2 ~ 6.8e-3
    assert (10 / 121) ** 2 > 1e9 * MIN_BRANCH_PROBABILITY
    monkeypatch.setattr(pipeline, "block_encoded_rescaler",
                        lambda table: SimpleNamespace(angles=np.full(64, math.pi)))
    _fresh_decompression(monkeypatch)
    img = random_image(rng, 16, 16)
    with pytest.raises(ValueError, match="zero-probability branch: qubit 8 never reads 0") as info:
        run_jqpie(img, r=4, backend=backend)
    p = float(re.search(r"p = (\S+),", str(info.value)).group(1))
    assert 0.0 < p < 1e-30
    write_pgm(img, tmp_path / "img.pgm")
    rows = run_sweep(SweepConfig(inputs=(str(tmp_path / "img.pgm"),), methods=("jqpie",),
                                 r_set=(4,), backend=backend))
    assert "zero-probability branch" in rows[0]["error"]


def test_operator_that_is_not_the_scaled_inverse_dct_is_refused(tmp_path, rng, monkeypatch):
    # the weights are read off the operator only when it is kron(D^T, D^T)
    # times d_f on the loaded frequencies within 1e-12: an inverse QDCT
    # whose first RY is 1e-9 off is still unitary, and is refused
    qdct = pipeline.synth_inverse_qdct_gates

    def perturbed():
        gates = list(qdct())
        first = next(i for i, gate in enumerate(gates) if gate.kind == "ry")
        gates[first] = replace(gates[first], angle=gates[first].angle + 1e-9)
        return gates

    monkeypatch.setattr(pipeline, "synth_inverse_qdct_gates", perturbed)
    _fresh_decompression(monkeypatch)
    img = random_image(rng, 16, 16)
    for run in (lambda: run_jqpie(img, r=4), lambda: run_qf_jqpie(img, r=6)):
        with pytest.raises(ArithmeticError, match="not the inverse DCT of its loaded "
                                                  "frequencies times d_f within 1e-12"):
            run()
    write_pgm(img, tmp_path / "img.pgm")
    rows = run_sweep(SweepConfig(inputs=(str(tmp_path / "img.pgm"),), r_set=(4,)))
    assert all("not the inverse DCT" in row["error"] for row in rows) and len(rows) == 2


@pytest.mark.parametrize("size", [(1, 64), (8, 8), (37, 61), (57, 33)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_operator_reconstructions_match_the_oracles(rng, size):
    """The decoded plane, whole (the run's reconstruction) and in the strips
    a sweep scores, is the classical oracle's reconstruction to 1e-9 L."""
    img = random_image(rng, *size)
    peak = img.max_value
    for norm_mode in NORM_MODES:
        for r in TRUNCATION_LEVELS:
            for scale in (None, 0.25, 1.0, 8.0):
                if scale is None:
                    result = run_qf_jqpie(img, r, norm_mode=norm_mode)
                    oracle = reference_decode_pixels(img, "qf_oracle", r=r)
                else:
                    result = run_jqpie(img, r, scale=scale, norm_mode=norm_mode)
                    oracle = reference_decode_pixels(img, "jqpie_oracle", r=r, scale=scale)
                run = pipeline.HybridRun(pipeline.encode_image(img, scale), r, "operator",
                                         norm_mode)
                strips = np.full(size, np.nan)
                for row, pixels in run.strips():
                    strips[row:row + len(pixels)] = pixels
                assert run.success_probability == result.success_probability
                for got in (result.reconstructed.pixels, strips):
                    assert np.max(np.abs(got - oracle)) <= 1e-9 * peak, (norm_mode, r, scale)


def _multiply_first(plane: np.ndarray, weight: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The plane weighted block by block, then inverse transformed by the
    block path (:func:`idct2_blocks`), cropped to ``dims``."""
    nbx, nby = plane.shape[0] // 8, plane.shape[1] // 8
    blocks = plane.reshape(nbx, 8, nby, 8).transpose(0, 2, 1, 3) * weight
    pixels = idct2_blocks(blocks.reshape(-1, 8, 8)).reshape(nbx, nby, 8, 8)
    return pixels.transpose(0, 2, 1, 3).reshape(plane.shape)[:dims[0], :dims[1]]


@pytest.mark.parametrize("size", [(1, 64), (8, 8), (37, 61), (57, 33), (256, 256)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_folded_decode_matches_multiply_first(rng, size):
    """The operator decode, with lambda d_f folded into the inverse DCT's
    first product, is the plane weighted first and then inverse transformed
    to 1e-13 L; the strips a sweep scores are the run's reconstruction bit
    for bit."""
    img = random_image(rng, *size)
    for scale in (None, 0.25, 1.0, 8.0):
        encoding = pipeline.encode_image(img, scale)
        for r in TRUNCATION_LEVELS:
            weight = pipeline._decompression(r, scale).weights
            if scale is not None:
                weight = weight * QuantTable(scale).max_entry
            expected = _multiply_first(encoding.plane, weight, size)
            for norm_mode in NORM_MODES:
                if scale is None:
                    result = run_qf_jqpie(encoding, r, norm_mode=norm_mode)
                else:
                    result = run_jqpie(encoding, r, scale=scale, norm_mode=norm_mode)
                run = pipeline.HybridRun(encoding, r, "operator", norm_mode)
                strips = np.full(size, np.nan)
                for row, pixels in run.strips():
                    strips[row:row + len(pixels)] = pixels
                got = result.reconstructed.pixels
                assert np.array_equal(strips, got), (norm_mode, r, scale)
                assert np.max(np.abs(got - expected)) <= 1e-13 * img.max_value, (
                    norm_mode, r, scale)


def test_energies_are_computed_once_per_encoding(tmp_path, rng, monkeypatch):
    # a global sweep at every r reads the plane's energies per frequency
    # once per encoding (two images, two methods), and the energies live on
    # the encoding: once it is dropped, nothing keeps its plane alive
    for name in ("one.pgm", "two.pgm"):
        write_pgm(random_image(rng, 24, 40), tmp_path / name)
    calls = []
    energies = pipeline._plane_energies

    def spy(plane):
        calls.append(plane)
        return energies(plane)

    monkeypatch.setattr(pipeline, "_plane_energies", spy)
    rows = run_sweep(SweepConfig(inputs=(str(tmp_path),)))
    assert len(rows) == 2 * 2 * len(TRUNCATION_LEVELS)
    assert not any(row["error"] for row in rows)
    assert len(calls) == 2 * 2
    assert len({id(plane) for plane in calls}) == len(calls)
    calls.clear()

    encoding = pipeline.encode_image(random_image(rng, 64, 64), 1.0)
    for r in TRUNCATION_LEVELS:
        pipeline.HybridRun(encoding, r, "operator", "global")
    assert len(calls) == 1 and calls[0] is encoding.plane
    assert np.array_equal(encoding.energies, energies(encoding.plane))
    plane = weakref.ref(encoding.plane)
    calls.clear()
    del encoding
    gc.collect()
    assert plane() is None


@pytest.mark.parametrize("scale", [None, 1.0], ids=["qf_jqpie", "jqpie"])
def test_branch_probability_rejects_a_nan_norm(scale):
    with pytest.raises(ArithmeticError, match="squared norm nan"):
        pipeline._branch_probability(math.nan, 8, scale)


def test_normalization_record_rejects_a_nan_norm():
    with pytest.raises(ValueError, match="global_norm must be positive"):
        NormalizationRecord(math.nan, None, "global", None, (8, 8))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_decompression_operator_matches_lowered_gate_exact_circuit(r):
    # M read off the full decompression circuit under gate_exact. Column s
    # of M is also the inverse 2D DCT of frequency f = load_order(r)[s],
    # rescaled by d_f; the record's weights are those d_f, and its folded
    # weight is lambda d_f (d_f without a scale) times D, row class by row
    # class. Every array of the record is read-only.
    kept = 2 ** r
    inverse_dct = np.kron(dct_matrix().T, dct_matrix().T)
    for scale in (None, 0.25, 1.0, 8.0):
        circuit = pipeline._decompression_circuit(12, r, scale)
        probe = np.zeros((1 if scale is None else 2, 64, 64))
        probe[0, :kept, :kept] = np.eye(kept) / np.sqrt(kept)
        out = apply_circuit(from_amplitudes(probe.reshape(-1)), circuit)
        matrix = out.amplitudes.reshape(-1, 64, 64)[0, :kept].T * np.sqrt(kept)
        record = pipeline._decompression(r, scale)
        assert record is pipeline._decompression(r, scale)
        operator = record.matrix
        assert operator.shape == (64, kept)
        assert np.max(np.abs(operator - matrix)) <= 1e-12
        d = np.ones(64) if scale is None else block_encoded_rescaler(QuantTable(scale)).diagonal
        f = load_order(r)
        assert np.max(np.abs(operator - inverse_dct[:, f] * d[f])) <= 1e-12
        weights = np.zeros(64)
        weights[f] = d[f]
        assert np.max(np.abs(record.weights - weights.reshape(8, 8))) <= 1e-12
        lam = 1.0 if scale is None else QuantTable(scale).max_entry
        expected = lam * record.weights[:, :, None] * dct_matrix()
        assert np.array_equal(record.folded, expected)
        assert not any(a.flags.writeable for a in (record.matrix, record.weights,
                                                   record.folded))


# --- state load -------------------------------------------------------------------

@st.composite
def _unit_vectors(draw):
    """Signed unit vectors on 1..12 active qubits, some with whole zero subtrees."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vec = rng.standard_normal(2 ** m)
    level = draw(st.integers(0, m))
    subtrees = vec.reshape(2 ** level, -1)
    zeroed = draw(st.lists(st.integers(0, 2 ** level - 1), max_size=2 ** level - 1,
                           unique=True))
    subtrees[zeroed] = 0.0
    return vec / np.linalg.norm(vec)


@settings(max_examples=40)
@given(_unit_vectors())
def test_state_prep_cascade_loads_the_vector(vec):
    # the gate_exact load: the cascade run from |0...0> leaves the vector itself
    m = len(vec).bit_length() - 1
    loaded = apply_circuit(zero_state(m), synth_state_prep(vec))
    assert np.max(np.abs(loaded.amplitudes - vec)) <= 1e-12


def test_operator_load_builds_no_circuit(rng, monkeypatch):
    # the operator backend decodes the encoding's plane itself: making the
    # run decodes nothing, and its state and reconstruction take one call of
    # the decode kernel, over the plane cropped to the original dimensions,
    # weighted by lambda d_f = Q_f (1 for QF-JQPIE) on the loaded
    # frequencies and zero elsewhere, folded into the inverse DCT as
    # diag(weight[u, :]) D; only gate_exact builds and runs the cascade.
    # There is one normalization, so its norms are the cascade's exactly.
    images = (random_image(rng, 16, 16), random_image(rng, 57, 33))
    for r in (2, 6):
        for scale in (None, 1.0):
            pipeline._decompression(r, scale)   # the cached operator build
    calls = []

    def spy(name):
        fn = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, wrapped)

    for name in ("synth_state_prep", "apply_circuit", "idct_strips"):
        spy(name)
    for img in images:
        for scale, run_method in ((None, run_qf_jqpie), (1.0, run_jqpie)):
            encoding = pipeline.encode_image(img, scale)
            q = np.ones(64) if scale is None else QuantTable(scale).values.reshape(-1)
            for norm_mode in NORM_MODES:
                for r in (2, 6):
                    calls.clear()
                    run = run_method(encoding, r, norm_mode=norm_mode)
                    assert calls == []
                    run.state, run.reconstructed
                    [(name, (plane, folded, dims))] = calls
                    assert name == "idct_strips" and plane is encoding.plane
                    assert dims == img.original_dims
                    expected = np.zeros(64)
                    expected[load_order(r)] = q[load_order(r)]
                    expected = expected.reshape(8, 8)[:, :, None] * dct_matrix()
                    assert np.max(np.abs(folded - expected)) <= 1e-12 * q.max()
                    _, cascade = pipeline._amplitudes(encoding, r, norm_mode)
                    record = run.norm_record
                    assert record.global_norm == cascade.global_norm
                    if norm_mode == "per_block":
                        assert np.array_equal(record.per_block_norms, cascade.per_block_norms)
    calls.clear()
    run_qpie_direct(images[0])
    assert calls == []
    run_qf_jqpie(images[0], 3, backend="gate_exact")
    run_qpie_direct(images[0], backend="gate_exact")
    assert [name for name, _ in calls] == ["synth_state_prep", "apply_circuit", "apply_circuit",
                                           "synth_state_prep", "apply_circuit"]


def test_gate_exact_cascade_runs_without_the_ancilla(rng, monkeypatch):
    # the run applies the exported cascade, declared on all 13 qubits, then
    # the decompression. Every kernel call of the cascade acts on at most
    # the 2^m amplitudes of the m = h + w - 6 + r qubits it loads: data
    # qubits r..5 and the ancilla stay above the live prefix. The layout
    # exchanges around a circuit are not its gates. The post-selected state
    # is that of the exported full-width circuit run from |0...0>
    img = random_image(rng, 64, 64)
    apply, swap_bits = pipeline.apply_circuit, qsim._swap_bits
    rotate, swap = qsim._rotate, qsim._swap
    calls, laying_out = [], []   # the amplitudes each kernel call acts on, per apply

    def applying(sv, circuit):
        calls.append((sv.n, circuit.n_qubits, []))
        return apply(sv, circuit)

    def exchanging(*args):
        laying_out.append(True)
        swap_bits(*args)
        laying_out.pop()

    def rotating(rows, matrix, out):
        if not laying_out:
            calls[-1][2].append(rows.size)
        rotate(rows, matrix, out)

    def swapping(a, b, held_a, held_b):
        if not laying_out:
            calls[-1][2].append(4 * a.size)   # two quarters of the prefix
        swap(a, b, held_a, held_b)

    monkeypatch.setattr(pipeline, "apply_circuit", applying)
    monkeypatch.setattr(qsim, "_swap_bits", exchanging)
    monkeypatch.setattr(qsim, "_rotate", rotating)
    monkeypatch.setattr(qsim, "_swap", swapping)
    for r in (3, 6):
        calls.clear()
        result = run_jqpie(img, r, backend="gate_exact")
        (*cascade_widths, cascade), (*decompression_widths, decompression) = calls
        assert cascade_widths == decompression_widths == [13, 13]
        assert max(cascade) == 2 ** (6 + r) and max(decompression) == 2 ** 13
        full = pipeline.hybrid_circuit(img, "jqpie", r)
        assert full.n_qubits == 13
        post = postselect_ancilla(apply(zero_state(13), full), qubit=12, outcome=0)
        assert np.max(np.abs(result.state.amplitudes - post.state.amplitudes)) <= 1e-12
        assert abs(result.success_probability - post.probability) <= 1e-12


@pytest.mark.parametrize("norm_mode", NORM_MODES)
def test_compact_cascade_matches_the_full_width_circuit(rng, norm_mode):
    # 24 x 40 pads to 32 x 64 (h != w): the run's two applies, the cascade
    # and then the decompression, give the state of the composed full-width
    # circuit run from |0...0> in one apply, at every r
    img = random_image(rng, 24, 40)
    for scale in (None, 1.0):
        encoding = pipeline.encode_image(img, scale)
        h, w = encoding.h, encoding.w
        for r in range(2, 7):
            run = pipeline.HybridRun(encoding, r, "gate_exact", norm_mode)
            amp_matrix, _ = pipeline._amplitudes(encoding, r, norm_mode)
            full = compose(pipeline._state_prep_circuit(amp_matrix, h, w, r, scale is not None),
                           pipeline._decompression_circuit(h + w, r, scale))
            out = apply_circuit(zero_state(full.n_qubits), full)
            probability = 1.0
            if scale is not None:
                post = postselect_ancilla(out, qubit=h + w, outcome=0)
                out, probability = post.state, post.probability
            assert np.max(np.abs(run.state.amplitudes - out.amplitudes)) <= 1e-12, (scale, r)
            assert abs(run.success_probability - probability) <= 1e-12, (scale, r)


@pytest.mark.parametrize("height, width", [(16, 32), (32, 16)])
def test_gate_exact_checks_the_exported_index_layout(rng, monkeypatch, height, width):
    # gate_exact runs the cascade that export writes, so a fault in its
    # qubit map shows: unpatched it gives the operator state, and with the
    # row and column parts of the index targets swapped (h != w) its state
    # moves off the operator's by far more than rounding
    img = random_image(rng, height, width)

    def swapped(amp_matrix, h, w, r, ancilla):
        rows, cols = list(range(h + w - 1, w + 2, -1)), list(range(w + 2, 5, -1))
        return synth_state_prep(amp_matrix.reshape(-1),
                                targets=cols + rows + list(range(r - 1, -1, -1)),
                                n_qubits=h + w + ancilla)

    def gaps():
        for method in pipeline.METHODS:
            encoding = pipeline.encode_image(img, pipeline.method_scale(method, 1.0))
            for r in (2, 6):
                operator, exact = (pipeline.HybridRun(encoding, r, backend, "global").state
                                   for backend in pipeline.BACKENDS)
                yield np.max(np.abs(exact.amplitudes - operator.amplitudes))

    assert max(gaps()) <= 1e-12
    monkeypatch.setattr(pipeline, "_state_prep_circuit", swapped)
    assert min(gaps()) > 1e-6


def _hybrid_operator_runs(img):
    for r in (3, 6):
        for run in (run_qf_jqpie(img, r), run_jqpie(img, r)):
            assert run.state.n == 12
            run.reconstructed


# "cascade": the hybrid runs, whose operator load stands in for the state-prep
# cascade; "direct": QPIE direct injection of the pixels.
@pytest.mark.parametrize("runs", [_hybrid_operator_runs, run_qpie_direct],
                         ids=["cascade", "direct"])
def test_operator_path_stays_on_image_qubits(rng, monkeypatch, runs):
    img = random_image(rng, 64, 64)
    for r in (3, 6):
        for scale in (None, 1.0):
            pipeline._decompression(r, scale)   # the cached operator build
    widths = []
    build = StateVector.__post_init__

    def spy_state(self):
        widths.append(self.n)
        build(self)

    def no_postselect(*args, **kwargs):
        raise AssertionError("postselect_ancilla called on the operator path")

    monkeypatch.setattr(StateVector, "__post_init__", spy_state)
    monkeypatch.setattr(pipeline, "postselect_ancilla", no_postselect)
    runs(img)
    assert widths and max(widths) == 12


def test_sweep_cells_build_no_state_or_image(tmp_path, rng, monkeypatch):
    # a cell scores its run's strips only: under operator neither the
    # image-sized state nor the reconstruction is ever built
    write_pgm(random_image(rng, 37, 61), tmp_path / "img.pgm")
    runs = []

    class Recorded(pipeline.HybridRun):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(bench, "HybridRun", Recorded)
    for norm_mode in NORM_MODES:
        rows = run_sweep(SweepConfig(inputs=(str(tmp_path / "img.pgm"),), norm_mode=norm_mode))
        assert len(rows) == 2 * len(TRUNCATION_LEVELS) and not any(row["error"] for row in rows)
    assert len(runs) == 2 * len(rows)
    assert not any({"state", "reconstructed"} & vars(run).keys() for run in runs)


# --- one classical front end per image ----------------------------------------------

@pytest.mark.parametrize("size", [(37, 61), (1, 80), (9, 9), (200, 130)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_encoding_holds_the_jpeg_grid_exactly(rng, size):
    img = random_image(rng, *size)
    for scale in (1.0, 3.5):
        table = QuantTable(scale)
        expected = zigzag_coefficients(pad_and_partition(img), table, layout="image")
        for encoding in (pipeline.encode_image(img, scale), pipeline.encode_image(img, None)):
            plane = encoding.jpeg_coefficients(scale)
            assert np.array_equal(plane, expected)
        oracle = np.clip(reference_decode_pixels(img, "jpeg", scale=scale), 0.0, img.max_value)
        assert np.array_equal(classical_reference_decode(plane, table, img).pixels, oracle)
        from_matrix = sparsity_stats(plane)
        from_oracle = sparsity_stats(_plane(_block_path(img, table), plane.shape))
        assert np.array_equal(from_matrix.histogram, from_oracle.histogram)
        assert ((from_matrix.nonzero_count, from_matrix.compression_ratio,
                 from_matrix.pixel_count, from_matrix.block_count)
                == (from_oracle.nonzero_count, from_oracle.compression_ratio,
                    from_oracle.pixel_count, from_oracle.block_count))


def _block_path(img, table):
    """The oracles' zigzag matrix of ``img``, from its block stack."""
    return _block_zigzag(pad_and_partition(img), table)


def _plane(zz, shape):
    """The coefficient plane of ``shape`` whose blocks' zigzag rows are ``zz``."""
    nbx, nby = shape[0] // 8, shape[1] // 8
    return blocks_from_zigzag(zz).reshape(nbx, nby, 8, 8).transpose(0, 2, 1, 3).reshape(shape)


def _zigzag(plane):
    """The zigzag rows of a coefficient plane's blocks, in row-major block order."""
    nbx, nby = plane.shape[0] // 8, plane.shape[1] // 8
    blocks = plane.reshape(nbx, 8, nby, 8).transpose(0, 2, 1, 3).reshape(-1, 64)
    return blocks[:, zigzag_permutation()]


def _tie_image():
    """Constant 8x8 tiles whose quantized DC at S=1 is exactly +-(k + 0.5).

    The DC of a constant tile c is 8c up to rounding and Q(0,0) = 16; odd
    values of c whose computed DC is exactly 8c land on a tie. Negative
    values are out-of-range pixels."""
    values = [c for c in range(-255, 256, 2)
              if dct2_block(np.full((8, 8), float(c)))[0, 0] == 8 * c][:64]
    tiles = np.repeat(np.repeat(np.reshape(values, (8, 8)), 8, axis=0), 8, axis=1)
    return GrayscaleImage(tiles)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("size", [(1, 1), (1, 64), (9, 17), (37, 61), (64, 40), (512, 256)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_front_end_is_bit_for_bit_the_block_path(rng, size):
    """The image-layout transform gives the oracles' block-path values exactly,
    signed zeros included, for the encoding, the image's own grid and a
    grid passed in; the encoding's plane is read-only and C-contiguous."""
    images = [random_image(rng, *size, bit_depth=bits) for bits in (1, 8)]
    images.append(GrayscaleImage(rng.uniform(-300.0, 600.0, size)))   # out of range
    for img in images:
        for scale in (None, 0.25, 1.0, 50.0):
            table = None if scale is None else QuantTable(scale)
            plane = pipeline.encode_image(img, scale).plane
            assert not plane.flags.writeable
            assert plane.flags.c_contiguous
            padded = pad_to_pow2(img)
            assert _same_bits(plane, _plane(_block_path(padded, table), padded.pixels.shape))
            expected = _block_path(img, table)
            assert _same_bits(zigzag_coefficients(img, table), expected)
            assert _same_bits(zigzag_coefficients(pad_and_partition(img), table), expected)


def test_front_end_rounds_ties_like_the_block_path():
    img = _tie_image()
    dc = _block_path(img, None)[:, 0] / 16.0
    assert np.all(np.abs(dc) % 1.0 == 0.5) and np.any(dc < 0) and np.any(dc > 0)
    coefficients = _zigzag(pipeline.encode_image(img, 1.0).plane)
    assert _same_bits(coefficients, _block_path(img, QuantTable(1.0)))
    assert np.array_equal(coefficients[:, 0], np.sign(dc) * np.floor(np.abs(dc) + 0.5))


def _whole_array_run(encoding, r, norm_mode):
    """The operator run on whole arrays: every block decompressed with one
    product, the branch renormalized, then read out in the pixel layout."""
    scale = encoding.scale
    amps, record = pipeline._amplitudes(encoding, r, norm_mode)
    out = amps @ pipeline._decompression(r, scale).matrix.T
    probability = 1.0 if scale is None else float(np.vdot(out, out))
    out /= math.sqrt(probability)
    (ph, pw), (oh, ow) = record.padded_dims, encoding.image.original_dims
    blocks = out * (math.sqrt(probability) * record.global_norm)
    if record.lam is not None:
        blocks *= record.lam
    if record.per_block_norms is not None:
        blocks *= record.per_block_norms[:, None]
    pixels = blocks.reshape(ph // 8, pw // 8, 8, 8).transpose(0, 2, 1, 3).reshape(ph, pw)
    return out.reshape(-1), probability, pixels[:oh, :ow]


@pytest.mark.parametrize("size", [(1, 64), (9, 17), (72, 40), (200, 130)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_strip_runs_match_the_whole_array_run(rng, size):
    """Runs assemble their state and reconstruction from strips of 8 block
    rows (72 and 200 rows end in a partial strip, the block rows past the
    original height are skipped); both equal the whole-array run to 1e-12."""
    img = random_image(rng, *size)
    for scale in (None, 1.0, 8.0):
        encoding = pipeline.encode_image(img, scale)
        for norm_mode in NORM_MODES:
            for r in (2, 5, 6):
                result = (run_qf_jqpie(encoding, r, norm_mode=norm_mode) if scale is None
                          else run_jqpie(encoding, r, scale=scale, norm_mode=norm_mode))
                state, probability, pixels = _whole_array_run(encoding, r, norm_mode)
                assert np.max(np.abs(result.state.amplitudes - state)) <= 1e-12
                assert abs(result.success_probability - probability) <= 1e-12
                got = result.reconstructed.pixels
                assert got.shape == size
                assert np.max(np.abs(got - pixels)) <= 1e-12 * np.max(np.abs(pixels))


def test_readout_multiplies_in_the_image_layout(rng):
    """Bit for bit the block-major product laid out by blocks, then cropped:
    :func:`readout_image` at p = 1, and the strips of a post-selected state
    at p = 0.3, which ``gate_exact`` runs assemble."""
    amps = rng.normal(size=2 ** 9)
    norms = rng.uniform(0.5, 2.0, 8)
    for lam, per_block in ((None, None), (121.0, None), (242.0, norms)):
        mode = "global" if per_block is None else "per_block"
        record = NormalizationRecord(3.7, lam, mode, per_block, (16, 32))
        for p in (1.0, 0.3):
            state = StateVector(amps, 9)
            if p == 1.0:
                got = readout_image(state, record, (13, 30))
            else:
                strips = pipeline._state_strips(state, record, (13, 30), p)
                got = pipeline._assemble(strips, (13, 30), 8)
            values = amps * (math.sqrt(p) * 3.7)
            if lam is not None:
                values *= lam
            matrix = values.reshape(8, 64)
            if per_block is not None:
                matrix = matrix * per_block[:, None]
            expected = matrix.reshape(2, 4, 8, 8).transpose(0, 2, 1, 3).reshape(16, 32)
            assert got.pixels.tobytes() == expected[:13, :30].tobytes()
            assert got.original_dims == (13, 30)
    # a side under 8 has no 8 x 8 tile, and no record holds one
    with pytest.raises(ValueError, match="powers of two of at least 8"):
        NormalizationRecord(3.7, 121.0, "global", None, (4, 2))


def test_runs_from_an_encoding_match_runs_from_the_image(rng):
    img = random_image(rng, 37, 61)
    quantized, raw = pipeline.encode_image(img, 3.5), pipeline.encode_image(img, None)
    assert not quantized.plane.flags.writeable
    for r in (2, 5):
        for norm_mode in NORM_MODES:
            pairs = [(run_jqpie(img, r, scale=3.5, norm_mode=norm_mode),
                      run_jqpie(quantized, r, scale=3.5, norm_mode=norm_mode)),
                     (run_qf_jqpie(img, r, norm_mode=norm_mode),
                      run_qf_jqpie(raw, r, norm_mode=norm_mode))]
            for from_image, from_encoding in pairs:
                assert np.array_equal(from_image.reconstructed.pixels,
                                      from_encoding.reconstructed.pixels)
                assert from_image.to_json() == from_encoding.to_json()
    for method, encoding in (("jqpie", quantized), ("qf_jqpie", raw)):
        assert (export_qasm(pipeline.hybrid_circuit(encoding, method, 3, scale=3.5))
                == export_qasm(pipeline.hybrid_circuit(img, method, 3, scale=3.5)))


def test_runs_reject_an_encoding_of_the_other_kind(rng):
    img = random_image(rng, 16, 16)
    quantized, raw = pipeline.encode_image(img, 3.5), pipeline.encode_image(img, None)
    with pytest.raises(ValueError, match="encoding is quantized at S=3.5, not quantized at S=1"):
        run_jqpie(quantized, 4)
    with pytest.raises(ValueError, match="encoding is unquantized, not quantized at S=3.5"):
        run_jqpie(raw, 4, scale=3.5)
    with pytest.raises(ValueError, match="encoding is quantized at S=3.5, not unquantized"):
        run_qf_jqpie(quantized, 4)
    with pytest.raises(ValueError, match="encoding is unquantized"):
        pipeline.hybrid_circuit(raw, "jqpie", 3)
    with pytest.raises(ValueError, match="encoding is quantized at S=3.5, not quantized at S=1"):
        quantized.jpeg_coefficients(1.0)


@pytest.mark.parametrize("height, width", [(8, 8), (16, 24)])
def test_resource_model_counts_the_emitted_circuit(rng, height, width):
    # every stage and total the runs report is the count of the gates that
    # export-circuit writes, at any r and quantization scale
    img = random_image(rng, height, width)
    encoding = pipeline.encode_image(img, None)
    for method in pipeline.METHODS:
        for r in TRUNCATION_LEVELS:
            model = closed_form_resources(encoding.h, encoding.w, r, method)
            for scale in (0.5, 1.0, 3.5):
                emitted = resource_counts(pipeline.hybrid_circuit(img, method, r, scale=scale))
                assert emitted.breakdown == model.breakdown
                assert ((emitted.cx_count, emitted.rotation_count, emitted.depth)
                        == (model.cx_count, model.rotation_count, model.depth))


@pytest.mark.parametrize("height, width", [(64, 128), (128, 64)])
def test_resource_model_counts_the_emitted_circuit_at_unequal_sides(rng, height, width):
    # h != w, with index registers of unequal row and column parts: every
    # stage the runs report is the count of the gates export-circuit writes
    img = random_image(rng, height, width)
    for method in pipeline.METHODS:
        encoding = pipeline.encode_image(img, pipeline.method_scale(method, 1.0))
        for r in TRUNCATION_LEVELS:
            model = closed_form_resources(encoding.h, encoding.w, r, method)
            emitted = resource_counts(pipeline.hybrid_circuit(encoding, method, r))
            assert emitted.breakdown == model.breakdown, (method, r)
            assert ((emitted.cx_count, emitted.rotation_count, emitted.depth)
                    == (model.cx_count, model.rotation_count, model.depth))


@pytest.mark.parametrize("r", TRUNCATION_LEVELS)
@pytest.mark.parametrize("method", pipeline.METHODS)
@pytest.mark.parametrize("height, width", [(8, 8), (16, 16), (12, 20), (32, 16)])
def test_exported_circuit_computes_the_oracle_decode(rng, height, width, method, r):
    """The QASM text ``export-circuit`` writes, parsed back and simulated
    from |0...0>, prepares the oracle's unclamped decode: its gates are the
    circuit's, field by field; its post-selected branch, read out with the
    operator run's normalization record, is the oracle's pixels within
    1e-9 L, and its success probability the operator run's within 1e-12."""
    img = random_image(rng, height, width)
    circuit = pipeline.hybrid_circuit(img, method, r)
    parsed = parse_qasm(export_qasm(circuit))
    assert parsed.n_qubits == circuit.n_qubits
    assert ([(g.kind, g.qubits, g.angle) for g in parsed.gates]
            == [(g.kind, g.qubits, g.angle) for g in circuit.gates])
    state = apply_circuit(zero_state(parsed.n_qubits), parsed)
    probability = 1.0
    if method == "jqpie":
        post = postselect_ancilla(state, qubit=parsed.n_qubits - 1, outcome=0)
        state, probability = post.state, post.probability
        run, oracle = run_jqpie(img, r), reference_decode_pixels(img, "jqpie_oracle", r)
    else:
        run, oracle = run_qf_jqpie(img, r), reference_decode_pixels(img, "qf_oracle", r)
    branch = StateVector(state.amplitudes * math.sqrt(probability), state.n)
    pixels = readout_image(branch, run.norm_record, img.original_dims).pixels
    assert np.max(np.abs(pixels - oracle)) <= 1e-9 * img.max_value
    assert abs(probability - run.success_probability) <= 1e-12


@pytest.mark.parametrize("height, width", [(64, 64), (256, 512)])
def test_r6_costs_qpie_plus_the_decompression_tail(height, width):
    # at r=6 the load order is the zigzag itself and the inverse zigzag is
    # empty: jqpie adds only the rescaler and the QDCT to direct QPIE
    h, w = height.bit_length() - 1, width.bit_length() - 1
    qpie = closed_form_resources(h, w, 6, "qpie")
    jqpie = closed_form_resources(h, w, 6, "jqpie")
    qf = closed_form_resources(h, w, 6, "qf_jqpie")
    tail = jqpie.breakdown["inverse_quantization"].cx + jqpie.breakdown["inverse_qdct"].cx
    assert jqpie.breakdown["inverse_zigzag"].cx == 0
    assert jqpie.cx_count == qpie.cx_count + tail == qpie.cx_count + 96
    assert qf.cx_count == qpie.cx_count + qf.breakdown["inverse_qdct"].cx == qpie.cx_count + 32


def test_gate_exact_lowers_each_decompression_once(tmp_path, rng, monkeypatch):
    # the operator probe, gate_exact and export-circuit read one decompression
    # circuit per (h + w, r, S): 64 x 8, 8 x 64 and 16 x 32 images at r = 3
    # all have the probe's 6 + 3 image qubits, however they split
    paths = [str(tmp_path / name) for name in ("a.pgm", "b.pgm", "c.pgm")]
    for path, size in zip(paths, ((64, 8), (8, 64), (16, 32))):
        write_pgm(random_image(rng, *size), path)
    pipeline._decompression_circuit.cache_clear()
    pipeline._decompression.cache_clear()
    builds = []

    def spy():
        builds.append(1)
        return qdct()

    qdct = pipeline.synth_inverse_qdct_gates
    monkeypatch.setattr(pipeline, "synth_inverse_qdct_gates", spy)
    for backend in ("operator", "gate_exact"):
        rows = run_sweep(SweepConfig(inputs=tuple(paths), r_set=(3,), backend=backend))
        assert len(rows) == 6 and not any(row["error"] for row in rows)
    for method in pipeline.METHODS:
        assert main(["export-circuit", paths[0], "--method", method, "--r", "3",
                     "--out", str(tmp_path / f"{method}.qasm")]) == 0
    assert len(builds) == 2   # one per S in {1, none}
