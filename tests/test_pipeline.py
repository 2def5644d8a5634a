import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jqpie import pipeline
from jqpie.bench import SweepConfig, run_sweep
from jqpie.imagio import GrayscaleImage, pad_and_partition, pad_to_pow2, write_pgm
from jqpie.jpegcore import (TRUNCATION_LEVELS, QuantTable, blocks_from_zigzag,
                            classical_reference_decode, dct_matrix, idct2_block, jpeg_decode,
                            reference_decode_pixels, sparsity_stats, truncate_zigzag,
                            zigzag_coefficients)
from jqpie.pipeline import (NORM_MODES, NormalizationRecord, readout_image, run_jqpie,
                            run_qf_jqpie, run_qpie_direct)
from jqpie.qcircuit import Circuit, export_qasm, resource_counts
from jqpie.qsim import (StateVector, apply_circuit, from_amplitudes, postselect_ancilla,
                        state_fidelity, zero_state)
from jqpie.synth import (block_encoded_rescaler, closed_form_resources, load_order,
                         synth_state_prep, synth_truncated_zigzag, truncated_zigzag_map)

from conftest import gradient_image, random_image


# --- direct amplitude encoding -------------------------------------------------

def test_qpie_two_by_two_amplitudes():
    img = GrayscaleImage(np.array([[3.0, 0.0], [0.0, 4.0]]))
    result = run_qpie_direct(img)
    assert np.allclose(result.reconstructed.pixels, img.pixels, atol=1e-12)
    assert np.allclose(result.state.amplitudes.real, [0.6, 0.0, 0.0, 0.8], atol=1e-15)
    assert result.success_probability == 1.0


def test_qpie_uniform_image_gives_uniform_superposition(rng):
    img = GrayscaleImage(np.full((8, 8), 37.0))
    result = run_qpie_direct(img)
    assert np.allclose(np.abs(result.state.amplitudes), 1 / 8, atol=1e-12)


def test_qpie_readout_roundtrip(rng):
    img = random_image(rng, 16, 16)
    result = run_qpie_direct(img)
    assert np.max(np.abs(result.reconstructed.pixels - img.pixels)) <= 1e-9


def test_qpie_rejects_non_pow2_and_zero():
    with pytest.raises(ValueError):
        run_qpie_direct(GrayscaleImage(np.ones((12, 16))))
    with pytest.raises(ValueError):
        run_qpie_direct(GrayscaleImage(np.zeros((8, 8))))


def test_qpie_gate_backend_matches_direct_injection(rng):
    img = random_image(rng, 8, 8)
    a = run_qpie_direct(img, backend="gate_exact", direct_load=False)
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
        circ = Circuit(8, synth_truncated_zigzag(r).gates, (("index", 2), ("data", 6)))
        out = apply_circuit(from_amplitudes(amps.reshape(-1)), circ, backend="gate_exact")
        zz = truncate_zigzag(encoding.coefficients, r)
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
        a = run_jqpie(img, r=r, backend="gate_exact", direct_load=False)
        b = run_jqpie(img, r=r, backend="operator", direct_load=False)
        assert np.linalg.norm(a.state.amplitudes - b.state.amplitudes) <= 1e-8
        qa = run_qf_jqpie(img, r=r, backend="gate_exact", direct_load=False)
        qb = run_qf_jqpie(img, r=r, backend="operator", direct_load=False)
        assert np.linalg.norm(qa.state.amplitudes - qb.state.amplitudes) <= 1e-8


def test_direct_load_requires_operator_backend(rng):
    img = random_image(rng, 8, 8)
    with pytest.raises(ValueError, match="requires the operator backend"):
        run_jqpie(img, r=4, backend="gate_exact", direct_load=True)
    with pytest.raises(ValueError, match="requires the operator backend"):
        run_qf_jqpie(img, r=4, backend="gate_exact", direct_load=True)
    with pytest.raises(ValueError, match="requires the operator backend"):
        run_qpie_direct(img, backend="gate_exact", direct_load=True)


def test_direct_load_matches_cascade(rng):
    img = random_image(rng, 16, 16)
    a = run_jqpie(img, r=5, direct_load=True)
    b = run_jqpie(img, r=5, direct_load=False)
    assert np.linalg.norm(a.state.amplitudes - b.state.amplitudes) <= 1e-10


def test_large_image_operator_backend(rng):
    # direct loading keeps megapixel-free large cases fast
    img = random_image(rng, 128, 128)
    result = run_qf_jqpie(img, r=4)
    oracle = reference_decode_pixels(img, "qf_oracle", r=4)
    assert np.max(np.abs(result.reconstructed.pixels - oracle)) <= 1e-6


# --- fused per-block decompression (operator backend) -------------------------------

def _gate_by_gate_reference(img, r, scale, norm_mode):
    """The decompression circuit applied gate by gate to the full register,
    ancilla included, then post-selected: what the fused product replaces."""
    encoding = pipeline.encode_image(img, scale)
    amp_matrix, _ = pipeline._amplitudes(encoding, r, norm_mode)
    h, w = encoding.h, encoding.w
    ancilla = scale is not None
    amps = np.zeros((2 if ancilla else 1, len(amp_matrix), 64))
    amps[0, :, :2 ** r] = amp_matrix
    circuit = pipeline._decompression_circuit(h, w, r, scale, "operator")
    sv = apply_circuit(from_amplitudes(amps.reshape(-1)), circuit, backend="operator")
    if not ancilla:
        return sv.amplitudes, 1.0
    post = postselect_ancilla(sv, qubit=h + w, outcome=0)
    return post.state.amplitudes, post.probability


@pytest.mark.parametrize("size,direct_load", [((256, 256), True), ((57, 33), None)],
                         ids=["256x256-direct", "57x33-cascade"])
def test_fused_decompression_matches_gate_by_gate(rng, size, direct_load):
    img = random_image(rng, *size)
    for norm_mode in NORM_MODES:
        for r in (2, 3, 4, 5, 6):
            for scale in (None, 0.25, 1.0, 8.0):
                if scale is None:
                    result = run_qf_jqpie(img, r, norm_mode=norm_mode, direct_load=direct_load)
                else:
                    result = run_jqpie(img, r, scale=scale, norm_mode=norm_mode,
                                       direct_load=direct_load)
                amps, probability = _gate_by_gate_reference(img, r, scale, norm_mode)
                assert np.max(np.abs(result.state.amplitudes - amps)) <= 1e-12
                assert abs(result.success_probability - probability) <= 1e-12


def test_fused_decompression_zero_branch_raises(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(pipeline, "_decompression_operator",
                        lambda r, scale: np.zeros((64, 2 ** r)))
    img = random_image(rng, 16, 16)
    with pytest.raises(ValueError, match="zero-probability branch: qubit 8 never reads 0"):
        run_jqpie(img, r=4)
    write_pgm(img, tmp_path / "img.pgm")
    rows = run_sweep(SweepConfig(inputs=(str(tmp_path / "img.pgm"),), methods=("jqpie",),
                                 r_set=(4,)))
    assert "zero-probability branch" in rows[0]["error"]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_decompression_operator_matches_lowered_gate_exact_circuit(r):
    # M read off the fully lowered circuit under gate_exact: no UBLOCK entry,
    # so no operator-backend code is involved. Column s of M is also the
    # inverse 2D DCT of frequency f = load_order(r)[s], rescaled by d_f.
    kept = 2 ** r
    inverse_dct = np.kron(dct_matrix().T, dct_matrix().T)
    for scale in (None, 0.25, 1.0, 8.0):
        circuit = pipeline._decompression_circuit(6, 6, r, scale, "gate_exact")
        probe = np.zeros((1 if scale is None else 2, 64, 64))
        probe[0, :kept, :kept] = np.eye(kept) / np.sqrt(kept)
        out = apply_circuit(from_amplitudes(probe.reshape(-1)), circuit, backend="gate_exact")
        matrix = out.amplitudes.reshape(-1, 64, 64)[0, :kept].T * np.sqrt(kept)
        operator = pipeline._decompression_operator(r, scale)
        assert operator.shape == (64, kept)
        assert np.max(np.abs(operator - matrix)) <= 1e-12
        d = np.ones(64) if scale is None else block_encoded_rescaler(QuantTable(scale)).diagonal
        f = load_order(r)
        assert np.max(np.abs(operator - inverse_dct[:, f] * d[f])) <= 1e-12


# --- angle-level state load (operator backend) ------------------------------------

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
def test_load_state_matches_gate_exact_cascade(vec):
    m = len(vec).bit_length() - 1
    reference = apply_circuit(zero_state(m), synth_state_prep(vec), backend="gate_exact")
    assert np.max(np.abs(pipeline._load_state(vec) - reference.amplitudes)) <= 1e-12


def test_load_state_keeps_the_circuit_checks(monkeypatch):
    with pytest.raises(ValueError, match="L2-normalized within 1e-10"):
        pipeline._load_state(np.full(4, 0.5 + 1e-9))
    # a layer of the wrong size stands in for a loader bug that breaks the norm
    monkeypatch.setattr(pipeline, "state_prep_angles", lambda vec: [np.array([0.0, 0.0])])
    with pytest.raises(ArithmeticError, match="norm drifted"):
        pipeline._load_state(np.full(4, 0.5))


def test_operator_load_builds_no_circuit(rng, monkeypatch):
    img = random_image(rng, 64, 64)
    for r in (2, 6):
        for scale in (None, 1.0):
            pipeline._decompression_operator(r, scale)   # the cached operator build
    loads = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            loads.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, wrapped)

    spy("synth_state_prep", pipeline.synth_state_prep)
    spy("apply_circuit", pipeline.apply_circuit)
    for r in (2, 6):
        for run_method in (run_qf_jqpie, run_jqpie):
            expected = run_method(img, r, direct_load=True).state.amplitudes
            loaded = run_method(img, r, direct_load=False).state.amplitudes
            assert np.max(np.abs(loaded - expected)) <= 1e-12
    small = random_image(rng, 16, 16)
    run_qpie_direct(small, direct_load=False)
    assert loads == []
    run_qf_jqpie(small, 3, backend="gate_exact")
    run_qpie_direct(small, backend="gate_exact")
    assert loads == ["synth_state_prep", "apply_circuit", "apply_circuit",
                     "synth_state_prep", "apply_circuit"]


@pytest.mark.parametrize("direct_load", [None, True], ids=["cascade", "direct"])
def test_operator_path_stays_on_image_qubits(rng, monkeypatch, direct_load):
    img = random_image(rng, 64, 64)
    for r in (3, 6):
        for scale in (None, 1.0):
            pipeline._decompression_operator(r, scale)   # the cached operator build
    widths = []
    build = StateVector.__post_init__

    def spy_state(self):
        widths.append(self.n)
        build(self)

    def no_postselect(*args, **kwargs):
        raise AssertionError("postselect_ancilla called on the operator path")

    monkeypatch.setattr(StateVector, "__post_init__", spy_state)
    monkeypatch.setattr(pipeline, "postselect_ancilla", no_postselect)
    for r in (3, 6):
        run_qf_jqpie(img, r, direct_load=direct_load)
        run_jqpie(img, r, direct_load=direct_load)
    assert widths and max(widths) == 12


# --- one classical front end per image ----------------------------------------------

@pytest.mark.parametrize("size", [(37, 61), (1, 80), (9, 9), (200, 130)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_encoding_holds_the_jpeg_grid_exactly(rng, size):
    img = random_image(rng, *size)
    for scale in (1.0, 3.5):
        table = QuantTable(scale)
        expected = zigzag_coefficients(pad_and_partition(img), table)
        for encoding in (pipeline.encode_image(img, scale), pipeline.encode_image(img, None)):
            zz = encoding.jpeg_coefficients(scale)
            assert np.array_equal(zz, expected)
        assert np.array_equal(jpeg_decode(zz, table, img).pixels,
                              classical_reference_decode(img, "jpeg", scale=scale).pixels)
        from_matrix, from_image = sparsity_stats(zz), sparsity_stats(img, scale)
        assert np.array_equal(from_matrix.histogram, from_image.histogram)
        assert ((from_matrix.nonzero_count, from_matrix.compression_ratio,
                 from_matrix.pixel_count, from_matrix.block_count)
                == (from_image.nonzero_count, from_image.compression_ratio,
                    from_image.pixel_count, from_image.block_count))


def test_runs_from_an_encoding_match_runs_from_the_image(rng):
    img = random_image(rng, 37, 61)
    quantized, raw = pipeline.encode_image(img, 3.5), pipeline.encode_image(img, None)
    assert not quantized.coefficients.flags.writeable
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
    for name in ("a.pgm", "b.pgm"):
        write_pgm(random_image(rng, 16, 16), tmp_path / name)
    pipeline._decompression_circuit.cache_clear()
    lowered = []

    def spy(circuit):
        lowered.append(circuit)
        return lower(circuit)

    lower = pipeline.lower_circuit
    monkeypatch.setattr(pipeline, "lower_circuit", spy)
    rows = run_sweep(SweepConfig(inputs=(str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")),
                                 r_set=(3, 6), backend="gate_exact"))
    assert len(rows) == 8 and not any(row["error"] for row in rows)
    assert len(lowered) == 4   # one per (r, S): r in {3, 6}, S in {1, none}
