"""Acceptance criteria, one test per criterion.

Each test prints a `[acceptance] criterion N: PASS/FAIL` line (visible with
`pytest -s` or in failure output) and asserts the criterion at its stated
tolerance, including the runtime budget where one is specified.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from jqpie.imagio import GrayscaleImage, pad_and_partition, pad_to_pow2
from jqpie.jpegcore import (QuantTable, dct2_block, idct2_block, reference_decode_pixels,
                            truncate_zigzag, zigzag_coefficients, zigzag_permutation)
from jqpie.metrics import psnr, ssim
from jqpie.pipeline import run_jqpie, run_qf_jqpie, run_qpie_direct
from jqpie.qcircuit import resource_counts
from jqpie.qsim import apply_circuit, basis_state, state_fidelity
from jqpie.synth import (block_encoded_rescaler, closed_form_resources,
                         synth_inverse_quantization, truncated_zigzag_map)

from conftest import random_image


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_01_transform_fidelity(rng):
    with criterion(1, "dct2/idct2 roundtrip on 1000 random blocks <= 1e-10"):
        start = time.perf_counter()
        blocks = rng.uniform(-128, 383, (1000, 8, 8))
        worst = 0.0
        for block in blocks:
            worst = max(worst, np.max(np.abs(idct2_block(dct2_block(block)) - block)))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 1.0


def test_criterion_02_zigzag_anchor():
    with criterion(2, "zigzag map starts 0, 1, 8, 16, 9"):
        pi = zigzag_permutation()
        assert pi[:5].tolist() == [0, 1, 8, 16, 9]


def test_criterion_03_block_encoding_resources():
    with criterion(3, "inverse-quantization circuit: 64 CX, 64 rotations, depth 128/129"):
        circuit, _ = synth_inverse_quantization(QuantTable())
        report = resource_counts(circuit)
        assert report.cx_count == 64
        assert report.rotation_count == 64
        assert report.depth in (128, 129)


def test_criterion_04_block_encoding_correctness():
    with criterion(4, "ancilla-0 branch amplitude equals d_k on all 64 basis states"):
        start = time.perf_counter()
        circuit, _ = synth_inverse_quantization(QuantTable())
        diag = block_encoded_rescaler(QuantTable()).diagonal
        for k in range(64):
            out = apply_circuit(basis_state(7, k), circuit)
            assert abs(out.amplitudes[k].real - diag[k]) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_05_qpie_equivalence(rng):
    with criterion(5, "QF pipeline at r=6 reproduces direct amplitude encoding"):
        start = time.perf_counter()
        for size in (16, 32):
            for _ in range(10):
                img = random_image(rng, size, size)
                qf = run_qf_jqpie(img, r=6)
                qpie = run_qpie_direct(pad_to_pow2(img))
                assert state_fidelity(qf.state, qpie.state) >= 1.0 - 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_06_jpeg_equivalence(rng):
    with criterion(6, "quantized pipeline at r=6, S=1 equals classical decode <= 1e-6"):
        start = time.perf_counter()
        images = [random_image(rng, 16, 16) for _ in range(10)]
        images.append(random_image(rng, 64, 64))
        for img in images:
            result = run_jqpie(img, r=6, scale=1.0)
            oracle = reference_decode_pixels(img, "jpeg", scale=1.0)
            assert np.max(np.abs(result.reconstructed.pixels - oracle)) <= 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_07_truncation_oracles(rng):
    with criterion(7, "r in 2..5: both pipelines match classical oracles <= 1e-6"):
        start = time.perf_counter()
        img = random_image(rng, 32, 32)
        for r in (2, 3, 4, 5):
            jq = run_jqpie(img, r=r, scale=1.0)
            jq_oracle = reference_decode_pixels(img, "jqpie_oracle", r=r, scale=1.0)
            assert np.max(np.abs(jq.reconstructed.pixels - jq_oracle)) <= 1e-6
            qf = run_qf_jqpie(img, r=r)
            qf_oracle = reference_decode_pixels(img, "qf_oracle", r=r)
            assert np.max(np.abs(qf.reconstructed.pixels - qf_oracle)) <= 1e-6
        assert time.perf_counter() - start < 60.0


def test_criterion_08_backend_equivalence(rng):
    with criterion(8, "gate-exact vs operator backends: L2 distance <= 1e-8, all r"):
        start = time.perf_counter()
        img = random_image(rng, 16, 16)
        for r in (2, 3, 4, 5, 6):
            a = run_jqpie(img, r=r, backend="gate_exact")
            b = run_jqpie(img, r=r, backend="operator")
            assert np.linalg.norm(a.state.amplitudes - b.state.amplitudes) <= 1e-8
            qa = run_qf_jqpie(img, r=r, backend="gate_exact")
            qb = run_qf_jqpie(img, r=r, backend="operator")
            assert np.linalg.norm(qa.state.amplitudes - qb.state.amplitudes) <= 1e-8
        assert time.perf_counter() - start < 60.0


def test_criterion_09_postselection_probability(rng):
    with criterion(9, "simulated success probability equals the classical norm <= 1e-10"):
        diag = block_encoded_rescaler(QuantTable(1.0)).diagonal
        for size in ((16, 16), (32, 32), (24, 40)):
            img = random_image(rng, *size)
            for r in (2, 4, 6):
                result = run_jqpie(img, r=r, scale=1.0)
                padded = pad_to_pow2(img)
                zz = truncate_zigzag(
                    zigzag_coefficients(pad_and_partition(padded), QuantTable(1.0)), r)
                amps = zz / np.linalg.norm(zz)
                sigma = truncated_zigzag_map(r)
                expected = float(np.sum((amps * diag[sigma][None, :]) ** 2))
                assert abs(result.success_probability - expected) <= 1e-10


def test_criterion_10_resource_model():
    with criterion(10, "state-prep CX reduction: 50% at r=5, 75% at r=4 (256x256)"):
        base = closed_form_resources(8, 8, 6).breakdown["state_prep"].cx
        at_r5 = closed_form_resources(8, 8, 5).breakdown["state_prep"].cx
        at_r4 = closed_form_resources(8, 8, 4).breakdown["state_prep"].cx
        at_r2 = closed_form_resources(8, 8, 2).breakdown["state_prep"].cx
        assert abs((1 - at_r5 / base) - 0.50) <= 0.001
        assert abs((1 - at_r4 / base) - 0.75) <= 0.001
        # The model value at r=2 is 93.75%; the published figure of 96.75%
        # does not follow from the 2^-l cost scaling and is recorded as a
        # discrepancy rather than asserted.
        model_r2 = 1 - at_r2 / base
        assert abs(model_r2 - 0.9375) <= 0.001
        print(f"[acceptance]   note: r=2 model reduction {100 * model_r2:.2f}% "
              f"(published claim: 96.75%)")


def test_criterion_11_metrics():
    with criterion(11, "PSNR of uniform unit error = 48.1308 dB; SSIM(I, I) = 1"):
        a = GrayscaleImage(np.full((64, 64), 90.0))
        b = GrayscaleImage(np.full((64, 64), 91.0))
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-4)
        img = GrayscaleImage(np.arange(256, dtype=float).reshape(16, 16))
        assert ssim(img, img) == 1.0


def test_criterion_12_dataset_tolerance_fraction():
    dataset = os.environ.get("JQPIE_SIPI_DIR")
    if not dataset:
        print("[acceptance] criterion 12: SKIP - set JQPIE_SIPI_DIR to a local "
              "USC-SIPI miscellaneous directory to enable")
        pytest.skip("optional dataset criterion: JQPIE_SIPI_DIR not set")
    from jqpie.bench import SweepConfig, run_sweep
    with criterion(12, "fraction of images within -0.5 dB at r=5 in 85% +/- 10pp"):
        cfg = SweepConfig(inputs=(dataset,), methods=("jqpie",), r_set=(5,))
        rows = [r for r in run_sweep(cfg) if not r["error"]]
        assert rows
        fraction = sum(1 for r in rows if r["delta_psnr"] >= -0.5) / len(rows)
        print(f"[acceptance]   fraction within tolerance: {fraction:.3f}")
        assert 0.75 <= fraction <= 0.95
