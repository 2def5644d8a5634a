import math

import numpy as np
import pytest

from jqpie.imagio import GrayscaleImage
from jqpie.metrics import psnr, quality_report, ssim

from conftest import random_image


def test_psnr_identical_images_is_infinite(rng):
    img = random_image(rng, 16, 16)
    assert math.isinf(psnr(img, img))


def test_psnr_uniform_unit_error():
    a = GrayscaleImage(np.full((32, 32), 100.0))
    b = GrayscaleImage(np.full((32, 32), 101.0))
    assert psnr(a, b) == pytest.approx(20 * math.log10(255), abs=1e-12)


def test_psnr_black_vs_white_is_zero():
    a = GrayscaleImage(np.zeros((8, 8)))
    b = GrayscaleImage(np.full((8, 8), 255.0))
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        psnr(random_image(rng, 8, 8), random_image(rng, 8, 16))


def test_psnr_clamps_out_of_range_values():
    a = GrayscaleImage(np.full((8, 8), 255.0))
    b = GrayscaleImage(np.full((8, 8), 300.0))  # clamps to 255
    assert math.isinf(psnr(a, b))


def test_psnr_symmetry_and_monotonicity(rng):
    # pixels kept below 245 so a +err shift never clamps
    base = GrayscaleImage(rng.integers(0, 245, (16, 16)).astype(float))
    prev = math.inf
    for err in range(1, 11):
        shifted = GrayscaleImage(base.pixels + err)
        val = psnr(base, shifted)
        assert val == pytest.approx(psnr(shifted, base))
        assert val < prev
        prev = val


def test_ssim_identical_is_one(rng):
    img = random_image(rng, 16, 16)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    assert ssim(img, img, mode="windowed") == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_offset_closed_form():
    mu, c = 80.0, 15.0
    a = GrayscaleImage(np.full((16, 16), mu))
    b = GrayscaleImage(np.full((16, 16), mu + c))
    c1 = (0.01 * 255) ** 2
    expected = (2 * mu * (mu + c) + c1) / (mu**2 + (mu + c) ** 2 + c1)
    assert ssim(a, b) == pytest.approx(expected, abs=1e-12)


def test_ssim_zero_variance_pair_is_one():
    a = GrayscaleImage(np.full((8, 8), 42.0))
    assert ssim(a, a) == 1.0


def test_ssim_symmetry(rng):
    a, b = random_image(rng, 16, 16), random_image(rng, 16, 16)
    for mode in ("global", "windowed"):
        assert ssim(a, b, mode=mode) == pytest.approx(ssim(b, a, mode=mode))


def test_ssim_bounded_by_one_with_tiny_constants(rng):
    for _ in range(10):
        a, b = random_image(rng, 16, 16), random_image(rng, 16, 16)
        for mode in ("global", "windowed"):
            assert ssim(a, b, mode=mode) < 1.0
    a = random_image(rng, 16, 16)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def test_ssim_rejects_unknown_mode(rng):
    with pytest.raises(ValueError):
        ssim(random_image(rng, 8, 8), random_image(rng, 8, 8), mode="boxes")


def _windowed_ssim_loop(a, b):
    """Windowed SSIM as one statistic per 8x8 window, window by window."""
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    scores = []
    for i in range(0, a.shape[0], 8):
        for j in range(0, a.shape[1], 8):
            wa, wb = a[i:i + 8, j:j + 8], b[i:i + 8, j:j + 8]
            mu_a, mu_b = wa.mean(), wb.mean()
            cov = np.mean((wa - mu_a) * (wb - mu_b))
            scores.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                          / ((mu_a**2 + mu_b**2 + c1) * (wa.var() + wb.var() + c2)))
    return float(np.mean(scores))


@pytest.mark.parametrize("size", [(37, 61), (1, 80), (9, 9), (8, 8), (1, 1), (64, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_windowed_ssim_matches_window_by_window(rng, size):
    for noise in (0.5, 8.0, 60.0):
        a = rng.integers(0, 256, size).astype(np.float64)
        b = np.clip(a + rng.normal(0.0, noise, size), 0.0, 255.0)
        assert ssim(a, b, mode="windowed") == pytest.approx(_windowed_ssim_loop(a, b),
                                                            rel=0, abs=1e-12)


def test_quality_report_deltas(rng):
    ref = random_image(rng, 16, 16)
    recon = GrayscaleImage(ref.pixels + 2.0, original_dims=ref.original_dims)
    baseline = GrayscaleImage(ref.pixels + 4.0, original_dims=ref.original_dims)
    report = quality_report(ref, recon, baseline, "jpeg S=1")
    assert report.delta_psnr > 0
    assert report.baseline_id == "jpeg S=1"
    same = quality_report(ref, ref, ref, "self")
    assert same.delta_psnr == 0.0 and same.delta_ssim == 0.0
    payload = report.to_json()
    assert set(payload) == {"psnr", "ssim", "delta_psnr", "delta_ssim", "baseline_id"}
