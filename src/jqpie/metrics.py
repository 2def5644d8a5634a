"""Reconstruction quality scoring: PSNR and SSIM.

Scores are computed on clamped pixels at the original (cropped) dimensions.
SSIM defaults to the single global statistic; ``mode="windowed"`` averages
the statistic over non-overlapping 8x8 windows for comparability with common
tooling. Variances use the population (1/N) convention so results are
bit-comparable across implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .imagio import GrayscaleImage

SSIM_MODES = ("global", "windowed")


@dataclass(frozen=True)
class QualityReport:
    psnr: float
    ssim: float
    delta_psnr: float
    delta_ssim: float
    baseline_id: str

    def to_json(self) -> dict:
        return asdict(self)


def _clamped_pixels(img, peak: float) -> np.ndarray:
    if isinstance(img, GrayscaleImage):
        img = img.pixels
    return np.clip(np.asarray(img, dtype=np.float64), 0.0, peak)


def _peak(a, b) -> float:
    for img in (a, b):
        if isinstance(img, GrayscaleImage):
            return img.max_value
    return 255.0


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    peak = _peak(a, b)
    pa, pb = _clamped_pixels(a, peak), _clamped_pixels(b, peak)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape} vs {pb.shape}")
    mse = np.mean((pa - pb) ** 2)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _ssim_statistic(mu_a, mu_b, var_a, var_b, cov, c1: float, c2: float):
    """The SSIM formula on means, population variances and covariance;
    scalars or arrays of per-window values."""
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return num / den


def _windowed_ssim(pa: np.ndarray, pb: np.ndarray, c1: float, c2: float) -> float:
    """Mean SSIM over the non-overlapping 8x8 windows, all at once.

    Both images are zero-padded to whole windows and viewed as (nbx, 8,
    nby, 8); a mask keeps the padding out of every sum, and each window's
    moments divide by its own pixel count, so a partial edge window is
    scored on its pixels alone. Variances are centred (two-pass).
    """
    h, w = pa.shape
    nbx, nby = -(-h // 8), -(-w // 8)

    def windows(pixels: np.ndarray) -> np.ndarray:
        padded = np.zeros((nbx * 8, nby * 8))
        padded[:h, :w] = pixels
        return padded.reshape(nbx, 8, nby, 8)

    mask = windows(np.ones((h, w)))
    count = mask.sum(axis=(1, 3))
    moments = []
    for img in (pa, pb):
        win = windows(img)
        mu = win.sum(axis=(1, 3)) / count
        moments.append((mu, (win - mu[:, None, :, None]) * mask))
    (mu_a, dev_a), (mu_b, dev_b) = moments
    var_a = (dev_a * dev_a).sum(axis=(1, 3)) / count
    var_b = (dev_b * dev_b).sum(axis=(1, 3)) / count
    cov = (dev_a * dev_b).sum(axis=(1, 3)) / count
    return float(np.mean(_ssim_statistic(mu_a, mu_b, var_a, var_b, cov, c1, c2)))


def ssim(a, b, mode: str = "global") -> float:
    """Structural similarity index.

    global:   one statistic over the whole image.
    windowed: mean of the statistic over non-overlapping 8x8 windows
              (partial edge windows included as-is).

    The stability constants are c1 = (0.01 L)^2, c2 = (0.03 L)^2.
    """
    if mode not in SSIM_MODES:
        raise ValueError(f"unknown ssim mode {mode!r}")
    peak = _peak(a, b)
    pa, pb = _clamped_pixels(a, peak), _clamped_pixels(b, peak)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape} vs {pb.shape}")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    if mode == "windowed":
        return _windowed_ssim(pa, pb, c1, c2)
    mu_a, mu_b = pa.mean(), pb.mean()
    cov = np.mean((pa - mu_a) * (pb - mu_b))
    return float(_ssim_statistic(mu_a, mu_b, pa.var(), pb.var(), cov, c1, c2))


def baseline_report(reference, baseline, baseline_id: str,
                    ssim_mode: str = "global") -> QualityReport:
    """Score a baseline decode once; its deltas against itself are zero."""
    return QualityReport(psnr(reference, baseline), ssim(reference, baseline, mode=ssim_mode),
                         0.0, 0.0, baseline_id)


def relative_report(reference, reconstruction, baseline: QualityReport,
                    ssim_mode: str = "global") -> QualityReport:
    """Score a reconstruction and its deltas against a scored baseline.

    Deltas of two infinite PSNR values are reported as zero (both exact).
    """
    p = psnr(reference, reconstruction)
    s = ssim(reference, reconstruction, mode=ssim_mode)
    if math.isinf(p) and math.isinf(baseline.psnr):
        dp = 0.0
    else:
        dp = p - baseline.psnr
    return QualityReport(p, s, dp, s - baseline.ssim, baseline.baseline_id)


def quality_report(reference, reconstruction, baseline, baseline_id: str,
                   ssim_mode: str = "global") -> QualityReport:
    """Score a reconstruction and its deltas against a baseline decode."""
    return relative_report(reference, reconstruction,
                           baseline_report(reference, baseline, baseline_id, ssim_mode),
                           ssim_mode)
