"""Reconstruction quality scoring: PSNR and SSIM.

Scores are computed on clamped pixels at the original (cropped) dimensions.
SSIM defaults to the single global statistic; ``mode="windowed"`` averages
the statistic over non-overlapping 8x8 windows for comparability with common
tooling. Variances use the population (1/N) convention so results are
bit-comparable across implementations.

Every score reads :class:`PreparedImage` values: pixels clamped into
[0, L] and the peak L. :func:`prepare` makes one; ``psnr`` and ``ssim``
accept a prepared or a raw image on either side and prepare a raw one
themselves, so both paths give the same bits. An image scored against many
others is prepared once: ``sweep`` and ``simulate`` prepare their reference
once per image, with the global-SSIM moments (mean, population variance),
score the JPEG baseline once with :func:`baseline_report` and each
reconstruction against it with :func:`relative_report`. A
:class:`~jqpie.imagio.GrayscaleImage` already inside [0, L], as every loaded
image and clamped decode is, is not clipped: the prepared image shares its
array. That is safe because an image's array is read-only and nothing else
writes it: a caller's array is copied, and the library's makers hand their
fresh arrays over uncopied.
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


@dataclass(frozen=True)
class PreparedImage:
    """Read-only pixels clamped into [0, peak], ready to be scored.

    ``moments`` holds the (mean, population variance) that global SSIM
    reads, when :func:`prepare` was asked for them; otherwise ``ssim``
    measures them on each call.
    """

    pixels: np.ndarray
    peak: float
    moments: tuple[float, float] | None = None


def prepare(img, peak: float | None = None, moments: bool = False) -> PreparedImage:
    """Clamp an image (or a pixel array) into [0, peak] once, for scoring.

    ``peak`` defaults to the image's L, or 255 for an array; a prepared
    image is returned as it is, and scoring it at another peak is an
    error. ``moments`` also measures the global-SSIM mean and variance,
    for an image that is scored against many others.
    """
    if isinstance(img, PreparedImage):
        if peak is not None and peak != img.peak:
            raise ValueError(f"image prepared at peak {img.peak:g}, scored at {peak:g}")
        return img
    if peak is None:
        peak = _peak(img)
    if isinstance(img, GrayscaleImage):
        pixels = img.pixels
        if not (0.0 <= pixels.min() and pixels.max() <= peak):
            pixels = np.clip(pixels, 0.0, peak)
    else:
        pixels = np.clip(np.asarray(img, dtype=np.float64), 0.0, peak)
    pixels.flags.writeable = False
    return PreparedImage(pixels, peak, (pixels.mean(), pixels.var()) if moments else None)


def _peak(*images) -> float:
    """The peak of the first image that carries one, else 255."""
    for img in images:
        if isinstance(img, GrayscaleImage):
            return img.max_value
        if isinstance(img, PreparedImage):
            return img.peak
    return 255.0


def _prepared_pair(a, b) -> tuple[PreparedImage, PreparedImage]:
    peak = _peak(a, b)
    pa, pb = prepare(a, peak), prepare(b, peak)
    if pa.pixels.shape != pb.pixels.shape:
        raise ValueError(f"dimension mismatch: {pa.pixels.shape} vs {pb.pixels.shape}")
    return pa, pb


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    pa, pb = _prepared_pair(a, b)
    diff = pa.pixels - pb.pixels
    diff *= diff
    mse = diff.mean()
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(pa.peak * pa.peak / mse)


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


def _global_ssim(pa: PreparedImage, pb: PreparedImage, c1: float, c2: float) -> float:
    """One SSIM statistic over the whole image.

    Each side's deviation from its mean is made once. The covariance
    product overwrites the deviation of a side with measured moments; a
    side without them reads its variance off its deviation afterwards.
    """
    sides = (pa, pb)
    means = [p.pixels.mean() if p.moments is None else p.moments[0] for p in sides]
    devs = [p.pixels - mu for p, mu in zip(sides, means)]
    spare = next((dev for p, dev in zip(sides, devs) if p.moments is not None), None)
    cov = np.multiply(*devs, out=spare).mean()
    variances = [np.square(dev, out=dev).sum() / dev.size if p.moments is None
                 else p.moments[1] for p, dev in zip(sides, devs)]
    return float(_ssim_statistic(*means, *variances, cov, c1, c2))


def ssim(a, b, mode: str = "global") -> float:
    """Structural similarity index.

    global:   one statistic over the whole image.
    windowed: mean of the statistic over non-overlapping 8x8 windows
              (partial edge windows included as-is).

    The stability constants are c1 = (0.01 L)^2, c2 = (0.03 L)^2.
    """
    if mode not in SSIM_MODES:
        raise ValueError(f"unknown ssim mode {mode!r}")
    pa, pb = _prepared_pair(a, b)
    c1 = (0.01 * pa.peak) ** 2
    c2 = (0.03 * pa.peak) ** 2
    if mode == "windowed":
        return _windowed_ssim(pa.pixels, pb.pixels, c1, c2)
    return _global_ssim(pa, pb, c1, c2)


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

