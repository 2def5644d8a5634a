"""Reconstruction quality scoring: PSNR and SSIM.

Scores are computed on clamped pixels at the original (cropped) dimensions.
SSIM defaults to the single global statistic; ``mode="windowed"`` averages
the statistic over non-overlapping 8x8 tiles. That is not the
Gaussian-window SSIM of Wang et al. (2004), which slides an 11x11 window,
so windowed scores are not comparable with tools that compute it.
Variances use the population (1/N) convention so results are
bit-comparable across implementations.

Every score is finished from one accumulator, :class:`Scores`, fed row
strips of a reconstruction (:data:`~jqpie.imagio.STRIP_ROWS` rows, whole
8x8 windows) with the matching rows of the reference, so no score makes an
image-sized temporary. ``psnr`` and ``ssim`` walk two whole images through
it; a sweep feeds it each strip of a run's reconstruction as the run
decodes it (:class:`~jqpie.pipeline.HybridRun`), so both give the same bits.
Global SSIM is summed from the difference d = a - b of each strip, which
PSNR needs anyway: with the reference's mean and variance, the sums of d,
d*d and a*d give the reconstruction's mean and variance and the
covariance, four passes over a strip and none that subtracts a mean.

Every score reads :class:`PreparedImage` values: pixels clamped into
[0, L] and the peak L. :func:`prepare` makes one from a
:class:`~jqpie.imagio.GrayscaleImage`; ``psnr`` and ``ssim`` take either
on each side and prepare an image themselves, so both paths give the same
bits. An image scored against many others is prepared once: ``sweep`` and
``simulate`` prepare their reference once per image, with the global-SSIM
moments (mean, population variance), score the JPEG baseline once with
:func:`baseline_report` and each reconstruction against it. The baseline
decode clamps every strip itself, so the harness wraps its pixels in a
:class:`PreparedImage` without a scan. An image already inside [0, L], as
every loaded image and clamped decode is, is not clipped: the prepared
image shares its array. That is safe because an image's array is
read-only and nothing else writes it: a caller's array is copied, and the
library's makers hand their fresh arrays over uncopied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .imagio import STRIP_ROWS

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
    """Clamp a :class:`~jqpie.imagio.GrayscaleImage` into [0, peak] once,
    for scoring.

    ``peak`` defaults to the image's L; a prepared image is returned as it
    is, and scoring it at another peak is an error. ``moments`` also
    measures the global-SSIM mean and variance, for an image that is
    scored against many others.
    """
    if isinstance(img, PreparedImage):
        if peak is not None and peak != img.peak:
            raise ValueError(f"image prepared at peak {img.peak:g}, scored at {peak:g}")
        return img
    if peak is None:
        peak = img.max_value
    pixels = img.pixels
    if not (0.0 <= pixels.min() and pixels.max() <= peak):
        pixels = np.clip(pixels, 0.0, peak)
    pixels.flags.writeable = False
    return PreparedImage(pixels, peak, _moments(pixels) if moments else None)


def _moments(pixels: np.ndarray) -> tuple[float, float]:
    """The global-SSIM mean and population variance of prepared pixels.

    Both are summed in strips of :data:`~jqpie.imagio.STRIP_ROWS` rows,
    the variance over the deviations from the mean (two passes), so no
    image-sized temporary is made.
    """
    starts = range(0, len(pixels), STRIP_ROWS)
    mean = sum(float(pixels[row:row + STRIP_ROWS].sum()) for row in starts) / pixels.size
    scratch = np.empty(min(STRIP_ROWS, len(pixels)) * pixels.shape[1])
    squares = 0.0
    for row in starts:
        strip = pixels[row:row + STRIP_ROWS]
        deviation = scratch[:strip.size]
        np.subtract(strip, mean, out=deviation.reshape(strip.shape))
        squares += float(deviation @ deviation)
    return mean, squares / pixels.size


def _prepared_pair(a, b) -> tuple[PreparedImage, PreparedImage]:
    pa = prepare(a)
    pb = prepare(b, pa.peak)
    if pa.pixels.shape != pb.pixels.shape:
        raise ValueError(f"dimension mismatch: {pa.pixels.shape} vs {pb.pixels.shape}")
    return pa, pb


class Scores:
    """PSNR and SSIM of one reconstruction against a prepared reference,
    summed over row strips.

    Feed the reconstruction's rows to :meth:`add` in strips that start on a
    multiple of 8 rows, so every SSIM window lies inside one strip, with
    pixels clamped into [0, peak]; then read :meth:`psnr`, :meth:`ssim` or
    :meth:`report`. ``ssim_mode`` None sums for PSNR alone.

    Every strip's difference d = a - b goes into one strip-sized scratch
    array, kept for every strip, and PSNR sums d*d. Global SSIM also sums d
    and a*d. With the reference's mean mu and population variance var (its
    ``moments``, or measured once), and cov(a, d) and var(d) from those
    sums, the reconstruction's mean is mu - mean(d), the covariance
    var - cov(a, d) and the reconstruction's variance
    var - 2 cov(a, d) + var(d); an exact reconstruction gives var for both.
    Windowed SSIM sums the statistic of each window.
    """

    def __init__(self, reference: PreparedImage, ssim_mode: str | None):
        if ssim_mode not in SSIM_MODES + (None,):
            raise ValueError(f"unknown ssim mode {ssim_mode!r}")
        self.reference = reference
        self.ssim_mode = ssim_mode
        self._c1 = (0.01 * reference.peak) ** 2
        self._c2 = (0.03 * reference.peak) ** 2
        if ssim_mode == "global":
            self._moments = reference.moments or _moments(reference.pixels)
        self._squared_error = self._difference = self._cross = 0.0
        self._window_sum = 0.0
        self._windows = 0
        self._scratch = np.empty(0)

    def add(self, row: int, pixels: np.ndarray) -> None:
        """Score the reconstruction's rows from ``row`` on."""
        ref = self.reference.pixels[row:row + len(pixels)]
        if ref.shape != pixels.shape:
            raise ValueError(f"dimension mismatch: {ref.shape} vs {pixels.shape}")
        if self._scratch.size < pixels.size:
            self._scratch = np.empty(pixels.size)
        flat = self._scratch[:pixels.size]
        scratch = flat.reshape(pixels.shape)
        np.subtract(ref, pixels, out=scratch)
        self._squared_error += float(flat @ flat)
        if self.ssim_mode == "global":
            self._difference += float(flat.sum())
            self._cross += float(ref.reshape(-1) @ flat)
        elif self.ssim_mode == "windowed":
            statistics = _window_statistics(ref, pixels, self._c1, self._c2)
            self._window_sum += float(statistics.sum())
            self._windows += statistics.size

    def psnr(self) -> float:
        """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
        mse = self._squared_error / self.reference.pixels.size
        if mse == 0.0:
            return math.inf
        peak = self.reference.peak
        return 10.0 * math.log10(peak * peak / mse)

    def ssim(self) -> float:
        """The SSIM of the mode the scores were summed for."""
        if self.ssim_mode == "windowed":
            return self._window_sum / self._windows
        n = self.reference.pixels.size
        mu, var = self._moments
        mean_d = self._difference / n
        cov_ad = self._cross / n - mu * mean_d
        var_d = self._squared_error / n - mean_d * mean_d
        cov = var - cov_ad
        var_b = cov - cov_ad + var_d
        return float(_ssim_statistic(mu, mu - mean_d, var, var_b, cov, self._c1, self._c2))

    def report(self, baseline: QualityReport) -> QualityReport:
        """The scores and their deltas against a scored baseline.

        Deltas of two infinite PSNR values are reported as zero (both exact).
        """
        p, s = self.psnr(), self.ssim()
        dp = 0.0 if math.isinf(p) and math.isinf(baseline.psnr) else p - baseline.psnr
        return QualityReport(p, s, dp, s - baseline.ssim, baseline.baseline_id)


def _scores(a, b, ssim_mode: str | None) -> Scores:
    """Two whole images walked through one :class:`Scores`, strip by strip."""
    pa, pb = _prepared_pair(a, b)
    scores = Scores(pa, ssim_mode)
    for row in range(0, len(pb.pixels), STRIP_ROWS):
        scores.add(row, pb.pixels[row:row + STRIP_ROWS])
    return scores


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    return _scores(a, b, None).psnr()


def _ssim_statistic(mu_a, mu_b, var_a, var_b, cov, c1: float, c2: float):
    """The SSIM formula on means, population variances and covariance;
    scalars or arrays of per-window values."""
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return num / den


def _window_statistics(pa: np.ndarray, pb: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """The SSIM statistic of each non-overlapping 8x8 window of some rows.

    Both sides are zero-padded to whole windows and viewed as (nbx, 8, nby,
    8); a mask keeps the padding out of every sum, and each window's moments
    divide by its own pixel count, so a partial edge window is scored on its
    pixels alone. Variances are centred (two-pass).
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
    return _ssim_statistic(mu_a, mu_b, var_a, var_b, cov, c1, c2)


def ssim(a, b, mode: str = "global") -> float:
    """Structural similarity index.

    global:   one statistic over the whole image.
    windowed: mean of the statistic over non-overlapping 8x8 windows
              (partial edge windows included as-is).

    The stability constants are c1 = (0.01 L)^2, c2 = (0.03 L)^2.
    """
    if mode not in SSIM_MODES:
        raise ValueError(f"unknown ssim mode {mode!r}")
    return _scores(a, b, mode).ssim()


def baseline_report(reference, baseline, baseline_id: str,
                    ssim_mode: str = "global") -> QualityReport:
    """Score a baseline decode once; its deltas against itself are zero."""
    return QualityReport(psnr(reference, baseline), ssim(reference, baseline, mode=ssim_mode),
                         0.0, 0.0, baseline_id)


def relative_report(reference, reconstruction, baseline: QualityReport) -> QualityReport:
    """Score a reconstruction, with global SSIM, and its deltas against a
    scored baseline (:meth:`Scores.report`), in one walk over both images."""
    return _scores(reference, reconstruction, "global").report(baseline)
