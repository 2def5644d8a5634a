import math

import numpy as np
import pytest

from jqpie import bench, metrics
from jqpie.imagio import GrayscaleImage, write_pgm
from jqpie.metrics import PreparedImage, baseline_report, prepare, psnr, score_strips, ssim

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
        windowed = ssim(GrayscaleImage(a), GrayscaleImage(b), mode="windowed")
        assert windowed == pytest.approx(_windowed_ssim_loop(a, b), rel=0, abs=1e-12)


@pytest.mark.parametrize("mode", metrics.SSIM_MODES)
def test_score_strips_clamps_each_strip_in_place(rng, mode):
    # a run's strips leave [0, L]; they are scored as the clamped image is,
    # to the bit, and clamped where they are
    ref = random_image(rng, 70, 9)
    recon = ref.pixels + rng.normal(0.0, 60.0, ref.pixels.shape)
    assert recon.min() < 0.0 and recon.max() > 255.0
    strips = [(row, recon[row:row + 64].copy()) for row in (0, 64)]
    baseline = baseline_report(ref, GrayscaleImage(np.clip(ref.pixels + 3.0, 0, 255)), "b")
    report = score_strips(prepare(ref, moments=True), strips, baseline, mode)
    clamped = GrayscaleImage(np.clip(recon, 0.0, 255.0))
    assert (report.psnr, report.ssim) == (psnr(ref, clamped), ssim(ref, clamped, mode=mode))
    assert report.delta_ssim == report.ssim - baseline.ssim
    assert np.array_equal(np.concatenate([pixels for _, pixels in strips]), clamped.pixels)


def test_quality_report_deltas(rng):
    ref = random_image(rng, 16, 16)
    recon = GrayscaleImage(ref.pixels + 2.0, original_dims=ref.original_dims)
    baseline = GrayscaleImage(ref.pixels + 4.0, original_dims=ref.original_dims)
    scored = baseline_report(ref, baseline, "jpeg S=1")
    assert (scored.delta_psnr, scored.delta_ssim) == (0.0, 0.0)
    report = score_strips(prepare(ref), [(0, recon.pixels.copy())], scored, "global")
    assert report.delta_psnr > 0
    assert report.baseline_id == "jpeg S=1"
    same = score_strips(prepare(ref), [(0, ref.pixels.copy())],
                        baseline_report(ref, ref, "self"), "global")
    assert same.delta_psnr == 0.0 and same.delta_ssim == 0.0
    payload = report.to_json()
    assert set(payload) == {"psnr", "ssim", "delta_psnr", "delta_ssim", "baseline_id"}


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("size", [(1, 37), (57, 33), (1024, 8)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("bit_depth", range(1, 9))
def test_prepared_and_raw_inputs_score_the_same_bits(rng, size, bit_depth):
    peak = 2 ** bit_depth - 1
    loaded = random_image(rng, *size, bit_depth=bit_depth)
    # a float reference reaching outside [0, L] on both sides
    wide = GrayscaleImage(rng.uniform(-0.5 * peak, 1.5 * peak, size), bit_depth)
    recon = GrayscaleImage(loaded.pixels + rng.normal(0.0, 0.2 * peak + 0.1, size), bit_depth)
    for ref in (loaded, wide):
        for a, b in ((ref, recon), (recon, ref), (ref, ref)):
            for prepared_a, prepared_b in ((prepare(a), prepare(b)),
                                           (prepare(a, moments=True), b),
                                           (a, prepare(b, moments=True)),
                                           (prepare(a, moments=True), prepare(b, moments=True))):
                assert _bits(psnr(prepared_a, prepared_b)) == _bits(psnr(a, b))
                for mode in metrics.SSIM_MODES:
                    assert (_bits(ssim(prepared_a, prepared_b, mode=mode))
                            == _bits(ssim(a, b, mode=mode)))
    clamped = prepare(wide)
    assert np.array_equal(clamped.pixels, np.clip(wide.pixels, 0.0, peak))
    clipped = GrayscaleImage(np.clip(wide.pixels, 0.0, peak), bit_depth)
    assert _bits(psnr(wide, loaded)) == _bits(psnr(clipped, loaded))
    assert math.isinf(psnr(prepare(wide), clipped))
    assert math.isinf(psnr(prepare(loaded), prepare(loaded, moments=True)))


def test_prepare_shares_an_in_range_image_and_copies_the_rest(rng):
    img = random_image(rng, 16, 16)
    prepared = prepare(img, moments=True)
    assert prepared.pixels is img.pixels and prepared.peak == 255.0
    assert prepared.moments == (img.pixels.mean(), img.pixels.var())
    assert prepare(prepared) is prepared
    bright = GrayscaleImage(img.pixels + 300.0)
    clipped = prepare(bright)
    assert clipped.pixels is not bright.pixels and np.all(clipped.pixels == 255.0)
    assert not clipped.pixels.flags.writeable and clipped.moments is None
    # over several strips the range check in the moments' walk shares the
    # image too, and the moments are those of _moments, bit for bit
    img = random_image(rng, 200, 130)
    prepared = prepare(img, moments=True)
    pixels, moments = metrics._moments(img.pixels)
    assert prepared.pixels is img.pixels and pixels is img.pixels
    assert [_bits(m) for m in prepared.moments] == [_bits(m) for m in moments]


@pytest.mark.parametrize("value", [-0.5, 255.5, 1e6])
def test_prepare_with_moments_clips_at_the_last_strip(rng, value):
    """The only pixel outside [0, L] sits in the last strip: the range check
    in the moments' walk clips the image there, and the moments are those
    of the clipped pixels, bit for bit."""
    img = random_image(rng, 200, 130)
    pixels = img.pixels.copy()
    pixels[197, 5] = value
    prepared = prepare(GrayscaleImage(pixels), moments=True)
    clipped = np.clip(pixels, 0.0, 255.0)
    assert np.array_equal(prepared.pixels, clipped) and not prepared.pixels.flags.writeable
    assert [_bits(m) for m in prepared.moments] == [_bits(m) for m in
                                                    metrics._moments(clipped)[1]]
    assert prepared.moments != metrics._moments(pixels)[1]


def test_prepare_takes_the_moments_in_strips(rng):
    """The global-SSIM mean and population variance are summed in strips of
    64 rows: they match the whole-array ``mean`` and ``var`` to 1e-12, and
    on a 1024x1024 image the peak stays under a tenth of one image-sized
    float64 array (``var`` made a whole one)."""
    import tracemalloc
    for size in ((1, 37), (57, 33), (200, 130)):
        img = random_image(rng, *size)
        mean, var = prepare(img, moments=True).moments
        assert abs(mean - img.pixels.mean()) <= 1e-12 * img.pixels.mean()
        assert abs(var - img.pixels.var()) <= 1e-12 * img.pixels.var()
    img = random_image(rng, 1024, 1024)
    tracemalloc.start()
    try:
        prepare(img, moments=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * img.pixels.nbytes, peak / img.pixels.nbytes


@pytest.mark.parametrize("mode", [None, "global"])
def test_scores_reuse_one_scratch_array(rng, mode):
    """After its first strip a :class:`Scores` adds another without making
    a strip-sized array, and its scores are those of the whole images to
    the bit."""
    import tracemalloc
    reference = prepare(random_image(rng, 128, 1024), moments=True)
    recon = np.clip(reference.pixels + rng.normal(0.0, 20.0, (128, 1024)), 0.0, 255.0)
    scores = metrics.Scores(reference, mode)
    scores.add(0, recon[:64])
    tracemalloc.start()
    try:
        scores.add(64, recon[64:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * recon[64:].nbytes, peak / recon[64:].nbytes
    recon = GrayscaleImage(recon)
    assert _bits(scores.psnr()) == _bits(psnr(reference, recon))
    if mode is not None:
        assert _bits(scores.ssim()) == _bits(ssim(reference, recon, mode=mode))


def test_prepared_image_keeps_its_peak(rng):
    four_bit = random_image(rng, 8, 8, bit_depth=4)
    assert prepare(four_bit).peak == 15.0
    with pytest.raises(ValueError, match="prepared at peak 15"):
        psnr(random_image(rng, 8, 8), prepare(four_bit))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ssim(prepare(four_bit), random_image(rng, 8, 16, bit_depth=4))


def test_sweep_clamps_each_image_once(tmp_path, rng, monkeypatch):
    directory = tmp_path / "data"
    directory.mkdir()
    for name in ("one.pgm", "two.pgm"):
        write_pgm(random_image(rng, 24, 16), directory / name)
    cfg = bench.SweepConfig(inputs=(str(directory),), methods=("jqpie", "qf_jqpie"),
                            r_set=(3, 6))
    prepared = []
    real_prepare = metrics.prepare

    def counted_prepare(img, *args, **kwargs):
        out = real_prepare(img, *args, **kwargs)
        if not isinstance(img, PreparedImage):
            prepared.append((img, out))
        return out

    scored = []

    def spy(fn):
        def wrapped(a, b, *args, **kwargs):
            scored.append((a, b))
            return fn(a, b, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(metrics, "prepare", counted_prepare)
    for name in ("psnr", "ssim"):
        monkeypatch.setattr(metrics, name, spy(getattr(metrics, name)))
    rows = bench.run_sweep(cfg)
    assert not any(row["error"] for row in rows)
    # per image: the reference is prepared once; the JPEG baseline, clamped
    # as it is decoded, is handed to scoring as a prepared image without
    # another pass; psnr and ssim only ever see prepared images, and the
    # cells clamp each strip of their reconstruction in place instead of
    # preparing it
    assert len(rows) == 8
    assert len(prepared) == 2
    assert len({id(img) for img, _ in prepared}) == len(prepared)
    assert len(scored) == 2 * 2
    assert all(isinstance(x, PreparedImage) for pair in scored for x in pair)
    references = [(img, out) for img, out in prepared if out.moments is not None]
    assert len(references) == 2
    # a loaded reference lies inside [0, L], so it is shared, never clipped
    assert all(out.pixels is img.pixels for img, out in references)
