import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jqpie
from jqpie import bench, metrics
from jqpie.bench import (SweepConfig, aggregate_histogram, collect_stats, emit_report,
                         ingest_dataset, main, rows_to_csv, run_sweep, summarize)
from jqpie.imagio import GrayscaleImage, load_image, write_pgm
from jqpie.jpegcore import QuantTable, reference_decode_pixels, sparsity_stats, zigzag_coefficients
from jqpie.pipeline import METHODS, NORM_MODES

from conftest import gradient_image, random_image


def make_dataset(tmp_path, rng, names=("a.pgm", "b.pgm", "c.pgm"), size=16):
    directory = tmp_path / "data"
    directory.mkdir()
    for name in names:
        write_pgm(random_image(rng, size, size), directory / name)
    return directory


def test_ingest_orders_lexicographically(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("c.pgm", "a.pgm", "b.pgm"))
    labels = [label for label, _ in ingest_dataset(directory)]
    assert labels == ["a.pgm", "b.pgm", "c.pgm"]


def test_ingest_skips_non_images(tmp_path, rng, caplog):
    directory = make_dataset(tmp_path, rng)
    (directory / "junk.txt").write_text("not an image")
    (directory / "broken.pgm").write_bytes(b"P5\n9 9\n255\nxx")
    with caplog.at_level("WARNING"):
        images = ingest_dataset(directory)
    assert len(images) == 3
    assert sum("skipping" in r.message for r in caplog.records) == 2


def test_ingest_empty_directory_errors(tmp_path):
    empty = tmp_path / "void"
    empty.mkdir()
    with pytest.raises(ValueError):
        ingest_dataset(empty)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(inputs=("x",), r_set=())
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale must be a positive finite number"):
            SweepConfig(inputs=("x",), scale=bad)
    with pytest.raises(ValueError):
        SweepConfig(inputs=("x",), methods=("warp",))
    for field in ("backend", "norm_mode", "ssim_mode"):
        with pytest.raises(ValueError, match=f"unknown {field} 'warp'"):
            SweepConfig(inputs=("x",), **{field: "warp"})
    with pytest.raises(ValueError, match="truncation level must be one of"):
        SweepConfig(inputs=("x",), r_set=(5, 7))
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            SweepConfig(inputs=("x",), jobs=jobs)


def _oracle_baseline(img, scale, ssim_mode="global"):
    """The JPEG baseline scored from the block-path oracle, clipped to [0, L]."""
    oracle = GrayscaleImage(np.clip(reference_decode_pixels(img, "jpeg", scale=scale),
                                    0.0, img.max_value), img.bit_depth)
    return metrics.baseline_report(img, oracle, f"jpeg S={scale:g}", ssim_mode=ssim_mode)


def test_sweep_rows_schema_and_values(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("one.pgm",))
    cfg = SweepConfig(inputs=(str(directory),), methods=("jqpie", "qf_jqpie"),
                      r_set=(5, 6))
    rows = run_sweep(cfg)
    assert len(rows) == 4   # 1 image x 2 methods x 2 levels
    combos = {(r["method"], r["r"]) for r in rows}
    assert combos == {("jqpie", 5), ("jqpie", 6), ("qf_jqpie", 5), ("qf_jqpie", 6)}
    by_key = {(r["method"], r["r"]): r for r in rows}
    # quantized pipeline at r=6 reproduces the baseline decode exactly
    assert abs(by_key[("jqpie", 6)]["delta_psnr"]) <= 1e-6
    assert by_key[("qf_jqpie", 6)]["success_prob"] == 1.0
    assert by_key[("jqpie", 5)]["cx_reduction_pct"] == 50.0
    assert by_key[("jqpie", 4) if ("jqpie", 4) in by_key else ("jqpie", 5)]
    for row in rows:
        assert row["error"] == ""
        assert np.isfinite(row["delta_psnr"])


def test_sweep_scores_baseline_once_per_image(tmp_path, rng, monkeypatch):
    directory = make_dataset(tmp_path, rng, names=("one.pgm", "two.pgm"))
    cfg = SweepConfig(inputs=(str(directory),), methods=("jqpie", "qf_jqpie"),
                      r_set=(3, 6), ssim_mode="windowed")
    expected = {}
    for label, img in ingest_dataset(directory):
        baseline = _oracle_baseline(img, cfg.scale, "windowed")
        for method in cfg.methods:
            for r in cfg.r_set:
                recon = bench._run_method(img, method, r, cfg.scale, cfg.backend,
                                          cfg.norm_mode).reconstructed
                psnr = metrics.psnr(img, recon)
                ssim = metrics.ssim(img, recon, mode="windowed")
                expected[label, method, r] = (psnr, ssim, psnr - baseline.psnr,
                                              ssim - baseline.ssim)
    calls = {"psnr": 0, "ssim": 0}

    def counted(name):
        fn = getattr(metrics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(metrics, name, counted(name))
    rows = run_sweep(cfg)
    # one baseline score per image; the 4 cells of each image are scored
    # strip by strip through metrics.Scores, which psnr and ssim also use
    assert calls == {"psnr": 2, "ssim": 2}
    for row in rows:
        assert (row["psnr"], row["ssim"], row["delta_psnr"], row["delta_ssim"]) == (
            expected[row["image"], row["method"], row["r"]])


def test_fmt_prints_rounding_noise_unsigned():
    assert bench._fmt(-1e-16) == "0.000000"
    assert bench._fmt(1e-16) == "0.000000"
    assert bench._fmt(-0.0) == "0.000000"
    assert bench._fmt(-4e-7) == "0.000000"
    assert bench._fmt(-6e-7) == "-0.000001"
    assert bench._fmt(-1.5) == "-1.500000"
    assert bench._fmt(-np.inf) == "-inf"
    assert bench._fmt(None) == ""


def test_sweep_reduction_percentages(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("one.pgm",))
    cfg = SweepConfig(inputs=(str(directory),), methods=("qf_jqpie",), r_set=(2, 4, 5))
    by_r = {row["r"]: row for row in run_sweep(cfg)}
    assert by_r[5]["cx_reduction_pct"] == 50.0
    assert by_r[4]["cx_reduction_pct"] == 75.0
    assert by_r[2]["cx_reduction_pct"] == 93.75


def test_sweep_records_error_rows(tmp_path):
    directory = tmp_path / "data"
    directory.mkdir()
    write_pgm(GrayscaleImage(np.full((8, 8), 1.0)), directory / "flat.pgm")
    cfg = SweepConfig(inputs=(str(directory),), methods=("jqpie",), r_set=(2,),
                      scale=100.0)   # quantizes everything to zero
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert "zero" in rows[0]["error"]


def test_sweep_deterministic_csv(tmp_path, rng):
    directory = make_dataset(tmp_path, rng)
    cfg = SweepConfig(inputs=(str(directory),), methods=("qf_jqpie",), r_set=(4, 6))
    first = rows_to_csv(run_sweep(cfg))
    second = rows_to_csv(run_sweep(cfg))
    assert first == second
    header = first.splitlines()[0].split(",")
    assert header[:4] == ["image", "method", "r", "S"]


def test_sweep_parallel_matches_serial(tmp_path, rng):
    directory = make_dataset(tmp_path, rng)
    serial = SweepConfig(inputs=(str(directory),), methods=("qf_jqpie",), r_set=(5,))
    parallel = SweepConfig(inputs=(str(directory),), methods=("qf_jqpie",), r_set=(5,),
                           jobs=2)
    assert rows_to_csv(run_sweep(serial)) == rows_to_csv(run_sweep(parallel))


def test_sweep_starts_no_more_workers_than_images(tmp_path, rng, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    directory = make_dataset(tmp_path, rng, size=8)
    images = bench._collect_inputs((str(directory),), False)
    for n_images, jobs, expected in ((1, 4, []), (2, 4, [2]), (3, 2, [2]), (3, 1, [])):
        pools.clear()
        cfg = SweepConfig(inputs=(str(directory),), methods=("qf_jqpie",), r_set=(2,),
                          jobs=jobs)
        rows, _ = bench._sweep_images(images[:n_images], cfg)
        assert pools == expected
        assert [row["image"] for row in rows] == [label for label, _ in images[:n_images]]


def test_emit_report_files(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("p.pgm", "q.pgm"))
    cfg = SweepConfig(inputs=(str(directory),), methods=("qf_jqpie",), r_set=(6,))
    images = ingest_dataset(directory)
    rows = run_sweep(cfg)
    stats = collect_stats(images, cfg.scale)
    summary = summarize(rows, stats)
    histogram = aggregate_histogram(stats)
    written = emit_report(rows, summary, histogram, tmp_path / "out" / "report")
    csv_text = written[0].read_text()
    assert len(csv_text.splitlines()) == 1 + len(rows)
    payload = json.loads(written[1].read_text())
    assert payload["tolerance"]["qf_jqpie,r=6"]["within_psnr_tolerance"] == 1.0
    assert payload["error_rows"] == 0
    hist_lines = written[2].read_text().splitlines()
    assert len(hist_lines) == 1 + 64


def test_importing_the_cli_starts_no_process_machinery():
    # the process pool and its modules are imported only by a sweep with
    # --jobs > 1
    script = "import sys, jqpie.bench\nprint('multiprocessing' in sys.modules)\n"
    src = str(Path(jqpie.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_dotted_out_bases_keep_their_dots(tmp_path, rng):
    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 16, 16), path)
    out = tmp_path / "out"
    for scale in ("0.25", "0.5"):
        assert main(["sweep", str(path), "--r", "3", "--scale", scale,
                     "--out", str(out / f"run_S{scale}")]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"run_S{scale}{tail}" for scale in ("0.25", "0.5")
                     for tail in (".csv", ".json", "_histogram.csv")]
    for scale in ("0.25", "0.5"):
        rows = (out / f"run_S{scale}.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {f"{float(scale):g}"}
    for command in (["simulate", str(path), "--r", "3"], ["stats", str(path)]):
        assert main([*command, "--out", str(out / f"{command[0]}_S0.5")]) == 0
    assert (out / "simulate_S0.5.json").is_file() and (out / "simulate_S0.5.pgm").is_file()
    assert (out / "stats_S0.5.json").is_file()


def test_emit_report_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], {}, None, tmp_path / "x")


def test_histogram_matches_sparsity_convention(tmp_path, rng):
    img = random_image(rng, 16, 16)
    hist = aggregate_histogram(collect_stats([("i", img)], 1.0))
    stats = sparsity_stats(zigzag_coefficients(img, QuantTable(1.0), layout="image"))
    assert np.allclose(hist, stats.histogram)
    assert np.sum(hist) == pytest.approx(stats.nonzero_count / stats.block_count)


def test_summary_cr_ranges_by_category(tmp_path, rng):
    root = tmp_path / "set"
    (root / "textures").mkdir(parents=True)
    (root / "aerials").mkdir()
    write_pgm(random_image(rng, 16, 16), root / "textures" / "t.pgm")
    write_pgm(gradient_image(16, 16), root / "aerials" / "a.pgm")
    images = ingest_dataset(root)
    summary = summarize([], collect_stats(images, 1.0))
    assert set(summary["compression_ratio"]) == {"textures", "aerials"}
    for entry in summary["compression_ratio"].values():
        assert entry["min"] <= entry["max"]


# --- CLI ------------------------------------------------------------------------

def test_cli_stats(tmp_path, rng, capsys):
    directory = make_dataset(tmp_path, rng, names=("z.pgm",))
    assert main(["stats", str(directory)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "z.pgm" in payload
    assert payload["z.pgm"]["compression_ratio"] > 1.0


def test_cli_stats_skips_all_zero_image(tmp_path, rng, capsys, caplog):
    directory = make_dataset(tmp_path, rng, names=("normal.pgm",))
    write_pgm(GrayscaleImage(np.zeros((8, 8))), directory / "zero.pgm")
    with caplog.at_level("WARNING"):
        assert main(["stats", str(directory)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["normal.pgm"]
    assert any("zero.pgm" in r.message for r in caplog.records)
    # only degenerate images left: nothing to report
    (directory / "normal.pgm").unlink()
    assert main(["stats", str(directory)]) == 2


def test_cli_simulate_writes_outputs(tmp_path, rng):
    img_path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 16, 16), img_path)
    out_base = tmp_path / "result"
    code = main(["simulate", str(img_path), "--method", "jqpie", "--r", "4",
                 "--out", str(out_base)])
    assert code == 0
    payload = json.loads(out_base.with_suffix(".json").read_text())
    assert 0 < payload["success_probability"] <= 1
    assert payload["quality"]["psnr"] > 0
    assert out_base.with_suffix(".pgm").exists()


def test_cli_sweep_and_exit_codes(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("ok.pgm",))
    out = tmp_path / "sweep" / "rows"
    code = main(["sweep", str(directory), "--method", "qf_jqpie", "--r", "5",
                 "--r", "6", "--out", str(out)])
    assert code == 0
    assert out.with_suffix(".csv").exists()
    # an all-flat image at huge scale yields error rows -> nonzero exit
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    write_pgm(GrayscaleImage(np.full((8, 8), 1.0)), bad_dir / "flat.pgm")
    out2 = tmp_path / "sweep" / "rows2"
    code2 = main(["sweep", str(bad_dir), "--method", "jqpie", "--r", "2",
                  "--scale", "100", "--out", str(out2)])
    assert code2 == 1
    code3 = main(["sweep", str(bad_dir), "--method", "jqpie", "--r", "2",
                  "--scale", "100", "--out", str(out2), "--keep-going"])
    assert code3 == 0


def test_cli_sweep_rejects_a_bad_r_before_any_work(tmp_path, rng, capsys):
    directory = make_dataset(tmp_path, rng, names=("a.pgm",))
    out = tmp_path / "rows"
    assert main(["sweep", str(directory), "--r", "7", "--out", str(out)]) == 2
    assert "truncation level must be one of" in capsys.readouterr().err
    assert main(["sweep", str(directory), "--jobs", "-3", "--out", str(out)]) == 2
    assert "jobs must be at least 1, got -3" in capsys.readouterr().err
    assert not out.with_suffix(".csv").exists()


def test_sweep_decodes_the_baseline_once_per_image(tmp_path, rng, monkeypatch):
    directory = make_dataset(tmp_path, rng, names=("a.pgm", "b.pgm"))
    decoded = []
    decode = bench.classical_reference_decode

    def counted(zz, table, img):
        decoded.append(img.original_dims)
        return decode(zz, table, img)

    monkeypatch.setattr(bench, "classical_reference_decode", counted)
    assert main(["sweep", str(directory), "--r", "4", "--out", str(tmp_path / "rows")]) == 0
    assert decoded == [(16, 16), (16, 16)]


@pytest.mark.parametrize("method", ["jqpie", "qf_jqpie", "qpie"])
def test_simulate_transforms_the_image_once(tmp_path, rng, monkeypatch, method):
    from jqpie import jpegcore, pipeline
    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 20, 12), path)
    calls = {"zigzag_coefficients": 0, "dct2_blocks": 0, "reference_decode_pixels": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(pipeline, "zigzag_coefficients")   # the one front end
    counted(jpegcore, "dct2_blocks")   # the oracles' block path
    counted(jpegcore, "reference_decode_pixels")
    assert main(["simulate", str(path), "--method", method, "--r", "3"]) == 0
    assert calls == {"zigzag_coefficients": 1, "dct2_blocks": 0, "reference_decode_pixels": 0}


@pytest.mark.parametrize("size", [(9, 17), (1, 37), (57, 33)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("bit_depth", [1, 8])
def test_simulate_quality_equals_the_oracle_baseline(tmp_path, rng, size, bit_depth):
    """``simulate`` scores against the JPEG baseline that the block-path
    oracle gives, clipped to [0, L], to the bit."""
    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, *size, bit_depth=bit_depth), path)
    img = load_image(path)
    scale = 0.05
    baseline = _oracle_baseline(img, scale)
    for method in ("jqpie", "qf_jqpie", "qpie"):
        out = tmp_path / method
        assert main(["simulate", str(path), "--method", method, "--r", "4",
                     "--scale", str(scale), "--out", str(out)]) == 0
        result = bench._run_method(img, method, 4, scale, "operator", "global")
        expected = metrics.relative_report(img, result.reconstructed, baseline)
        quality = json.loads(out.with_suffix(".json").read_text())["quality"]
        assert quality == expected.to_json(), method


def test_cli_sweep_loads_and_stats_each_image_once(tmp_path, rng, monkeypatch):
    directory = make_dataset(tmp_path, rng, names=("a.pgm", "b.pgm"))
    calls = {"load_image": 0, "sparsity_stats": 0}

    def counted(name):
        fn = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bench, name, counted(name))
    assert main(["sweep", str(directory), "--method", "qf_jqpie", "--r", "6",
                 "--out", str(tmp_path / "rows")]) == 0
    assert calls == {"load_image": 2, "sparsity_stats": 2}


@pytest.mark.parametrize("methods,per_image", [(("jqpie",), 1), (("qf_jqpie",), 1),
                                                (("jqpie", "qf_jqpie"), 2),
                                                (("qf_jqpie", "jqpie"), 2)],
                         ids=["jqpie", "qf_jqpie", "both", "both-reversed"])
def test_sweep_transforms_each_image_once_per_method(tmp_path, rng, monkeypatch,
                                                     methods, per_image):
    from jqpie import jpegcore, pipeline
    directory = make_dataset(tmp_path, rng, names=("a.pgm", "b.pgm"), size=24)
    calls = {"zigzag_coefficients": 0, "dct2_blocks": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(pipeline, "zigzag_coefficients")   # the front end, which the baseline and stats reuse
    counted(jpegcore, "dct2_blocks")   # the oracles' block path, which a sweep never takes
    argv = ["sweep", str(directory), "--r", "3", "--r", "6", "--out", str(tmp_path / "rows")]
    for method in methods:
        argv += ["--method", method]
    assert main(argv) == 0
    assert calls == {"zigzag_coefficients": 2 * per_image, "dct2_blocks": 0}


def test_parallel_sweep_reports_match_serial(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("a.pgm", "b.pgm"))
    write_pgm(GrayscaleImage(np.zeros((8, 8))), directory / "zero.pgm")
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}" / "rows"
        assert main(["sweep", str(directory), "--r", "4", "--jobs", jobs, "--keep-going",
                     "--out", str(out)]) == 0
        outputs.append([p.read_text() for p in (out.with_suffix(".csv"), out.with_suffix(".json"),
                                                out.parent / "rows_histogram.csv")])
    assert outputs[0] == outputs[1]
    # the all-zero image has error rows and no statistics
    assert json.loads(outputs[0][1])["compression_ratio"]["root"]["count"] == 2


def test_cli_sweep_runs_a_repeated_method_once(tmp_path, rng):
    directory = make_dataset(tmp_path, rng, names=("a.pgm",), size=8)
    out = tmp_path / "rows"
    assert main(["sweep", str(directory), "--method", "jqpie", "--method", "jqpie",
                 "--r", "3", "--r", "3", "--out", str(out)]) == 0
    lines = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert [tuple(line.split(",")[1:3]) for line in lines] == [("jqpie", "3")]
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["tolerance"]["jqpie,r=3"]["count"] == 1
    # the order of the first mentions is kept
    assert main(["sweep", str(directory), "--method", "qf_jqpie", "--method", "jqpie",
                 "--method", "qf_jqpie", "--r", "3", "--out", str(out)]) == 0
    lines = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == ["qf_jqpie", "jqpie"]


def test_run_sweep_runs_each_cell_once_in_ascending_r(tmp_path, rng):
    """The library decides the grid as the CLI does: one row per (method,
    r), r ascending, and the summary counts each combination once."""
    directory = make_dataset(tmp_path, rng, names=("a.pgm",), size=8)
    cfg = SweepConfig(inputs=(str(directory),), methods=("jqpie", "jqpie"), r_set=(5, 3, 3))
    rows = run_sweep(cfg)
    assert [(row["method"], row["r"], row["error"]) for row in rows] == [
        ("jqpie", 3, ""), ("jqpie", 5, "")]
    summary = summarize(rows, [])
    assert summary["total_rows"] == 2
    assert {key: value["count"] for key, value in summary["tolerance"].items()} == {
        "jqpie,r=3": 1, "jqpie,r=5": 1}
    assert (cfg.methods, cfg.r_set) == (("jqpie",), (3, 5))


def test_a_failed_baseline_gives_error_rows_in_ascending_r(tmp_path, rng, monkeypatch):
    directory = make_dataset(tmp_path, rng, names=("a.pgm",), size=8)

    def failing(*args):
        raise ValueError("no decode")

    monkeypatch.setattr(bench, "classical_reference_decode", failing)
    rows = run_sweep(SweepConfig(inputs=(str(directory),), r_set=(5, 3)))
    assert [(row["method"], row["r"]) for row in rows] == [
        (m, r) for m in METHODS for r in (3, 5)]
    assert all(row["error"] == "baseline failed: no decode" for row in rows)


def test_cli_calls_share_no_parser_state(tmp_path, rng):
    """The parser is built once per process; a second sweep without --r or
    --method gets the defaults, not the first call's repeatable options."""
    directory = make_dataset(tmp_path, rng, names=("a.pgm",), size=8)
    assert bench.build_parser() is bench.build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["sweep", str(directory), "--r", "3", "--method", "jqpie",
                 "--out", str(first)]) == 0
    assert main(["sweep", str(directory), "--out", str(second)]) == 0
    cells = []
    for out in (first, second):
        lines = out.with_suffix(".csv").read_text().splitlines()[1:]
        cells.append([tuple(line.split(",")[1:3]) for line in lines])
    assert cells[0] == [("jqpie", "3")]
    assert cells[1] == [(m, str(r)) for m in ("jqpie", "qf_jqpie") for r in range(2, 7)]


def _whole_array_scores(reference: np.ndarray, recon: np.ndarray, ssim_mode: str):
    """PSNR and SSIM of a reconstruction computed on whole arrays: the
    squared-error mean, the two-pass global moments, and the windowed
    statistic window by window (partial edge windows on their own pixels)."""
    a, b = reference, np.clip(recon, 0.0, 255.0)
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2

    def statistic(wa, wb):
        mu_a, mu_b = wa.mean(), wb.mean()
        cov = np.mean((wa - mu_a) * (wb - mu_b))
        return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                / ((mu_a ** 2 + mu_b ** 2 + c1) * (wa.var() + wb.var() + c2)))

    mse = np.mean((a - b) ** 2)
    psnr = np.inf if mse == 0.0 else 10 * np.log10(255.0 ** 2 / mse)
    if ssim_mode == "global":
        return psnr, statistic(a, b)
    windows = [statistic(a[i:i + 8, j:j + 8], b[i:i + 8, j:j + 8])
               for i in range(0, a.shape[0], 8) for j in range(0, a.shape[1], 8)]
    return psnr, np.mean(windows)


_STRIP_SIZES = [(1, 64), (9, 17), (37, 61), (72, 40), (512, 256)]


@pytest.mark.parametrize("size", _STRIP_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_strip_scores_match_whole_array_scores(rng, size):
    """A cell scored strip by strip (8 block rows at a time; 72 rows are a
    full strip and one block row) equals the whole-array scores of the
    run's reconstruction to 1e-12 relative, and its success probability the
    run's, under both methods, SSIM modes and norm modes; ``gate_exact``
    too up to 64x64."""
    img = random_image(rng, *size)
    reference = metrics.prepare(img, moments=True)
    cells = [(backend, r) for backend in ("operator", "gate_exact") for r in
             ((2, 4, 6) if backend == "operator" else (3,) if max(size) <= 64 else ())]
    checked = 0
    for method in METHODS:
        encoding = bench.encode_image(img, bench.method_scale(method, 1.0))
        baselines = {mode: bench._jpeg_baseline(reference, encoding, 1.0, mode)[1]
                     for mode in metrics.SSIM_MODES}
        for backend, r in cells:
            for norm_mode in NORM_MODES:
                result = bench._run_method(encoding, method, r, 1.0, backend, norm_mode)
                for ssim_mode in metrics.SSIM_MODES:
                    cfg = SweepConfig(inputs=("x",), backend=backend, norm_mode=norm_mode,
                                      ssim_mode=ssim_mode)
                    row = bench._sweep_cell("x", reference, encoding, method, r,
                                            baselines[ssim_mode], cfg)
                    assert row["error"] == ""
                    psnr, ssim = _whole_array_scores(img.pixels, result.reconstructed.pixels,
                                                     ssim_mode)
                    if psnr < 120.0:   # above, the digits are rounding noise
                        assert abs(row["psnr"] - psnr) <= 1e-12 * psnr
                    assert abs(row["ssim"] - ssim) <= 1e-12 * abs(ssim)
                    assert abs(row["success_prob"] - result.success_probability) <= 1e-12
                    checked += 1
    assert checked == len(METHODS) * len(cells) * len(NORM_MODES) * len(metrics.SSIM_MODES)


def test_sweep_cell_allocates_no_image_sized_array(rng):
    """A warm 1024x1024 jqpie r=6 cell holds one strip of 8 block rows at a
    time, 512 KiB per array: the decode kernel's two strip buffers and the
    scores' difference, 1.5 MiB in all (no tiled weight), so its peak stays
    below 1.75 MiB, a fifth of one image-sized float64 array (8 MiB)."""
    import tracemalloc
    img = random_image(rng, 1024, 1024)
    cfg = SweepConfig(inputs=("big",), methods=("jqpie",), r_set=(6,))
    reference = metrics.prepare(img, moments=True)
    encoding = bench.encode_image(img, cfg.scale)
    _, baseline = bench._jpeg_baseline(reference, encoding, cfg.scale, cfg.ssim_mode)
    cell = ("big", reference, encoding, "jqpie", 6, baseline, cfg)
    bench._sweep_cell(*cell)   # builds and caches the decompression operator
    tracemalloc.start()
    try:
        row = bench._sweep_cell(*cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["error"] == ""
    assert peak < 1.75 * 1024 * 1024, peak


def test_sweep_peak_memory_1024(tmp_path, rng):
    """A 1024x1024 jqpie sweep at r = 5, 6 holds at most 3.8 image-sized
    float64 arrays at once, 0.5 above its measured peak of 3.3. Encoding
    holds about 2.1: the image, the plane and one strip buffer. The JPEG
    baseline decode holds about 3.3: the loaded image (also the prepared
    reference), the coefficient plane, the decoded baseline and a few
    strips of 8 block rows. A cell holds about 2.2: the image, the
    coefficient plane and one strip of 8 block rows at a time (1.5 MiB at
    r = 6), and no earlier cell's result is alive."""
    import tracemalloc
    path = tmp_path / "big.pgm"
    write_pgm(random_image(rng, 1024, 1024), path)
    argv = ["sweep", str(path), "--method", "jqpie", "--r", "5", "--r", "6",
            "--out", str(tmp_path / "rows")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.8 * 1024 * 1024 * 8, peak / (1024 * 1024 * 8)


def test_cli_resources(tmp_path, capsys):
    assert main(["resources", "--height", "256", "--width", "256",
                 "--method", "jqpie"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r=5"]["state_prep_cx_reduction_pct"] == pytest.approx(50.0, abs=0.1)
    assert payload["r=4"]["state_prep_cx_reduction_pct"] == pytest.approx(75.0, abs=0.1)
    capsys.readouterr()
    for height in ("100", "0", "-8"):
        assert main(["resources", "--height", height, "--width", "256"]) == 2
        assert "height and width must be powers of two" in capsys.readouterr().err


def test_cli_resources_creates_the_output_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "deeper" / "table.json"
    assert main(["resources", "--height", "64", "--width", "64", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["r=3"]["state_prep_cx_reduction_pct"] > 0
    assert capsys.readouterr().out == ""


def test_cli_export_circuit_creates_the_output_directory(tmp_path, rng, monkeypatch):
    from jqpie.qcircuit import parse_qasm

    img_path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 8, 8), img_path)
    out = tmp_path / "missing" / "deeper" / "c.qasm"
    build = bench.hybrid_circuit
    made = []

    def building(*args, **kwargs):   # the directory is there before the circuit is built
        made.append(out.parent.is_dir())
        return build(*args, **kwargs)

    monkeypatch.setattr(bench, "hybrid_circuit", building)
    assert main(["export-circuit", str(img_path), "--method", "jqpie", "--r", "3",
                 "--out", str(out)]) == 0
    assert made == [True]
    assert parse_qasm(out.read_text()).n_qubits == 7


def test_cli_export_circuit_roundtrips(tmp_path, rng, monkeypatch):
    from jqpie import pipeline
    from jqpie.qcircuit import parse_qasm

    def no_simulation(*args, **kwargs):
        raise AssertionError("export-circuit must not simulate the circuit")

    monkeypatch.setattr(pipeline, "apply_circuit", no_simulation)
    img_path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 8, 8), img_path)
    for method, n_qubits in (("qf_jqpie", 6), ("jqpie", 7)):
        out = tmp_path / f"{method}.qasm"
        code = main(["export-circuit", str(img_path), "--method", method,
                     "--r", "3", "--out", str(out)])
        assert code == 0
        circuit = parse_qasm(out.read_text())
        assert circuit.n_qubits == n_qubits
        assert len(circuit.gates) > 0


def test_cli_error_reporting(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing-dir")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0"])
def test_cli_rejects_a_non_finite_scale(tmp_path, rng, capsys, scale):
    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 16, 16), path)
    out = tmp_path / "out"
    for argv in (["simulate", str(path), "--out", str(out)],
                 ["sweep", str(path), "--out", str(out)],
                 ["stats", str(path), "--out", str(out)],
                 ["export-circuit", str(path), "--method", "qf_jqpie",
                  "--out", str(out.with_suffix(".qasm"))]):
        assert main([*argv, f"--scale={scale}"]) == 2
        assert f"scale must be a positive finite number, got {float(scale)!r}" in \
            capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_cli_runs_import_no_scipy(tmp_path, rng):
    # numpy is the only run-time dependency: each command runs in a fresh
    # process in which any import of scipy fails
    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 16, 24), path)
    commands = [
        ["resources", "--height", "64", "--width", "64", "--method", "jqpie"],
        ["sweep", str(path), "--r", "3", "--out", str(tmp_path / "op")],
        ["sweep", str(path), "--r", "3", "--backend", "gate_exact", "--out", str(tmp_path / "ge")],
        ["simulate", str(path), "--r", "3", "--backend", "gate_exact",
         "--out", str(tmp_path / "sim")],
        ["export-circuit", str(path), "--method", "jqpie", "--r", "3",
         "--out", str(tmp_path / "c.qasm")],
        ["stats", str(path)],
    ]
    script = ("import json, sys\nsys.modules['scipy'] = None\n"
              "from jqpie.bench import main\n"
              "assert main(json.loads(sys.argv[1])) == 0\n")
    src = str(Path(jqpie.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv[0], proc.stderr)
