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
from jqpie.imagio import GrayscaleImage, write_pgm
from jqpie.jpegcore import classical_reference_decode, sparsity_stats

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
        baseline = classical_reference_decode(img, "jpeg", scale=cfg.scale)
        for method in cfg.methods:
            for r in cfg.r_set:
                result = bench._run_method(img, method, r, cfg.scale, cfg.backend,
                                           cfg.norm_mode)
                expected[label, method, r] = metrics.quality_report(
                    img, result.reconstructed, baseline, "jpeg S=1", ssim_mode="windowed")
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
    # 2 images x 4 cells: one score per cell plus one baseline score per image
    assert calls == {"psnr": 10, "ssim": 10}
    for row in rows:
        report = expected[row["image"], row["method"], row["r"]]
        assert (row["psnr"], row["ssim"], row["delta_psnr"], row["delta_ssim"]) == (
            report.psnr, report.ssim, report.delta_psnr, report.delta_ssim)


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

    monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
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


def test_emit_report_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], {}, None, tmp_path / "x")


def test_histogram_matches_sparsity_convention(tmp_path, rng):
    img = random_image(rng, 16, 16)
    hist = aggregate_histogram(collect_stats([("i", img)], 1.0))
    stats = sparsity_stats(img, 1.0)
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

    counted(pipeline, "zigzag_coefficients")
    counted(jpegcore, "dct2_blocks")   # every forward transform, baseline and stats included
    argv = ["sweep", str(directory), "--r", "3", "--r", "6", "--out", str(tmp_path / "rows")]
    for method in methods:
        argv += ["--method", method]
    assert main(argv) == 0
    assert calls == {"zigzag_coefficients": 2 * per_image, "dct2_blocks": 2 * per_image}


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


def test_sweep_peak_memory_1024(tmp_path, rng):
    """A 1024x1024 jqpie sweep at r = 5, 6 holds at most 6.5 image-sized
    float64 arrays at once. The peak, 6.0 arrays, is reached twice. In
    global SSIM on a cell: the loaded image (also the prepared reference),
    one coefficient matrix, the cell's reconstruction and its clamped copy,
    and the two deviation arrays, the covariance product written over the
    reference's. In the r = 6 run: the image, the coefficient matrix, the
    loaded amplitudes, the decompressed state, its rescaled copy and the
    assembled reconstruction. A cell's state is released before it is
    scored, and no earlier cell's result is alive."""
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
    assert peak <= 6.5 * 1024 * 1024 * 8


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
    # scipy only lowers operators over three or more qubits, and no run,
    # resource report or export builds one; each command runs in a fresh
    # process so that nothing pytest itself imported counts
    path = tmp_path / "img.pgm"
    write_pgm(random_image(rng, 16, 24), path)
    commands = [
        ["resources", "--height", "64", "--width", "64", "--method", "jqpie"],
        ["sweep", str(path), "--r", "3", "--out", str(tmp_path / "op")],
        ["sweep", str(path), "--r", "3", "--backend", "gate_exact", "--out", str(tmp_path / "ge")],
        ["export-circuit", str(path), "--method", "jqpie", "--r", "3",
         "--out", str(tmp_path / "c.qasm")],
    ]
    script = ("import json, sys\nfrom jqpie.bench import main\n"
              "assert main(json.loads(sys.argv[1])) == 0\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n")
    src = str(Path(jqpie.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [], argv[0]
