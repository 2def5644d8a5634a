"""Golden outputs: the CLI's results on seeded inputs, pinned.

``tests/golden/outputs.json`` holds, for three seeded PGM images:

* ``sweep`` rows under both backends, both normalization modes and both
  SSIM modes (``gate_exact`` on the smallest image at r = 2, 4, 6 only);
* ``resources`` JSON for all three methods at two sizes;
* the SHA-256 of ``export-circuit`` QASM for both methods at r = 2, 4, 6;
* the ``stats`` report and histogram;
* ``simulate`` JSON on the smallest image for every method under both
  backends, each hybrid method under both normalization modes at r = 2, 4,
  6.

Integers, strings and hashes must match exactly and floats within 1e-9.
Where both PSNR values of a row are at least 120 dB, the reconstruction is
exact up to rounding noise, so PSNR and dPSNR are only checked to stay
there. A change that moves an output on purpose regenerates the file with
``python tests/golden/regenerate.py``, which prints every moved cell and
rewrites only those (:func:`merged`).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from jqpie import bench
from jqpie.imagio import GrayscaleImage, write_pgm
from jqpie.metrics import SSIM_MODES
from jqpie.pipeline import BACKENDS, METHODS, NORM_MODES

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
SEED = 20260601
#: (height, width) of each input; b is a gradient under noise, a and c noise.
IMAGES = {"a_37x61.pgm": (37, 61), "b_64x64.pgm": (64, 64), "c_16x24.pgm": (16, 24)}
#: The gate-by-gate reference is slow; it runs on one small image.
GATE_EXACT_SWEEP = (("c_16x24.pgm",), (2, 4, 6))
QASM_IMAGE = "a_37x61.pgm"
QASM_LEVELS = (2, 4, 6)
RESOURCE_SIZES = ((64, 64), (256, 512))
FLOAT_TOLERANCE = 1e-9
PSNR_NOISE_FLOOR_DB = 120.0
SIMULATE_IMAGE = "c_16x24.pgm"
SIMULATE_LEVELS = (2, 4, 6)
SECTIONS = ("sweep", "resources", "qasm_sha256", "stats", "simulate")


def write_inputs(directory: Path) -> Path:
    """The seeded 8-bit input images as PGM files in ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    for name, (h, w) in IMAGES.items():
        pixels = rng.integers(0, 256, (h, w)).astype(np.float64)
        if name.startswith("b_"):
            y, x = np.mgrid[0:h, 0:w]
            pixels = np.clip(np.round(40.0 + 150.0 * (x + y) / (h + w - 2)
                                      + (pixels - 128.0) / 8.0), 0, 255)
        write_pgm(GrayscaleImage(pixels), directory / name)
    return directory


def _sweep(inputs: Path) -> dict:
    out = {}
    for backend in BACKENDS:
        names, r_set = (GATE_EXACT_SWEEP if backend == "gate_exact"
                        else (tuple(IMAGES), (2, 3, 4, 5, 6)))
        for norm_mode in NORM_MODES:
            for ssim_mode in SSIM_MODES:
                cfg = bench.SweepConfig(inputs=tuple(str(inputs / n) for n in names),
                                        r_set=r_set, backend=backend,
                                        norm_mode=norm_mode, ssim_mode=ssim_mode)
                out[f"{backend}/{norm_mode}/{ssim_mode}"] = bench.run_sweep(cfg)
    return out


def _resources(workdir: Path) -> dict:
    out = {}
    path = workdir / "resources.json"
    for h, w in RESOURCE_SIZES:
        for method in METHODS + ("qpie",):
            assert bench.main(["resources", "--height", str(h), "--width", str(w),
                               "--method", method, "--out", str(path)]) == 0
            out[f"{h}x{w}/{method}"] = json.loads(path.read_text())
    return out


def _qasm_sha256(inputs: Path, workdir: Path) -> dict:
    out = {}
    path = workdir / "circuit.qasm"
    for method in METHODS:
        for r in QASM_LEVELS:
            assert bench.main(["export-circuit", str(inputs / QASM_IMAGE), "--method", method,
                               "--r", str(r), "--out", str(path)]) == 0
            out[f"{method}/r={r}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _stats(inputs: Path, workdir: Path) -> dict:
    base = workdir / "stats"
    assert bench.main(["stats", str(inputs), "--out", str(base)]) == 0
    histogram = (workdir / "stats_histogram.csv").read_text().splitlines()[1:]
    return {"report": json.loads(base.with_suffix(".json").read_text()),
            "histogram": [float(line.split(",")[1]) for line in histogram]}


def _simulate(inputs: Path, workdir: Path) -> dict:
    out = {}
    base = workdir / "simulate"

    def run(key: str, *options: str) -> None:
        assert bench.main(["simulate", str(inputs / SIMULATE_IMAGE), *options,
                           "--out", str(base)]) == 0
        out[key] = json.loads(base.with_suffix(".json").read_text())

    for backend in BACKENDS:
        for method in METHODS:
            for norm_mode in NORM_MODES:
                for r in SIMULATE_LEVELS:
                    run(f"{method}/{backend}/{norm_mode}/r={r}", "--method", method,
                        "--r", str(r), "--backend", backend, "--norm-mode", norm_mode)
        run(f"qpie/{backend}", "--method", "qpie", "--backend", backend)
    return out


def golden_outputs(workdir: Path, sections=SECTIONS) -> dict:
    """The pinned outputs, computed from the current source in ``workdir``."""
    inputs = write_inputs(workdir / "inputs")
    make = {"sweep": lambda: _sweep(inputs),
            "resources": lambda: _resources(workdir),
            "qasm_sha256": lambda: _qasm_sha256(inputs, workdir),
            "stats": lambda: _stats(inputs, workdir),
            "simulate": lambda: _simulate(inputs, workdir)}
    return {name: make[name]() for name in sections}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _noise_keys(expected: dict, actual: dict) -> set[str]:
    """PSNR and dPSNR when both rows read at least 120 dB, else nothing."""
    if all(_is_number(d.get("psnr")) and d["psnr"] >= PSNR_NOISE_FLOOR_DB
           for d in (expected, actual)):
        return {"psnr", "delta_psnr"}
    return set()


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Every cell where ``actual`` departs from ``expected``, old and new."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} -> {sorted(actual)}"]
        skip = _noise_keys(expected, actual)
        return [m for key in expected if key not in skip
                for m in mismatches(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} -> {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and _is_number(actual):
        if expected == actual or abs(expected - actual) <= FLOAT_TOLERANCE:
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {expected!r} -> {actual!r}"]


def merged(expected, actual):
    """``actual`` with the committed ``expected`` value kept in every cell
    that :func:`mismatches` does not report, so a regeneration rewrites only
    the cells that moved; a key new to a dict takes its value from
    ``actual``, and a key gone from it is dropped."""
    if not mismatches(expected, actual):
        return expected
    if isinstance(expected, dict) and isinstance(actual, dict):
        skip = _noise_keys(expected, actual)
        return {key: expected[key] if key in skip
                else merged(expected[key], actual[key]) if key in expected
                else actual[key]
                for key in actual}
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [merged(e, a) for e, a in zip(expected, actual)]
    return actual


def test_mismatches_follow_the_comparison_rules():
    row = {"method": "qf_jqpie", "r": 6, "psnr": 250.1, "delta_psnr": 210.0, "ssim": 1.0}
    assert mismatches(row, dict(row, psnr=301.7, delta_psnr=261.6, ssim=1.0 + 5e-10)) == []
    assert mismatches(row, dict(row, psnr=119.0)) == ["/psnr: 250.1 -> 119.0"]
    assert mismatches([row], [dict(row, ssim=1.0 + 2e-9)]) == ["[0]/ssim: 1.0 -> 1.000000002"]
    assert mismatches({"cx": 36}, {"cx": 56}) == ["/cx: 36 -> 56"]
    assert mismatches({"cx": 36}, {"cx": 36.0}) == ["/cx: 36 -> 36.0"]
    assert mismatches({"h": "ab"}, {"h": "ac", "x": 1}) == [": keys ['h'] -> ['h', 'x']"]


def test_merge_rewrites_only_the_cells_that_moved():
    row = {"method": "jqpie", "r": 2, "psnr": 31.5, "delta_psnr": -2.0, "ssim": 0.9}
    exact = {"method": "qf_jqpie", "r": 6, "psnr": 250.1, "delta_psnr": 210.0, "ssim": 1.0}
    # within 1e-9: the committed value is kept, the very object
    assert merged([row], [dict(row, ssim=0.9 + 5e-10)])[0] is row
    # a moved cell is replaced, its unmoved neighbours kept
    assert merged(row, dict(row, psnr=31.7, ssim=0.9 - 5e-10)) == dict(row, psnr=31.7)
    # both PSNRs at least 120 dB: the row keeps its PSNR and dPSNR while its
    # SSIM moves
    assert (merged(exact, dict(exact, psnr=301.7, delta_psnr=261.6, ssim=0.5))
            == dict(exact, ssim=0.5))
    assert merged({"h": "ab"}, {"h": "ab", "x": 1}) == {"h": "ab", "x": 1}
    # a new section leaves the committed ones as they are
    both = merged({"a": [row]}, {"a": [dict(row, ssim=0.9 + 5e-10)], "b": [exact]})
    assert both["a"][0] is row and both["b"] == [exact]
    assert merged([1, 2], [1, 2, 3]) == [1, 2, 3]


@pytest.mark.parametrize("section", SECTIONS)
def test_outputs_match_golden(tmp_path, section):
    expected = json.loads(GOLDEN.read_text())[section]
    actual = json.loads(json.dumps(golden_outputs(tmp_path, (section,))[section]))
    assert mismatches(expected, actual, section) == []
