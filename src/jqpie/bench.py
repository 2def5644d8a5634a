"""Experiment harness and command-line interface.

Subcommands:

  stats           compression ratio and zigzag occupancy histogram
  simulate        run one image through one pipeline, report JSON (+PGM)
  sweep           (image x method x r) grid -> CSV rows + JSON summary
  resources       resource table per r for a register configuration
  export-circuit  fully lowered pipeline circuit as OpenQASM 3

Every command takes one classical path per image: the image is encoded by
:func:`~jqpie.pipeline.encode_image` (once per method in a sweep), and the
JPEG baseline and the sparsity statistics read that encoding's quantized
coefficient plane (:meth:`~jqpie.pipeline.ImageEncoding.jpeg_coefficients`), decoded by
:func:`~jqpie.jpegcore.classical_reference_decode`. ``simulate`` scores its
run's strips as a sweep scores a cell (:func:`~jqpie.metrics.score_strips`),
against the same baseline, and assembles the image only for ``--out``.

Sweep outputs are deterministic: images are processed in lexicographic
order, CSV floats are fixed at six decimals, and rows are merged in input
order even when a worker pool is used. A failing (image, method, r)
combination becomes an error row and the run continues; the exit status
reports whether any error rows were produced unless --keep-going downgrades
them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .imagio import GrayscaleImage, ImageFormatError, load_image, write_pgm
from .jpegcore import (TRUNCATION_LEVELS, QuantTable, SparsityStats, check_scale,
                       check_truncation, classical_reference_decode, sparsity_stats)
from .pipeline import (BACKENDS, METHODS, NORM_MODES, HybridRun, ImageEncoding,
                       QpieRun, encode_image, hybrid_circuit, method_scale, run_jqpie,
                       run_qf_jqpie, run_qpie_direct)
from .qcircuit import export_qasm
from .qsim import log2_exact
from .synth import DATA_QUBITS, closed_form_resources

log = logging.getLogger("jqpie.bench")

CSV_COLUMNS = ("image", "method", "r", "S", "psnr", "ssim", "delta_psnr",
               "delta_ssim", "success_prob", "cx_total", "depth_total",
               "cx_reduction_pct", "error")

#: Quality tolerances relative to the classical baseline.
PSNR_TOLERANCE_DB = -0.5
SSIM_TOLERANCE = -0.01

_IMAGE_SUFFIXES = (".pgm", ".ppm", ".pnm", ".png")


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's settings, checked when made. The one owner of the grid:
    ``methods`` keep the order first given and ``r_set`` is sorted
    ascending, each without repeats, so a repeated entry runs once."""

    inputs: tuple[str, ...]
    methods: tuple[str, ...] = METHODS
    r_set: tuple[int, ...] = TRUNCATION_LEVELS
    scale: float = 1.0
    norm_mode: str = "global"
    backend: str = "operator"
    ssim_mode: str = "global"
    jobs: int = 1

    def __post_init__(self):
        for name in ("inputs", "methods", "r_set"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for r in self.r_set:
            check_truncation(r)
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        check_scale(self.scale)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods: {bad}")
        for name, value, allowed in (("backend", self.backend, BACKENDS),
                                     ("norm_mode", self.norm_mode, NORM_MODES),
                                     ("ssim_mode", self.ssim_mode, metrics.SSIM_MODES)):
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}, expected one of {allowed}")
        object.__setattr__(self, "methods", tuple(dict.fromkeys(self.methods)))
        object.__setattr__(self, "r_set", tuple(sorted(set(self.r_set))))


def ingest_dataset(directory) -> list[tuple[str, GrayscaleImage]]:
    """Load every readable image under a directory, lexicographically.

    Labels are paths relative to the directory. Unreadable or non-image
    files are skipped with a warning; an empty result is an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    images = []
    skipped = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.suffix.lower() not in _IMAGE_SUFFIXES:
            skipped += 1
            log.warning("skipping non-image file %s", path)
            continue
        try:
            images.append((str(path.relative_to(directory)), load_image(path)))
        except ImageFormatError as exc:
            skipped += 1
            log.warning("skipping %s: %s", path, exc)
    if not images:
        raise ValueError(f"no readable images in {directory}")
    if skipped:
        log.info("ingested %d images, skipped %d files", len(images), skipped)
    return images


def _collect_inputs(inputs) -> list[tuple[str, GrayscaleImage]]:
    images = []
    for entry in inputs:
        path = Path(entry)
        if path.is_dir():
            images.extend(ingest_dataset(path))
        else:
            images.append((path.name, load_image(path)))
    return images


def _run_method(source: GrayscaleImage | ImageEncoding, method: str, r: int, scale: float,
                backend: str, norm_mode: str) -> HybridRun | QpieRun:
    """One pipeline run of the image or, for a hybrid method, its encoding
    for the method; ``qpie``, the direct-encoding baseline, pads the image."""
    if method == "jqpie":
        return run_jqpie(source, r, scale=scale, backend=backend, norm_mode=norm_mode)
    if method == "qf_jqpie":
        return run_qf_jqpie(source, r, backend=backend, norm_mode=norm_mode)
    return run_qpie_direct(source, backend=backend)


def _fmt(value: float) -> str:
    """Six decimals; a value that rounds to zero prints unsigned, because
    the sign of rounding noise depends on the order of evaluation."""
    if value is None:
        return ""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _model_reduction_pct(r: int) -> float:
    """State-prep cost reduction implied by the truncation level alone."""
    return 100.0 * (1.0 - 2.0 ** -(DATA_QUBITS - r))


def _sweep_one_image(args) -> tuple[list[dict], SparsityStats | None]:
    """Every (method, r) row of one image, and the image's sparsity statistics.

    The image is encoded once per method. The first encoding also gives the
    quantized coefficients that the JPEG baseline and the statistics read,
    so no other transform of the image is made. The reference is prepared
    for scoring once (:func:`~jqpie.metrics.prepare`), with its global-SSIM
    moments; the JPEG baseline's decode, clamped as it is made, is scored
    as it is. Statistics are None (with a warning) when every quantized
    coefficient is zero.
    """
    label, img, cfg = args
    rows = []
    stats = baseline = None
    reference = metrics.prepare(img, moments=True)
    for method in cfg.methods:
        encoding = None   # at most one coefficient plane alive at a time
        encoding = encode_image(img, method_scale(method, cfg.scale))
        if baseline is None:
            try:
                stats, baseline = _stats_and_baseline(label, reference, encoding, cfg)
            except Exception as exc:   # degenerate image: every combination errors
                return [{"image": label, "method": m, "r": r, "S": cfg.scale,
                         "error": f"baseline failed: {exc}"}
                        for m in cfg.methods for r in cfg.r_set], stats
        rows += [_sweep_cell(label, reference, encoding, method, r, baseline, cfg)
                 for r in cfg.r_set]
    return rows, stats


def _jpeg_baseline(reference: metrics.PreparedImage, encoding: ImageEncoding, scale: float,
                   ssim_mode: str) -> tuple[np.ndarray, metrics.QualityReport]:
    """The scored JPEG baseline of an encoded image at S, and the quantized
    plane it decodes (:meth:`~jqpie.pipeline.ImageEncoding.jpeg_coefficients`).

    The decode clamps every strip into [0, L] as it writes it, so its
    pixels are scored as they are, without another scan for their range."""
    plane = encoding.jpeg_coefficients(scale)
    decoded = classical_reference_decode(plane, QuantTable(scale), encoding.image)
    decoded = metrics.PreparedImage(decoded.pixels, decoded.max_value)
    return plane, metrics.baseline_report(reference, decoded, f"jpeg S={scale:g}",
                                       ssim_mode=ssim_mode)


def _stats_and_baseline(label: str, reference: metrics.PreparedImage, encoding: ImageEncoding,
                        cfg: SweepConfig) -> tuple[SparsityStats | None, metrics.QualityReport]:
    """Sparsity statistics and the scored JPEG baseline, from one encoding."""
    plane, baseline = _jpeg_baseline(reference, encoding, cfg.scale, cfg.ssim_mode)
    try:
        stats = sparsity_stats(plane)
    except ValueError as exc:
        log.warning("skipping %s in the statistics: %s", label, exc)
        stats = None
    return stats, baseline


def _sweep_cell(label: str, reference: metrics.PreparedImage, encoding: ImageEncoding,
                method: str, r: int, baseline: metrics.QualityReport, cfg: SweepConfig) -> dict:
    """One row, scored strip by strip (:func:`~jqpie.metrics.score_strips`),
    so the cell makes no image-sized array under the operator backend."""
    row = {"image": label, "method": method, "r": r, "S": cfg.scale, "error": ""}
    try:
        run = HybridRun(encoding, r, cfg.backend, cfg.norm_mode)
        report = metrics.score_strips(reference, run.strips(), baseline, cfg.ssim_mode)
        resources = run.resources
        row.update({
            "psnr": report.psnr,
            "ssim": report.ssim,
            "delta_psnr": report.delta_psnr,
            "delta_ssim": report.delta_ssim,
            "success_prob": run.success_probability,
            "cx_total": resources.cx_count,
            "depth_total": resources.depth,
            "cx_reduction_pct": _model_reduction_pct(r),
        })
    except Exception as exc:
        row["error"] = str(exc)
    return row


def _sweep_images(images: list[tuple[str, GrayscaleImage]],
                  cfg: SweepConfig) -> tuple[list[dict], list[tuple[str, SparsityStats]]]:
    """All rows in input order, and the statistics of each image that has them."""
    tasks = [(label, img, cfg) for label, img in images]
    # The pool forks all its workers on the first submit, so never ask it
    # for more than there are images.
    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, socket) cost
        # every process that never starts one about 14 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_image = list(pool.map(_sweep_one_image, tasks))
    else:
        per_image = [_sweep_one_image(t) for t in tasks]
    rows = [row for image_rows, _ in per_image for row in image_rows]
    stats = [(label, image_stats) for (label, _), (_, image_stats) in zip(images, per_image)
             if image_stats is not None]
    return rows, stats


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """One row per (image, method, r), r ascending (:class:`SweepConfig`);
    failures become error rows."""
    return _sweep_images(_collect_inputs(cfg.inputs), cfg)[0]


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["image"], row["method"], row["r"], f"{row['S']:g}",
            _fmt(row.get("psnr")), _fmt(row.get("ssim")),
            _fmt(row.get("delta_psnr")), _fmt(row.get("delta_ssim")),
            _fmt(row.get("success_prob")),
            row.get("cx_total", ""), row.get("depth_total", ""),
            _fmt(row.get("cx_reduction_pct")), row["error"],
        ])
    return buf.getvalue()


def _category_of(label: str) -> str:
    parts = Path(label).parts
    return parts[0] if len(parts) > 1 else "root"


def collect_stats(images: list[tuple[str, GrayscaleImage]],
                  scale: float) -> list[tuple[str, SparsityStats]]:
    """Sparsity statistics per image, computed once for every report.

    Each image's statistics count the plane a sweep counts: the quantized
    plane of its encoding at ``scale``. An image whose quantized coefficients
    are all zero has no compression ratio; it is skipped with a warning.
    """
    stats = []
    for label, img in images:
        try:
            plane = encode_image(img, scale).jpeg_coefficients(scale)
            stats.append((label, sparsity_stats(plane)))
        except ValueError as exc:
            log.warning("skipping %s in the statistics: %s", label, exc)
    return stats


def summarize(rows: list[dict], stats: list[tuple[str, SparsityStats]]) -> dict:
    """JSON summary: per-category compression-ratio ranges and the fraction
    of images within the quality tolerances for each (method, r)."""
    cr_by_category: dict[str, list[float]] = {}
    for label, image_stats in stats:
        cr_by_category.setdefault(_category_of(label), []).append(
            image_stats.compression_ratio)
    summary = {
        "compression_ratio": {
            cat: {"min": min(v), "max": max(v), "count": len(v)}
            for cat, v in sorted(cr_by_category.items())
        },
        "tolerance": {},
        "error_rows": sum(1 for r in rows if r["error"]),
        "total_rows": len(rows),
    }
    combos: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        if not row["error"]:
            combos.setdefault((row["method"], row["r"]), []).append(row)
    for (method, r), group in sorted(combos.items()):
        ok_psnr = sum(1 for g in group if g["delta_psnr"] >= PSNR_TOLERANCE_DB)
        ok_ssim = sum(1 for g in group if g["delta_ssim"] >= SSIM_TOLERANCE)
        summary["tolerance"][f"{method},r={r}"] = {
            "count": len(group),
            "within_psnr_tolerance": ok_psnr / len(group),
            "within_ssim_tolerance": ok_ssim / len(group),
        }
    return summary


def emit_report(rows: list[dict], summary: dict, histogram: np.ndarray | None,
                out_base) -> list[Path]:
    """Write CSV rows, JSON summary, and optional histogram data."""
    if not rows:
        raise ValueError("no rows to report")
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = _out_path(out_base, ".csv")
    csv_path.write_text(rows_to_csv(rows))
    written.append(csv_path)
    json_path = _out_path(out_base, ".json")
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(json_path)
    if histogram is not None:
        written.append(_write_histogram(histogram, out_base))
    return written


def _out_path(out_base: Path, tail: str) -> Path:
    """An output file of a base path: the tail appended to the base's name,
    so a dot in the base (``run_S0.25``) is kept, never taken as a suffix."""
    return out_base.parent / (out_base.name + tail)


def _write_histogram(histogram: np.ndarray, out_base: Path) -> Path:
    hist_path = _out_path(out_base, "_histogram.csv")
    lines = ["zigzag_index,nonzero_fraction"]
    lines += [f"{k},{v:.6f}" for k, v in enumerate(histogram)]
    hist_path.write_text("\n".join(lines) + "\n")
    return hist_path


def aggregate_histogram(stats: list[tuple[str, SparsityStats]]) -> np.ndarray:
    """Block-weighted zigzag occupancy aggregated over a set of images."""
    total = np.zeros(64)
    blocks = 0
    for _, image_stats in stats:
        total += image_stats.histogram * image_stats.block_count
        blocks += image_stats.block_count
    if blocks == 0:
        raise ValueError("no nonzero coefficients anywhere in the dataset")
    return total / blocks


# --- CLI -------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing never changes it,
    and each parse starts a new namespace, so repeatable options such as
    ``--r`` collect nothing from an earlier call."""
    parser = argparse.ArgumentParser(
        prog="jqpie",
        description="Hybrid classical-quantum image preparation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scale", "-S", type=float, default=1.0,
                       help="quantization scale S (default 1)")

    p_stats = sub.add_parser("stats", help="compression ratio and zigzag histogram")
    p_stats.add_argument("input", help="image file or dataset directory")
    p_stats.add_argument("--out", help="output base path (writes <out>.json and histogram)")
    add_common(p_stats)

    p_sim = sub.add_parser("simulate", help="run one image through one pipeline")
    p_sim.add_argument("input", help="image file")
    p_sim.add_argument("--method", choices=METHODS + ("qpie",), default="qf_jqpie")
    p_sim.add_argument("--r", type=int, default=5, help="truncation level (2..6)")
    p_sim.add_argument("--backend", choices=BACKENDS, default="operator")
    p_sim.add_argument("--norm-mode", choices=NORM_MODES, default="global")
    p_sim.add_argument("--out", help="base path for JSON report and PGM reconstruction")
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="parameter sweep over (image, method, r)")
    p_sweep.add_argument("inputs", nargs="+", help="image files or directories")
    p_sweep.add_argument("--method", action="append", choices=METHODS, dest="methods",
                         help="restrict to a method (repeatable; default both)")
    p_sweep.add_argument("--r", type=int, action="append", dest="r_set",
                         help="truncation level (repeatable; default 2..6)")
    p_sweep.add_argument("--backend", choices=BACKENDS, default="operator")
    p_sweep.add_argument("--norm-mode", choices=NORM_MODES, default="global")
    p_sweep.add_argument("--ssim-mode", choices=metrics.SSIM_MODES, default="global")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel image workers")
    p_sweep.add_argument("--out", required=True, help="output base path")
    p_sweep.add_argument("--keep-going", action="store_true",
                         help="exit 0 even if some rows are error rows")
    add_common(p_sweep)

    p_res = sub.add_parser("resources", help="resource table per r")
    p_res.add_argument("--height", type=int, default=256, help="padded image height")
    p_res.add_argument("--width", type=int, default=256, help="padded image width")
    p_res.add_argument("--method", choices=METHODS + ("qpie",), default="jqpie")
    p_res.add_argument("--out", help="write the table as JSON instead of stdout")

    p_exp = sub.add_parser("export-circuit", help="emit a lowered pipeline circuit as QASM")
    p_exp.add_argument("input", help="image file")
    p_exp.add_argument("--method", choices=METHODS, default="qf_jqpie")
    p_exp.add_argument("--r", type=int, default=5)
    p_exp.add_argument("--out", required=True, help="QASM output path")
    add_common(p_exp)

    return parser


def _cmd_stats(args) -> int:
    stats = collect_stats(_collect_inputs([args.input]), args.scale)
    histogram = aggregate_histogram(stats)
    payload = {
        label: {
            "nonzero_coefficients": image_stats.nonzero_count,
            "pixel_count": image_stats.pixel_count,
            "compression_ratio": image_stats.compression_ratio,
        }
        for label, image_stats in stats
    }
    if args.out:
        out_base = Path(args.out)
        out_base.parent.mkdir(parents=True, exist_ok=True)
        _out_path(out_base, ".json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _write_histogram(histogram, out_base)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    """One run, scored as a sweep cell is. The image is encoded once; for
    ``qpie`` the encoding, at S, serves only the JPEG baseline."""
    img = load_image(args.input)
    hybrid = args.method in METHODS
    encoding = encode_image(img, method_scale(args.method, args.scale) if hybrid else args.scale)
    run = _run_method(encoding if hybrid else img, args.method, args.r, args.scale,
                      args.backend, args.norm_mode)
    reference = metrics.prepare(img, moments=True)
    _, baseline = _jpeg_baseline(reference, encoding, args.scale, "global")
    report = metrics.score_strips(reference, run.strips(), baseline, "global")
    payload = run.to_json()
    payload["quality"] = report.to_json()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        out_base = Path(args.out)
        out_base.parent.mkdir(parents=True, exist_ok=True)
        _out_path(out_base, ".json").write_text(text + "\n")
        write_pgm(run.reconstructed, _out_path(out_base, ".pgm"))
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        inputs=tuple(args.inputs),
        methods=tuple(args.methods or METHODS),
        r_set=tuple(args.r_set or TRUNCATION_LEVELS),
        scale=args.scale,
        norm_mode=args.norm_mode,
        backend=args.backend,
        ssim_mode=args.ssim_mode,
        jobs=args.jobs,
    )
    rows, stats = _sweep_images(_collect_inputs(cfg.inputs), cfg)
    summary = summarize(rows, stats)
    try:
        histogram = aggregate_histogram(stats)
    except ValueError:
        histogram = None   # every image degenerate: rows still carry the errors
    written = emit_report(rows, summary, histogram, args.out)
    for path in written:
        log.info("wrote %s", path)
    errors = summary["error_rows"]
    if errors:
        print(f"{errors} error row(s); see {written[0]}", file=sys.stderr)
        return 0 if args.keep_going else 1
    return 0


def _cmd_resources(args) -> int:
    try:
        h = log2_exact(args.height, "height")
        w = log2_exact(args.width, "width")
    except ValueError:
        print("height and width must be powers of two", file=sys.stderr)
        return 2
    table = {}
    for r in TRUNCATION_LEVELS:
        report = closed_form_resources(h, w, r, method=args.method)
        entry = report.to_json()
        baseline = closed_form_resources(h, w, 6, method=args.method)
        prep = report.breakdown["state_prep"].cx
        prep6 = baseline.breakdown["state_prep"].cx
        entry["state_prep_cx_reduction_pct"] = 100.0 * (1.0 - prep / prep6)
        table[f"r={r}"] = entry
    text = json.dumps(table, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    else:
        print(text)
    return 0


#: Characters of QASM text written to the file at a time.
_WRITE_CHARS = 1 << 20


def _cmd_export_circuit(args) -> int:
    img = load_image(args.input)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    circuit = hybrid_circuit(img, args.method, args.r, scale=args.scale)
    text = export_qasm(circuit)
    with open(args.out, "w") as fh:   # in slices: the text is never encoded whole
        for start in range(0, len(text), _WRITE_CHARS):
            fh.write(text[start:start + _WRITE_CHARS])
    print(f"wrote {args.out}: {circuit.n_qubits} qubits, {len(circuit.gates)} gates")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    handlers = {
        "stats": _cmd_stats,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "resources": _cmd_resources,
        "export-circuit": _cmd_export_circuit,
    }
    try:
        if "scale" in vars(args):
            check_scale(args.scale)
        return handlers[args.command](args)
    except (ValueError, ImageFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
