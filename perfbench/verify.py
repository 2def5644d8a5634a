"""Output checks, run after the timed phase.

Sweep rows are recomputed from the classical decode oracles
(``jpegcore.reference_decode_pixels`` in ``jqpie_oracle``/``qf_oracle``
mode, scored with ``jqpie.metrics``) and compared at the CSV's six-decimal
precision. Exported QASM is parsed back with ``qcircuit.parse_qasm`` and its
qubit and gate counts are checked against what the command printed and
against the register size the image implies.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
from jqpie import jpegcore, metrics
from jqpie.imagio import GrayscaleImage
from jqpie.qcircuit import parse_qasm

#: One unit in the sixth decimal, the precision of every CSV float.
TOL = 1e-6
#: Above this PSNR the MSE is below 1e-12 L^2: the reconstruction is exact
#: and the remaining PSNR digits are floating-point rounding noise.
EXACT_PSNR_DB = 120.0

_EXPORT_REPORT = re.compile(r"wrote .*: (\d+) qubits, (\d+) gates")


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOL


def _log2_padded(n: int) -> int:
    return max(3, (n - 1).bit_length())


class Oracle:
    """Classical expectations per (image, method, r), computed once each."""

    def __init__(self, pixels_by_name: dict[str, np.ndarray]):
        self._images = {name: GrayscaleImage(px.astype(np.float64), bit_depth=8)
                        for name, px in pixels_by_name.items()}
        self._baseline: dict[str, tuple[float, float]] = {}
        self._cells: dict[tuple[str, str, int], dict[str, float]] = {}

    def _score(self, img, pixels) -> tuple[float, float]:
        recon = GrayscaleImage(pixels, img.bit_depth, img.original_dims)
        return metrics.psnr(img, recon), metrics.ssim(img, recon)

    def expect(self, image: str, method: str, r: int) -> dict[str, float]:
        key = (image, method, r)
        if key not in self._cells:
            img = self._images[image]
            if image not in self._baseline:
                self._baseline[image] = self._score(
                    img, jpegcore.reference_decode_pixels(img, "jpeg"))
            mode = "jqpie_oracle" if method == "jqpie" else "qf_oracle"
            p, s = self._score(img, jpegcore.reference_decode_pixels(img, mode, r=r))
            pb, sb = self._baseline[image]
            self._cells[key] = {"psnr": p, "ssim": s, "baseline_psnr": pb,
                                "delta_psnr": 0.0 if math.isinf(p) and math.isinf(pb) else p - pb,
                                "delta_ssim": s - sb}
        return self._cells[key]

    def image_qubits(self, image: str) -> int:
        h, w = self._images[image].pixels.shape
        return _log2_padded(h) + _log2_padded(w)


def check_row(row: dict[str, str], want: dict[str, float]) -> list[str]:
    """Mismatches between one CSV row and its oracle expectation."""
    if row.get("error"):
        return [f"error row: {row['error']}"]
    try:
        got = {k: float(row[k]) for k in ("psnr", "ssim", "delta_psnr", "delta_ssim")}
    except (KeyError, ValueError) as exc:
        return [f"unparseable row: {exc}"]
    problems = []
    exact = got["psnr"] >= EXACT_PSNR_DB and want["psnr"] >= EXACT_PSNR_DB
    if not (_close(got["psnr"], want["psnr"]) or exact):
        problems.append(f"psnr {got['psnr']} != oracle {want['psnr']:.6f}")
    if not _close(got["ssim"], want["ssim"]):
        problems.append(f"ssim {got['ssim']} != oracle {want['ssim']:.6f}")
    want_dp = got["psnr"] - want["baseline_psnr"] if exact else want["delta_psnr"]
    if not _close(got["delta_psnr"], want_dp):
        problems.append(f"delta_psnr {got['delta_psnr']} != oracle {want_dp:.6f}")
    if not _close(got["delta_ssim"], want["delta_ssim"]):
        problems.append(f"delta_ssim {got['delta_ssim']} != oracle {want['delta_ssim']:.6f}")
    return problems


def check_sweep(text: str, image: str, methods, r_set, oracle: Oracle) -> list[list[str]]:
    """Problems per expected cell, in (method, r) order; [] means verified."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(m, r) for m in methods for r in sorted(r_set)]
    out = []
    for i, (method, r) in enumerate(expected):
        if i >= len(rows):
            out.append(["row missing"])
            continue
        row = rows[i]
        key = (row.get("image"), row.get("method"), row.get("r"))
        if key != (image, method, str(r)):
            out.append([f"unexpected row key {key}"])
            continue
        out.append(check_row(row, oracle.expect(image, method, r)))
    if len(rows) > len(expected):
        out[-1] = out[-1] + [f"{len(rows) - len(expected)} extra rows"]
    return out


def check_export(text: str, stdout: str, expected_qubits: int) -> list[str]:
    """Parse QASM back and compare its counts with the command's report."""
    match = _EXPORT_REPORT.search(stdout)
    if not match:
        return [f"no qubit/gate report in output {stdout!r}"]
    reported_qubits, reported_gates = int(match.group(1)), int(match.group(2))
    try:
        circuit = parse_qasm(text)
    except ValueError as exc:
        return [f"QASM does not parse: {exc}"]
    problems = []
    if circuit.n_qubits != reported_qubits or circuit.n_qubits != expected_qubits:
        problems.append(f"{circuit.n_qubits} qubits parsed, {reported_qubits} reported, "
                        f"{expected_qubits} expected")
    if len(circuit.gates) != reported_gates or reported_gates == 0:
        problems.append(f"{len(circuit.gates)} gates parsed, {reported_gates} reported")
    return problems


def self_test(sweep_text: str, image: str, methods, r_set, oracle: Oracle,
              export: tuple[str, str, int] | None) -> list[str]:
    """Show that the checks reject a perturbed output; returns failures of the
    checker itself (empty when every perturbation was caught)."""
    failures = []
    rows = list(csv.DictReader(io.StringIO(sweep_text)))
    rows[0]["ssim"] = f"{float(rows[0]['ssim']) + 2 * TOL:.6f}"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if not check_sweep(buf.getvalue(), image, methods, r_set, oracle)[0]:
        failures.append("an ssim perturbed by 2e-6 passed the sweep check")
    if export is not None:
        text, stdout, qubits = export
        lines = text.rstrip("\n").split("\n")
        if not check_export("\n".join(lines[:-1]) + "\n", stdout, qubits):
            failures.append("a QASM with one gate removed passed the export check")
    return failures
