"""Seeded benchmark inputs and the CLI calls each workload makes per image.

Every workload is a fixed list of image shapes and textures plus the
``jqpie`` subcommands run once per image in a pass. Pixels come only from
the seed, so the same seed always yields byte-identical PGM files; the
program under test sees nothing but those files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sweep:
    methods: tuple[str, ...]
    r_set: tuple[int, ...]
    backend: str = "operator"

    @property
    def cells(self) -> int:
        return len(self.methods) * len(self.r_set)


@dataclass(frozen=True)
class Workload:
    images: tuple[tuple[str, int, int], ...]      # (texture, height, width)
    sweep: Sweep
    exports: tuple[tuple[str, int], ...] = ()     # (method, r) per image


@dataclass(frozen=True)
class Call:
    """One CLI invocation on one image; ``cells`` results are expected."""

    image: str
    kind: str                  # "sweep" or "export"
    argv: tuple[str, ...]
    output: Path               # file whose content is verified
    cells: int
    method: str = ""           # export only


WORKLOADS = {
    "jqpie_large": Workload((("noise", 1024, 1024), ("smooth", 1024, 1024)),
                            Sweep(("jqpie",), (5, 6))),
    # Padded sizes stay at or below 64x64: the gate-by-gate cascade costs
    # 2^active x 2^n, so larger images leave the benchmark's time budget.
    "cascade_small": Workload(
        (("noise", 57, 33), ("smooth", 1, 64), ("noise", 8, 64), ("smooth", 40, 48),
         ("noise", 64, 40), ("smooth", 16, 16), ("noise", 32, 32), ("smooth", 64, 64)),
        Sweep(("jqpie", "qf_jqpie"), (2, 3, 4, 5, 6))),
    "gate_exact_ref": Workload(
        (("noise", 64, 64), ("smooth", 32, 32)),
        Sweep(("jqpie", "qf_jqpie"), (3, 6), backend="gate_exact"),
        exports=(("jqpie", 3), ("jqpie", 6))),
}

#: Tiny input every warm-up runs the workload's calls on.
WARMUP_IMAGE = ("smooth", 16, 16)


def make_pixels(texture: str, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """8-bit pixels: uniform noise, or a smooth sum of sinusoids and a ramp."""
    if texture == "noise":
        return rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    y, x = np.mgrid[0:h, 0:w]
    y = y / max(h, 1)
    x = x / max(w, 1)
    field = rng.uniform(-1, 1) * x + rng.uniform(-1, 1) * y
    for _ in range(3):
        fy, fx = rng.uniform(0.5, 4.0, size=2)
        field = field + np.sin(2 * np.pi * (fy * y + fx * x) + rng.uniform(0, 2 * np.pi))
    span = np.ptp(field)
    field = (field - field.min()) / span if span > 0 else np.zeros_like(field)
    return np.rint(16 + 224 * field).astype(np.uint8)


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def generate_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, np.ndarray]:
    """Write the workload's seeded images; returns pixels by file name."""
    directory.mkdir(parents=True, exist_ok=True)
    images = {}
    for index, (texture, h, w) in enumerate(workload.images):
        pixels = make_pixels(texture, h, w, np.random.default_rng([seed, index]))
        name = f"{texture}_{h}x{w}_{index}.pgm"
        write_pgm(directory / name, pixels)
        images[name] = pixels
    return images


def warmup_inputs(directory: Path) -> dict[str, np.ndarray]:
    texture, h, w = WARMUP_IMAGE
    return generate_inputs(Workload(((texture, h, w),), Sweep((), ())), 0, directory)


def calls_for(workload: Workload, image: str, in_dir: Path, out_dir: Path) -> list[Call]:
    """The CLI calls one pass makes on one image."""
    sw = workload.sweep
    stem = Path(image).stem
    out = out_dir / f"{stem}_sweep"
    argv = ["sweep", str(in_dir / image)]
    for m in sw.methods:
        argv += ["--method", m]
    for r in sw.r_set:
        argv += ["--r", str(r)]
    argv += ["--backend", sw.backend, "--jobs", "1", "--out", str(out)]
    calls = [Call(image, "sweep", tuple(argv), out.with_suffix(".csv"), sw.cells)]
    for method, r in workload.exports:
        qasm = out_dir / f"{stem}_{method}_r{r}.qasm"
        calls.append(Call(image, "export",
                          ("export-circuit", str(in_dir / image), "--method", method,
                           "--r", str(r), "--out", str(qasm)),
                          qasm, 1, method))
    return calls
