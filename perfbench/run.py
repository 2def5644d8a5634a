"""jqpie benchmark: timed CLI passes over seeded images, with verified outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload jqpie_large --seed 1 --seconds 20 --trace 0

One process per run drives ``jqpie.bench.main(argv)`` in-process with
``--jobs 1`` and one BLAS thread. A pass makes every call the workload lists
for each of its images (see ``workloads.py``); passes repeat while one more
pass, as long as the last, fits in ``--seconds`` of call time. A
cell is one (image, method, r) sweep row or one exported circuit. Outputs
are verified against the classical oracles after the timed phase, so
verification costs no timed work.

``--trace 0`` prints the end-to-end metrics: verified cells per pass over
the median pass time, the median wall time of all calls on one image in one
pass, set-up time (median of separate processes that import jqpie, write the
inputs and warm up), peak resident memory and the verified share of cells.
``--trace 1`` runs half the time untraced and half traced, and prints
per-layer metrics from outside-in spans (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
#: One BLAS thread (never more than NPROC). jqpie's only BLAS calls are
#: small (8x8 operator blocks); a second, spin-waiting BLAS thread made runs
#: slower and noisier on a 2-CPU host, and set-up ~40% slower.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


@dataclass
class CallRecord:
    call: object          # workloads.Call
    seconds: float
    ok: bool              # returned 0 without raising
    output: str | None    # sha256 of the verified output file
    stdout: str


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="(internal) import, write inputs and warm up in DIR, print the time")
    return p.parse_args(argv)


def _warm_up(workload, directory: Path) -> None:
    """Run the workload's calls once on a tiny image so lazy set-up and
    caches are filled before anything is timed."""
    from jqpie import bench
    import workloads
    names = workloads.warmup_inputs(directory)
    for name in names:
        for call in workloads.calls_for(workload, name, directory, directory):
            with contextlib.redirect_stdout(io.StringIO()):
                if bench.main(list(call.argv)) != 0:
                    raise RuntimeError(f"warm-up call failed: {' '.join(call.argv)}")


def _setup_only(args) -> int:
    """One set-up, timed from before the first import of numpy or jqpie."""
    t0 = time.perf_counter()
    import workloads
    import jqpie.bench  # noqa: F401
    directory = Path(args.setup_only)
    workload = workloads.WORKLOADS[args.workload]
    workloads.generate_inputs(workload, args.seed, directory / "in")
    _warm_up(workload, directory / "warm")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _measure_setup(args, work: Path) -> list[float]:
    samples = []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(directory)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(directory, ignore_errors=True)
    return samples


def _run_call(bench, call, outputs: dict[str, str]) -> CallRecord:
    captured = io.StringIO()
    ok = False
    call.output.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            ok = bench.main(list(call.argv)) == 0
    except (Exception, SystemExit):   # a crashing call fails its cells; the run goes on
        traceback.print_exc()
    seconds = time.perf_counter() - t0
    digest = None
    if ok and call.output.is_file():
        text = call.output.read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        outputs.setdefault(digest, text)
    return CallRecord(call, seconds, ok, digest, captured.getvalue())


def _run_passes(bench, calls, seconds: float, outputs) -> list[list[CallRecord]]:
    """Whole passes within ``seconds`` of call time, at least one. A pass is
    not started when the previous pass's time would take the total past the
    budget, so a run never measures about twice as long as asked."""
    passes, spent = [], 0.0
    while not passes or spent + _pass_seconds(passes[-1]) <= seconds:
        records = [_run_call(bench, c, outputs) for c in calls]
        spent += _pass_seconds(records)
        passes.append(records)
    return passes


def _verify(workload, passes, outputs, pixels) -> tuple[dict, list[str]]:
    """Verdict per cell for each distinct (output file, content), and the
    problems found, including any perturbation the checker let through."""
    import verify
    oracle = verify.Oracle(pixels)
    sw = workload.sweep
    verdicts: dict[tuple[str, str | None], list[bool]] = {}
    problems: list[str] = []
    sample_sweep = sample_export = None
    for rec in (r for records in passes for r in records):
        call = rec.call
        key = _key(rec)
        if key in verdicts:
            continue
        if not rec.ok or rec.output is None:
            found = [["call failed"]] * call.cells
        elif call.kind == "sweep":
            found = verify.check_sweep(outputs[rec.output], call.image, sw.methods,
                                       sw.r_set, oracle)
            sample_sweep = sample_sweep or (outputs[rec.output], call.image)
        else:
            qubits = oracle.image_qubits(call.image) + (call.method == "jqpie")
            found = [verify.check_export(outputs[rec.output], rec.stdout, qubits)]
            sample_export = sample_export or (outputs[rec.output], rec.stdout, qubits)
        problems += [f"{call.output.name}: {p}" for cell in found for p in cell]
        verdicts[key] = [not cell for cell in found]
    if sample_sweep is None:
        problems.append("self-test skipped: no sweep output to perturb")
    else:
        problems += verify.self_test(sample_sweep[0], sample_sweep[1], sw.methods, sw.r_set,
                                     oracle, sample_export)
    return verdicts, problems


def _key(rec: CallRecord) -> tuple[str, str | None]:
    return rec.call.output.name, rec.output


def _cells(passes, verdicts) -> tuple[int, int]:
    """(attempted, verified) cells over some passes."""
    found = [v for records in passes for r in records for v in verdicts[_key(r)]]
    return len(found), sum(found)


def _pass_seconds(records) -> float:
    return sum(r.seconds for r in records)


def _image_seconds(passes) -> dict[str, list[float]]:
    """Per image, the wall time of all its calls in each pass."""
    samples: dict[str, list[float]] = {}
    for records in passes:
        per_image: dict[str, float] = {}
        for r in records:
            per_image[r.call.image] = per_image.get(r.call.image, 0.0) + r.seconds
        for image, seconds in per_image.items():
            samples.setdefault(image, []).append(seconds)
    return samples


def _image_p50(samples: dict[str, list[float]]) -> float:
    """Median over images of each image's median over passes. Images differ
    in size, so a median over the pooled samples would sit on the boundary
    between two size clusters and jump with either one."""
    return statistics.median(statistics.median(v) for v in samples.values())


def host_info() -> dict:
    import numpy
    import scipy
    return {"nproc": NPROC, "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def _run(args, work: Path) -> dict:
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else _measure_setup(args, work)

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    from jqpie import bench
    import tracing
    in_dir, out_dir = work / "in", work / "out"
    out_dir.mkdir(parents=True)
    pixels = workloads.generate_inputs(workload, args.seed, in_dir)
    _warm_up(workload, work / "warm")
    calls = [c for name in pixels for c in workloads.calls_for(workload, name, in_dir, out_dir)]

    outputs: dict[str, str] = {}
    untraced = _run_passes(bench, calls, args.seconds / 2 if args.trace else args.seconds, outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = [], tracing.Tracer()
    if args.trace:
        tracer.install()
        try:
            traced = _run_passes(bench, calls, args.seconds / 2, outputs)
        finally:
            tracer.uninstall()

    verdicts, problems = _verify(workload, untraced + traced, outputs, pixels)
    attempted, verified = _cells(untraced + traced, verdicts)
    for p in problems:
        print(f"verify: {p}")
    image_s = _image_seconds(untraced)
    print(f"workload {args.workload}: {len(untraced)} untraced + {len(traced)} traced passes, "
          f"{len(calls)} calls per pass, {attempted} cells, {verified} verified; "
          f"image_s_p50 over {sum(map(len, image_s.values()))} samples "
          f"({len(image_s)} images x {len(untraced)} passes); setup_s over {len(setup)} processes")
    print("host " + json.dumps(host_info(), sort_keys=True))

    if args.trace:
        summary = tracing.Summary(
            tracer.spans, len(traced), image_visits=len(traced) * len(pixels),
            sweep_cells=len(traced) * len(pixels) * workload.sweep.cells,
            traced_pass_s=statistics.median(_pass_seconds(p) for p in traced),
            untraced_pass_s=statistics.median(_pass_seconds(p) for p in untraced))
        spans = work.parent / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        print(f"{len(tracer.spans)} spans written to {spans}")
        metrics, absent = tracing.per_layer_metrics(summary, tracer.missing)
        if absent:
            print("absent (wrapped name no longer exists): " + ", ".join(absent))
    else:
        metrics = {
            "cells_per_s": {"value": _cells(untraced, verdicts)[1] / len(untraced)
                            / statistics.median(_pass_seconds(p) for p in untraced),
                            "unit": "1/s"},
            "image_s_p50": {"value": _image_p50(image_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "verified_frac": {"value": verified / attempted, "unit": "frac"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": attempted - verified,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "jqpie" / "bench.py").is_file():
        print(f"error: jqpie sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return _setup_only(args)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        result = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
