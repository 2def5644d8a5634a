"""Outside-in tracing of the jqpie layers.

The tracer replaces public names as they are bound in ``jqpie.bench``,
``jqpie.pipeline`` and ``jqpie.metrics`` with wrappers that record a span
(name, start, end, parent) per call and a few counts taken from the call's
arguments and result. Spans stay in memory until the run ends; then they are
written out and the per-layer metrics are computed from them. A name a
refactor has removed is not wrapped, and every metric that needs it is
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _apply_hook(span: Span, args, kwargs, result) -> None:
    """Split apply_circuit by the circuit's first gate tag; count the passes."""
    sv, circuit = _arg(args, kwargs, 0, "sv"), _arg(args, kwargs, 1, "circuit")
    first_tag = circuit.gates[0].tag if circuit.gates else None
    span.name = "qsim.prep_apply" if first_tag == "state_prep" else "qsim.decomp_apply"
    span.attrs["gates"] = len(circuit.gates)
    span.attrs["amps"] = 2 ** sv.n


def _run_hook(span: Span, args, kwargs, result) -> None:
    span.attrs["kept_amps"] = 2 ** result.state.n


def _gates_hook(span: Span, args, kwargs, result) -> None:
    span.attrs["gates"] = len(result.gates)


def _load_hook(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _qasm_hook(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = len(result.encode())


#: (module, name as bound there, span name, hook)
WRAPS = (
    ("jqpie.bench", "main", "bench.main", None),
    ("jqpie.bench", "run_jqpie", "pipeline.run", _run_hook),
    ("jqpie.bench", "run_qf_jqpie", "pipeline.run", _run_hook),
    ("jqpie.bench", "load_image", "imagio.load_image", _load_hook),
    ("jqpie.bench", "classical_reference_decode", "jpegcore.reference_decode", None),
    ("jqpie.bench", "sparsity_stats", "jpegcore.sparsity_stats", None),
    ("jqpie.bench", "emit_report", "bench.emit_report", None),
    ("jqpie.bench", "export_qasm", "qcircuit.export_qasm", _qasm_hook),
    ("jqpie.pipeline", "apply_circuit", "qsim.apply", _apply_hook),
    ("jqpie.pipeline", "postselect_ancilla", "qsim.postselect", None),
    ("jqpie.pipeline", "synth_state_prep", "synth.state_prep", _gates_hook),
    ("jqpie.pipeline", "lower_circuit", "synth.lower_circuit", _gates_hook),
    ("jqpie.pipeline", "synth_truncated_zigzag", "synth.decomp_build", None),
    ("jqpie.pipeline", "block_encoded_rescaler", "synth.decomp_build", None),
    ("jqpie.pipeline", "lower_multiplexed_ry", "synth.decomp_build", None),
    ("jqpie.pipeline", "synth_inverse_qdct_gates", "synth.decomp_build", None),
    ("jqpie.pipeline", "closed_form_resources", "synth.resources", None),
    ("jqpie.pipeline", "readout_image", "pipeline.readout", None),
    ("jqpie.pipeline", "zigzag_coefficients", "jpegcore.zigzag_coefficients", None),
    ("jqpie.metrics", "ssim", "metrics.ssim", None),
    ("jqpie.metrics", "psnr", "metrics.psnr", None),
)


class Tracer:
    """Holds the spans of one traced phase; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, fn, span_name: str, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, time.perf_counter(), stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, span_name, hook in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON; times are seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, **s.attrs} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _need(*names: str) -> tuple[str, ...]:
    return tuple(f"jqpie.{n}" for n in names)


_APPLY = _need("pipeline.apply_circuit")
_APPLY_SPANS = ("qsim.prep_apply", "qsim.decomp_apply")
_RUN = _need("bench.run_jqpie", "bench.run_qf_jqpie")
_BUILD = _need("pipeline.synth_truncated_zigzag", "pipeline.block_encoded_rescaler",
               "pipeline.lower_multiplexed_ry", "pipeline.synth_inverse_qdct_gates")

#: name -> (unit, wrapped names it needs, value from a Summary)
PER_LAYER = {
    "qsim.decomp_apply_s": ("s/pass", _APPLY, lambda s: s.time("qsim.decomp_apply")),
    "qsim.prep_apply_s": ("s/pass", _APPLY, lambda s: s.time("qsim.prep_apply")),
    "qsim.postselect_s": ("s/pass", _need("pipeline.postselect_ancilla"),
                          lambda s: s.time("qsim.postselect")),
    "qsim.gates_applied": ("count/pass", _APPLY,
                           lambda s: s.per_pass(s.attr_sum(_APPLY_SPANS, "gates"))),
    "qsim.amp_bytes_computed": ("B/pass", _APPLY, lambda s: s.per_pass(s.amp_bytes())),
    "qsim.useful_amp_frac": ("frac", _APPLY + _RUN, lambda s: s.useful_amp_frac()),
    "synth.state_prep_s": ("s/pass", _need("pipeline.synth_state_prep"),
                           lambda s: s.time("synth.state_prep")),
    "synth.state_prep_gates": ("count/pass", _need("pipeline.synth_state_prep"),
                               lambda s: s.per_pass(s.attr_sum(("synth.state_prep",), "gates"))),
    "synth.lower_circuit_s": ("s/pass", _need("pipeline.lower_circuit"),
                              lambda s: s.time("synth.lower_circuit")),
    "synth.lowered_gates": ("count/pass", _need("pipeline.lower_circuit"),
                            lambda s: s.per_pass(s.attr_sum(("synth.lower_circuit",), "gates"))),
    "synth.decomp_build_s": ("s/pass", _BUILD, lambda s: s.time("synth.decomp_build")),
    "synth.resources_s": ("s/pass", _need("pipeline.closed_form_resources"),
                          lambda s: s.time("synth.resources")),
    "pipeline.run_s": ("s/pass", _RUN, lambda s: s.time("pipeline.run")),
    "pipeline.self_s": ("s/pass", _RUN, lambda s: s.self_time("pipeline.run")),
    "pipeline.readout_s": ("s/pass", _need("pipeline.readout_image"),
                           lambda s: s.time("pipeline.readout")),
    "pipeline.cascade_frac": ("frac", _RUN + _need("pipeline.synth_state_prep"),
                              lambda s: s.cascade_frac()),
    "metrics.ssim_s": ("s/pass", _need("metrics.ssim"), lambda s: s.time("metrics.ssim")),
    "metrics.ssim_calls_per_cell": ("calls/cell", _need("metrics.ssim"),
                                    lambda s: s.ratio(s.count("metrics.ssim"), s.sweep_cells)),
    "metrics.psnr_s": ("s/pass", _need("metrics.psnr"), lambda s: s.time("metrics.psnr")),
    "jpegcore.zigzag_coefficients_s": ("s/pass", _need("pipeline.zigzag_coefficients"),
                                       lambda s: s.time("jpegcore.zigzag_coefficients")),
    "jpegcore.reference_decode_s": ("s/pass", _need("bench.classical_reference_decode"),
                                    lambda s: s.time("jpegcore.reference_decode")),
    "jpegcore.sparsity_stats_s": ("s/pass", _need("bench.sparsity_stats"),
                                  lambda s: s.time("jpegcore.sparsity_stats")),
    "imagio.load_image_s": ("s/pass", _need("bench.load_image"),
                            lambda s: s.time("imagio.load_image")),
    "imagio.bytes_read": ("B/pass", _need("bench.load_image"),
                          lambda s: s.per_pass(s.attr_sum(("imagio.load_image",), "bytes"))),
    "bench.self_s": ("s/pass", _need("bench.main"), lambda s: s.self_time("bench.main")),
    "bench.emit_report_s": ("s/pass", _need("bench.emit_report"),
                            lambda s: s.time("bench.emit_report")),
    "bench.load_image_calls_per_image": ("calls/image", _need("bench.load_image"),
                                         lambda s: s.ratio(s.count("imagio.load_image"),
                                                           s.image_visits)),
    "bench.sparsity_stats_calls_per_image": ("calls/image", _need("bench.sparsity_stats"),
                                             lambda s: s.ratio(s.count("jpegcore.sparsity_stats"),
                                                               s.image_visits)),
    "qcircuit.export_qasm_s": ("s/pass", _need("bench.export_qasm"),
                               lambda s: s.time("qcircuit.export_qasm")),
    "qcircuit.qasm_bytes": ("B/pass", _need("bench.export_qasm"),
                            lambda s: s.per_pass(s.attr_sum(("qcircuit.export_qasm",), "bytes"))),
    "trace.pass_s": ("s/pass", (), lambda s: s.traced_pass_s),
    "trace.overhead_s": ("s/pass", (), lambda s: s.traced_pass_s - s.untraced_pass_s),
}


class Summary:
    """Aggregates over the spans of ``passes`` traced passes."""

    def __init__(self, spans: list[Span], passes: int, image_visits: int, sweep_cells: int,
                 traced_pass_s: float, untraced_pass_s: float):
        self.spans = spans
        self.passes = passes
        self.image_visits = image_visits
        self.sweep_cells = sweep_cells
        self.traced_pass_s = traced_pass_s
        self.untraced_pass_s = untraced_pass_s
        self.children: dict[int, list[int]] = {}
        for i, span in enumerate(spans):
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(i)

    @staticmethod
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_pass(self, total: float) -> float:
        return self.ratio(total, self.passes)

    def named(self, name: str):
        return (s for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for _ in self.named(name))

    def time(self, name: str) -> float:
        return self.per_pass(sum(s.duration for s in self.named(name)))

    def self_time(self, name: str) -> float:
        total = 0.0
        for i, span in enumerate(self.spans):
            if span.name == name:
                total += span.duration - sum(self.spans[c].duration
                                             for c in self.children.get(i, ()))
        return self.per_pass(total)

    def attr_sum(self, names, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name in names)

    def amp_bytes(self) -> int:
        """Computed, not measured: every applied gate is one pass over the
        complex128 state, 16 bytes per amplitude."""
        return sum(s.attrs["gates"] * s.attrs["amps"] * 16 for s in self.spans
                   if s.name in _APPLY_SPANS)

    def _runs(self):
        for i, span in enumerate(self.spans):
            if span.name == "pipeline.run":
                yield span, [self.spans[c] for c in self.children.get(i, ())]

    def useful_amp_frac(self) -> float:
        kept = simulated = 0
        for span, kids in self._runs():
            amps = [k.attrs["amps"] for k in kids if "amps" in k.attrs]
            if amps and "kept_amps" in span.attrs:
                kept += span.attrs["kept_amps"]
                simulated += max(amps)
        return self.ratio(kept, simulated)

    def cascade_frac(self) -> float:
        runs = list(self._runs())
        cascades = sum(1 for _, kids in runs if any(k.name == "synth.state_prep" for k in kids))
        return self.ratio(cascades, len(runs))


def per_layer_metrics(summary: Summary, missing: set[str]) -> tuple[dict, list[str]]:
    """Metric values by name, plus the names reported absent."""
    values, absent = {}, []
    for name, (unit, needs, fn) in PER_LAYER.items():
        if any(n in missing for n in needs):
            absent.append(name)
            continue
        values[name] = {"value": fn(summary), "unit": unit}
    return values, absent
