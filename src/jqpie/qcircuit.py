"""Gate-level circuit representation with exact resource accounting.

Gate alphabet: RY rotations and CX, nothing else (:data:`ELEMENTARY_KINDS`).
Both are real, so circuits map real states to real states. Every pipeline
stage, the inverse QDCT included, is synthesized in this alphabet, and the
resource model in :mod:`jqpie.synth` counts the stages with
:func:`resource_counts`, so its counts are those of the exported gates.

Convention (project-wide): qubit 0 is the least-significant bit of a basis
index. The pipeline's register layout (data register in qubits 0..5, the
block index above it, the ancilla at the top) is documented in
:mod:`jqpie.qsim`.

Depth model: greedy as-soon-as-possible scheduling where each gate
occupies one time step on every touched qubit. Consecutive runs of gates with
different stage tags are scheduled with a barrier in between, so a report's
total depth is the sum of its per-stage depths.

Circuits are immutable values; resource computation and export are pure.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

ELEMENTARY_KINDS = ("ry", "cx")

#: Breakdown keys always present in a resource report.
PIPELINE_STAGES = ("state_prep", "inverse_zigzag", "inverse_quantization", "inverse_qdct")


@dataclass(frozen=True, eq=False, slots=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    tag: str | None = None

    def __post_init__(self):
        qubits = tuple(map(int, self.qubits))
        object.__setattr__(self, "qubits", qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in gate: {qubits}")
        if self.kind == "ry":
            if len(qubits) != 1 or self.angle is None:
                raise ValueError("ry takes one qubit and an angle")
            if not math.isfinite(self.angle):
                raise ValueError(f"ry angle must be finite, got {self.angle!r}")
        elif self.kind == "cx":
            if len(qubits) != 2:
                raise ValueError("cx takes a distinct (control, target) pair")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


def ry(qubit: int, angle: float, tag: str | None = None) -> Gate:
    return Gate("ry", (qubit,), angle=float(angle), tag=tag)


#: Gate's slot setters, which fill a gate made without ``__init__``.
_SET_KIND, _SET_QUBITS, _SET_ANGLE, _SET_TAG = (
    Gate.__dict__[name].__set__ for name in ("kind", "qubits", "angle", "tag"))


def rys(qubit: int, angles: np.ndarray, tag: str | None) -> list[Gate]:
    """One RY on ``qubit`` per angle, each equal in every field to
    ``ry(qubit, angle, tag)``.

    The checks ``Gate`` makes run once for the batch: the qubit through one
    :func:`ry`, the angles with one numpy call. Each gate is then filled in
    without ``__post_init__``, which would repeat them.
    """
    angles = np.asarray(angles, dtype=np.float64)
    bad = ~np.isfinite(angles)
    if bad.any():
        raise ValueError(f"ry angle must be finite, got {float(angles[bad][0])!r}")
    qubits = ry(qubit, 0.0, tag).qubits
    gates = []
    for angle in angles.tolist():
        gate = object.__new__(Gate)
        _SET_KIND(gate, "ry")
        _SET_QUBITS(gate, qubits)
        _SET_ANGLE(gate, angle)
        _SET_TAG(gate, tag)
        gates.append(gate)
    return gates


@lru_cache(maxsize=None)
def cx(control: int, target: int, tag: str | None = None) -> Gate:
    """A CX gate. Gates are immutable, so every CX on one (control, target,
    tag) is the same object, made once."""
    return Gate("cx", (control, target), tag=tag)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence on ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate references qubit {q} outside 0..{self.n_qubits - 1}")


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Concatenate two circuits on the same number of qubits."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts do not match: {a.n_qubits} and {b.n_qubits}")
    return Circuit(a.n_qubits, a.gates + b.gates)


@dataclass(frozen=True)
class StageCost:
    cx: int = 0
    rotations: int = 0
    depth: int = 0

    def __add__(self, other: "StageCost") -> "StageCost":
        return StageCost(self.cx + other.cx, self.rotations + other.rotations,
                         self.depth + other.depth)


@dataclass(frozen=True)
class ResourceReport:
    """Gate counts and depth, with a read-only per-stage ``breakdown``:
    a report may be shared (:func:`~jqpie.synth.closed_form_resources`
    caches its reports), so nothing in it can change."""

    cx_count: int
    rotation_count: int
    depth: int
    breakdown: Mapping[str, StageCost]

    def __post_init__(self):
        bd = dict(self.breakdown)
        for stage in PIPELINE_STAGES:
            bd.setdefault(stage, StageCost())
        object.__setattr__(self, "breakdown", MappingProxyType(bd))

    def to_json(self) -> dict:
        return {
            "cx_count": self.cx_count,
            "rotation_count": self.rotation_count,
            "depth": self.depth,
            "breakdown": {
                name: {"cx": c.cx, "rotations": c.rotations, "depth": c.depth}
                for name, c in sorted(self.breakdown.items())
            },
        }


def schedule_depth(gates) -> int:
    """ASAP depth of a gate sequence (one step per qubit per gate)."""
    front: dict[int, int] = {}
    depth = 0
    for g in gates:
        end = 1 + max((front.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            front[q] = end
        depth = max(depth, end)
    return depth


def resource_counts(circuit: Circuit) -> ResourceReport:
    """Exact gate counts and scheduled depth, broken down by stage tag.

    Stage segments (consecutive gates sharing a tag) are scheduled
    independently and act as barriers, so the total depth equals the
    breakdown sum.
    """
    segments: list[tuple[str, list[Gate]]] = []
    for g in circuit.gates:
        tag = g.tag or "other"
        if segments and segments[-1][0] == tag:
            segments[-1][1].append(g)
        else:
            segments.append((tag, [g]))

    totals: dict[str, StageCost] = {}
    for tag, gates in segments:
        depth = schedule_depth(gates)
        cx_n = sum(1 for g in gates if g.kind == "cx")
        rot_n = sum(1 for g in gates if g.kind == "ry")
        cost = StageCost(cx_n, rot_n, depth)
        totals[tag] = totals.get(tag, StageCost()) + cost

    total = StageCost()
    for cost in totals.values():
        total = total + cost
    return ResourceReport(total.cx, total.rotations, total.depth, totals)


# --- OpenQASM 3 export / import -------------------------------------------------

_QASM_HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


def export_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 3 text."""
    lines = [_QASM_HEADER + f"qubit[{circuit.n_qubits}] q;"]
    for g in circuit.gates:
        if g.kind == "ry":
            lines.append(f"{g.kind}({g.angle!r}) q[{g.qubits[0]}];")
        else:
            lines.append(f"cx q[{g.qubits[0]}], q[{g.qubits[1]}];")
    return "\n".join(lines) + "\n"


_QASM_RY_RE = re.compile(r"^ry\s*\((?P<angle>[^)]+)\)\s*q\[(?P<q>\d+)\]\s*;$")
_QASM_CX_RE = re.compile(r"^cx\s+q\[(?P<c>\d+)\]\s*,\s*q\[(?P<t>\d+)\]\s*;$")
_QASM_DECL_RE = re.compile(r"^qubit\[(\d+)\]\s+\w+\s*;$")


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 3 subset produced by :func:`export_qasm`."""
    n_qubits = None
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        decl = _QASM_DECL_RE.match(line)
        if decl:
            n_qubits = int(decl.group(1))
            continue
        m = _QASM_RY_RE.match(line)
        if m:
            gates.append(ry(int(m.group("q")), float(m.group("angle"))))
            continue
        m = _QASM_CX_RE.match(line)
        if not m:
            raise ValueError(f"cannot parse QASM statement: {line!r}")
        gates.append(cx(int(m.group("c")), int(m.group("t"))))
    if n_qubits is None:
        raise ValueError("missing qubit declaration")
    return Circuit(n_qubits, tuple(gates))
