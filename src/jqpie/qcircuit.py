"""Gate-level circuit representation with exact resource accounting.

Gate alphabet: RY rotations and CX, plus one operator-level entry that the
simulator can apply directly: UBLOCK (a real orthogonal matrix over a qubit
subset, built as ``Gate("ublock", targets, matrix=...)``). Every entry is
real, so circuits map real states to real states. A UBLOCK has no gate
count of its own: resource reports and QASM export take lowered circuits
only. The pipeline builds none: every decompression stage, the inverse QDCT
included, is synthesized as RY/CX gates, and the resource model in
:mod:`jqpie.synth` counts them with :func:`resource_counts`, so its counts
are those of the exported gates.

Conventions (project-wide):
  * qubit 0 is the least-significant bit of a basis index;
  * registers are listed most-significant first, e.g.
    (("ancilla", 1), ("index", k), ("data", 6)) puts the data register in
    qubits 0..5 and the ancilla at the top;
  * UBLOCK target lists are ordered most-significant-first with respect to
    the operator's own basis index.

Depth model: greedy as-soon-as-possible scheduling where each gate
occupies one time step on every touched qubit. Consecutive runs of gates with
different stage tags are scheduled with a barrier in between, so a report's
total depth is the sum of its per-stage depths.

Circuits are immutable values; resource computation and export are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

ELEMENTARY_KINDS = ("ry", "cx")

#: Breakdown keys always present in a resource report.
PIPELINE_STAGES = ("state_prep", "inverse_zigzag", "inverse_quantization", "inverse_qdct")


class UnloweredGateError(ValueError):
    """An operator-level gate appeared where only elementary gates are valid."""


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None
    tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in gate: {self.qubits}")
        if self.kind == "ry":
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError("ry takes one qubit and an angle")
        elif self.kind == "cx":
            if len(self.qubits) != 2:
                raise ValueError("cx takes a distinct (control, target) pair")
        elif self.kind == "ublock":
            if self.matrix is None:
                raise ValueError("ublock gate needs a matrix")
            if np.iscomplexobj(self.matrix):
                raise ValueError("ublock matrix must be real")
            mat = np.array(self.matrix, dtype=np.float64)
            dim = 2 ** len(self.qubits)
            if mat.shape != (dim, dim):
                raise ValueError(f"ublock matrix must be {dim}x{dim}")
            if not np.allclose(mat @ mat.T, np.eye(dim), atol=1e-12):
                raise ValueError("ublock matrix is not orthogonal within 1e-12")
            mat.flags.writeable = False
            object.__setattr__(self, "matrix", mat)
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @property
    def is_elementary(self) -> bool:
        return self.kind in ELEMENTARY_KINDS


def ry(qubit: int, angle: float, tag: str | None = None) -> Gate:
    return Gate("ry", (qubit,), angle=float(angle), tag=tag)


def cx(control: int, target: int, tag: str | None = None) -> Gate:
    return Gate("cx", (control, target), tag=tag)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over named qubit registers."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    registers: tuple[tuple[str, int], ...] = ()   # most-significant first

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        regs = tuple((str(n), int(s)) for n, s in self.registers)
        if not regs:
            regs = (("q", self.n_qubits),)
        if sum(s for _, s in regs) != self.n_qubits:
            raise ValueError("register sizes must sum to the qubit count")
        object.__setattr__(self, "registers", regs)
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate references qubit {q} outside 0..{self.n_qubits - 1}")

    @property
    def has_operator_gates(self) -> bool:
        return any(not g.is_elementary for g in self.gates)


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Concatenate two circuits over the identical register layout."""
    if a.n_qubits != b.n_qubits or a.registers != b.registers:
        raise ValueError("register layouts do not match")
    return Circuit(a.n_qubits, a.gates + b.gates, a.registers)


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
    cx_count: int
    rotation_count: int
    depth: int
    breakdown: dict

    def __post_init__(self):
        bd = dict(self.breakdown)
        for stage in PIPELINE_STAGES:
            bd.setdefault(stage, StageCost())
        object.__setattr__(self, "breakdown", bd)

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
    """ASAP depth of an elementary gate sequence (one step per qubit per gate).

    Raises :class:`UnloweredGateError` on a UBLOCK gate.
    """
    front: dict[int, int] = {}
    depth = 0
    for g in gates:
        if not g.is_elementary:
            raise UnloweredGateError(f"{g.kind} gate has no gate count: lower first")
        end = 1 + max((front.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            front[q] = end
        depth = max(depth, end)
    return depth


def resource_counts(circuit: Circuit) -> ResourceReport:
    """Exact gate counts and scheduled depth, broken down by stage tag.

    The circuit must be lowered: a UBLOCK gate raises
    :class:`UnloweredGateError`. Stage segments (consecutive gates sharing a
    tag) are scheduled independently and act as barriers, so the total depth
    equals the breakdown sum.
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


# --- OpenQASM 3 export / import (elementary subset) -------------------------

_QASM_HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


def export_qasm(circuit: Circuit) -> str:
    """Serialize an elementary-gate circuit to OpenQASM 3 text.

    UBLOCK gates have no textual form here; lower them first.
    """
    if circuit.has_operator_gates:
        raise UnloweredGateError("circuit contains UBLOCK gates: lower before export")
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
