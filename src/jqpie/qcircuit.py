"""Gate-level circuit representation with exact resource accounting.

Gate alphabet: RY rotations and CX, nothing else (:data:`ELEMENTARY_KINDS`).
Both are real, so circuits map real states to real states. Every pipeline
stage, the inverse QDCT included, is synthesized in this alphabet, and the
resource model in :mod:`jqpie.synth` counts the stages with
:func:`resource_counts`, so its counts are those of the exported gates.

A circuit holds operations: plain gates, and multiplexers
(:class:`MultiplexedRY`), the uniformly controlled RYs of the
state-preparation cascade and the rescaler (Mottonen, Vartiainen, Bergholm
& Salomaa, QIC 5, 467, 2005; kept whole as in Shende, Bullock & Markov,
IEEE TCAD 25, 1000, 2006). A multiplexer holds its interleaved RY/CX chain
as one array of chain angles, checked once, so a 2^20-gate cascade holds
no Python object per gate. The simulator applies it, :func:`export_qasm`
writes it from its arrays and :func:`resource_counts` counts it from them,
each exactly as for its gates one by one; ``Circuit.gates`` yields those
gates, expanded in order as they are read.

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

import itertools
import math
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


@lru_cache(maxsize=None)
def cx(control: int, target: int, tag: str | None = None) -> Gate:
    """A CX gate. Gates are immutable, so every CX on one (control, target,
    tag) is the same object, made once."""
    return Gate("cx", (control, target), tag=tag)


@dataclass(frozen=True, eq=False)
class MultiplexedRY:
    """A uniformly controlled RY as one circuit operation: the interleaved
    RY/CX chain of :func:`~jqpie.synth.lower_multiplexed_ry`, held as its
    chain angles, one read-only float64 array, instead of as gates.

    Step i of the chain is RY(``angles[i]``) on ``target``, dropped when
    ``skip_zero`` is set and |angle| <= 1e-12 (zero up to rounding), then,
    with k >= 1 ``controls`` (most significant first), a CX from control
    ``controls[k - 1 - b]`` onto the target, b the Gray-code bit that flips
    after step i (:meth:`links`). So a k-control multiplexer is 2^k steps:
    2^k rotations, fewer when some are skipped, and 2^k CX (none for k = 0).
    Its qubits and angles are checked once, here. Iterating over it yields
    its gates in order, each equal in every field to the gate the chain
    would emit one by one.
    """

    controls: tuple[int, ...]
    target: int
    angles: np.ndarray
    tag: str | None
    skip_zero: bool

    def __post_init__(self):
        controls, target = tuple(map(int, self.controls)), int(self.target)
        qubits = controls + (target,)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in multiplexer: {qubits}")
        angles = np.array(self.angles, dtype=np.float64)
        if angles.shape != (2 ** len(controls),):
            raise ValueError(f"need {2 ** len(controls)} chain angles for "
                             f"{len(controls)} controls, got shape {angles.shape}")
        bad = ~np.isfinite(angles)
        if bad.any():
            raise ValueError(f"ry angle must be finite, got {float(angles[bad][0])!r}")
        angles.flags.writeable = False
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "angles", angles)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + (self.target,)

    @cached_property
    def kept(self) -> np.ndarray:
        """Per step, whether its rotation is emitted. Read-only."""
        if self.skip_zero:
            kept = np.abs(self.angles) > 1e-12
        else:
            kept = np.ones(len(self.angles), dtype=bool)
        kept.flags.writeable = False
        return kept

    @cached_property
    def rotations(self) -> int:
        return int(np.count_nonzero(self.kept))

    def links(self, start: int, stop: int) -> np.ndarray:
        """For the steps start..stop-1 of a chain with controls, the control
        qubit of the CX that follows each step's rotation: controls[k-1-b],
        b the lowest set bit of step + 1, and b = k - 1 for the last step,
        which closes the chain. Computed on each call, so a long chain holds
        no array of them."""
        k = len(self.controls)
        after = np.arange(start + 1, stop + 1)
        bits = np.frexp(after & -after)[1] - 1   # exact: each is a power of two
        bits[after == 2 ** k] = k - 1
        return np.array(self.controls[::-1])[bits]

    def __len__(self) -> int:
        return self.rotations + (len(self.angles) if self.controls else 0)

    def __iter__(self) -> Iterator[Gate]:
        steps = len(self.angles)
        links = ([cx(c, self.target, tag=self.tag) for c in self.links(0, steps).tolist()]
                 if self.controls else [None] * steps)
        for angle, kept, link in zip(self.angles.tolist(), self.kept.tolist(), links):
            if kept:
                yield ry(self.target, angle, tag=self.tag)
            if link is not None:
                yield link


#: A circuit operation: one gate, or a multiplexer of many.
Operation = Gate | MultiplexedRY


class GateSequence(Sequence):
    """The gates of a circuit's operations, each multiplexer expanded in
    order as it is read (:meth:`MultiplexedRY.__iter__`). Its length is
    counted from the operations without expanding them; an integer index
    expands the operations up to that gate."""

    __slots__ = ("_operations",)

    def __init__(self, operations: tuple[Operation, ...]):
        self._operations = operations

    def __len__(self) -> int:
        return sum(len(op) if isinstance(op, MultiplexedRY) else 1 for op in self._operations)

    def __iter__(self) -> Iterator[Gate]:
        for op in self._operations:
            if isinstance(op, MultiplexedRY):
                yield from op
            else:
                yield op

    def __getitem__(self, index: int) -> Gate:
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("gate index out of range")
        return next(itertools.islice(self, index, None))


@dataclass(frozen=True)
class Circuit:
    """An ordered sequence of operations on ``n_qubits`` qubits: plain gates
    and multiplexers. :attr:`gates` reads them as gates."""

    n_qubits: int
    operations: tuple[Operation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))
        for op in self.operations:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate references qubit {q} outside 0..{self.n_qubits - 1}")

    @property
    def gates(self) -> GateSequence:
        """Every gate in order, multiplexers expanded lazily."""
        return GateSequence(self.operations)


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Concatenate two circuits on the same number of qubits."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts do not match: {a.n_qubits} and {b.n_qubits}")
    return Circuit(a.n_qubits, a.operations + b.operations)


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


def _schedule_gate(front: dict[int, int], gate: Gate) -> int:
    """Schedule one gate as soon as possible after ``front`` (qubit -> end of
    its last gate), update it, and return the gate's end."""
    end = 1 + max(front.get(q, 0) for q in gate.qubits)
    for q in gate.qubits:
        front[q] = end
    return end


def resource_counts(circuit: Circuit) -> ResourceReport:
    """Exact gate counts and scheduled depth, broken down by stage tag.

    Stage segments (consecutive operations sharing a tag) are scheduled
    independently and act as barriers, so the total depth equals the
    breakdown sum. A multiplexer is counted from its arrays and scheduled
    gate by gate over its expansion.
    """
    totals: dict[str, StageCost] = {}
    tag = None
    front: dict[int, int] = {}
    cx_n = rot_n = depth = 0

    def close():
        if tag is not None:
            totals[tag] = totals.get(tag, StageCost()) + StageCost(cx_n, rot_n, depth)

    for op in circuit.operations:
        op_tag = op.tag or "other"
        if op_tag != tag:
            close()
            tag, front, cx_n, rot_n, depth = op_tag, {}, 0, 0, 0
        if isinstance(op, MultiplexedRY):
            rot_n += op.rotations
            cx_n += len(op) - op.rotations
            for gate in op:
                depth = max(depth, _schedule_gate(front, gate))
        else:
            cx_n += op.kind == "cx"
            rot_n += op.kind == "ry"
            depth = max(depth, _schedule_gate(front, op))
    close()
    total = sum(totals.values(), StageCost())
    return ResourceReport(total.cx, total.rotations, total.depth, totals)


# --- OpenQASM 3 export / import -------------------------------------------------

_QASM_HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'

#: Chain steps written per piece of text, so a long chain's lines are never
#: all held as separate strings at once.
_QASM_STEPS = 4096


def _qasm_line(gate: Gate) -> str:
    if gate.kind == "ry":
        return f"ry({gate.angle!r}) q[{gate.qubits[0]}];\n"
    return f"cx q[{gate.qubits[0]}], q[{gate.qubits[1]}];\n"


def _qasm_chain(op: MultiplexedRY) -> Iterator[str]:
    """A multiplexer's lines, written from its arrays in pieces of
    :data:`_QASM_STEPS` steps, each line as :func:`_qasm_line` writes its
    gate."""
    rotation = f") q[{op.target}];\n"
    link_lines = {c: f"cx q[{c}], q[{op.target}];\n" for c in op.controls}
    for start in range(0, len(op.angles), _QASM_STEPS):
        stop = start + _QASM_STEPS
        angles = op.angles[start:stop].tolist()
        kept = op.kept[start:stop].tolist()
        links = ([link_lines[c] for c in op.links(start, start + len(angles)).tolist()]
                 if op.controls else [""] * len(angles))
        yield "".join([(f"ry({angle!r}{rotation}" if keep else "") + link
                       for angle, keep, link in zip(angles, kept, links)])


def export_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 3 text: one line per gate, each
    multiplexer's written straight from its arrays."""
    pieces = [_QASM_HEADER + f"qubit[{circuit.n_qubits}] q;\n"]
    for op in circuit.operations:
        if isinstance(op, MultiplexedRY):
            pieces.extend(_qasm_chain(op))
        else:
            pieces.append(_qasm_line(op))
    return "".join(pieces)


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
