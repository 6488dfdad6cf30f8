"""The benchmark's own output check, written without ``repro.verify``.

A mapped circuit passes when

* every two-qubit op (SWAPs included) acts on a coupling edge of its
  topology,
* the logical stamps on every op match the occupants obtained by replaying
  the SWAPs from the initial layout, and
* the non-SWAP ops, read as logical gates, are exactly the gates of the input
  program, each once, in an order the program allows.  Gates on one qubit
  keep their program order, except that neighbouring diagonal gates (CPHASE,
  RZ) commute and may be reordered among themselves.

The last rule cuts each qubit's program sequence into segments: a run of
diagonal gates, or one non-diagonal gate.  Every gate must arrive while its
segment is the current one on each of its qubits.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, List, Optional, Sequence, Tuple

DIAGONAL = frozenset({"cphase", "rz"})
SYMMETRIC = frozenset({"cphase", "swap"})

Gate = Tuple[str, Tuple[int, ...], Optional[float]]


def qft_gates(n: int) -> List[Gate]:
    """The textbook QFT: ``H(i)`` then ``CPHASE(i, j, pi / 2**(j - i))``."""

    gates: List[Gate] = []
    for i in range(n):
        gates.append(("h", (i,), None))
        for j in range(i + 1, n):
            gates.append(("cphase", (i, j), math.ldexp(math.pi, i - j)))
    return gates


def circuit_gates(circuit) -> List[Gate]:
    """``(kind, qubits, angle)`` of a program circuit's gates, in order."""

    return [(g.kind, tuple(g.qubits), g.angle) for g in circuit.gates]


def _signature(kind: str, qubits: Sequence[int], angle: Optional[float]):
    qs = tuple(sorted(qubits)) if kind in SYMMETRIC else tuple(qubits)
    return kind, qs, None if angle is None else round(angle, 9)


def check_mapped(mapped, gates: Iterable[Gate]) -> Optional[str]:
    """None if ``mapped`` correctly executes ``gates``, else the first error."""

    n = mapped.num_logical
    # Per-qubit segments of the program, and each gate's segment per qubit.
    seg_sizes: List[List[int]] = [[] for _ in range(n)]
    open_diag = [False] * n
    gate_segs: List[Tuple[Tuple[int, int], ...]] = []
    pending = {}
    for index, (kind, qubits, angle) in enumerate(gates):
        segs = []
        for q in qubits:
            sizes = seg_sizes[q]
            if kind in DIAGONAL and open_diag[q]:
                sizes[-1] += 1
            else:
                sizes.append(1)
            open_diag[q] = kind in DIAGONAL
            segs.append((q, len(sizes) - 1))
        gate_segs.append(tuple(segs))
        pending.setdefault(_signature(kind, qubits, angle), deque()).append(index)

    edges = {(min(a, b), max(a, b)) for a, b in mapped.topology.edges}
    occupant = [-1] * mapped.topology.num_qubits
    for logical, physical in enumerate(mapped.initial_layout):
        occupant[physical] = logical
    cursor = [0] * n
    left = [sizes[0] if sizes else 0 for sizes in seg_sizes]

    for position, op in enumerate(mapped.ops):
        kind, physical = op.kind, op.physical
        if kind == "barrier":
            continue
        if len(physical) == 2:
            a, b = physical
            if (min(a, b), max(a, b)) not in edges:
                return f"op {position} ({kind}) on uncoupled pair {physical}"
        logical = tuple(occupant[p] for p in physical)
        if tuple(op.logical) != logical:
            return f"op {position} stamps {op.logical}, layout holds {logical}"
        if kind == "swap":
            a, b = physical
            occupant[a], occupant[b] = occupant[b], occupant[a]
            continue
        queue = pending.get(_signature(kind, logical, op.angle))
        if not queue:
            return f"op {position} ({kind} on {logical}) is not a pending program gate"
        for q, seg in gate_segs[queue.popleft()]:
            if seg != cursor[q]:
                return f"op {position} ({kind} on {logical}) runs out of program order"
            left[q] -= 1
            if left[q] == 0:
                cursor[q] += 1
                sizes = seg_sizes[q]
                left[q] = sizes[cursor[q]] if cursor[q] < len(sizes) else 0
    missing = sum(len(q) for q in pending.values())
    if missing:
        return f"{missing} program gates never executed"
    return None
