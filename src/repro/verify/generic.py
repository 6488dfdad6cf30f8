"""Workload-agnostic structural verification of mapped circuits.

:mod:`repro.verify.coverage` knows what a *QFT* must look like; this module
checks a mapped circuit against an arbitrary source :class:`Circuit` instead,
which is what the non-QFT workloads (QAOA, random circuits) use as their
paper-style verification path:

1. every two-qubit op acts on coupled physical qubits,
2. the logical stamps on every op are consistent with replaying the SWAPs
   from the initial layout (the mapper's bookkeeping is honest),
3. the logical (non-SWAP) event stream executes *exactly* the gates of the
   source circuit, each exactly once, in an order that respects the
   per-qubit dependence chains of the program (the reordering freedom every
   router is allowed: gates on disjoint qubits may commute past each other,
   gates sharing a qubit may not).

The checks are linear in the number of ops, so they run at every size; the
dense statevector cross-check for small instances lives with the workloads
(:meth:`repro.workloads.Workload.verify`).

Source circuits must be SWAP-free: mapped streams cannot distinguish a
program SWAP from a routing SWAP, so workloads express data movement through
the mapper, never as program gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.circuit import Circuit
from ..circuit.gates import GateKind
from ..circuit.schedule import MappedCircuit
from .layout import MAX_ERRORS_PER_CATEGORY, replay_layout

__all__ = ["ReplayReport", "check_mapped_matches_circuit"]

#: gate kinds that are symmetric in their qubit arguments
_SYMMETRIC_KINDS = frozenset({GateKind.CPHASE, GateKind.SWAP})

_MAX_ERRORS = 10


@dataclass
class ReplayReport:
    """Result of checking a mapped circuit against its source circuit."""

    num_logical: int
    ok: bool = True
    errors: List[str] = field(default_factory=list)
    matched_gates: int = 0
    swap_count: int = 0

    def add_error(self, msg: str) -> None:
        self.ok = False
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(msg)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"mapped-vs-circuit replay: {status}",
            f"  logical qubits : {self.num_logical}",
            f"  matched gates  : {self.matched_gates}",
            f"  SWAP gates     : {self.swap_count}",
        ]
        lines.extend("  - " + e for e in self.errors)
        return "\n".join(lines)


def _signature(kind: str, qubits: Tuple[int, ...], angle: Optional[float]):
    qs = tuple(sorted(qubits)) if kind in _SYMMETRIC_KINDS else tuple(qubits)
    ang = None if angle is None else round(angle, 9)
    return (kind, qs, ang)


def check_mapped_matches_circuit(
    mapped: MappedCircuit, circuit: Circuit
) -> ReplayReport:
    """Check that ``mapped`` is a hardware-compliant execution of ``circuit``."""

    n = circuit.num_qubits
    report = ReplayReport(num_logical=n)

    if any(g.kind == GateKind.SWAP for g in circuit.gates):
        report.add_error(
            "source circuit contains SWAP gates; the generic replay check "
            "requires SWAP-free programs"
        )
        return report

    # 1 + 2: adjacency and honest logical stamps ---------------------------
    report.swap_count = replay_layout(mapped, report)

    # 3: gate-for-gate replay through the per-qubit dependence chains ------
    # Build indegrees/successors of the per-qubit-chain DAG, then consume
    # mapped events greedily: each event must match a *ready* program gate
    # (all predecessors on its qubits already executed) with the same kind,
    # operands and angle.
    last_on_qubit: Dict[int, int] = {}
    successors: List[List[int]] = [[] for _ in circuit.gates]
    indegree = [0] * len(circuit.gates)
    for idx, gate in enumerate(circuit.gates):
        preds = set()
        for q in gate.qubits:
            if q in last_on_qubit:
                preds.add(last_on_qubit[q])
            last_on_qubit[q] = idx
        for p in preds:
            successors[p].append(idx)
            indegree[idx] += 1

    ready: Dict[Tuple, List[int]] = {}
    for idx, gate in enumerate(circuit.gates):
        if indegree[idx] == 0:
            ready.setdefault(_signature(gate.kind, gate.qubits, gate.angle), []).append(idx)

    event_errors = 0
    for pos, (kind, logical, angle) in enumerate(mapped.logical_gate_events()):
        sig = _signature(kind, logical, angle)
        queue = ready.get(sig)
        if not queue:
            event_errors += 1
            report.ok = False
            if event_errors <= MAX_ERRORS_PER_CATEGORY:
                report.add_error(
                    f"event {pos}: {kind}{logical} (angle={angle}) matches no "
                    "ready program gate (wrong gate, duplicate, or dependence "
                    "violation)"
                )
            continue
        idx = queue.pop(0)
        if not queue:
            del ready[sig]
        report.matched_gates += 1
        for succ in successors[idx]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                g = circuit.gates[succ]
                ready.setdefault(_signature(g.kind, g.qubits, g.angle), []).append(succ)

    if report.matched_gates != len(circuit.gates):
        report.add_error(
            f"mapped circuit executed {report.matched_gates} of "
            f"{len(circuit.gates)} program gates"
        )
        report.ok = False

    return report
