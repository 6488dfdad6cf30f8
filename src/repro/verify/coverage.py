"""Structural verification of mapped QFT circuits.

A mapped circuit is a *correct* hardware QFT kernel iff

1. every two-qubit op acts on coupled physical qubits,
2. the logical stamps on every op are consistent with replaying the SWAPs
   from the initial layout (i.e. the mapper's own bookkeeping is honest),
3. every logical qubit receives exactly one Hadamard,
4. every unordered logical pair ``(i, j)`` receives exactly one CPHASE with
   the correct QFT angle ``pi / 2^(j-i)``,
5. the execution order satisfies the Type II dependence
   ``H(i) < CPHASE(i, j) < H(j)`` (and additionally Type I when a mapper
   claims strict ordering).

These checks are cheap (linear in the number of ops) so they run on every
size used in the evaluation, including 1024-qubit lattice-surgery instances.
The statevector cross-check lives in :mod:`repro.verify.checker` and is only
applied to small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..circuit.dag import qft_type1_order_ok, qft_type2_order_ok
from ..circuit.gates import GateKind, qft_angle
from ..circuit.schedule import MappedCircuit
from .layout import MAX_ERRORS_PER_CATEGORY, replay_layout

__all__ = ["CoverageReport", "check_mapped_qft_structure"]


@dataclass
class CoverageReport:
    """Result of the structural checks.

    ``ok`` is True iff ``errors`` is empty.  ``errors`` holds human-readable
    messages for the first few violations of each category (capped so that a
    badly broken mapper does not produce a gigabyte of output).
    """

    num_logical: int
    ok: bool = True
    errors: List[str] = field(default_factory=list)
    h_count: int = 0
    cphase_count: int = 0
    swap_count: int = 0
    missing_pairs: int = 0
    duplicate_pairs: int = 0

    MAX_ERRORS_PER_CATEGORY = MAX_ERRORS_PER_CATEGORY

    def add_error(self, msg: str) -> None:
        self.ok = False
        if len(self.errors) < 50:
            self.errors.append(msg)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"QFT structural verification: {status}",
            f"  logical qubits : {self.num_logical}",
            f"  H gates        : {self.h_count}",
            f"  CPHASE gates   : {self.cphase_count}",
            f"  SWAP gates     : {self.swap_count}",
        ]
        if not self.ok:
            lines.append(f"  missing pairs  : {self.missing_pairs}")
            lines.append(f"  duplicate pairs: {self.duplicate_pairs}")
            lines.extend("  - " + e for e in self.errors[:10])
        return "\n".join(lines)


def check_mapped_qft_structure(
    mapped: MappedCircuit,
    num_qubits: Optional[int] = None,
    *,
    strict_order: bool = False,
    angle_atol: float = 1e-9,
) -> CoverageReport:
    """Run all structural checks on a mapped QFT circuit."""

    n = num_qubits if num_qubits is not None else mapped.num_logical
    report = CoverageReport(num_logical=n)

    # 1 + 2: adjacency and honest logical stamps -------------------------------
    report.swap_count = replay_layout(mapped, report)

    # 3 + 4: H and CPHASE coverage -------------------------------------------
    h_seen: Dict[int, int] = {}
    pair_seen: Dict[Tuple[int, int], int] = {}
    events: List[Tuple[str, Tuple[int, ...]]] = []
    for pos, op in enumerate(mapped.ops):
        if op.kind == GateKind.H:
            (lq,) = op.logical
            if lq < 0 or lq >= n:
                report.add_error(f"op {pos}: H on unknown logical qubit {lq}")
                continue
            h_seen[lq] = h_seen.get(lq, 0) + 1
            events.append(("h", (lq,)))
        elif op.kind == GateKind.CPHASE:
            la, lb = op.logical
            if min(la, lb) < 0 or max(la, lb) >= n:
                report.add_error(f"op {pos}: CPHASE on unknown logical qubits {op.logical}")
                continue
            lo, hi = (la, lb) if la < lb else (lb, la)
            pair_seen[(lo, hi)] = pair_seen.get((lo, hi), 0) + 1
            expected_angle = qft_angle(lo, hi)
            if op.angle is None or not math.isclose(
                op.angle, expected_angle, rel_tol=0.0, abs_tol=angle_atol
            ):
                report.add_error(
                    f"op {pos}: CPHASE({lo},{hi}) has angle {op.angle}, expected "
                    f"{expected_angle}"
                )
            events.append(("cphase", (lo, hi)))

    report.h_count = sum(h_seen.values())
    report.cphase_count = sum(pair_seen.values())

    missing_h = [q for q in range(n) if h_seen.get(q, 0) == 0]
    extra_h = [q for q, c in h_seen.items() if c > 1]
    for q in missing_h[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"missing H on logical qubit {q}")
    for q in extra_h[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"logical qubit {q} received {h_seen[q]} H gates")
    if missing_h or extra_h:
        report.ok = False

    expected_pairs: Set[Tuple[int, int]] = {
        (i, j) for i in range(n) for j in range(i + 1, n)
    }
    missing_pairs = expected_pairs - set(pair_seen)
    duplicate_pairs = {p: c for p, c in pair_seen.items() if c > 1}
    unexpected_pairs = set(pair_seen) - expected_pairs
    report.missing_pairs = len(missing_pairs)
    report.duplicate_pairs = len(duplicate_pairs)
    for p in sorted(missing_pairs)[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"missing CPHASE for pair {p}")
    for p in sorted(duplicate_pairs)[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"pair {p} received {duplicate_pairs[p]} CPHASE gates")
    for p in sorted(unexpected_pairs)[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"unexpected CPHASE pair {p}")
    if missing_pairs or duplicate_pairs or unexpected_pairs:
        report.ok = False

    # 5: dependence order -------------------------------------------------
    ok2, msg2 = qft_type2_order_ok(n, events)
    if not ok2:
        report.add_error(f"Type II dependence violated: {msg2}")
    if strict_order:
        ok1, msg1 = qft_type1_order_ok(n, events)
        if not ok1:
            report.add_error(f"Type I dependence violated: {msg1}")

    return report
