"""Adjacency and logical-stamp replay shared by the structural verifiers.

:func:`~repro.verify.coverage.check_mapped_qft_structure` (QFT) and
:func:`~repro.verify.generic.check_mapped_matches_circuit` (any source
circuit) both begin with the same two checks:

1. every two-qubit op acts on coupled physical qubits,
2. the logical stamps on every op are consistent with replaying the SWAPs
   from the initial layout (the mapper's own bookkeeping is honest).

:func:`replay_layout` runs both in one pass over the ops and counts the
SWAPs on the way.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict

from ..circuit.gates import GateKind
from ..circuit.schedule import MappedCircuit

__all__ = ["MAX_ERRORS_PER_CATEGORY", "replay_layout"]

#: violations reported as messages per category; later ones only clear ``ok``
MAX_ERRORS_PER_CATEGORY = 5


def replay_layout(mapped: MappedCircuit, report) -> int:
    """Check adjacency and logical stamps of ``mapped``; return its SWAP count.

    ``report`` is a verifier report (anything with an ``ok`` flag and an
    ``add_error(msg)`` method).  Every violation clears ``report.ok``; the
    first :data:`MAX_ERRORS_PER_CATEGORY` of each category are also added as
    messages.
    """

    if len(set(mapped.initial_layout)) != len(mapped.initial_layout):
        report.add_error("initial layout is not injective")
    phys_to_log: Dict[int, int] = {p: l for l, p in enumerate(mapped.initial_layout)}
    tracked = phys_to_log.get
    has_edge = mapped.topology.has_edge
    barrier, swap = GateKind.BARRIER, GateKind.SWAP
    adjacency_errors = stamp_errors = swaps = 0
    for pos, op in enumerate(mapped.ops):
        kind = op.kind
        if kind == barrier:
            continue
        if op.is_two_qubit:
            a, b = op.physical
            if not has_edge(a, b):
                adjacency_errors += 1
                report.ok = False
                if adjacency_errors <= MAX_ERRORS_PER_CATEGORY:
                    report.add_error(
                        f"op {pos}: {kind} on non-adjacent physical qubits ({a}, {b})"
                    )
        expected = tuple(map(tracked, op.physical, repeat(-1)))
        if expected != op.logical:
            stamp_errors += 1
            report.ok = False
            if stamp_errors <= MAX_ERRORS_PER_CATEGORY:
                report.add_error(
                    f"op {pos}: logical stamp {op.logical} does not match "
                    f"tracked layout {expected}"
                )
        if kind == swap:
            a, b = op.physical
            la, lb = tracked(a), tracked(b)
            if lb is None:
                phys_to_log.pop(a, None)
            else:
                phys_to_log[a] = lb
            if la is None:
                phys_to_log.pop(b, None)
            else:
                phys_to_log[b] = la
            swaps += 1
    return swaps
