"""The adjacency / logical-stamp replay shared by both structural verifiers.

:func:`repro.verify.layout.replay_layout` is the first pass of
``check_mapped_qft_structure`` and ``check_mapped_matches_circuit``; these
tests pin that both reports count SWAPs through it and word and cap its
violations identically.
"""

import pytest

import repro
from repro import get_workload
from repro.circuit.gates import GateKind, Op
from repro.circuit.schedule import MappedCircuit
from repro.verify import check_mapped_qft_structure
from repro.verify.generic import check_mapped_matches_circuit
from repro.verify.layout import MAX_ERRORS_PER_CATEGORY


def _routed(workload, approach="sabre"):
    return repro.compile(
        workload=workload, architecture="grid", size=4, approach=approach, verify=False
    ).mapped


@pytest.mark.parametrize("approach", ["sabre", "greedy"])
def test_reports_count_every_swap(approach):
    mapped = _routed("qft", approach)
    assert mapped.swap_count() > 0
    circuit = get_workload("qft").build(mapped.num_logical)
    coverage = check_mapped_qft_structure(mapped)
    replay = check_mapped_matches_circuit(mapped, circuit)
    assert coverage.ok and replay.ok
    assert coverage.swap_count == replay.swap_count == mapped.swap_count()


def _replay_errors(report):
    return [e for e in report.errors if "stamp" in e or "non-adjacent" in e]


def test_both_verifiers_report_the_same_replay_violations():
    mapped = _routed("qft")
    circuit = get_workload("qft").build(mapped.num_logical)
    topo = mapped.topology
    far = next(
        (a, b)
        for a in range(topo.num_qubits)
        for b in range(topo.num_qubits)
        if a != b and not topo.has_edge(a, b)
    )
    ops = list(mapped.ops)
    # Move every SWAP onto a non-adjacent pair: each one is an adjacency
    # violation, and the tracked layout drifts, so stamps break too.
    for i, op in enumerate(ops):
        if op.kind == GateKind.SWAP:
            ops[i] = Op(op.kind, far, op.logical, op.angle, op.tag)
    bad = MappedCircuit(topo, mapped.num_logical, mapped.initial_layout, ops)

    coverage = check_mapped_qft_structure(bad)
    replay = check_mapped_matches_circuit(bad, circuit)
    assert not coverage.ok and not replay.ok
    assert coverage.swap_count == replay.swap_count == mapped.swap_count()
    adjacency = [e for e in coverage.errors if "non-adjacent" in e]
    stamps = [e for e in coverage.errors if "stamp" in e]
    assert len(adjacency) == len(stamps) == MAX_ERRORS_PER_CATEGORY
    assert _replay_errors(replay) == _replay_errors(coverage)
