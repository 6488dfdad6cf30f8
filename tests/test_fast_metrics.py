"""Equivalence of the harness's metric extraction with the scalar reference.

``result_from_mapped`` (and therefore every pinned metric in the harness)
goes through :func:`repro.eval.metrics.fast_metrics`; these tests pin it and
its one-pass depth scan :func:`repro.eval.metrics.asap_depths` to the scalar
:func:`repro.circuit.schedule.asap_depth` / counter methods over real mapper
and router outputs and adversarial synthetic streams (barriers, idle qubits,
heterogeneous and zero latencies).
"""

import random

import pytest

from repro import GridTopology, LatticeSurgeryTopology, get_workload
from repro.arch import CaterpillarTopology, LNNTopology, SycamoreTopology, Topology
from repro.baselines import SabreMapper
from repro.circuit.gates import GateKind, Op
from repro.circuit.schedule import MappedCircuit, asap_depth
import repro
from repro.eval.metrics import asap_depths, fast_metrics, mapped_op_arrays


def assert_fast_matches_reference(mapped: MappedCircuit):
    depth, unit_depth, swaps, cphases = fast_metrics(mapped)
    assert depth == mapped.depth()
    assert unit_depth == mapped.unit_depth()
    assert swaps == mapped.swap_count()
    assert cphases == mapped.cphase_count()


TOPOLOGIES = [
    LNNTopology(9),
    GridTopology(3, 3),
    SycamoreTopology(4),
    CaterpillarTopology.regular_groups(3),
    LatticeSurgeryTopology(4),  # heterogeneous (weighted) cost model
]


class TestRealMappedCircuits:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_ours_qft(self, topo):
        mapped = repro.compile(
            workload="qft", architecture=topo, approach="ours", verify=False
        ).mapped
        assert_fast_matches_reference(mapped)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_sabre_qft(self, topo):
        assert_fast_matches_reference(SabreMapper(topo, seed=3).map_qft())

    @pytest.mark.parametrize("name", ["qaoa", "random"])
    def test_lattice_weighted_depth_on_new_workloads(self, name):
        topo = LatticeSurgeryTopology(3)
        wl = get_workload(name)
        mapped = wl.map_with(SabreMapper(topo, seed=5), 9)
        assert_fast_matches_reference(mapped)


#: the routed device families of the benchmark, at test-sized instances
ROUTED_DEVICES = [("grid", 4), ("heavyhex", 4), ("sycamore", 4)]


class TestRoutedStreams:
    """Router outputs: dependent, unstructured streams (few parallel ops)."""

    @pytest.mark.parametrize("approach", ["sabre", "greedy"])
    @pytest.mark.parametrize("workload", ["qft", "qaoa", "random"])
    @pytest.mark.parametrize(
        "arch,size", ROUTED_DEVICES, ids=[f"{a}{n}" for a, n in ROUTED_DEVICES]
    )
    def test_router_output(self, arch, size, workload, approach):
        result = repro.compile(
            workload=workload,
            architecture=arch,
            size=size,
            approach=approach,
            verify=False,
        )
        assert result.status == "ok"
        assert_fast_matches_reference(result.mapped)


def _random_stream(seed: int, num_sites: int, n_ops: int, barriers: bool):
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if barriers and r < 0.03:
            ops.append(Op(GateKind.BARRIER, (), ()))
        elif r < 0.4:
            q = rng.randrange(num_sites)
            ops.append(Op(GateKind.H, (q,), (-1,)))
        else:
            a, b = rng.sample(range(num_sites), 2)
            kind = rng.choice([GateKind.CPHASE, GateKind.SWAP, GateKind.CNOT])
            angle = 0.5 if kind == GateKind.CPHASE else None
            ops.append(Op(kind, (a, b), (-1, -1), angle))
    return ops


def _packed(ops, num_sites):
    _, q0, q1 = mapped_op_arrays(
        MappedCircuit(None, num_sites, list(range(num_sites)), ops)
    )
    return q0.tolist(), q1.tolist()


class TestSyntheticStreams:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("barriers", [False, True])
    def test_unit_latency_streams(self, seed, barriers):
        num_sites = 7
        ops = _random_stream(seed, num_sites, 300, barriers)
        q0, q1 = _packed(ops, num_sites)
        expected = asap_depth(ops, lambda op: 1)
        lat = [1] * len(ops)
        assert asap_depths(q0, q1, lat, num_sites) == (expected, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_latency_streams(self, seed):
        # arbitrary per-op integer latencies, including zero-latency ops
        num_sites = 6
        ops = _random_stream(seed, num_sites, 200, barriers=True)
        rng = random.Random(seed + 100)
        weights = [rng.randrange(0, 5) for _ in ops]
        lat_of = {id(op): w for op, w in zip(ops, weights)}
        q0, q1 = _packed(ops, num_sites)
        assert asap_depths(q0, q1, weights, num_sites) == (
            asap_depth(ops, lambda op: lat_of[id(op)]),
            asap_depth(ops, lambda op: 1),
        )

    def test_empty_stream(self):
        mapped = MappedCircuit(GridTopology(2, 2), 4, [0, 1, 2, 3], [])
        assert fast_metrics(mapped) == (0, 0, 0, 0)


def _barrier():
    return Op(GateKind.BARRIER, (), ())


def _gate_stream(topo, n_ops, seed):
    """Barrier-free random H/CPHASE/SWAP stream on ``topo``'s links."""

    rng = random.Random(seed)
    edges = topo.edge_list()
    ops = []
    for _ in range(n_ops):
        if rng.random() < 0.4:
            q = rng.randrange(topo.num_qubits)
            ops.append(Op(GateKind.H, (q,), (-1,)))
        else:
            kind = rng.choice([GateKind.CPHASE, GateKind.SWAP])
            angle = 0.5 if kind == GateKind.CPHASE else None
            ops.append(Op(kind, rng.choice(edges), (-1, -1), angle))
    return ops


BARRIER_TOPOLOGIES = [
    GridTopology(1, 6),
    LatticeSurgeryTopology(3),  # weighted, fast and slow SWAP links
]


class TestBarrierPlacement:
    @pytest.mark.parametrize("topo", BARRIER_TOPOLOGIES, ids=lambda t: t.name)
    def test_leading_barrier(self, topo):
        ops = [_barrier()] + _gate_stream(topo, 60, seed=1)
        mapped = MappedCircuit(topo, 0, [], ops)
        assert_fast_matches_reference(mapped)

    @pytest.mark.parametrize("topo", BARRIER_TOPOLOGIES, ids=lambda t: t.name)
    def test_back_to_back_barriers(self, topo):
        head = _gate_stream(topo, 40, seed=2)
        tail = _gate_stream(topo, 40, seed=3)
        ops = head + [_barrier(), _barrier(), _barrier()] + tail + [_barrier()]
        mapped = MappedCircuit(topo, 0, [], ops)
        assert_fast_matches_reference(mapped)

    @pytest.mark.parametrize("topo", BARRIER_TOPOLOGIES, ids=lambda t: t.name)
    def test_barrier_only_stream(self, topo):
        mapped = MappedCircuit(topo, 0, [], [_barrier() for _ in range(4)])
        assert fast_metrics(mapped) == (0, 0, 0, 0)
        assert_fast_matches_reference(mapped)


class TestCustomCostModelFallback:
    def test_scalar_only_override_falls_back_to_reference(self):
        class OddTopology(Topology):
            def op_latency(self, op):
                return 3 if op.kind == GateKind.SWAP else 1

        topo = OddTopology(4, [(0, 1), (1, 2), (2, 3)], name="odd")
        assert topo.op_latency_array(*mapped_op_arrays(
            MappedCircuit(topo, 2, [0, 1], [])
        )) is None
        mapped = SabreMapper(topo, seed=1).map_qft(4)
        assert_fast_matches_reference(mapped)

    def test_scalar_override_is_never_asked_to_price_a_barrier(self):
        class StrictTopology(Topology):
            def op_latency(self, op):
                if op.kind == GateKind.BARRIER:
                    raise AssertionError("op_latency called on a barrier")
                return 2 if op.kind == GateKind.SWAP else 1

        topo = StrictTopology(6, [(i, i + 1) for i in range(5)], name="strict")
        head = _gate_stream(topo, 30, seed=4)
        tail = _gate_stream(topo, 30, seed=5)
        ops = [_barrier()] + head + [_barrier(), _barrier()] + tail
        mapped = MappedCircuit(topo, 0, [], ops)
        assert_fast_matches_reference(mapped)
