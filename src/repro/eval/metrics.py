"""Result records and metric extraction for the evaluation harness.

Every compile row takes its metrics from :func:`fast_metrics`: the op stream
is packed once into numpy arrays (:func:`mapped_op_arrays`), priced by the
topology's cost model, and scanned once by :func:`asap_depths`, a plain
Python loop over lists that computes the weighted and the unit ASAP depth
together; the SWAP/CPHASE counts are ``count_nonzero`` calls on the packed
kinds.  The scalar reference :func:`repro.circuit.schedule.asap_depth`
(behind ``MappedCircuit.depth()`` / ``unit_depth()``) stays as the oracle
the tests pin this path to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappedCircuit

__all__ = [
    "CompilationResult",
    "result_from_mapped",
    "mapped_op_arrays",
    "asap_depths",
    "fast_metrics",
]


def mapped_op_arrays(
    mapped: MappedCircuit,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack ``mapped.ops`` into ``(kind codes, q0, q1)`` numpy arrays.

    ``q1`` is ``-1`` for single-qubit ops and barriers; kind codes follow
    :data:`~repro.circuit.gates.KIND_CODES`.
    """

    ops = mapped.ops
    m = len(ops)
    codes = KIND_CODES
    kinds = np.fromiter((codes[op.kind] for op in ops), dtype=np.int8, count=m)
    q0 = np.fromiter(
        (op.physical[0] if op.physical else -1 for op in ops), dtype=np.int64, count=m
    )
    q1 = np.fromiter(
        (op.physical[1] if len(op.physical) > 1 else -1 for op in ops),
        dtype=np.int64,
        count=m,
    )
    return kinds, q0, q1


def asap_depths(q0, q1, lat, num_sites: int) -> Tuple[int, int]:
    """``(weighted, unit)`` ASAP depth of a packed op stream in one pass.

    ``q0`` / ``q1`` / ``lat`` are per-op sequences (lists iterate fastest):
    the physical operands as packed by :func:`mapped_op_arrays` and the
    weighted latency of each op.  ``q0 == -1`` marks a barrier, the only op
    without operands.  Every op starts at the latest busy time of its
    qubits and occupies them until ``start + latency``; the unit depth runs
    the same schedule with every latency 1.  A barrier is a global fence:
    it lifts every qubit's busy time to the depth so far.  Equal to
    :func:`repro.circuit.schedule.asap_depth` under both cost models for
    non-negative latencies.
    """

    busy = [0] * num_sites
    ubusy = [0] * num_sites
    depth = udepth = 0
    for a, b, w in zip(q0, q1, lat):
        if b >= 0:
            s, t = busy[a], busy[b]
            e = (s if s > t else t) + w
            busy[a] = busy[b] = e
            if e > depth:
                depth = e
            s, t = ubusy[a], ubusy[b]
            e = (s if s > t else t) + 1
            ubusy[a] = ubusy[b] = e
            if e > udepth:
                udepth = e
        elif a >= 0:
            e = busy[a] + w
            busy[a] = e
            if e > depth:
                depth = e
            e = ubusy[a] + 1
            ubusy[a] = e
            if e > udepth:
                udepth = e
        else:
            busy = [depth] * num_sites
            ubusy = [udepth] * num_sites
    return depth, udepth


def fast_metrics(mapped: MappedCircuit) -> Tuple[int, int, int, int]:
    """``(depth, unit_depth, swap_count, cphase_count)`` of a mapped circuit.

    Ops are priced by the topology's ``op_latency_array``.  A topology that
    overrides only the scalar ``op_latency`` gets ``None`` from it and is
    priced op by op instead (never on a barrier, which costs nothing).
    """

    kinds, q0, q1 = mapped_op_arrays(mapped)
    topo = mapped.topology
    lat = topo.op_latency_array(kinds, q0, q1)
    if lat is None:
        latency = topo.op_latency
        lat = [0 if op.kind == GateKind.BARRIER else latency(op) for op in mapped.ops]
    else:
        lat = lat.tolist()
    depth, unit_depth = asap_depths(
        q0.tolist(), q1.tolist(), lat, int(topo.num_qubits)
    )
    swap_count = int(np.count_nonzero(kinds == KIND_CODES[GateKind.SWAP]))
    cphase_count = int(np.count_nonzero(kinds == KIND_CODES[GateKind.CPHASE]))
    return depth, unit_depth, swap_count, cphase_count


def _jsonify(value: object) -> object:
    """Coerce a metadata value to something json.dumps accepts."""

    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return str(value)


@dataclass
class CompilationResult:
    """One cell of a results table: a (workload, approach, architecture,
    size) tuple.

    ``status`` is ``"ok"``, ``"timeout"`` (the paper's TLE), ``"skipped"``
    (size above the harness cap for that approach) or ``"unsupported"``
    (the approach cannot compile this workload/architecture combination).
    Metric fields are ``None`` unless ``status == "ok"``.
    """

    approach: str
    architecture: str
    num_qubits: int
    status: str = "ok"
    depth: Optional[int] = None
    unit_depth: Optional[int] = None
    swap_count: Optional[int] = None
    cphase_count: Optional[int] = None
    total_ops: Optional[int] = None
    compile_time_s: Optional[float] = None
    verified: Optional[bool] = None
    message: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)
    workload: str = "qft"

    # -- convenience -------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # -- (de)serialisation (used by the on-disk result cache) --------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict representation (``extra`` values coerced via str)."""

        return {
            "workload": self.workload,
            "approach": self.approach,
            "architecture": self.architecture,
            "num_qubits": self.num_qubits,
            "status": self.status,
            "depth": self.depth,
            "unit_depth": self.unit_depth,
            "swap_count": self.swap_count,
            "cphase_count": self.cphase_count,
            "total_ops": self.total_ops,
            "compile_time_s": self.compile_time_s,
            "verified": self.verified,
            "message": self.message,
            "extra": {k: _jsonify(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompilationResult":
        fields = {
            "workload",
            "approach",
            "architecture",
            "num_qubits",
            "status",
            "depth",
            "unit_depth",
            "swap_count",
            "cphase_count",
            "total_ops",
            "compile_time_s",
            "verified",
            "message",
            "extra",
        }
        return cls(**{k: v for k, v in data.items() if k in fields})

    def depth_per_qubit(self) -> Optional[float]:
        if self.depth is None or self.num_qubits == 0:
            return None
        return self.depth / self.num_qubits

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "approach": self.approach,
            "architecture": self.architecture,
            "qubits": self.num_qubits,
            "status": self.status,
            "depth": self.depth if self.depth is not None else "-",
            "swaps": self.swap_count if self.swap_count is not None else "-",
            "cphase": self.cphase_count if self.cphase_count is not None else "-",
            "compile_s": (
                f"{self.compile_time_s:.2f}" if self.compile_time_s is not None else "-"
            ),
            "verified": self.verified if self.verified is not None else "-",
            "message": self.message or "",
        }


def result_from_mapped(
    approach: str,
    architecture: str,
    mapped: MappedCircuit,
    compile_time_s: float,
    verified: Optional[bool] = None,
    *,
    workload: str = "qft",
) -> CompilationResult:
    """Build a :class:`CompilationResult` from a mapped circuit.

    The depths and gate counts come from :func:`fast_metrics` (one packing
    pass and one depth scan over the op stream).
    """

    depth, unit_depth, swap_count, cphase_count = fast_metrics(mapped)
    return CompilationResult(
        approach=approach,
        architecture=architecture,
        num_qubits=mapped.num_logical,
        status="ok",
        depth=depth,
        unit_depth=unit_depth,
        swap_count=swap_count,
        cphase_count=cphase_count,
        total_ops=len(mapped.ops),
        compile_time_s=compile_time_s,
        verified=verified,
        extra=dict(mapped.metadata),
        workload=workload,
    )
