"""Compile workloads (``paper-qft``, ``routed-mix``), run in a child process.

``python3 perfbench/compile_bench.py WORKLOAD SEED SECONDS TRACE MODE``
with ``PYTHONPATH=src``.  The process imports ``repro``, warms the
topologies of every cell and pins the SABRE engine, then prints ``READY``;
the parent times process start to that line as set-up.  With MODE
``setup`` it exits there.  With MODE ``run`` it compiles the workload's
cells in passes, each cell through ``repro.compile(..., verify=True)`` and
``.metrics()``, and prints one JSON report as its last line.

Between cells, outside the timed region, the process resets its peak-RSS
counter, so every cell's peak is its own.  Each distinct cell's output is
checked once per run with :mod:`check`; later passes must reproduce the
first pass's metric row exactly.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time

from check import check_mapped, circuit_gates, qft_gates
from spans import Tracer
from stats import (
    CAL_LOOPS,
    COMPILE_SENSITIVITY,
    calibration_s,
    digest,
    geomean,
    percentile,
    speed_scale,
    status_kb,
)

#: ``(workload, architecture, size, approach)``; the paper's own points.
#: Their costs are spread so that the median cell is always the same one.
PAPER_QFT = [
    ("qft", "heavyhex", 4, "ours"),
    ("qft", "heavyhex", 10, "ours"),
    ("qft", "sycamore", 4, "ours"),
    ("qft", "sycamore", 6, "ours"),
    ("qft", "sycamore", 10, "ours"),
    ("qft", "lattice", 10, "ours"),
    ("qft", "lattice", 16, "ours"),
    ("qft", "lattice", 16, "lnn"),
]

ROUTED_MIX = [
    (workload, arch, size, approach)
    for arch, size in (("grid", 5), ("grid", 7), ("heavyhex", 8), ("sycamore", 6))
    for workload in ("qft", "qaoa", "random")
    for approach in ("sabre", "greedy")
]

CELLS = {"paper-qft": PAPER_QFT, "routed-mix": ROUTED_MIX}
#: calls per pass of the cells that set ``req_p50_ms`` and ``req_p99_ms``
#: (and of cells cheaper than those on ``paper-qft``), so that their
#: latencies are medians of more calls; other cells: 1
REPEATS = {
    ("qft", "sycamore", 4, "ours"): 16,
    ("qft", "heavyhex", 4, "ours"): 16,
    ("qft", "sycamore", 6, "ours"): 5,
    ("qft", "heavyhex", 10, "ours"): 4,
    ("qaoa", "grid", 7, "greedy"): 3,
    ("qaoa", "heavyhex", 8, "greedy"): 3,
    ("qaoa", "grid", 7, "sabre"): 3,
}
#: compiled once per run after the passes, for ``peak_rss_mb``: the
#: paper's 1024-qubit lattice point (too slow to repeat within a run)
MEMORY_CELL = {"paper-qft": ("qft", "lattice", 32, "ours")}
#: set-up-only child processes per run, besides the one that runs the passes
SETUP_PROBES = 5
#: loop count of the calibration probe timed (in CPU time, like the calls)
#: between each two compile calls; the machine's speed changes within a
#: second, so each call is scaled by the probes right before and right after
#: it (see README.md, "Machine speed")
CELL_PROBE_LOOPS = CAL_LOOPS // 10
ANALYTIC = frozenset({"ours", "lnn"})
#: fields of a metric row that must repeat exactly between passes
ROW_FIELDS = (
    "status", "depth", "unit_depth", "swap_count", "cphase_count", "total_ops", "verified"
)


def cells_for(workload: str, seed: int) -> list:
    """The workload's cells in the seeded order every pass uses."""

    cells = list(CELLS[workload])
    random.Random(seed).shuffle(cells)
    return cells


def _reset_peak() -> bool:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _instrument(tracer) -> dict:
    """Wrap the public callables of each layer; returns the call context."""

    import repro.arch.registry as arch_registry
    import repro.circuit.qft as qft_module
    import repro.compile_api as compile_api
    import repro.eval.runners as runners
    from repro.workloads import WORKLOADS

    context = {"map_layer": "core.map"}

    def map_layer() -> str:
        return context["map_layer"]

    def wrap_bindings(original, name) -> None:
        # Modules import these functions by name; patch every binding.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        tracer.wrap(module, attr, name)

    wrap_bindings(arch_registry.make_architecture, "arch.build")
    wrap_bindings(runners.prepare_topology, "arch.build")
    wrap_bindings(qft_module.qft_circuit, "workloads.build")
    tracer.wrap(compile_api, "make_mapper", map_layer)
    layers = (("build", "workloads.build"), ("map_with", map_layer), ("verify", "verify.check"))
    for name in WORKLOADS.names():
        for cls in type(WORKLOADS.get(name)).__mro__:
            for attr, layer in layers:
                if attr in vars(cls) and not hasattr(vars(cls)[attr], "__wrapped__"):
                    tracer.wrap(cls, attr, layer)
    return context


def setup(workload: str, cells: list, tracer):
    import repro
    import repro.eval.runners as runners

    context = _instrument(tracer) if tracer.enabled else {}
    extra = [MEMORY_CELL[workload]] if workload in MEMORY_CELL else []
    for arch, size in sorted({(c[1], c[2]) for c in cells + extra}):
        runners.prepare_topology(arch, size)
    # Pin the routing engine: with REPRO_SABRE_KERNEL=c a missing kernel
    # raises here, before any timing.
    probe = repro.compile("qft", "grid", 3, "sabre")
    kernel = probe.mapped.metadata.get("kernel")
    if kernel != "c":
        raise SystemExit(f"SABRE ran on the {kernel!r} engine, not the C kernel")
    return repro, context


def _check(result, workload: str):
    from repro.workloads import get_workload

    n = result.num_qubits
    if workload == "qft":
        return check_mapped(result.mapped, qft_gates(n))
    program = get_workload(workload).build(n, **result.params)
    return check_mapped(result.mapped, circuit_gates(program))


def _check_in_fork(check):
    """Run ``check`` in a forked copy of this process.

    The check's own allocations then never reach this process's resident
    set, so the next cell's peak RSS is not inflated by them.
    """

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        gc.disable()  # the check only allocates; collections just cost time
        try:
            message = check() or ""
        except BaseException as exc:
            message = f"check raised {exc!r}"
        os.write(write_end, message.encode()[:4000])
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        message = fh.read().decode()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return f"check process ended with status {status}"
    return message or None


def run_pass(repro, cells, state, tracer, context) -> dict:
    """Compile every cell ``REPEATS`` times.

    ``cell_ms[j]`` holds the CPU times of cell j's calls and ``cell_scale[j]``
    their scale factors.  The calls run in this one thread and do no I/O, so
    their CPU time is their wall time less what the host took away.
    """

    cell_ms, cell_scale, walls = [], [], []
    ops = swaps = 0
    before = calibration_s(CELL_PROBE_LOOPS, time.process_time)
    for cell in cells:
        workload, arch, size, approach = cell
        key = "/".join(map(str, cell))
        if context:
            context["map_layer"] = "core.map" if approach in ANALYTIC else "baselines.route"
        samples, scales = [], []
        for _ in range(REPEATS.get(cell, 1)):
            can_reset = _reset_peak()
            rss_before = status_kb("VmRSS")
            start = time.perf_counter_ns()
            cpu_start = time.process_time_ns()
            with tracer.span("compile"):
                result = repro.compile(workload, arch, size, approach, verify=True)
            with tracer.span("eval.metrics"):
                row = result.metrics()
            samples.append((time.process_time_ns() - cpu_start) / 1e6)
            walls.append((time.perf_counter_ns() - start) / 1e6)
            peak_kb = status_kb("VmHWM")
            after = calibration_s(CELL_PROBE_LOOPS, time.process_time)
            scales.append(speed_scale(before, after, CELL_PROBE_LOOPS, COMPILE_SENSITIVITY))
            before = after

            state["attempted"] += 1
            fields = [getattr(row, f) for f in ROW_FIELDS]
            first = state["rows"].get(key)
            if first is None:
                error = None
                if result.status != "ok" or result.verified is not True:
                    error = f"status {result.status}, verified {result.verified}: {result.message}"
                else:
                    error = _check_in_fork(lambda: _check(result, workload))
                state["rows"][key] = fields
                state["cells"][key] = {
                    "qubits": row.num_qubits,
                    "depth": row.depth,
                    "swaps": row.swap_count,
                    "ops": row.total_ops,
                    "peak_mb": peak_kb / 1024 if can_reset else None,
                    "bytes_per_op": (peak_kb - rss_before) * 1024 / max(1, row.total_ops or 0),
                    "error": error,
                }
                ok = error is None
            else:
                ok = fields == first and state["cells"][key]["error"] is None
                if fields != first:
                    state["errors"].append(f"{key}: row differs between calls")
            state["ok"] += ok
            state["peak_kb"] = max(state["peak_kb"], peak_kb)
            kernel = row.extra.get("kernel")
            if kernel is not None:
                state["kernels"][kernel] = state["kernels"].get(kernel, 0) + 1
            ops += row.total_ops or 0
            if approach not in ANALYTIC:
                swaps += row.swap_count or 0
            del result, row
        cell_ms.append(samples)
        cell_scale.append(scales)
    return {
        "wall_s": sum(walls) / 1e3,
        "cpu_s": sum(map(sum, cell_ms)) / 1e3,
        "scaled_s": sum(
            t * f for times, scales in zip(cell_ms, cell_scale) for t, f in zip(times, scales)
        )
        / 1e3,
        "cell_ms": cell_ms,
        "cell_scale": cell_scale,
        "ops": ops,
        "swaps": swaps,
    }


def _spawn(root, env, args, mode):
    """Start a child in ``mode``; returns it and its start-to-READY seconds."""

    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, *args, mode],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"compile child failed during set-up (exit {proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, time.perf_counter() - started


def run(root, env, tmp, workload, seed, seconds, trace) -> dict:
    """Parent side: set-up probes, then one child that runs the passes."""

    args = [workload, str(seed), str(seconds), "1" if trace else "0"]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = _spawn(root, env, args, "setup")
        proc.communicate(timeout=60)
        setups.append(ready)
    proc, ready = _spawn(root, env, args, "run")
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"compile child exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])

    passes, cells = report["passes"], report["cells"].values()
    # One latency per cell: the median of its calls over the passes, each
    # time scaled to the reference machine speed by the probes around it.
    cell_ms = [
        statistics.median(
            ms * f for p in passes for ms, f in zip(p["cell_ms"][j], p["cell_scale"][j])
        )
        for j in range(len(report["timed_cells"]))
    ]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["scaled_s"] for p in passes),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_frac": report["ok"] / report["attempted"],
        "depth_per_qubit": geomean(c["depth"] / c["qubits"] for c in cells),
        "swaps_per_qubit": geomean(c["swaps"] / c["qubits"] for c in cells),
        "req_p50_ms": percentile(cell_ms, 0.50),
        "req_p99_ms": percentile(cell_ms, 0.99),
    }
    kernels = report["kernels"]
    per_layer = {}
    traced = report["traced"]
    if traced is not None:
        self_s, setup_self = traced["self_s"], traced["setup_self_s"]
        layers = {k: v for k, v in self_s.items() if k != "compile"}
        largest = max(cells, key=lambda c: c["ops"])
        per_layer = {
            "arch.build_s": self_s.get("arch.build", 0.0) + setup_self.get("arch.build", 0.0),
            "workloads.build_s": self_s.get("workloads.build", 0.0),
            "circuit.ops": traced["ops"],
            "circuit.bytes_per_op": largest["bytes_per_op"],
            "core.map_s": self_s.get("core.map", 0.0),
            "baselines.route_s": self_s.get("baselines.route", 0.0),
            "baselines.swaps": traced["swaps"],
            "baselines.kernel_c_frac": kernels.get("c", 0) / sum(kernels.values()),
            "verify.check_s": self_s.get("verify.check", 0.0),
            "eval.metrics_s": self_s.get("eval.metrics", 0.0),
            "trace.coverage": sum(layers.values()) / statistics.mean(traced["wall_s"]),
            "trace.overhead_frac": statistics.median(traced["wall_s"])
            / statistics.median(p["wall_s"] for p in passes)
            - 1,
        }
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": report["attempted"],
        "failed": report["attempted"] - report["ok"],
        "errors": report["errors"],
        "diagnostics": {
            "pass_wall_s": [p["wall_s"] for p in passes],
            # about 1 while the compile calls have a CPU to themselves
            "pass_cpu_over_wall": [p["cpu_s"] / p["wall_s"] for p in passes],
            "pass_scale": [p["scaled_s"] / p["cpu_s"] for p in passes],
            "memory_cell_s": report["memory_cell_s"],
            "setup_samples_s": setups,
            "req_samples": len(cell_ms),
            "req_beyond_p99": sum(ms > end_to_end["req_p99_ms"] for ms in cell_ms),
            "kernels": kernels,
            "inputs_digest": report["inputs_digest"],
            "cells": {
                k: [c["qubits"], c["depth"], c["swaps"], c["ops"], c["peak_mb"]]
                for k, c in report["cells"].items()
            },
        },
    }


def main(argv) -> int:
    workload, seed, seconds, trace, mode = argv
    seconds = float(seconds)
    cells = cells_for(workload, int(seed))
    tracer = Tracer()
    tracer.enabled = trace == "1"
    repro, context = setup(workload, cells, tracer)
    setup_trace = dict(tracer.self_ns)
    tracer.enabled = False
    print("READY", flush=True)
    if mode == "setup":
        return 0

    state = {
        "attempted": 0,
        "ok": 0,
        "rows": {},
        "cells": {},
        "errors": [],
        "kernels": {"c": 1},  # the set-up probe
        "peak_kb": 0,
    }
    # A traced run alternates untraced and traced passes; the difference of
    # their medians is the tracing overhead.
    passes, traced = [], []
    tracer.reset()
    began = time.perf_counter()
    while True:
        tracing = trace == "1" and len(traced) < len(passes)
        tracer.enabled = tracing
        pass_began = time.perf_counter()
        outcome = run_pass(repro, cells, state, tracer, context)
        tracer.enabled = False
        (traced if tracing else passes).append(outcome)
        now = time.perf_counter()
        paired = trace == "0" or len(traced) == len(passes)
        if paired and now - began + now - pass_began > 1.25 * seconds:
            break
    # The large cell runs after the passes, so they never run in the heap it
    # leaves behind.
    memory_cell_s = None
    if workload in MEMORY_CELL:
        memory_cell_s = run_pass(repro, [MEMORY_CELL[workload]], state, tracer, context)["wall_s"]
    if traced:
        traced = {
            "wall_s": [p["wall_s"] for p in traced],
            "ops": traced[0]["ops"],
            "swaps": traced[0]["swaps"],
            "self_s": {k: v / 1e9 / len(traced) for k, v in tracer.self_ns.items()},
            "setup_self_s": {k: v / 1e9 for k, v in setup_trace.items()},
        }
    report = {
        "passes": passes,
        "traced": traced or None,
        "cells": state["cells"],
        "attempted": state["attempted"],
        "ok": state["ok"],
        "errors": state["errors"]
        + [f"{k}: {c['error']}" for k, c in state["cells"].items() if c["error"]],
        "kernels": state["kernels"],
        "peak_rss_mb": state["peak_kb"] / 1024,
        "memory_cell_s": memory_cell_s,
        "timed_cells": ["/".join(map(str, c)) for c in cells],
        "inputs_digest": digest(cells),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
