"""The ``serve-mix`` workload: ``python -m repro.serve`` under a seeded request mix.

Each pass starts a fresh server (``--workers 1``, a fresh ``--store`` db,
``--prewarm grid:5 grid:6``), waits until ``/v1/health`` answers, computes the
hot set once (untimed, so the stream serves it from the LRU), then drives
the request stream from this process over two closed-loop connections, in
chunks with the speed probes timed between them, and drains the server
with SIGTERM.

The stream is ``STREAM`` requests: four in five repeat a hot-set entry, one
in five is a SABRE compile of QFT on grid 5 or 6 with a seed no other
request uses, so it misses every cache.  ``--seed`` orders the stream and
picks the hot entries; the set of distinct cells is the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import (
    CAL_LOOPS,
    ROUND_TRIP_REF_S,
    ROUND_TRIP_SENSITIVITY,
    SERVE_SENSITIVITY,
    RoundTrips,
    calibration_s,
    digest,
    geomean,
    percentile,
    speed_scale,
    status_kb,
)

HOT_SET = [
    ("qft", "grid", 4, "ours", {}),
    ("qft", "sycamore", 6, "ours", {}),
    ("qft", "heavyhex", 4, "ours", {}),
    ("qft", "lattice", 4, "ours", {}),
    ("qft", "lattice", 4, "lnn", {}),
    ("qft", "grid", 4, "sabre", {}),
    ("qaoa", "grid", 4, "sabre", {}),
    ("random", "grid", 4, "greedy", {}),
]
STREAM = 500
MISS_EVERY = 5
CONNECTIONS = 2
#: the stream is sent in chunks of this many requests; between each two
#: chunks, with no request in flight, the calibration loop and the round-trip
#: probe are timed, and each chunk's times are scaled by the probes around it
#: (README.md, "Machine speed"); the round trips scale only the hits
CHUNK = 50
PROBE_LOOPS = CAL_LOOPS // 10
#: in-process re-compiles per run for the response check (untimed)
CHECK_SAMPLE = 6
#: metric-row fields a served response must share with ``repro.compile``
ROW_FIELDS = ("status", "architecture", "num_qubits", "depth", "unit_depth", "swap_count",
              "cphase_count", "total_ops", "verified")
#: ``/v1/stats`` counters read before and after the stream
COUNTERS = ("requests", "computed", "lru_hits", "batches", "rejected_400", "rejected_429",
            "rejected_503", "pool_failures")


def request_stream(seed: int) -> list:
    """``(cell, is_miss)`` for every request, in stream order."""

    rng = random.Random(seed)
    misses = STREAM // MISS_EVERY
    stream = [
        (("qft", "grid", 5 + i % 2, "sabre", {"seed": 1000 + i}), True) for i in range(misses)
    ]
    stream += [(rng.choice(HOT_SET), False) for _ in range(STREAM - misses)]
    rng.shuffle(stream)
    return stream


def _request(cell):
    from repro.serve.api import CompileRequest

    workload, arch, size, approach, options = cell
    return CompileRequest(
        workload=workload, architecture=arch, size=size, approach=approach, options=dict(options)
    )


def _children(pid: int) -> list:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _fs_type(path: Path) -> str:
    best, fstype = "", "?"
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


class Server:
    """One ``repro.serve`` process; ``stop`` drains it and reaps its workers."""

    def __init__(self, root: Path, env: dict, workdir: Path, spans_path: Path | None):
        args = ["--port", "0", "--workers", "1", "--store", str(workdir / "store.db"),
                "--prewarm", "grid:5", "--prewarm", "grid:6"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            cmd = [sys.executable, str(launcher), str(spans_path), *args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        self.workers: list = []
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on (http://\S+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro.serve did not come up: {line!r}")
            from repro.serve.client import ServeClient

            self.url = f"{match.group(1)}:{match.group(2)}"
            if ServeClient(self.url).health().get("status") != "ok":
                raise RuntimeError("repro.serve is not healthy")
            self.setup_s = time.perf_counter() - started
            self.workers = _children(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return max(status_kb("VmHWM", pid) for pid in [self.proc.pid, *self.workers]) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        for pid in self.workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while any(map(_alive, self.workers)) and time.monotonic() < deadline:
            time.sleep(0.02)


def drive(url: str, requests: list, indices: range) -> list:
    """Send ``requests[indices]`` over CONNECTIONS closed loops; ``(index, ms, response)``."""

    from repro.serve.client import ServeClient

    lock = threading.Lock()
    cursor = iter(indices)
    results = []

    def loop(name: str) -> None:
        client = ServeClient(url, name=name)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.perf_counter()
            try:
                response = client.submit(requests[index])
            except Exception as exc:  # a refused or failed request counts as failed
                response = exc
            elapsed = (time.perf_counter() - start) * 1e3
            with lock:
                results.append((index, elapsed, response))

    threads = [threading.Thread(target=loop, args=(f"perfbench-{i}",)) for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(results, key=lambda r: r[0])


def run_pass(root: Path, env: dict, workdir: Path, stream: list, spans_path) -> dict:
    from repro.serve.client import ServeClient

    workdir.mkdir(parents=True)
    server = Server(root, env, workdir, spans_path)
    try:
        client = ServeClient(server.url, name="perfbench-warm")
        warm = {}
        for cell in HOT_SET:
            warm[repr(cell)] = client.submit(_request(cell))
        requests = [_request(cell) for cell, _ in stream]
        before = client.stats()
        results, scales, chunks = [], [], []
        trips = RoundTrips()
        try:
            probe, trip = calibration_s(PROBE_LOOPS), trips.probe()
            for low in range(0, len(requests), CHUNK):
                began = time.perf_counter()
                part = drive(server.url, requests, range(low, min(low + CHUNK, len(requests))))
                wall = time.perf_counter() - began
                after_probe, after_trip = calibration_s(PROBE_LOOPS), trips.probe()
                scale = speed_scale(probe, after_probe, PROBE_LOOPS, SERVE_SENSITIVITY)
                wake = (2 * ROUND_TRIP_REF_S / (trip + after_trip)) ** ROUND_TRIP_SENSITIVITY
                results += part
                # A miss waits mostly on compute; a hit mostly on processes
                # waking up, which the round trips measure.
                scales += [scale if stream[i][1] else scale * wake for i, _, _ in part]
                chunks.append((wall, scale))
                probe, trip = after_probe, after_trip
        finally:
            trips.close()
        after = client.stats()
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setup_s": server.setup_s,
        "wall_s": sum(wall for wall, _ in chunks),
        "scaled_s": sum(wall * scale for wall, scale in chunks),
        "results": results,
        "scales": scales,
        "warm": warm,
        "stats": {k: after[k] - before[k] for k in COUNTERS},
        "peak_rss_mb": peak,
        "store_fs": _fs_type(workdir),
    }


def row_of(metrics: dict) -> dict:
    return {field: metrics.get(field) for field in ROW_FIELDS}


def check_responses(passes: list, stream: list, seed: int) -> tuple:
    """``(ok, errors, rows)``: each request's response against the others of its
    cell, the expected cache path, and -- on a seeded sample of cells -- an
    in-process ``repro.compile`` of the same request."""

    import repro

    rows, errors, ok = {}, [], 0
    for p in passes:
        for cell_key, response in p["warm"].items():
            rows.setdefault(cell_key, row_of(response.metrics))
        for index, _, response in p["results"]:
            cell, is_miss = stream[index]
            key = repr(cell)
            if isinstance(response, Exception):
                errors.append(f"request {index}: {response!r}")
                continue
            good = response.status == "ok" and response.metrics.get("verified") is True
            good &= response.cache == (None if is_miss else "lru")
            row = row_of(response.metrics)
            good &= rows.setdefault(key, row) == row
            ok += good
            if not good:
                errors.append(f"request {index} ({key}): {row} cache={response.cache}")
    rng = random.Random(seed)
    sample = rng.sample(sorted(rows), CHECK_SAMPLE)
    cells = {repr(cell): cell for cell in HOT_SET + [cell for cell, _ in stream]}
    for key in sample:
        request = _request(cells[key]).normalized()
        expected = row_of(repro.compile(**request.to_compile_kwargs()).metrics().to_dict())
        if expected != rows[key]:
            errors.append(f"{key}: served {rows[key]}, in-process {expected}")
    return ok, errors, rows


def run(root: Path, env: dict, tmp: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes and check the answers; metrics as ``run.py`` prints them."""

    stream = request_stream(seed)
    passes = []
    began = time.perf_counter()
    traced = []  # a traced run alternates untraced and traced passes
    while True:
        tracing = trace and len(traced) < len(passes)
        spans_path = tmp / f"spans{len(traced)}.json" if tracing else None
        outcome = run_pass(root, env, tmp / f"pass{len(passes) + len(traced)}", stream, spans_path)
        (traced if tracing else passes).append(outcome)
        paired = not trace or len(traced) == len(passes)
        if paired and time.perf_counter() - began + outcome["wall_s"] > 1.25 * seconds:
            break
    ok, errors, rows = check_responses(passes + traced, stream, seed)

    # Latencies are scaled to the reference machine speed by the probes
    # around their chunk (see README.md, "Machine speed").
    latencies, hit_ms, overhead_ms, compute_ms = [], [], [], []
    for p in passes:
        for (index, ms, response), scale in zip(p["results"], p["scales"]):
            latencies.append(ms * scale)
            if isinstance(response, Exception):
                continue
            if not stream[index][1]:
                hit_ms.append(ms)
            elif response.wall_s is not None:
                compute_ms.append(response.wall_s * 1e3)
                overhead_ms.append(ms - response.wall_s * 1e3)
    attempted = sum(len(p["results"]) for p in passes + traced)
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": statistics.median(p["scaled_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": ok / attempted,
        "depth_per_qubit": geomean(r["depth"] / r["num_qubits"] for r in rows.values()),
        "swaps_per_qubit": geomean(r["swap_count"] / r["num_qubits"] for r in rows.values()),
        "req_p50_ms": percentile(latencies, 0.50),
        "req_p99_ms": percentile(latencies, 0.99),
    }

    last = passes[-1]
    counts = last["stats"]
    misses = [r for i, _, r in last["results"] if stream[i][1] and not isinstance(r, Exception)]
    kernels = [r.metrics.get("extra", {}).get("kernel") for r in misses]
    per_layer = {
        "circuit.ops": sum(r.metrics.get("total_ops") or 0 for r in misses),
        "baselines.swaps": sum(r.metrics.get("swap_count") or 0 for r in misses),
        "baselines.kernel_c_frac": kernels.count("c") / max(1, len(kernels)),
        "serve.hit_ms_p50": statistics.median(hit_ms),
        "serve.overhead_ms_p50": statistics.median(overhead_ms),
        "serve.compute_ms_p50": statistics.median(compute_ms),
        "serve.lru_hit_frac": counts["lru_hits"] / counts["requests"],
        "serve.batch_mean": counts["computed"] / max(1, counts["batches"]),
        "serve.rejected": sum(v for k, v in counts.items() if k.startswith("rejected_")),
        "serve.pool_failures": counts["pool_failures"],
    }
    if trace:
        writes = []
        for index in range(len(traced)):
            durations = json.loads((tmp / f"spans{index}.json").read_text())
            writes.append(durations.get("store.write", []))
        per_layer["store.writes"] = len(writes[0]) - len(HOT_SET)
        per_layer["store.write_ms_p50"] = statistics.median(ms for w in writes for ms in w)
        per_layer["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in passes)
            - 1
        )
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": attempted - ok,
        "errors": errors,
        "diagnostics": {
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_setup_s": [p["setup_s"] for p in passes],
            "pass_p50_ms": [percentile([ms for _, ms, _ in p["results"]], 0.5) for p in passes],
            "pass_p99_ms": [percentile([ms for _, ms, _ in p["results"]], 0.99) for p in passes],
            "pass_scale": [p["scaled_s"] / p["wall_s"] for p in passes],
            "req_samples": len(latencies),
            "req_beyond_p99": sum(ms > percentile(latencies, 0.99) for ms in latencies),
            "store_fs": passes[0]["store_fs"],
            "kernels": {k: kernels.count(k) for k in set(kernels)},
            "inputs_digest": digest(stream),
        },
    }
