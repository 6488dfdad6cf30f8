"""Helpers shared by the workloads: statistics, the machine-speed probe,
``/proc`` readings and input digests."""

import hashlib
import json
import math
import os
import re
import socket
import time

#: loop count that ``CAL_REF_S`` is given for
CAL_LOOPS = 500_000
#: ``calibration_s()`` on the machine the benchmark was tuned on (a 2-vCPU
#: x86-64 VM, Python 3.11); times are scaled to this speed
CAL_REF_S = 0.047
#: how much more a workload's times move than the probe's when the machine's
#: speed changes: a time is scaled by ``(CAL_REF_S / probe) ** sensitivity``.
#: Fitted on sets of five runs of each workload (see README.md, "Machine speed").
COMPILE_SENSITIVITY = 1.4
SERVE_SENSITIVITY = 1.0
#: ``RoundTrips.probe()`` on the machine the benchmark was tuned on, and how
#: much a served cache hit's latency moves with it beyond the loop's share:
#: a hit mostly waits for processes to wake up, which a CPU-bound loop never
#: measures
ROUND_TRIP_REF_S = 0.002
ROUND_TRIP_SENSITIVITY = 0.5


def calibration_s(loops: int, clock=time.perf_counter) -> float:
    """Time a fixed pure-Python loop; it does not touch the program under test."""

    start = clock()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return clock() - start


def speed_scale(before: float, after: float, loops: int, sensitivity: float) -> float:
    """Factor that scales a time to the reference machine speed, from
    ``calibration_s(loops)`` timed right before and right after it."""

    probe = (before + after) / 2 * CAL_LOOPS / loops
    return (CAL_REF_S / probe) ** sensitivity


class RoundTrips:
    """A forked echo process; ``probe()`` times one-byte round trips to it.

    The echo process ends when this side's socket closes, so it never
    outlives the benchmark process.
    """

    TRIPS = 100

    def __init__(self):
        self.sock, theirs = socket.socketpair()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self.sock.close()
                while theirs.recv(1):
                    theirs.send(b"x")
            finally:
                os._exit(0)
        theirs.close()

    def probe(self) -> float:
        start = time.perf_counter()
        for _ in range(self.TRIPS):
            self.sock.send(b"x")
            self.sock.recv(1)
        return time.perf_counter() - start

    def close(self) -> None:
        self.sock.close()
        os.waitpid(self.pid, 0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample at or below it."""

    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def status_kb(field: str, pid="self") -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 once the process is gone)."""

    try:
        with open(f"/proc/{pid}/status") as fh:
            return int(re.search(rf"{field}:\s+(\d+)", fh.read()).group(1))
    except (OSError, AttributeError):
        return 0


def digest(inputs) -> str:
    """Short digest of generated inputs, so two runs can show they saw the same work."""

    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]
