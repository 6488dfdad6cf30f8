"""The repository's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-qft --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Before measuring it builds the compiled
SABRE kernel in place if it is missing or older than its source (this build
is not part of any metric), and every compiling process runs with
``REPRO_SABRE_KERNEL=c``, so a missing kernel fails the run instead of
timing the Python engine.

Workloads (see README.md for why each exists):

* ``paper-qft``  -- the paper's QFT points, compiled in-process;
* ``routed-mix`` -- SABRE and greedy routing over qft/qaoa/random;
* ``serve-mix``  -- ``python -m repro.serve`` under a hit-heavy request mix.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The line before it is a JSON object of
drift diagnostics that no gate reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from stats import calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-qft", "routed-mix", "serve-mix")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_SABRE_KERNEL="c", PYTHONHASHSEED="0")
    return env


def prepare() -> None:
    """Check the source tree is here and build the SABRE kernel if needed."""

    source = SRC / "repro" / "baselines" / "_sabre_kernel.c"
    if not (ROOT / "setup.py").is_file() or not source.is_file():
        raise SystemExit(f"perfbench: no repro source tree at {ROOT}")
    built = list(source.parent.glob("_sabre_kernel*.so"))
    if built and min(p.stat().st_mtime for p in built) >= source.stat().st_mtime:
        return
    env = {**child_env(), "REPRO_REQUIRE_KERNEL": "1"}
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit("perfbench: building the SABRE kernel failed")


def steal_ticks() -> int:
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    env = child_env()
    # This process is the serve-mix client and re-compiles its sample.
    os.environ.update(REPRO_SABRE_KERNEL="c")
    sys.path[:0] = [str(SRC), str(HERE)]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    calibration = [calibration_s(1_000_000)]
    steal = steal_ticks()
    try:
        if args.workload == "serve-mix":
            import serve_mix

            outcome = serve_mix.run(ROOT, env, tmp, args.seed, args.seconds, bool(args.trace))
        else:
            import compile_bench

            outcome = compile_bench.run(
                ROOT, env, tmp, args.workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calibration.append(calibration_s(1_000_000))

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit(),
        "source_digest": source_digest(),
        "calibration_s": calibration,
        "steal_ticks": steal_ticks() - steal,
        "errors": outcome["errors"][:20],
        **outcome["diagnostics"],
    }
    print(json.dumps({"diagnostics": diagnostics}))
    # Metric names and units come from BENCHMARK.json.  Every end-to-end
    # metric must be measured; a layer a workload does not run reports 0.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = {s["name"]: outcome["per_layer"].get(s["name"], 0) for s in declared["per_layer"]}
        specs = declared["per_layer"]
    else:
        values, specs = outcome["end_to_end"], declared["end_to_end"]
    result = {
        "correct": not outcome["errors"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
