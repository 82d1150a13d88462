"""Benchmark entry point.

    python3 perfbench/run.py --workload epi_cone --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Makes the workload's inputs from the
seed, times the set-up in fresh processes, runs the workload in its own
process against the program under ``src/``, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Details of
the run (per-operation times, any failed checks, the environment) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SOURCE = ROOT / "src" / "gmtepi"
SETUP_PROBES = 7  # set-up is timed this often per run; the median is reported
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402


def child_env() -> dict:
    """The program from this checkout, default serial scans, one BLAS thread."""
    env = dict(os.environ)
    env.pop("GMT_EPI_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode: str, spec: Path, out: Path, deadline: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(spec), str(out), *map(str, extra)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "__init__.py").is_file():
        print(f"no program source at {SOURCE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)

    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    spec = inputs.make_inputs(args.workload, args.seed, str(run_dir / "chains"))
    spec["source"] = str(SOURCE)
    spec_path = run_dir / "spec.json"
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    deadline = start + TIME_LIMIT_S
    # the first probe compiles bytecode and warms the file cache; not counted
    tag = f"trace{args.trace}"
    try:
        probes = [run_worker("setup", spec_path, run_dir / "setup.json", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES + 1)][1:]
        res = run_worker("run", spec_path, run_dir / f"{tag}.json", deadline, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        table, wanted = res["layers"], declared["per_layer"]
    else:
        table = dict(res["metrics"], setup_s=statistics.median(probes))
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "setup_probes_s": probes, **{k: v for k, v in res.items() if k != "metrics"},
               "summary": summary}
    with open(run_dir / f"result-{tag}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    for p in res["problems"]:
        print(f"operation {p['op']} failed: {'; '.join(p['problems'])}", file=sys.stderr)
    if res.get("absent"):
        print(f"absent from the program: {', '.join(res['absent'])}")
    print("env " + json.dumps(res["env"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
