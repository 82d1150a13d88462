"""One benchmark process for one workload, started by ``run.py``.

    python3 perfbench/worker.py setup SPEC OUT
    python3 perfbench/worker.py run SPEC OUT SECONDS TRACE

``setup`` measures the CPU time of ``import gmtepi`` plus
``chainfile.load_chain`` of the workload's chain files, and exits.
``run`` runs whole rounds of the workload's operations, one at a time,
until SECONDS of wall time have passed.  It times each operation by its
CPU time and keeps the wall time alongside, checks every output against
the reference values in SPEC outside the timed region, and writes its
measurements to OUT as JSON.  With TRACE 1 the program's public functions
are wrapped, and per-layer totals and the spans are written as well.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def cpu_clock() -> float:
    """CPU seconds of this process, all its threads, and its reaped children.

    On a shared virtual machine the host takes the CPU away at times
    (steal); wall time counts those pauses, CPU time does not.
    """
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def reference_work_s(chunks: int = 8) -> list[float]:
    """CPU times of a fixed, program-independent job in small chunks.

    Small numpy calls inside a Python loop, like the program's own work;
    their median tracks the host's speed at the time of the run.
    """
    import numpy as np

    a = np.arange(9.0).reshape(3, 3)
    times = []
    for _ in range(chunks):
        c = cpu_clock()
        acc = {}
        for i in range(20000):
            q = np.linalg.norm(a[i % 3] - a[(i + 1) % 3])
            acc[i % 17] = acc.get(i % 17, 0.0) + float(q) * 0.5
        times.append(cpu_clock() - c)
    return times


# Outputs that are exact in real arithmetic must sit at the rounding floor;
# beta_2 is a square root of such a quantity.
FLOOR = 1e-10
BETA2_FLOOR = 1e-6


def op_epi_cone(gmtepi, chain, op, spec):
    return gmtepi.build_comparison(chain)[1]


def check_epi_cone(rep, op, spec) -> list[str]:
    problems = []
    if rep.degenerate:
        problems.append("degenerate report")
    for name in ("ratio_zone", "ratio_full"):
        value = getattr(rep, name)
        if value is None or not value <= spec["lambda"]:
            problems.append(f"{name} {value} is not <= lambda {spec['lambda']}")
    zone = rep.ratio_zone
    if zone is not None and not abs(zone - op["ratio_limit"]) <= op["tolerance"]:
        problems.append(f"ratio_zone {zone} not within {op['tolerance']} of {op['ratio_limit']}")
    return problems


def op_scan_disk(gmtepi, chain, op, spec):
    import numpy as np

    x = np.array(op["point"])
    radii = np.array(spec["profile_radii"])
    rep = gmtepi.multiscale_scan(chain, [x], r0=spec["r0"], depth=spec["depth"])
    cert = gmtepi.extract_graph(rep, chain, 0)
    profile = gmtepi.DensityProfile.from_chain(chain, x, radii)
    excess = gmtepi.spherical_excess(profile, float(radii[-1]))
    return rep, cert, profile, excess


def check_scan_disk(out, op, spec) -> list[str]:
    import numpy as np

    rep, cert, profile, excess = out
    ref = np.array(spec["plane_projector"])
    cells = rep.point_cells(0)
    problems = []
    if len(cells) != spec["depth"] + 1:
        problems.append(f"{len(cells)} cells for {spec['depth'] + 1} scales")
    for c in cells:
        at = f"scale {c.radius:g}"
        if c.plane is None:
            problems.append(f"{at}: no plane")
            continue
        if not abs(c.density_ratio - 1.0) <= FLOOR:
            problems.append(f"{at}: density ratio {c.density_ratio!r}")
        for name in ("beta_inf", "beta_inf_centered", "eta"):
            if not getattr(c, name) <= FLOOR:
                problems.append(f"{at}: {name} {getattr(c, name)!r}")
        if not c.beta2 <= BETA2_FLOOR:
            problems.append(f"{at}: beta2 {c.beta2!r}")
        frame = np.asarray(c.plane.frame)
        if not np.max(np.abs(frame.T @ frame - ref)) <= FLOOR:
            problems.append(f"{at}: selected plane is not the disk's plane")
        if not c.frame_found:
            problems.append(f"{at}: no frame found")
    if not cert.ok:
        problems.append(f"graph certificate fails: {cert.reason}")
    worst = float(np.max(np.abs(profile.values - 1.0)))
    if not worst <= FLOOR:
        problems.append(f"profile density ratio off by {worst!r}")
    if not max(excess) <= FLOOR:
        problems.append(f"spherical excess {excess!r}")
    return problems


def _certificate(gmtepi, chain, item) -> bool:
    import numpy as np

    rep = gmtepi.multiscale_scan(chain, [np.array(item["point"])], r0=item["r0"], depth=item["depth"])
    return bool(gmtepi.extract_graph(rep, chain, 0).ok)


def op_scan_cantor(gmtepi, chain, op, spec):
    gap = [_certificate(gmtepi, chain, item) for item in op["gap_points"]]
    branch = [_certificate(gmtepi, chain, item) for item in op["branch_points"]]
    return gap, branch


def check_scan_cantor(out, op, spec) -> list[str]:
    gap, branch = out
    problems = list(spec["run_problems"])
    if not sum(gap) >= spec["min_gap_rate"] * len(gap):
        problems.append(f"gap certificates {sum(gap)}/{len(gap)}")
    if any(branch):
        problems.append(f"branch-set certificates hold at {sum(branch)}/{len(branch)} points")
    return problems


def centre_problems(gmtepi, chain, spec) -> list[str]:
    """Centred beta_inf at each gap centre against the analytic sheet
    separation over 2r; the same for every operation of a run."""
    import numpy as np

    problems = []
    for c in spec["centre_checks"]:
        cell = gmtepi.multiscale_scan(chain, [np.array(c["point"])], r0=c["r"], depth=0).cell(0, 0)
        ratio = cell.beta_inf_centered / c["beta_ref"]
        if not abs(ratio - 1.0) <= spec["beta_tol"]:
            problems.append(f"centred beta_inf / reference = {ratio!r} at gap centre {c['point']}")
    return problems


WORKLOADS = {
    "epi_cone": (op_epi_cone, check_epi_cone),
    "scan_disk": (op_scan_disk, check_scan_disk),
    "scan_cantor": (op_scan_cantor, check_scan_cantor),
}


def blas_info() -> dict:
    """BLAS library, version and the thread count it actually uses."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "MKL_Get_Max_Threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def layer_table(tracer, ranges, ops: int, setup_range) -> dict:
    """Per-layer metrics normalised per operation, from the op spans;
    ``chainfile.load_chain.s`` is the set-up load instead."""
    from tracer import TARGETS

    per_op = tracer.summary(ranges)
    table = {}
    for module_name, qualname, outcome in TARGETS:
        label = f"{module_name}.{qualname}"
        row = per_op.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "outcome": 0})
        prefix = label.removesuffix(".__init__")
        table[f"{prefix}.calls"] = row["calls"] / ops
        table[f"{prefix}.s"] = row["s"] / ops
        table[f"{prefix}.self_s"] = row["self_s"] / ops
        if outcome == "hit":
            table[f"{prefix}.hit_ratio"] = row["outcome"] / row["calls"] if row["calls"] else 0.0
        elif outcome is not None:
            table[f"{prefix}.{outcome}"] = row["outcome"] / ops
    setup = tracer.summary([setup_range]).get("chainfile.load_chain", {"s": 0.0})
    table["chainfile.load_chain.s"] = setup["s"]
    return table


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv[1], argv[2], argv[3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    trace = mode == "run" and argv[5] == "1"

    t0 = cpu_clock()
    import gmtepi
    from gmtepi import chainfile

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for path in spec["chains"]:
        chainfile.load_chain(path)
    setup_s = cpu_clock() - t0

    source = os.path.realpath(os.path.dirname(gmtepi.__file__))
    if source != os.path.realpath(spec["source"]):
        print(f"gmtepi was imported from {source}, not from {spec['source']}", file=sys.stderr)
        return 3
    if mode == "setup":
        with open(out_path, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    seconds = float(argv[4])
    run_op, check_op = WORKLOADS[spec["workload"]]
    setup_range = (0, len(tracer) if tracer else 0)
    if spec["workload"] == "scan_cantor":
        chain, _ = chainfile.load_chain(spec["chains"][0])
        spec["run_problems"] = centre_problems(gmtepi, chain, spec)

    reference = reference_work_s()
    durations, wall_durations, ranges, problems = [], [], [], []
    failed = wrong = 0
    begin = time.perf_counter()
    while True:
        for op in spec["ops"]:
            # a fresh chain per operation, as a command-line run has
            chain, _ = chainfile.load_chain(op["chain"])
            lo = len(tracer) if tracer else 0
            t, c = time.perf_counter(), cpu_clock()
            try:
                out = run_op(gmtepi, chain, op, spec)
                error = None
            except Exception as exc:  # noqa: BLE001 - an operation fault is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            durations.append(cpu_clock() - c)
            wall_durations.append(time.perf_counter() - t)
            ranges.append((lo, len(tracer) if tracer else 0))
            found = [error] if error else check_op(out, op, spec)
            if found:
                failed += 1
                wrong += error is None
                problems.append({"op": len(durations) - 1, "problems": found})
        if time.perf_counter() - begin >= seconds:
            break
    if tracer:
        tracer.remove()
    reference += reference_work_s()

    attempted = len(durations)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "problems": problems,
        "durations": durations,
        "wall_durations": wall_durations,
        "reference_work_s": reference,
        "setup_s": setup_s,
        "metrics": {
            "op_s_p50": statistics.median(durations),
            "ops_per_s": (attempted - failed) / sum(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "env": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **blas_info(),
        },
    }
    if tracer:
        result["layers"] = layer_table(tracer, ranges, attempted, setup_range)
        result["layers"]["trace.op_s_p50"] = statistics.median(durations)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer)
        tracer.save(os.path.splitext(out_path)[0] + "-spans.npz")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
