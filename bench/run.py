"""icdms benchmark: the command that runs one workload and reports it.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload figures --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --smoke --trace 1

One client in a closed loop: the next op starts when the previous one has
ended, with no threads of the benchmark's own.  Ops run until ``--seconds``
have passed (at least two ops).  Every op's output is checked; see
``workloads.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it,
starting with ``#``, give the same figures for people.  With ``--trace 1``
ops alternate untraced and traced, and the metrics are the per-layer ones
of ``tracing.PER_LAYER``.  The exit code is 0 only if every op was correct.
"""

from __future__ import annotations

import time

#: Benchmark start: ``setup_s`` runs from here to the first timed op.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS = BENCH_DIR / ".runs"
WORKLOAD_NAMES = ("figures", "fine-region", "discrete", "oracle")

#: Every op of a run must end this long after the run started.
RUN_LIMIT_S = 170

ENV_NOTE = (
    "working sets are at most 80 MB (CELL_CAP cells of float64), under 4x the "
    "last-level cache this machine reports, so byte counts are computed from "
    "table sizes, not measured bandwidth"
)


def environment() -> dict:
    """Machine and library facts that the figures depend on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    llc = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = sorted(caches.glob("index*"), key=lambda p: int(p.name[5:])) if caches.is_dir() else []
    if levels:
        try:
            llc = (levels[-1] / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_size": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": ENV_NOTE,
    }


def _import_program():
    """Put the checkout's ``src`` first on the path and check it was used."""
    init = SRC / "icdms" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import icdms

    if Path(icdms.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported icdms from {icdms.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, import_s: float) -> dict:
    """Set up, run ops for ``seconds``, and return the run's report object.

    ``import_s`` is the time from benchmark start until the program was
    imported; ``setup_s`` adds the time from here to the first op.
    """
    from tracing import op_metrics, run_metrics
    from workloads import WORKLOADS

    started = time.perf_counter()
    run_dir = RUNS / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[name](run_dir, seed, smoke)
    workload.setup()

    results, spans, per_op, absent = [], [], [], set()
    t0 = time.perf_counter()
    setup_s = import_s + (t0 - started)

    def more() -> bool:
        if smoke:
            return len(results) < (2 if traced else 1)
        return len(results) < 2 or time.perf_counter() - t0 < seconds

    while more():
        index = len(results)
        op_traced = traced and index % 2 == 1
        timeout = max(1, int(RUN_LIMIT_S - (time.perf_counter() - started)))
        r = workload.op(index, op_traced, timeout)
        results.append((op_traced, r))
        for message in r.errors:
            print(f"# {name} op {index} FAILED: {message}", file=sys.stderr)
        if op_traced:
            base = len(spans)
            spans.append({"name": "bench.op", "start": r.start, "end": r.start + r.wall, "parent": None, "op": index})
            for s in r.spans:
                spans.append({**s, "parent": base + 1 + s["parent"] if s["parent"] is not None else base})
            m = op_metrics(r.spans, r.wall)
            m.update(r.counts)
            per_op.append(m)
            absent.update(r.absent)

    attempted = len(results)
    failed = sum(1 for _, r in results if r.errors)
    plain = [r for t, r in results if not t]
    op_s = statistics.fmean(r.wall for r in plain)
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": op_s, "unit": "s"},
        "work_per_s": {"value": workload.work / op_s, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in plain), "unit": "MB"},
    }
    env = environment()
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(
        f"# {name}: seed {seed}, {attempted} ops ({len(plain)} untraced), failed_ratio {failed / attempted:.6g} ratio, "
        + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in e2e.items())
        + f", {workload.work_name} {workload.work / op_s:.6g} 1/s"
        + f", op_median_s {statistics.median(r.wall for r in plain):.6g} s"
    )
    (run_dir / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    metrics = e2e
    if traced:
        metrics = run_metrics(per_op, [r.wall for r in plain], sorted(absent))
        (run_dir / "trace.json").write_text(json.dumps({"env": env, "absent": sorted(absent), "spans": spans}) + "\n")
        print(f"# {name} trace: {len(per_op)} traced ops, absent targets: {sorted(absent) or 'none'}")
        for key, v in metrics.items():
            value = v["value"] if isinstance(v["value"], str) else f"{v['value']:.6g}"
            print(f"#   {key} {value} {v['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one reduced op per workload (two with --trace 1)")
    args = parser.parse_args(argv)
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # noqa: F401  (numpy and the icdms modules the workloads use)

    import_s = time.perf_counter() - STARTED

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, import_s)
        if len(names) > 1:
            print(json.dumps(reports[name]))
    if len(names) == 1:
        report = reports[names[0]]
    else:
        report = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
