"""Self-tests of the benchmark.  Run: ``python3 -m pytest bench/tests -q``.

They run ``run.py`` as a subprocess in smoke mode (one reduced op per
workload), check that every metric is printed with its declared unit,
that a 1-ulp change to a stored reference fails an op, that a directory
without the program fails without a result, and that the traced counts
of figs. 6 and 7 are the known ones.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracing import Tracer, op_metrics, run_metrics  # noqa: E402
from workloads import frontier_errors, region_errors  # noqa: E402

THROUGHPUT = {
    "figures": "tuples_per_s",
    "fine-region": "tuples_per_s",
    "discrete": "cells_per_s",
    "oracle": "mc_samples_per_s",
}


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _reports(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _check_metrics(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), m["name"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(trace):
    proc = _run(ROOT, "--workload", "all", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    reports = _reports(proc.stdout)
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(reports) == len(names) + 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    for name, report in zip(names, reports):
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
        _check_metrics(report["metrics"], declared)
        summary = next(line for line in proc.stdout.splitlines() if line.startswith(f"# {name}: "))
        assert "failed_ratio 0 ratio" in summary
        assert f"{THROUGHPUT[name]} " in summary and "1/s" in summary
    for m in SPEC["end_to_end"]:
        assert m["name"] in proc.stdout
    assert "# env: " in proc.stdout


def _copy_checkout(dest: Path, with_src: bool = True) -> None:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_one_ulp_change_in_a_reference_row_fails_the_op(tmp_path):
    _copy_checkout(tmp_path)
    ref = tmp_path / "bench" / "refs" / "figures" / "fig4.csv"
    lines = ref.read_text().splitlines()
    r1, r2, label = lines[10].split(",")
    lines[10] = f"{r1},{repr(float(np.nextafter(float(r2), np.inf)))},{label}"
    ref.write_text("\n".join(lines) + "\n")
    proc = _run(tmp_path, "--workload", "figures", "--smoke")
    assert proc.returncode != 0
    report = _reports(proc.stdout)[-1]
    assert report["correct"] is False and report["failed"] == 1 and report["attempted"] == 1
    assert "fig4.csv differs from the reference" in proc.stderr


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "--workload", "discrete", "--seconds", "1")
    assert proc.returncode != 0
    assert not _reports(proc.stdout)


def test_traced_counts_of_figs_6_and_7(tmp_path):
    spec = {
        "src": str(ROOT / "src"),
        "commands": [["figure", fig, "--out", str(tmp_path)] for fig in ("fig6", "fig7")],
        "op": 0,
        "trace": str(tmp_path / "spans.json"),
    }
    subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)], check=True, cwd=tmp_path, capture_output=True)
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    mains = [k for k, s in enumerate(spans) if s["name"] == "cli.main"]

    def under(k, name):
        """Spans named ``name`` that descend from span ``k``."""
        out = []
        for s in spans:
            j = s["parent"]
            while j is not None and j != k:
                j = spans[j]["parent"]
            if j == k and s["name"] == name:
                out.append(s)
        return out

    got = []
    for k in mains:
        pent = under(k, "geometry._region_g_arrays")
        unions = under(k, "geometry._union_arrays")
        g_union = max(unions, key=lambda s: s["pentagons"])
        got.append((sum(s["tuples"] for s in pent), sum(s["feasible"] for s in pent), g_union["pentagons"], g_union["samples"]))
    assert got[0][1:] == (217_007, 217_007, 517)
    assert got[1] == (2_957_965, 206_910, 206_910, 618)


def test_invariant_checks_flag_bad_frontiers():
    good = {"g": np.array([[0.0, 2.0], [0.5, 1.0], [1.0, 0.0]]), "g_sp1": np.array([[0.0, 1.0], [0.5, 1.0]])}
    assert frontier_errors(good, 0.5, [("g_sp1", "g")]) == []
    rising = {"g": np.array([[0.0, 1.0], [0.5, 1.5]])}
    assert frontier_errors(rising, 0.5, []) != []
    poking = {"g": good["g"], "g_sp1": np.array([[0.0, 1.0], [0.5, 1.0 + 1e-9]])}
    assert frontier_errors(poking, 0.5, [("g_sp1", "g")]) != []


def test_feasible_must_agree_with_residuals():
    from icdms.discrete import DiscreteRegion

    ok = DiscreteRegion("sim", 0.5, 0.2, 0.6, {"v_margin_y2": 0.1, "v_margin_y1": -0.3}, True)
    assert region_errors(ok) == []
    wrong = DiscreteRegion("full", 0.5, 0.2, 0.6, {"u_at_y1": -0.1}, True)
    assert region_errors(wrong) != []
    nan = DiscreteRegion("suc", float("nan"), 0.2, None, {"v_margin_y2": 0.1}, True)
    assert region_errors(nan) != []


def test_a_missing_target_is_reported_absent():
    import icdms.cli as cli

    class Renamed:
        """A cli module whose hull entry point no longer exists."""

        def __getattr__(self, attr):
            if attr == "time_sharing_hull":
                raise AttributeError(attr)
            return getattr(cli, attr)

    tracer = Tracer()
    tracer.install({"icdms.cli": Renamed()})
    assert tracer.absent == ["cli.time_sharing_hull"]
    per_op = [op_metrics([], 1.0)]
    metrics = run_metrics(per_op, [1.0], tracer.absent)
    assert metrics["geometry.hull_s"]["value"] == "absent"
    assert metrics["geometry.hull_points"]["value"] == "absent"
    assert metrics["geometry.union_s"]["value"] == 0.0


def test_a_target_whose_counts_cannot_be_read_is_reported_absent():
    """A changed return shape must not make a lower-is-better count read 0."""
    from tracing import TARGETS

    count = next(c for _, attr, _, c in TARGETS if attr == "_union_arrays")
    tracer = Tracer()
    union = tracer.wrap("geometry._union_arrays", lambda pentagons: np.zeros(3), count)
    union(np.zeros(5))
    union(np.zeros(5))
    assert tracer.absent == ["geometry._union_arrays"]
    metrics = run_metrics([op_metrics(tracer.spans, 1.0)], [1.0], tracer.absent)
    for name in ("geometry.union_s", "geometry.union_pentagons", "geometry.union_cells", "geometry.sweep_self_s"):
        assert metrics[name]["value"] == "absent", name
    assert metrics["gaussian.pentagon_s"]["value"] == 0.0
