"""The four benchmark workloads: inputs, one op, and the output check.

``figures``, ``fine-region`` and ``oracle`` run each op as a fresh Python
process that imports ``icdms.cli`` and calls ``main(argv)``, as
``python -m icdms`` does, so the import is paid per op and no cache can
carry a result from one op to the next.  ``discrete`` runs in the benchmark's
own process, because the CLI's import would hide what it measures.

Every op's output is checked.  At ``DEFAULT_SEED`` it is compared exactly
with the references in ``refs/``, made at the commit that defined the
benchmark; at every seed the invariants are checked.  A check returns a
list of failure messages, empty when the op is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from icdms import discrete as icdms_discrete
from icdms.discrete import AlphabetSpec, random_full, random_star, region_full, region_sim, region_suc
from icdms.gaussian import ChannelParams
from icdms.geometry import AxisGrid, SweepGrid, sweep_gaussian

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFS = BENCH_DIR / "refs"
DEFAULT_SEED = 0

#: Slack of every "<= 0" invariant: inclusion gaps and residual signs.
TOL = 1e-12

#: The r1 step of the figure presets (``geometry.DEFAULT_R1_STEP``).
FIGURE_R1_STEP = 0.005


@dataclass
class OpResult:
    start: float
    wall: float
    rss_mb: float
    errors: list[str]
    output: bytes = b""
    spans: list[dict] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_refs() -> dict:
    return json.loads((REFS / "refs.json").read_text())


# ---------------------------------------------------------------- invariants


def parse_frontier_csv(data: bytes) -> dict[str, np.ndarray]:
    """Rows of a frontier CSV by region, as an (n, 2) array of (r1, r2)."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != "r1_bits,r2_bits,region":
        raise ValueError("bad CSV header")
    rows: dict[str, list] = {}
    for line in lines[1:]:
        r1, r2, label = line.split(",")
        rows.setdefault(label, []).append((float(r1), float(r2)))
    return {label: np.array(pts) for label, pts in rows.items()}


def grid_samples(pts: np.ndarray, step: float) -> np.ndarray:
    """r2 at the uniform-grid rows (the trailing exact-reach row dropped)."""
    on_grid = pts[:, 0] == np.arange(len(pts)) * step
    n = len(pts) if on_grid.all() else int(np.argmin(on_grid))
    return pts[:n, 1]


def inclusion_gap(inner: np.ndarray, outer: np.ndarray) -> float:
    """Largest amount by which inner pokes above outer (outer is 0 beyond its end)."""
    padded = np.zeros(inner.size)
    m = min(inner.size, outer.size)
    padded[:m] = outer[:m]
    return max(0.0, float(np.max(inner - padded)))


def frontier_errors(regions: dict[str, np.ndarray], step: float, contained) -> list[str]:
    """Frontiers finite, >= 0 and non-increasing; each (inner, outer) pair nested."""
    errors = []
    for label, pts in regions.items():
        if not np.all(np.isfinite(pts)):
            errors.append(f"{label}: non-finite value")
        elif np.any(pts[:, 1] < 0.0):
            errors.append(f"{label}: negative r2")
        elif np.any(np.diff(pts[:, 0]) <= 0.0) or np.any(np.diff(pts[:, 1]) > 0.0):
            errors.append(f"{label}: r1 not increasing or r2 increasing")
    for inner, outer in contained:
        if inner in regions and outer in regions:
            gap = inclusion_gap(grid_samples(regions[inner], step), grid_samples(regions[outer], step))
            if gap > TOL:
                errors.append(f"inclusion_gap({inner}, {outer}) = {gap!r}")
    return errors


# ---------------------------------------------------------------- processes


class _OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _OpTimeout


def run_child(spec: dict, op_dir: Path, timeout: int) -> tuple[int, float, float, float]:
    """Run ``child.py`` once; return (exit code, start, wall s, peak RSS MB).

    The child is reaped with ``os.wait4`` so its own peak RSS is read; an
    op that outlives ``timeout`` seconds is killed and reported as exit
    code -9.
    """
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=op_dir)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _OpTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


class SubprocessWorkload:
    """An op is one child process running ``commands(op_dir)``."""

    name = ""
    work_name = ""

    def __init__(self, run_dir: Path, seed: int, smoke: bool):
        self.run_dir = run_dir
        self.seed = seed
        self.smoke = smoke
        self.ref = None
        self.first_output: bytes | None = None

    def setup(self) -> None:
        """Generate and write the seeded inputs, then load the references."""
        self.prepare()
        refs = load_refs()
        if self.seed == DEFAULT_SEED and not self.smoke:
            self.ref = refs[self.name]

    def prepare(self) -> None:
        """Generate and write the seeded inputs."""

    def commands(self, op_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def output(self, op_dir: Path) -> bytes:
        """The bytes of the op's output that the check compares."""
        raise NotImplementedError

    def check(self, op_dir: Path, code: int) -> tuple[list[str], dict]:
        raise NotImplementedError

    def op(self, index: int, traced: bool, timeout: int) -> OpResult:
        op_dir = self.run_dir / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        trace_path = op_dir / "spans.json"
        spec = {
            "src": str(BENCH_DIR.parent / "src"),
            "commands": self.commands(op_dir),
            "op": index,
            "trace": str(trace_path) if traced else None,
        }
        code, start, wall, rss = run_child(spec, op_dir, timeout)
        output = b""
        try:
            output = self.output(op_dir)
            errors, counts = self.check(op_dir, code)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors, counts = [f"output unreadable: {exc!r}"], {}
        if errors:
            tail = (op_dir / "stderr.txt").read_bytes()[-400:].decode(errors="replace")
            errors.append(f"exit code {code}; stderr tail: {tail!r}")
        result = OpResult(start, wall, rss, errors, output, counts=counts)
        if traced and trace_path.is_file():
            doc = json.loads(trace_path.read_text())
            result.spans, result.absent = doc["spans"], doc["absent"]
        return result

    def _same_as_first(self, data: bytes) -> list[str]:
        """Later ops of a run must repeat the first op's output byte for byte."""
        if self.first_output is None:
            self.first_output = data
            return []
        return [] if data == self.first_output else ["output differs from the run's first op"]


# ---------------------------------------------------------------- figures

FIGURES = ("fig4", "fig5", "fig6", "fig7")
FIGURE_FILES = tuple(f"{fig}{ext}" for fig in FIGURES for ext in (".csv", ".svg", ".meta.json"))
#: Figures shrunk in smoke mode (their references then do not apply).
SMOKE_SHRUNK = ("fig6", "fig7")

#: Nominal coding tuples per op from the grid specs: g_sp1/g_sp2 sweep 201
#: alphas; g sweeps 41 x 41 (alpha, beta) x 42 x 42 bin coefficients (41
#: grid points plus the dirty-paper optimum per axis) plus 2 x 201 tuples
#: on its two boundary faces.
_G_TUPLES = 41 * 41 * 42 * 42 + 2 * 201
FIGURE_TUPLES = 201 + 201 + 2 * (201 + 201 + _G_TUPLES)


class Figures(SubprocessWorkload):
    """The paper's figs. 4-7, fixed inputs; outputs equal the references."""

    name = "figures"
    work_name = "tuples_per_s"
    work = FIGURE_TUPLES

    def setup(self) -> None:
        """The inputs are the presets; the references apply at every seed."""
        load_refs()
        self.ref = {name: (REFS / "figures" / name).read_bytes() for name in FIGURE_FILES}

    def commands(self, op_dir):
        cmds = []
        for fig in FIGURES:
            argv = ["figure", fig, "--out", str(op_dir)]
            if self.smoke and fig in SMOKE_SHRUNK:
                argv += ["--grid-steps", "5"]
            cmds.append(argv)
        return cmds

    def output(self, op_dir):
        return b"".join((op_dir / name).read_bytes() for name in FIGURE_FILES)

    def check(self, op_dir, code):
        if code != 0:
            return [f"exit code {code}"], {}
        errors = []
        for name in FIGURE_FILES:
            if self.ref is None or (self.smoke and name.startswith(SMOKE_SHRUNK)):
                continue
            if (op_dir / name).read_bytes() != self.ref[name]:
                errors.append(f"{name} differs from the reference")
        if self.first_output is None:
            for fig in FIGURES:
                regions = parse_frontier_csv((op_dir / f"{fig}.csv").read_bytes())
                errors += [
                    f"{fig}: {e}"
                    for e in frontier_errors(regions, FIGURE_R1_STEP, (("g_sp1", "g"), ("g_sp2", "g")))
                ]
        return errors + self._same_as_first(self.output(op_dir)), {}


# ---------------------------------------------------------------- fine-region

FINE_POINTS = 401
FINE_R1_STEP = 0.001
FINE_REGIONS = ("g_suc", "g_sp1", "g_sp2")


#: Largest r1 of every fine-region channel, bits.  The reach of g_suc is
#: 0.5 log2(1 + (sqrt(p1) + sqrt(c21 p2))^2), taken at alpha = 0; fixing it
#: fixes the union's sample count (3,001), so the seed changes the channel
#: but not the amount of work.
FINE_REACH = 3.0


def fine_region_config(seed: int, smoke: bool) -> dict:
    """The seed's channel, swept on fine axes with the time-sharing hull.

    p1, p2 and c12 are drawn; c21 (then in about [2.3, 8.5]) is set so the
    reach is ``FINE_REACH``.
    """
    rng = np.random.default_rng([seed, 1])
    p1 = float(rng.uniform(2.0, 10.0))
    p2 = float(rng.uniform(5.0, 10.0))
    c12 = float(rng.uniform(0.0, 1.0))
    c21 = (math.sqrt(2.0 ** (2.0 * FINE_REACH) - 1.0) - math.sqrt(p1)) ** 2 / p2
    channel = {"p1": p1, "p2": p2, "c12": c12, "c21": c21}
    axis = {"lo": 0.0, "hi": 1.0, "count": 41 if smoke else FINE_POINTS}
    return {
        "channel": channel,
        "regions": list(FINE_REGIONS),
        "grid": {"alpha": axis, "beta": axis, "edge_alpha": axis},
        "r1_step": 0.01 if smoke else FINE_R1_STEP,
        "convex_hull": True,
    }


class FineRegion(SubprocessWorkload):
    """``region --config`` on a seeded channel: many cheap pentagons, fine r1 grid."""

    name = "fine-region"
    work_name = "tuples_per_s"
    work = FINE_POINTS * FINE_POINTS + 2 * FINE_POINTS

    def prepare(self) -> None:
        self.config = fine_region_config(self.seed, self.smoke)
        if self.smoke:
            n = self.config["grid"]["alpha"]["count"]
            self.work = n * n + 2 * n
        inputs = self.run_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.config_path = inputs / "region.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")

    def commands(self, op_dir):
        return [["region", "--config", str(self.config_path), "--out", str(op_dir)]]

    def output(self, op_dir):
        return (op_dir / "frontier.csv").read_bytes()

    def check(self, op_dir, code):
        if code != 0:
            return [f"exit code {code}"], {}
        data = self.output(op_dir)
        errors = []
        if self.ref is not None and sha256(data) != self.ref:
            errors.append("frontier.csv differs from the reference")
        if self.first_output is None:
            errors += self._invariants(parse_frontier_csv(data))
        return errors + self._same_as_first(data), {}

    def _invariants(self, hulls: dict[str, np.ndarray]) -> list[str]:
        """Frontier invariants, and each hull above its un-hulled frontier.

        The un-hulled frontiers are swept here, once per run, outside any
        timed op.
        """
        step = self.config["r1_step"]
        errors = frontier_errors(hulls, step, (("g_sp1", "g_suc"), ("g_sp2", "g_suc")))
        channel = ChannelParams(**self.config["channel"])
        fine = AxisGrid(0.0, 1.0, self.config["grid"]["alpha"]["count"])
        one = AxisGrid(0.0, None, 1)
        grid = SweepGrid(fine, fine, one, one, fine)
        for label in FINE_REGIONS:
            raw = sweep_gaussian(channel, grid, label, step)
            hull = hulls.get(label)
            if hull is None:
                errors.append(f"{label}: missing from the CSV")
                continue
            samples = grid_samples(hull, step)
            if samples.size != raw.r2.size or np.any(samples < raw.r2):
                errors.append(f"{label}: hull below its frontier")
        return errors


# ---------------------------------------------------------------- oracle

ORACLE_SAMPLES = 1_000_000
ORACLE_TERMS = 12
_Z_LINE = re.compile(r"^  draw \d+: max \|z\| = (\S+) (ok|FAIL)$", re.M)
_MI_LINE = re.compile(r"^  max \|difference\| over \d+ draws = (\S+) (ok|FAIL)$", re.M)


class Oracle(SubprocessWorkload):
    """``oracle-check`` with one draw at n = 10^6: the Monte Carlo contract."""

    name = "oracle"
    work_name = "mc_samples_per_s"
    work = ORACLE_TERMS * ORACLE_SAMPLES

    def prepare(self) -> None:
        self.samples = 1000 if self.smoke else ORACLE_SAMPLES
        self.work = ORACLE_TERMS * self.samples
        self.k = self.seed

    def commands(self, op_dir):
        return [
            ["oracle-check", "--draws", "1", "--samples", str(self.samples), "--seed", str(self.k)]
        ]

    def output(self, op_dir):
        return (op_dir / "stdout.txt").read_bytes()

    def check(self, op_dir, code):
        """Exit 1 is a verdict, not a failure, when only the 3-sigma line says FAIL."""
        data = self.output(op_dir)
        text = data.decode()
        z_lines = _Z_LINE.findall(text)
        mi_lines = _MI_LINE.findall(text)
        errors = []
        if len(z_lines) != 1 or len(mi_lines) != 1:
            return [f"unexpected oracle-check output: {text!r}"], {}
        z_exceed = sum(status == "FAIL" for _, status in z_lines)
        if any((float(z) > 3.0) != (status == "FAIL") for z, status in z_lines):
            errors.append("z verdict disagrees with its value")
        diff, mi_status = mi_lines[0]
        if mi_status != "ok" or not float(diff) <= TOL:
            errors.append(f"vectorized and brute-force MI differ by {diff}")
        if code != (1 if z_exceed else 0):
            errors.append(f"exit code {code} with {z_exceed} z verdicts")
        if self.ref is not None and text != self.ref:
            errors.append("stdout differs from the reference")
        return errors + self._same_as_first(data), {"oracle.z_exceed": z_exceed}


# ---------------------------------------------------------------- discrete

#: A FULL table of 4,194,304 cells and a STAR table of 1,048,576 cells.
LARGE_FULL = AlphabetSpec(q=2, w=4, x1=4, u=4, ut=4, v=4, vt=4, x2=8, y1=8, y2=8)
LARGE_STAR = AlphabetSpec(q=2, w=4, x1=4, u=4, ut=1, v=4, vt=4, x2=8, y1=8, y2=8)
#: Binary alphabets with two time-sharing values: 1,024 FULL / 512 STAR cells.
SMALL = AlphabetSpec(q=2)
#: Small (FULL, STAR) pairs per op; chosen so the two size classes take
#: about equal time.
SMALL_PAIRS = 128
SMOKE_LARGE_FULL = AlphabetSpec(q=2, w=2, x1=2, u=4, ut=4, v=4, vt=4, x2=4, y1=4, y2=4)
SMOKE_LARGE_STAR = AlphabetSpec(q=2, w=2, x1=2, u=4, ut=1, v=4, vt=4, x2=4, y1=4, y2=4)
_EVALUATORS = (("full", region_full), ("sim", region_sim), ("suc", region_suc))


def region_text(regions) -> str:
    """Exact text of the evaluated bounds and residuals, compared by digest."""
    return "".join(
        repr((r.scheme, r.r1_bound, r.r2_bound, r.sum_bound, tuple(r.constraints.items()), r.feasible))
        + "\n"
        for r in regions
    )


def region_errors(r) -> list[str]:
    """All bounds finite, and ``feasible`` agrees with the active residuals."""
    values = [r.r1_bound, r.r2_bound, *r.constraints.values()]
    if r.sum_bound is not None:
        values.append(r.sum_bound)
    errors = []
    if not all(math.isfinite(v) for v in values):
        errors.append(f"{r.scheme}: non-finite bound")
    active = r.constraints.values() if r.scheme == "full" else [r.constraints["v_margin_y2"]]
    if r.feasible != all(v >= -TOL for v in active):
        errors.append(f"{r.scheme}: feasible={r.feasible} disagrees with its residuals")
    return errors


def _size_class(fd) -> str:
    return "small" if math.prod(fd.sizes().values()) <= SMALL.cells("full") else "large"


class Discrete:
    """In-process scans of large and small joint tables, fresh ones per op."""

    name = "discrete"
    work_name = "cells_per_s"

    def __init__(self, run_dir: Path, seed: int, smoke: bool):
        self.run_dir = run_dir
        self.seed = seed
        self.smoke = smoke
        self.large = (SMOKE_LARGE_FULL, SMOKE_LARGE_STAR) if smoke else (LARGE_FULL, LARGE_STAR)
        self.pairs = 2 if smoke else SMALL_PAIRS
        self.work = (
            self.large[0].cells("full")
            + 2 * self.large[1].cells("star")
            + self.pairs * (SMALL.cells("full") + 2 * SMALL.cells("star"))
        )
        self.next_inputs = None
        self.refs = []

    def inputs(self, index: int) -> list:
        """(scheme, distribution) pairs of op ``index``, drawn from the seed."""
        rng = np.random.default_rng([self.seed, index])
        full, star = random_full(self.large[0], rng), random_star(self.large[1], rng)
        calls = [("full", full), ("sim", star), ("suc", star)]
        for _ in range(self.pairs):
            full, star = random_full(SMALL, rng), random_star(SMALL, rng)
            calls += [("full", full), ("sim", star), ("suc", star)]
        return calls

    def setup(self) -> None:
        """Draw the first op's inputs, then load the references."""
        self.prepare()
        refs = load_refs()
        if self.seed == DEFAULT_SEED and not self.smoke:
            self.refs = refs[self.name]

    def prepare(self) -> None:
        self.next_inputs = self.inputs(0)

    def op(self, index: int, traced: bool, timeout: int) -> OpResult:
        calls = self.next_inputs if self.next_inputs is not None else self.inputs(index)
        self.next_inputs = None
        evaluate = dict(_EVALUATORS)
        tracer = None
        if traced:
            tracer = Tracer(index)
            tracer.install({"icdms.discrete": icdms_discrete})
            calls = [(tracer.wrap(f"bench.region_{s}", evaluate[s], size=_size_class(fd)), fd) for s, fd in calls]
        else:
            calls = [(evaluate[s], fd) for s, fd in calls]
        start = time.perf_counter()
        try:
            regions = [fn(fd) for fn, fd in calls]
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        output = region_text(regions).encode()
        errors = [e for r in regions for e in region_errors(r)]
        if index < len(self.refs) and sha256(output) != self.refs[index]:
            errors.append(f"op {index}: bounds differ from the reference")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = OpResult(start, wall, rss, errors, output)
        if tracer is not None:
            result.spans, result.absent = tracer.spans, tracer.absent
        return result


WORKLOADS = {w.name: w for w in (Figures, FineRegion, Discrete, Oracle)}
