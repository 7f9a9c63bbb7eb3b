"""Command-line surface: region sweeps, discrete region reports, figure
presets, the dirty-paper coefficient, and oracle self-checks.

Subcommands
-----------
region        sweep one or more Gaussian region families, write frontier.csv
discrete      evaluate a factored distribution file under one coding scheme
figure        run a figure preset (fig4..fig7): CSV plus an SVG overlay plot
dpc-lambda    closed-form bin coefficient and gain, optionally grid-checked
oracle-check  run the Monte Carlo / brute-force self-checks

Exit codes: 0 ok, 2 configuration, input-file or output-directory error,
3 empty union.  Only :func:`main` turns an error into an exit code.

Config and distribution files are JSON; schemas are documented in the
project README.  Identical config produces byte-identical CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .discrete import (
    STAR,
    _TERM_QUERIES,
    AlphabetSpec,
    _terms,
    assemble_joint,
    distribution_from_dict,
    random_star,
    region_full,
    region_sim,
    region_suc,
)
from .gaussian import (
    ENTROPY_BLOCKS,
    ChannelParams,
    GaussianCoding,
    _dpc_split,
    build_covariances,
    dpc_gain_objective,
    dpc_lambda_star,
    entropy_terms,
)
from .geometry import (
    DEFAULT_R1_STEP,
    AxisGrid,
    EmptyUnionError,
    Frontier,
    MAX_AXIS_POINTS,
    REGION_FAMILIES,
    SampleCapError,
    SweepGrid,
    _check_axis,
    _check_r1_step,
    default_grid,
    sweep_gaussian,
    time_sharing_hull,
)
from .oracle import (
    MAX_GRID_STEPS,
    MAX_MC_SAMPLES,
    MIN_MC_SAMPLES,
    brute_joint_mi,
    grid_maximize,
    mc_gaussian_entropy,
)

EXIT_CONFIG = 2
EXIT_EMPTY = 3

#: Figure presets: run config documents, read as a ``region --config`` file is.
FIGURE_PRESETS = {
    "fig4": {"channel": {"p1": 6.0, "p2": 6.0, "c12": 0.0, "c21": 0.3}, "regions": ["g_sp1"]},
    "fig5": {"channel": {"p1": 0.0, "p2": 6.0, "c12": 0.0, "c21": 0.5}, "regions": ["g_sp1"]},
    "fig6": {
        "channel": {"p1": 6.0, "p2": 6.0, "c12": 0.3, "c21": 2.0},
        "regions": ["g_sp1", "g_sp2", "g"],
    },
    "fig7": {
        "channel": {"p1": 6.0, "p2": 6.0, "c12": 0.3, "c21": 6.0},
        "regions": ["g_sp1", "g_sp2", "g"],
    },
}


class ConfigError(ValueError):
    """Bad configuration; carries a best-effort line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a ``region`` run needs; reproducible from the sidecar."""

    channel: ChannelParams
    regions: tuple[str, ...]
    grids: dict[str, SweepGrid]
    r1_step: float
    convex_hull: bool
    paper_literal: bool
    seed: int


def _names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


#: The keys each object of a run config may hold (``None``: a value without
#: keys); the channel, grid and axis keys are the fields of their types.
_CONFIG_KEYS = {
    "channel": dict.fromkeys(_names(ChannelParams)),
    "grid": dict.fromkeys(_names(SweepGrid), dict.fromkeys(_names(AxisGrid))),
    **dict.fromkeys(("regions", "r1_step", "convex_hull", "paper_literal", "seed")),
}


def _check_keys(doc: dict, known: dict, raw: str, path: tuple = ()) -> None:
    """Raise for the first key, depth first in file order, not in ``known``;
    ``path`` holds the keys of ``doc`` and its parents."""
    for key, value in doc.items():
        if key not in known:
            message = f"unknown key {'.'.join((*path, key))!r} (expected {', '.join(known)})"
            raise ConfigError(message, _line_of(raw, *path, key))
        if isinstance(value, dict) and known[key] is not None:
            _check_keys(value, known[key], raw, (*path, key))


def _members(raw: str, pos: int):
    """(key or index, start, start of value) of each member of the JSON
    object or array at ``pos`` of ``raw``, after any whitespace; none for
    any other value."""
    skip = json.decoder.WHITESPACE.match
    pos = skip(raw, pos).end()
    opener = raw[pos : pos + 1]
    if opener not in ("{", "["):
        return
    decoder = json.JSONDecoder()
    pos = skip(raw, pos + 1).end()
    index = 0
    while raw[pos] not in "}]":
        start = pos
        if opener == "{":
            name, pos = json.decoder.scanstring(raw, pos + 1)
            pos = skip(raw, skip(raw, pos).end() + 1).end()  # past the colon
        else:
            name, index = index, index + 1
        yield name, start, pos
        pos = skip(raw, decoder.raw_decode(raw, pos)[1]).end()
        if raw[pos] == ",":
            pos = skip(raw, pos + 1).end()


def _line_of(raw: str, *path) -> int | None:
    """The line of the member at ``path`` (object keys and array indices) of
    the JSON text ``raw``, reached through the document as ``json.loads``
    reads it, so the last of repeated keys counts.  Where the text lacks
    that member, or nested too deep to step over from here, the line of the
    deepest one on ``path`` it has, or None."""
    pos, line = 0, None
    for step in path:
        try:
            found = [(start, at) for name, start, at in _members(raw, pos) if name == step]
        except RecursionError:
            break
        if not found:
            break
        start, pos = found[-1]
        line = raw.count("\n", 0, start) + 1
    return line


def _json_number(value, name: str, line: int | None) -> float:
    """``value`` as a float if it is a finite JSON number: an int or a float
    (not a bool or a string) within the float range."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be a finite JSON number, got {value!r}", line)


def _json_bool(doc: dict, key: str, raw: str) -> bool:
    value = doc.get(key, False)
    if type(value) is not bool:
        raise ConfigError(f"{key} must be true or false, got {value!r}", _line_of(raw, key))
    return value


def _axis_from_doc(doc, raw: str, key: str, fallback: AxisGrid) -> AxisGrid:
    if doc is None:
        return fallback
    line = _line_of(raw, "grid", key)
    if not isinstance(doc, dict):
        raise ConfigError(f"grid.{key} must be an object", line)
    lo = _json_number(doc.get("lo", fallback.lo), f"grid.{key}.lo", line)
    hi = doc.get("hi", fallback.hi)
    if hi is not None:
        hi = _json_number(hi, f"grid.{key}.hi", line)
    try:
        axis = AxisGrid(lo=lo, hi=hi, count=doc.get("count", fallback.count))
    except ValueError as exc:
        raise ConfigError(f"grid.{key}: {exc}", line) from exc
    try:
        _check_axis(key, axis)
    except ValueError as exc:
        raise ConfigError(f"grid.{exc}", line) from exc
    return axis


def _read_json(path: Path) -> tuple[object, str]:
    """Parse a JSON input file; return the document and its text, which
    config checks search for line numbers."""
    try:
        raw = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except ValueError as exc:  # an integer too long to convert
        raise ConfigError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("invalid JSON: nested too deeply") from exc


def load_config(path: Path, overrides: argparse.Namespace) -> RunConfig:
    return config_from_doc(*_read_json(path), overrides)


def config_from_doc(doc, raw: str, overrides: argparse.Namespace) -> RunConfig:
    """Check a parsed run config; ``raw`` is its JSON text, for line numbers."""
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    _check_keys(doc, _CONFIG_KEYS, raw)

    if "channel" not in doc:
        raise ConfigError("missing 'channel' object")
    ch_doc = doc["channel"]
    if not isinstance(ch_doc, dict):
        raise ConfigError("'channel' must be an object", _line_of(raw, "channel"))
    values = {
        name: _json_number(ch_doc.get(name, 0.0), f"channel.{name}", _line_of(raw, "channel", name))
        for name in _names(ChannelParams)
    }
    try:
        channel = ChannelParams(**values)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}", _line_of(raw, "channel")) from exc

    key, regions, line = "regions", doc.get("regions", []), _line_of(raw, "regions")
    if isinstance(regions, str):
        regions = [regions]
    if getattr(overrides, "region", None):
        regions, key, line = list(overrides.region), "--region", None
    if not isinstance(regions, list) or not all(isinstance(name, str) for name in regions):
        raise ConfigError(f"{key} must be a string or a list of strings, got {regions!r}", line)
    if not regions:
        raise ConfigError("no region selectors given", line)
    for index, name in enumerate(regions):
        if name not in REGION_FAMILIES:
            raise ConfigError(
                f"unknown region selector {name!r} (choose from {', '.join(REGION_FAMILIES)})",
                line and _line_of(raw, "regions", index),
            )
    if len(set(regions)) < len(regions):
        raise ConfigError(f"{key} names a region more than once: {regions!r}", line)

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("'grid' must be an object", _line_of(raw, "grid"))
    grids: dict[str, SweepGrid] = {}
    for name in regions:
        base = default_grid(name, overrides.grid_steps)
        grids[name] = SweepGrid(**{
            axis: _axis_from_doc(grid_doc.get(axis), raw, axis, getattr(base, axis))
            for axis in _names(SweepGrid)
        })

    line = _line_of(raw, "r1_step")
    r1_step = _json_number(doc.get("r1_step", DEFAULT_R1_STEP), "r1_step", line)
    try:
        _check_r1_step(r1_step)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from exc

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be an integer >= 0", _line_of(raw, "seed"))

    return RunConfig(
        channel=channel,
        regions=tuple(regions),
        grids=grids,
        r1_step=r1_step,
        convex_hull=_json_bool(doc, "convex_hull", raw) or overrides.convex_hull,
        paper_literal=_json_bool(doc, "paper_literal", raw),
        seed=seed,
    )


def _write_csv(path: Path, rows) -> None:
    lines = ["r1_bits,r2_bits,region"]
    lines += [f"{repr(r1)},{repr(r2)},{label}" for r1, r2, label in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` with the tool's name and version as sorted, indented JSON."""
    doc = {**doc, "tool": "icdms", "version": __version__}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_meta(path: Path, config: RunConfig, extra: dict) -> None:
    _write_json(path, {**dataclasses.asdict(config), **extra})


#: Bits by which a frontier may exceed a closed-form cut-set bound before
#: ``_check_cut_set`` refuses it: the summary line's resolution.  On 300
#: random channels with powers up to ``MAX_POWER`` (11-point grids, with and
#: without the hull), ``g`` exceeded the bounds by at most 3.9e-10 bits where
#: every power was <= 1e8, 3.8e-7 where <= 1e11, 1.4e-4 where <= 1e12 and
#: 1.3 bits overall: the covariance determinants' conditioning error, which
#: grows with power.  ``g_suc`` exceeded them by at most 1.4e-14 bits,
#: ``g_sp1`` and ``g_sp2`` by 0, and the figure presets and the
#: ``fine-region`` channels of seeds 0-19 read 0.
CUT_SET_TOL = 1e-6


def _check_cut_set(channel: ChannelParams, name: str, frontier: Frontier) -> None:
    """Raise ``ConfigError`` if ``frontier`` reaches past what any code can:
    r1 <= I(X1, X2; Y1) <= gamma((sqrt(p1) + sqrt(c21 * p2))^2), its value at
    fully correlated inputs, and r2 <= I(X2; Y2 | X1) <= gamma(p2), where
    gamma(x) is log2(1 + x) / 2, each up to ``CUT_SET_TOL``."""
    p1, p2, c21 = channel.p1, channel.p2, channel.c21
    for rate, value, bound in (
        ("r1", frontier.reach, 0.5 * math.log2(1.0 + (math.sqrt(p1) + math.sqrt(c21 * p2)) ** 2)),
        ("r2", max(float(frontier.r2.max()), frontier.reach_r2), 0.5 * math.log2(1.0 + p2)),
    ):
        if value > bound + CUT_SET_TOL:
            raise ConfigError(
                f"{name} frontier reaches {rate} = {value!r} bits, past the cut-set bound "
                f"{bound!r} bits that no code exceeds: the evaluation lost its precision here"
            )


def _run(config: RunConfig, out: str | None, stem: str, extra: dict):
    """Sweep and check every region of ``config``; only then create ``out``, write
    ``<stem>.csv`` and ``<stem>.meta.json``, print a summary; return the CSV path and frontiers."""
    frontiers: dict[str, Frontier] = {}
    rows = []
    for name in config.regions:
        frontier = sweep_gaussian(config.channel, config.grids[name], name, config.r1_step)
        if config.convex_hull:
            frontier = time_sharing_hull(frontier)
        _check_cut_set(config.channel, name, frontier)
        frontiers[name] = frontier
        rows += [(float(r1), float(r2), name) for r1, r2 in zip(*frontier.points())]
    out_dir = Path(out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    _write_csv(csv_path, rows)
    _write_meta(out_dir / f"{stem}.meta.json", config, extra)
    for name, frontier in frontiers.items():
        print(
            f"{name}: {frontier.r2.size} samples, reach {frontier.reach:.6f} bits, "
            f"max r2 {float(frontier.r2.max()):.6f} bits"
        )
    return csv_path, frontiers


def cmd_region(args: argparse.Namespace) -> int:
    config = load_config(Path(args.config), args)
    csv_path, _ = _run(config, args.out, "frontier", {"command": "region"})
    print(f"wrote {csv_path}")
    return 0


def _format_report(region) -> list[str]:
    lines = [f"scheme: {region.scheme}"]
    lines.append(f"r1_bound_bits  = {region.r1_bound:.12g}")
    lines.append(f"r2_bound_bits  = {region.r2_bound:.12g}")
    if region.sum_bound is not None:
        lines.append(f"sum_bound_bits = {region.sum_bound:.12g}")
    for name, value in region.constraints.items():
        lines.append(f"residual {name} = {value:.12g}")
    lines.append(f"feasible: {region.feasible}")
    return lines


def cmd_discrete(args: argparse.Namespace) -> int:
    if args.paper_literal and args.scheme == "full":
        raise ConfigError("--paper-literal is read by --scheme sim and suc, not --scheme full")
    doc, _ = _read_json(Path(args.distribution))
    try:
        fd = distribution_from_dict(doc)
        if args.scheme == "full":
            region = region_full(fd)
        else:
            evaluate = region_sim if args.scheme == "sim" else region_suc
            region = evaluate(fd, paper_literal=args.paper_literal)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "scheme": region.scheme,
            "r1_bound_bits": region.r1_bound,
            "r2_bound_bits": region.r2_bound,
            "sum_bound_bits": region.sum_bound,
            "constraints": region.constraints,
            "feasible": region.feasible,
            "paper_literal": args.paper_literal,
        }
        _write_json(out_dir / "discrete_report.json", payload)
    lines = _format_report(region)
    if args.scheme in ("sim", "suc"):
        lines.append(f"active sign constraint: {', '.join(region.active)}")
    print("\n".join(lines))
    return 0


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _svg_plot(frontiers: dict[str, Frontier], title: str) -> str:
    """Fixed 800x600 SVG overlay of frontier polylines, axes in bits."""
    width, height = 800, 600
    left, right, top, bottom = 70, 20, 40, 55
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_max = max(f.reach for f in frontiers.values()) * 1.05 or 1.0
    y_max = max(float(f.r2.max()) for f in frontiers.values()) * 1.05 or 1.0

    def sx(x: float) -> float:
        return left + plot_w * x / x_max

    def sy(y: float) -> float:
        return top + plot_h * (1.0 - y / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]
    n_ticks = 6
    for i in range(n_ticks):
        xv = x_max * i / (n_ticks - 1)
        yv = y_max * i / (n_ticks - 1)
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{top + plot_h}" x2="{sx(xv):.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.2f}</text>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{sy(yv):.2f}" x2="{left}" y2="{sy(yv):.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">R1 (bits)</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">R2 (bits)</text>'
    )
    for k, (name, f) in enumerate(frontiers.items()):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(*f.points()))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
            f'points="{coords}"/>'
        )
        ly = top + 16 + 18 * k
        parts.append(
            f'<line x1="{left + plot_w - 130}" y1="{ly}" x2="{left + plot_w - 104}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 98}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args: argparse.Namespace) -> int:
    config = config_from_doc(FIGURE_PRESETS[args.preset], "", args)
    extra = {"command": "figure", "preset": args.preset}
    csv_path, frontiers = _run(config, args.out, args.preset, extra)
    title = f"{args.preset}: achievable rate regions"
    csv_path.with_suffix(".svg").write_text(_svg_plot(frontiers, title))
    print(f"wrote {csv_path} and .svg")
    return 0


def cmd_dpc_lambda(args: argparse.Namespace) -> int:
    try:
        channel = ChannelParams(p1=args.p1, p2=args.p2, c12=args.c12, c21=args.c21)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc
    lam, gain = dpc_lambda_star(channel, args.alpha, args.beta)
    print(f"lambda_star = {lam:.12g}")
    print(f"gain_bits   = {gain:.12g}")
    if args.check:
        s, eta2 = _dpc_split(channel, args.alpha, args.beta)
        if s == 0.0:
            print("check: zero stream power, objective identically 0")
            return 0
        objective = dpc_gain_objective(channel, args.alpha, args.beta)
        hi = 3.0 * (eta2 + 1.0)
        arg, value = grid_maximize(objective, 0.0, hi, args.check)
        # The peak is about 1 wide in lambda, so at high power it can fall
        # between grid points: search again one spacing either side of the
        # best argmax so far, while the window holds more than one float,
        # each pass improves and the next would narrow.
        step = hi / (args.check - 1)
        while (lo := max(0.0, arg - step)) < arg + step:
            fine = grid_maximize(objective, lo, arg + step, args.check)
            if fine[1] <= value:
                break
            arg, value = fine
            if args.check <= 3:  # 2 * step / (n - 1) is not below step
                break
            step = 2.0 * step / (args.check - 1)
        print(f"grid argmax = {arg:.12g}, value = {value:.12g}")
        print(f"closed-form minus grid value = {gain - value:.3g}")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    verdicts: list[bool] = []

    def verdict(ok: bool) -> str:
        verdicts.append(ok)
        return "ok" if ok else "FAIL"

    print("entropy terms vs Monte Carlo:")
    for draw in range(args.draws):
        channel = ChannelParams(
            p1=float(rng.uniform(0.5, 8.0)),
            p2=float(rng.uniform(0.5, 8.0)),
            c12=float(rng.uniform(0.0, 2.0)),
            c21=float(rng.uniform(0.0, 2.0)),
        )
        coding = GaussianCoding(
            alpha=float(rng.uniform(0.2, 0.9)),
            beta=float(rng.uniform(0.2, 0.8)),
            lambda1=float(rng.uniform(0.0, 1.0)),
            lambda2=float(rng.uniform(0.0, 1.0)),
        )
        worst = _entropy_worst_z(channel, coding, args.samples, args.seed + 1000 * draw)
        print(f"  draw {draw}: max |z| = {worst:.2f} {verdict(worst <= 3.0)}")

    print("discrete mutual information, vectorized vs brute force:")
    worst_diff = 0.0
    sizes = AlphabetSpec()
    for _ in range(args.draws):
        fd = random_star(sizes, rng)
        j = assemble_joint(fd)
        terms = _terms(fd, STAR)  # the route the regions run
        for name in ("r1", "i_uv_y2", "i_vw"):
            b = brute_joint_mi(j, *_TERM_QUERIES[STAR][name])
            worst_diff = max(worst_diff, abs(terms[name] - b))
    status = verdict(worst_diff <= 1e-12)
    print(f"  max |difference| over {args.draws} draws = {worst_diff:.3g} {status}")
    return 0 if all(verdicts) else 1


def _entropy_worst_z(channel, coding, samples, seed_base) -> float:
    h = entropy_terms(channel, coding)
    matrices = build_covariances(channel, coding)
    jobs = [
        (matrices[which][np.ix_(rows, rows)], samples, seed_base + term_index)
        for term_index, (which, rows) in enumerate(ENTROPY_BLOCKS.values())
    ]
    worst = 0.0
    for name, estimate in zip(ENTROPY_BLOCKS, _mc_estimates(jobs)):
        z = abs(estimate.value_bits - getattr(h, name)) / estimate.std_error_bits
        worst = max(worst, z)
    return worst


def _mc_estimates(jobs) -> list:
    """``mc_gaussian_entropy(cov, n, seed)`` of each ``(cov, n, seed)`` job,
    in job order, on a pool of one thread per CPU this process may use.

    Each estimate owns its generator and buffers and its draws and
    arithmetic release the interpreter lock, so the estimates overlap and
    equal serial calls bit for bit.  The pool is imported here, so a
    process that runs no estimate does not load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_usable_cpus()) as pool:
        return list(pool.map(lambda job: mc_gaussian_entropy(*job), jobs))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _number(kind, lo, hi=None):
    """argparse type: a finite ``kind`` in [lo, hi]; argparse names the flag
    and exits 2 on anything else."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and lo <= value and (hi is None or value <= hi)):
            where = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be finite and {where}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" message
    return parse


#: The flags a Gaussian sweep reads; ``discrete`` takes ``--out`` too.
_FLAGS = {
    "--out": dict(default=None, help="output directory"),
    "--convex-hull": dict(
        action="store_true",
        help="apply the time-sharing (concave envelope) closure to frontiers",
    ),
    "--grid-steps": dict(
        type=_number(int, 1, MAX_AXIS_POINTS),
        default=None,
        help="points per axis; the bin coefficients, and g's alpha and beta, "
        "keep at most their default count",
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icdms",
        description="Achievable rate regions for interference channels with "
        "degraded message sets",
    )
    parser.add_argument("--version", action="version", version=f"icdms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="sweep Gaussian region families")
    p_region.add_argument("--config", required=True, help="JSON run configuration")
    p_region.add_argument(
        "--region",
        action="append",
        choices=REGION_FAMILIES,
        help="region selector(s), overriding the config",
    )
    _add_flags(p_region, *_FLAGS)
    p_region.set_defaults(func=cmd_region)

    p_discrete = sub.add_parser("discrete", help="evaluate a factored distribution")
    p_discrete.add_argument(
        "--distribution", required=True, help="JSON factored-distribution file"
    )
    p_discrete.add_argument(
        "--scheme",
        choices=("full", "sim", "suc"),
        default="full",
        help="coding scheme to evaluate",
    )
    p_discrete.add_argument(
        "--paper-literal",
        action="store_true",
        help="decide sim/suc feasibility by the as-printed receiver-1 sign constraint",
    )
    _add_flags(p_discrete, "--out")
    p_discrete.set_defaults(func=cmd_discrete)

    p_figure = sub.add_parser("figure", help="run a figure preset")
    p_figure.add_argument("preset", choices=sorted(FIGURE_PRESETS))
    _add_flags(p_figure, *_FLAGS)
    p_figure.set_defaults(func=cmd_figure)

    p_dpc = sub.add_parser("dpc-lambda", help="dirty-paper bin coefficient")
    power, fraction = _number(float, 0.0), _number(float, 0.0, 1.0)
    p_dpc.add_argument("--p1", type=power, required=True)
    p_dpc.add_argument("--p2", type=power, required=True)
    p_dpc.add_argument("--c12", type=power, default=0.0)
    p_dpc.add_argument("--c21", type=power, default=0.0)
    p_dpc.add_argument("--alpha", type=fraction, required=True)
    p_dpc.add_argument("--beta", type=fraction, required=True)
    p_dpc.add_argument(
        "--check",
        type=_number(int, 2, MAX_GRID_STEPS),
        nargs="?",
        const=50001,
        default=None,
        help="grid-check the optimum with this many grid points, and as many "
        "again in each narrowing pass around the best argmax",
    )
    p_dpc.set_defaults(func=cmd_dpc_lambda)

    p_oracle = sub.add_parser("oracle-check", help="run oracle self-checks")
    p_oracle.add_argument("--draws", type=_number(int, 1), default=3)
    p_oracle.add_argument(
        "--samples", type=_number(int, MIN_MC_SAMPLES, MAX_MC_SAMPLES), default=200_000
    )
    p_oracle.add_argument("--seed", type=_number(int, 0), default=0, help="random seed")
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmptyUnionError, ConfigError, SampleCapError, OSError) as exc:
        # A bare ValueError is a broken internal invariant, not a bad input,
        # so it keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY if isinstance(exc, EmptyUnionError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
