"""Tests for the command-line surface: exit codes, file outputs, determinism."""

import json
import math

import numpy as np
import pytest

from icdms import AlphabetSpec, distribution_to_dict, random_star, region_sim
from icdms.cli import main
import icdms.cli as cli_module


SMALL_CONFIG = {
    "channel": {"p1": 6.0, "p2": 6.0, "c12": 0.0, "c21": 0.3},
    "regions": ["g_sp1"],
    "grid": {"alpha": {"lo": 0.0, "hi": 1.0, "count": 41}},
    "r1_step": 0.01,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def test_region_command_writes_csv_and_meta(tmp_path):
    config = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 0
    csv_text = (out / "frontier.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "r1_bits,r2_bits,region"
    assert lines[1].endswith(",g_sp1")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    meta = json.loads((out / "frontier.meta.json").read_text())
    assert meta["channel"] == {"p1": 6.0, "p2": 6.0, "c12": 0.0, "c21": 0.3}
    assert meta["regions"] == ["g_sp1"]
    assert meta["version"]
    assert meta["grids"]["g_sp1"]["alpha"]["count"] == 41


def test_region_command_deterministic(tmp_path):
    config = write_config(tmp_path, SMALL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["region", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["region", "--config", str(config), "--out", str(out2)]) == 0
    assert (out1 / "frontier.csv").read_bytes() == (out2 / "frontier.csv").read_bytes()


def test_region_command_invalid_json_has_line_number(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{\n  "channel": {\n}')
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_region_command_bad_selector(tmp_path, capsys):
    doc = dict(SMALL_CONFIG, regions=["bogus"])
    config = write_config(tmp_path, doc)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_region_command_bad_channel_value(tmp_path, capsys):
    doc = dict(SMALL_CONFIG, channel={"p1": -3.0, "p2": 6.0, "c12": 0.0, "c21": 0.3})
    config = write_config(tmp_path, doc)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "p1" in capsys.readouterr().err


def test_region_command_missing_config(tmp_path):
    assert main(["region", "--config", str(tmp_path / "nope.json")]) == 2


def test_region_command_empty_union_exit_code(tmp_path, monkeypatch, capsys):
    from icdms.geometry import EmptyUnionError

    def boom(*args, **kwargs):
        raise EmptyUnionError("no feasible region in the union")

    monkeypatch.setattr(cli_module, "sweep_gaussian", boom)
    config = write_config(tmp_path, SMALL_CONFIG)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert "no feasible region" in capsys.readouterr().err


def test_region_selector_override(tmp_path):
    config = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "o"
    assert (
        main(
            [
                "region", "--config", str(config), "--out", str(out),
                "--region", "g_sp2", "--grid-steps", "21",
            ]
        )
        == 0
    )
    body = (out / "frontier.csv").read_text()
    assert ",g_sp2" in body and ",g_sp1" not in body


def test_region_collapsed_alpha_single_corner(tmp_path):
    doc = dict(SMALL_CONFIG, grid={"alpha": {"lo": 0.0, "hi": 0.0, "count": 1}})
    config = write_config(tmp_path, doc)
    out = tmp_path / "corner"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "frontier.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)


def test_region_axis_without_hi_uses_default(tmp_path):
    doc = dict(SMALL_CONFIG, grid={"alpha": {"lo": 0.0, "count": 41}})
    config = write_config(tmp_path, doc)
    base_config = write_config(tmp_path, SMALL_CONFIG, "base.json")
    out, base = tmp_path / "nohi", tmp_path / "base"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 0
    assert main(["region", "--config", str(base_config), "--out", str(base)]) == 0
    assert (out / "frontier.csv").read_bytes() == (base / "frontier.csv").read_bytes()


@pytest.mark.parametrize(
    "key, axis",
    [
        ("alpha", {"lo": 0.0, "hi": 2.0, "count": 5}),
        ("beta", {"lo": -0.5, "hi": 1.0, "count": 5}),
        ("edge_alpha", {"lo": 0.0, "hi": 1.5, "count": 5}),
        ("alpha", {"lo": 0.0, "hi": None, "count": 5}),
    ],
)
def test_region_power_split_axis_outside_unit_interval(tmp_path, capsys, key, axis):
    doc = dict(SMALL_CONFIG, regions=["g_suc"], grid={key: axis})
    config = write_config(tmp_path, doc)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if f'"{key}"' in text)
    assert f"line {line}: grid.{key} must lie in [0, 1]" in err


def test_region_config_seed_recorded(tmp_path):
    config = write_config(tmp_path, dict(SMALL_CONFIG, seed=7))
    out = tmp_path / "seeded"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "frontier.meta.json").read_text())["seed"] == 7
    assert main(["region", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
    assert json.loads((out / "frontier.meta.json").read_text())["seed"] == 3


def test_region_config_seed_must_be_integer(tmp_path, capsys):
    for seed in ("seven", -1):
        config = write_config(tmp_path, dict(SMALL_CONFIG, seed=seed))
        assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_region_config_r1_step_over_sample_cap(tmp_path, capsys):
    config = write_config(tmp_path, dict(SMALL_CONFIG, r1_step=1e-9))
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "r1_step 1e-09" in capsys.readouterr().err


def test_region_config_of_figure_preset_matches_figure(tmp_path):
    config = write_config(tmp_path, cli_module.FIGURE_PRESETS["fig4"])
    assert main(["figure", "fig4", "--out", str(tmp_path)]) == 0
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "frontier.csv").read_bytes() == (tmp_path / "fig4.csv").read_bytes()
    region_meta = json.loads((tmp_path / "frontier.meta.json").read_text())
    figure_meta = json.loads((tmp_path / "fig4.meta.json").read_text())
    assert region_meta.pop("command") == "region"
    assert figure_meta.pop("command") == "figure"
    assert figure_meta.pop("preset") == "fig4"
    assert region_meta == figure_meta


@pytest.mark.parametrize(
    "argv",
    [
        ["dpc-lambda", "--p1", "6", "--p2", "6", "--alpha", "1", "--beta", "0", "--out", "x"],
        ["oracle-check", "--grid-steps", "5"],
        ["discrete", "--distribution", "d.json", "--seed", "1"],
    ],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_DPC = ["dpc-lambda", "--p1", "6", "--p2", "6", "--alpha", "1", "--beta", "0"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["figure", "fig4", "--grid-steps", "0"], "--grid-steps"),
        (["figure", "fig4", "--grid-steps", "-1"], "--grid-steps"),
        (["region", "--config", "c.json", "--grid-steps", "0"], "--grid-steps"),
        (_DPC + ["--alpha", "2"], "--alpha"),
        (_DPC + ["--beta", "nan"], "--beta"),
        (_DPC + ["--p1", "-1"], "--p1"),
        (_DPC + ["--c21", "inf"], "--c21"),
        (_DPC + ["--check", "1"], "--check"),
        (["oracle-check", "--samples", "1"], "--samples"),
        (["oracle-check", "--draws", "0"], "--draws"),
        (["oracle-check", "--seed", "-1"], "--seed"),
        (_DPC + ["--check", str(10**7 + 1)], "--check"),
        (["oracle-check", "--samples", str(10**7 + 1)], "--samples"),
    ],
)
def test_bad_numeric_argument_exits_2_naming_it(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_figure_fig4(tmp_path):
    assert main(["figure", "fig4", "--out", str(tmp_path)]) == 0
    csv_lines = (tmp_path / "fig4.csv").read_text().splitlines()
    assert csv_lines[0] == "r1_bits,r2_bits,region"
    assert all(line.endswith(",g_sp1") for line in csv_lines[1:])
    svg = (tmp_path / "fig4.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "R1 (bits)" in svg and "R2 (bits)" in svg and "g_sp1" in svg
    meta = json.loads((tmp_path / "fig4.meta.json").read_text())
    assert meta["preset"] == "fig4"
    assert meta["channel"]["c21"] == 0.3 and meta["channel"]["c12"] == 0.0


def test_figure_fig5_includes_half_alpha_point(tmp_path):
    assert main(["figure", "fig5", "--out", str(tmp_path)]) == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "fig5.csv").read_text().splitlines()[1:]
    ]
    r1 = np.array([float(r[0]) for r in rows])
    r2 = np.array([float(r[1]) for r in rows])
    # alpha = 0.5 point: (log2(1.6)/2, 1.0) lies on or under the frontier.
    target_r1 = 0.5 * math.log2(1.6)
    k = int(np.searchsorted(r1, target_r1, side="right")) - 1
    assert r2[k] >= 1.0 - 1e-9


def test_figure_convex_hull_flag(tmp_path):
    assert main(["figure", "fig7", "--out", str(tmp_path / "raw"), "--grid-steps", "51"]) == 0
    assert (
        main(
            [
                "figure", "fig7", "--out", str(tmp_path / "hull"),
                "--grid-steps", "51", "--convex-hull",
            ]
        )
        == 0
    )

    def read(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return {
            name: np.array([float(r[1]) for r in rows if r[2] == name])
            for name in {r[2] for r in rows}
        }

    raw = read(tmp_path / "raw" / "fig7.csv")
    hull = read(tmp_path / "hull" / "fig7.csv")
    assert np.all(hull["g_sp1"] >= raw["g_sp1"] - 1e-12)
    assert np.any(hull["g_sp1"] > raw["g_sp1"] + 1e-6)


def test_discrete_command_report(tmp_path, capsys):
    rng = np.random.default_rng(12)
    fd = random_star(AlphabetSpec(), rng)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(distribution_to_dict(fd)))
    assert (
        main(
            [
                "discrete", "--distribution", str(dist), "--scheme", "sim",
                "--out", str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    region = region_sim(fd)
    assert f"{region.r1_bound:.12g}" in out
    assert f"{region.r2_bound:.12g}" in out
    assert "v_margin_y2" in out and "v_margin_y1" in out
    assert "active sign constraint: v_margin_y2" in out
    report = json.loads((tmp_path / "discrete_report.json").read_text())
    assert report["scheme"] == "sim"
    assert report["r1_bound_bits"] == region.r1_bound

    capsys.readouterr()
    assert (
        main(
            ["discrete", "--distribution", str(dist), "--scheme", "sim", "--paper-literal"]
        )
        == 0
    )
    assert "active sign constraint: v_margin_y1" in capsys.readouterr().out


def test_discrete_command_unit_square(tmp_path, capsys):
    # Noiseless binary example whose bounds are exactly (1, 1, 2) bits.
    eye = np.eye(2)
    p_uut = np.broadcast_to((0.5 * eye)[None, None], (1, 2, 2, 2)).copy()
    p_x2 = np.zeros((1, 2, 2, 2, 2))
    for ut in range(2):
        for vt in range(2):
            p_x2[0, :, ut, vt, vt] = 1.0
    chan = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            chan[x1, x2, x1, x2] = 1.0
    doc = {
        "family": "full",
        "factors": {
            "q": [1.0],
            "w_x1": (0.5 * eye)[None].tolist(),
            "u_ut": p_uut.tolist(),
            "v_vt": p_uut.tolist(),
            "x2": p_x2.tolist(),
            "channel": chan.tolist(),
        },
    }
    dist = tmp_path / "unit.json"
    dist.write_text(json.dumps(doc))
    assert main(["discrete", "--distribution", str(dist), "--scheme", "full"]) == 0
    out = capsys.readouterr().out
    assert "r1_bound_bits  = 1" in out
    assert "r2_bound_bits  = 1" in out
    assert "sum_bound_bits = 2" in out
    assert "feasible: True" in out


def test_discrete_command_full_scheme(tmp_path, capsys):
    rng = np.random.default_rng(13)
    from icdms import random_full

    fd = random_full(AlphabetSpec(), rng)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(distribution_to_dict(fd)))
    assert main(["discrete", "--distribution", str(dist), "--scheme", "full"]) == 0
    out = capsys.readouterr().out
    assert "sum_bound_bits" in out and "u_at_y1" in out


def test_discrete_command_normalization_error(tmp_path, capsys):
    rng = np.random.default_rng(14)
    fd = random_star(AlphabetSpec(), rng)
    doc = distribution_to_dict(fd)
    doc["factors"]["v_vt"][0][1][0][0] += 0.25  # break one slice
    dist = tmp_path / "bad.json"
    dist.write_text(json.dumps(doc))
    assert main(["discrete", "--distribution", str(dist), "--scheme", "sim"]) == 2
    err = capsys.readouterr().err
    assert "p_vvt" in err and "(0, 1)" in err


@pytest.mark.parametrize(
    "key, table, needle",
    [
        ("q", 1.0, "'p_q' (file key 'q') must have rank 1"),
        ("w_x1", [[0.25, 0.25], [0.25, 0.25]], "'p_wx1' (file key 'w_x1') must have rank 3"),
        ("x2", np.full((1, 3, 2, 2, 2), 0.5).tolist(), "'p_x2' (file key 'x2'): axis 'w'"),
        ("q", [{"a": 1.0}], "'p_q' (file key 'q') must be an array of numbers"),
        ("u", [[0.5], [0.25, 0.75]], "'p_u' (file key 'u') must be an array of numbers"),
    ],
    ids=["scalar_q", "2d_w_x1", "x2_w_axis_3", "object_in_q", "ragged_u"],
)
def test_discrete_command_malformed_factor_exits_2(tmp_path, capsys, key, table, needle):
    fd = random_star(AlphabetSpec(), np.random.default_rng(15))
    doc = distribution_to_dict(fd)
    doc["factors"][key] = table
    dist = tmp_path / "bad.json"
    dist.write_text(json.dumps(doc))
    assert main(["discrete", "--distribution", str(dist), "--scheme", "sim"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


def test_discrete_command_bad_json(tmp_path, capsys):
    dist = tmp_path / "bad.json"
    dist.write_text("{not json")
    assert main(["discrete", "--distribution", str(dist)]) == 2
    assert "line" in capsys.readouterr().err


def test_dpc_lambda_command(capsys):
    assert (
        main(
            [
                "dpc-lambda", "--p1", "6", "--p2", "6", "--c12", "0.3",
                "--c21", "0.3", "--alpha", "1.0", "--beta", "0.0",
                "--check", "20001",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "lambda_star = 1.14997" in out
    assert "gain_bits   = 1.40367" in out
    assert "grid argmax" in out


def test_oracle_check_command(capsys):
    assert (
        main(["oracle-check", "--draws", "2", "--samples", "50000", "--seed", "5"]) == 0
    )
    out = capsys.readouterr().out
    assert "max |z|" in out and "ok" in out
