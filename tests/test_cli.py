"""Tests for the command-line surface: exit codes, file outputs, determinism."""

import importlib
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from icdms import AlphabetSpec, distribution_to_dict, random_star, region_sim
from icdms.cli import main
from icdms.geometry import Frontier
import icdms.cli as cli_module


SMALL_CONFIG = {
    "channel": {"p1": 6.0, "p2": 6.0, "c12": 0.0, "c21": 0.3},
    "regions": ["g_sp1"],
    "grid": {"alpha": {"lo": 0.0, "hi": 1.0, "count": 41}},
    "r1_step": 0.01,
}


#: The benchmark's directory.  Its reference outputs at the benchmark's
#: seed, and the inputs that produce them, are read here and never written.
BENCH = Path(__file__).resolve().parents[1] / "bench"
FIGURE_REFS = BENCH / "refs" / "figures"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--config", "{dir}"],
        ["discrete", "--distribution", "{dir}"],
        ["region", "--config", "{latin1}"],
        ["region", "--config", "{config}", "--out", "{file}"],
        ["figure", "fig4", "--out", "{file}"],
        ["discrete", "--distribution", "{dist}", "--scheme", "sim", "--out", "{file}"],
    ],
    ids=[
        "config_is_dir", "distribution_is_dir", "config_not_utf8",
        "region_out_is_file", "figure_out_is_file", "discrete_out_is_file",
    ],
)
def test_unreadable_input_or_output_path_exits_2(tmp_path, capsys, argv):
    # Each of these ended in an OSError or UnicodeDecodeError traceback.
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"channel": {"p1": 6}, "note": "é"}'.encode("latin-1"))
    dist = tmp_path / "dist.json"
    fd = random_star(AlphabetSpec(), np.random.default_rng(16))
    dist.write_text(json.dumps(distribution_to_dict(fd)))
    file = tmp_path / "file"
    file.write_text("")
    paths = {
        "dir": tmp_path, "latin1": latin1, "dist": dist, "file": file,
        "config": write_config(tmp_path, SMALL_CONFIG),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""  # no report is printed before the error


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--config", "{config}", "--out", "{out}"],
        ["dpc-lambda", "--p1", "1e308", "--p2", "1e308", "--alpha", "0.5", "--beta", "0"],
    ],
    ids=["region_c21_p2_overflows", "dpc_lambda_p2_overflows"],
)
def test_channel_beyond_the_power_cap_exits_2(tmp_path, capsys, argv):
    # The region ended in a ValueError traceback (c21 * p2 overflowed in the
    # g_suc bounds); dpc-lambda printed lambda_star = inf.
    doc = dict(SMALL_CONFIG, channel={"p1": 1, "p2": 1e200, "c21": 1e200})
    config = write_config(tmp_path, doc)
    assert main([arg.format(config=config, out=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be <= 1e+100" in err


def test_region_past_the_cut_set_bound_exits_2_without_a_csv(tmp_path, capsys):
    # This run exited 0 and wrote a g reach of 331.69 bits, twice what any
    # code reaches on the channel: 1/2 log2(1 + (sqrt(p1) + sqrt(c21 p2))^2)
    # = 166.10 bits.  The lambda1 axis to 5e49 loses the evaluation's
    # precision at these powers.
    doc = {
        "channel": {"p1": 1e-300, "p2": 1e100, "c12": 0.0, "c21": 1.0},
        "regions": ["g"],
        "grid": {
            "alpha": {"count": 3},
            "beta": {"count": 3},
            "lambda1": {"lo": 0.0, "hi": 5e49, "count": 3},
            "lambda2": {"count": 3},
        },
    }
    out = tmp_path / "out"
    assert main(["region", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: g frontier reaches r1 = 331.69")
    assert "past the cut-set bound 166.0964047443" in err
    assert not (out / "frontier.csv").exists() and not (out / "frontier.meta.json").exists()
    assert not out.exists()  # the refused run creates no output directory either


@pytest.mark.parametrize("rate", ["r1", "r2"])
def test_cut_set_check_refuses_either_rate_past_its_bound(rate):
    # fig6's channel: r1 <= 1/2 log2(1 + (sqrt(6) + sqrt(12))^2), r2 <= 1/2 log2(7).
    # A frontier at the bounds passes; one past either by twice the
    # tolerance (r2 through its end point) is refused, naming the rate.
    channel = cli_module.ChannelParams(6.0, 6.0, 0.3, 2.0)
    b1 = 0.5 * math.log2(1.0 + (math.sqrt(6.0) + math.sqrt(12.0)) ** 2)
    b2 = 0.5 * math.log2(7.0)
    cli_module._check_cut_set(channel, "g", Frontier(0.5, np.array([b2, 0.0]), b1, 0.0))
    over = 2 * cli_module.CUT_SET_TOL
    frontier = (
        Frontier(0.5, np.array([b2, 0.0]), b1 + over, 0.0)
        if rate == "r1"
        else Frontier(0.5, np.array([b2, 0.0]), b1, b2 + over)
    )
    with pytest.raises(cli_module.ConfigError, match=f"^g frontier reaches {rate} = "):
        cli_module._check_cut_set(channel, "g", frontier)


def test_region_command_empty_union_exit_code(tmp_path, monkeypatch, capsys):
    from icdms.geometry import EmptyUnionError

    def boom(*args, **kwargs):
        raise EmptyUnionError("no feasible region in the union")

    monkeypatch.setattr(cli_module, "sweep_gaussian", boom)
    config = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 3
    assert "no feasible region" in capsys.readouterr().err
    assert not out.exists()


def test_region_out_that_is_a_file_exits_2(tmp_path, capsys):
    # --out is made after the sweep; a path that cannot be a directory still exits 2.
    config = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "file"
    out.write_text("kept")
    assert main(["region", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
    assert out.read_text() == "kept"


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


@pytest.mark.parametrize(
    "regions, flags, needle",
    [
        (5, [], "regions must be a string or a list of strings, got 5"),
        ([["g"]], [], "regions must be a string or a list of strings, got [['g']]"),
        ([None], [], "regions must be a string or a list of strings, got [None]"),
        ({"g_sp1": 1}, [], "regions must be a string or a list of strings, got {'g_sp1': 1}"),
        (["g_sp1", "g_sp1"], [], "regions names a region more than once"),
        (["g_sp1"], ["--region", "g_sp1", "--region", "g_sp1"], "--region names a region more than once"),
    ],
    ids=["number", "nested_list", "null_member", "object", "repeated", "repeated_flag"],
)
def test_region_selectors_of_a_bad_shape_exit_2(tmp_path, capsys, regions, flags, needle):
    # A number, a nested list or a null ended in a TypeError traceback, an
    # object was read as its keys, and a repeated name wrote every row twice.
    config = write_config(tmp_path, dict(SMALL_CONFIG, regions=regions))
    assert main(["region", "--config", str(config), "--out", str(tmp_path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if flags:
        assert err == f"error: {needle}: ['g_sp1', 'g_sp1']\n"
    else:
        lines = config.read_text().splitlines()
        line = next(n for n, text in enumerate(lines, 1) if '"regions"' in text)
        assert err.startswith(f"error: line {line}: {needle}")


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
        ("lambda1", {"lo": -1, "count": 5}),
    ],
)
def test_region_power_split_axis_outside_unit_interval(tmp_path, capsys, key, axis):
    doc = dict(SMALL_CONFIG, regions=["g_suc"], grid={key: axis})
    config = write_config(tmp_path, doc)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if f'"{key}"' in text)
    if key == "lambda1":
        rule = "must be finite and >= 0, got -1.0"
    elif axis["hi"] is None:
        rule = "needs a set hi in [0, 1]"
    else:
        rule = "must lie in [0, 1]"
    assert f"line {line}: grid.{key} {rule}" in err


@pytest.mark.parametrize("count", [2.7, True, 10**12, "5"])
def test_region_config_bad_grid_count_exits_2(tmp_path, capsys, count):
    # A fractional or boolean count used to be truncated (2.7 ran with 2
    # points, true with 1), and 10**12 ended in a numpy memory traceback.
    doc = dict(SMALL_CONFIG, grid={"lambda1": {"count": count}})
    config = write_config(tmp_path, dict(doc, regions=["g"]))
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if '"lambda1"' in text)
    assert f"line {line}: grid.lambda1: count must be an integer in [1, 1000000]" in err


@pytest.mark.parametrize("hi, code", [(1e308, 2), (6e50, 0)])
def test_region_lambda_axis_exits_2_above_its_cap(tmp_path, capsys, hi, code):
    # fig6's channel with lambda1 up to 1e308 used to print three overflow
    # RuntimeWarnings from the pentagon terms and exit 0.  The cap itself
    # still runs, without a warning.
    doc = {
        "channel": cli_module.FIGURE_PRESETS["fig6"]["channel"],
        "regions": ["g"],
        "grid": {
            "alpha": {"lo": 0.0, "hi": 1.0, "count": 5},
            "beta": {"lo": 0.0, "hi": 1.0, "count": 5},
            "lambda1": {"lo": 0, "hi": hi, "count": 5},
        },
    }
    config = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if '"lambda1"' in text)
    assert (f"line {line}: grid.lambda1 must be <= 6e+50, got 1e+308" in err) == (code == 2)


_CHANNEL = SMALL_CONFIG["channel"]
_NOT_A_NUMBER = "must be a finite JSON number, got"


@pytest.mark.parametrize(
    "patch, key, needle",
    [
        ({"channel": dict(_CHANNEL, p1="6")}, "p1", f"channel.p1 {_NOT_A_NUMBER} '6'"),
        ({"channel": dict(_CHANNEL, p1=True)}, "p1", f"channel.p1 {_NOT_A_NUMBER} True"),
        ({"channel": dict(_CHANNEL, c21=10**400)}, "c21", f"channel.c21 {_NOT_A_NUMBER}"),
        ({"r1_step": "0.05"}, "r1_step", f"r1_step {_NOT_A_NUMBER} '0.05'"),
        ({"grid": {"alpha": {"lo": "0"}}}, "alpha", f"grid.alpha.lo {_NOT_A_NUMBER} '0'"),
        ({"grid": {"lambda1": {"hi": "2"}}}, "lambda1", f"grid.lambda1.hi {_NOT_A_NUMBER} '2'"),
        ({"grid": {"lambda1": {"lo": math.nan}}}, "lambda1", f"grid.lambda1.lo {_NOT_A_NUMBER} nan"),
        ({"convex_hull": "false"}, "convex_hull", "convex_hull must be true or false, got 'false'"),
        ({"paper_literal": 1}, "paper_literal", "paper_literal must be true or false, got 1"),
    ],
)
def test_region_config_value_of_wrong_json_type_exits_2(tmp_path, capsys, patch, key, needle):
    # A string or a bool is rejected, not converted: "false" would apply the
    # hull and record true, and true would run with p1 = 1.
    config = write_config(tmp_path, dict(SMALL_CONFIG, **patch))
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if f'"{key}"' in text)
    assert f"line {line}: {needle}" in err


def test_region_config_with_an_overlong_integer_exits_2(tmp_path, capsys):
    config = tmp_path / "long.json"
    config.write_text('{"channel": {"p1": 1%s}, "regions": ["g_sp1"]}' % ("0" * 5000))
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    # Python's digit limit on int conversion makes this invalid JSON; without
    # the limit the value is out of the float range.  Either exits 2.
    assert capsys.readouterr().err.startswith("error: ")


def test_region_config_integer_values_are_numbers(tmp_path):
    ints = dict(SMALL_CONFIG, channel={"p1": 6, "p2": 6, "c12": 0, "c21": 0.3})
    ints["grid"] = {"alpha": {"lo": 0, "hi": 1, "count": 41}}
    for name, doc in (("ints", ints), ("floats", SMALL_CONFIG)):
        config = write_config(tmp_path, doc, f"{name}.json")
        assert main(["region", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    csv = [(tmp_path / name / "frontier.csv").read_bytes() for name in ("ints", "floats")]
    assert csv[0] == csv[1]


def test_region_config_seed_recorded(tmp_path):
    config = write_config(tmp_path, dict(SMALL_CONFIG, seed=7))
    out = tmp_path / "seeded"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "frontier.meta.json").read_text())["seed"] == 7


def test_region_config_seed_must_be_integer(tmp_path, capsys):
    for seed in ("seven", -1):
        config = write_config(tmp_path, dict(SMALL_CONFIG, seed=seed))
        assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_region_config_r1_step_outside_unit_interval(tmp_path, capsys):
    config = write_config(tmp_path, dict(SMALL_CONFIG, r1_step=0))
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if '"r1_step"' in text)
    assert capsys.readouterr().err == f"error: line {line}: r1_step must be in (0, 1)\n"


def test_region_config_r1_step_over_sample_cap(tmp_path, capsys):
    config = write_config(tmp_path, dict(SMALL_CONFIG, r1_step=1e-9))
    out = tmp_path / "out"
    assert main(["region", "--config", str(config), "--out", str(out)]) == 2
    assert "r1_step 1e-09" in capsys.readouterr().err
    assert not out.exists()


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
        # No Gaussian sweep draws a random number or reads the discrete
        # sign constraint.
        ["region", "--config", "c.json", "--seed", "3"],
        ["region", "--config", "c.json", "--paper-literal"],
        ["figure", "fig4", "--seed", "1"],
        ["figure", "fig4", "--paper-literal"],
    ],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["--version"]]
    + [[name, "--help"] for name in ("region", "discrete", "figure", "dpc-lambda", "oracle-check")],
)
def test_help_and_version_render(argv, capsys):
    # argparse formats a help string, and raises on a stray %, only when it
    # renders it.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_seed_and_paper_literal_stay_where_they_are_read():
    parser = cli_module.build_parser()
    assert parser.parse_args(["oracle-check"]).seed == 0
    assert parser.parse_args(["oracle-check", "--seed", "7"]).seed == 7
    args = parser.parse_args(["discrete", "--distribution", "d.json", "--paper-literal"])
    assert args.paper_literal is True


@pytest.mark.parametrize(
    "steps, g_counts, other_counts",
    [
        (1, (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
        (5, (5, 5, 5, 5, 5), (5, 5, 1, 1, 5)),
        (41, (41, 41, 41, 41, 41), (41, 41, 1, 1, 41)),
        (300, (41, 41, 41, 41, 300), (300, 300, 1, 1, 300)),
    ],
)
def test_grid_steps_point_counts(steps, g_counts, other_counts):
    # Counts per axis (alpha, beta, lambda1, lambda2, edge_alpha) for g and
    # for each of g_suc, g_sp1 and g_sp2.
    doc = {"channel": SMALL_CONFIG["channel"], "regions": ["g", "g_suc", "g_sp1", "g_sp2"]}
    args = cli_module.build_parser().parse_args(
        ["region", "--config", "c.json", "--grid-steps", str(steps)]
    )
    config = cli_module.config_from_doc(doc, "", args)
    for name, grid in config.grids.items():
        counts = tuple(axis.count for axis in vars(grid).values())
        assert counts == (g_counts if name == "g" else other_counts), name


_MISSPELT = {
    "channel": {"P1": 6, "p2": 6, "c21": 0.3},
    "regions": ["g_sp1"],
    "convex_hul": True,
    "grid": {"alfa": {"count": 3}, "alpha": {"counts": 5}},
}


@pytest.mark.parametrize(
    "doc, key, needle",
    [
        (_MISSPELT, "P1", "'channel.P1' (expected p1, p2, c12, c21)"),
        (dict(SMALL_CONFIG, convex_hul=True), "convex_hul", "'convex_hul' (expected channel,"),
        (dict(SMALL_CONFIG, grid={"alfa": {"count": 3}}), "alfa", "'grid.alfa' (expected alpha,"),
        (
            dict(SMALL_CONFIG, grid={"alpha": {"counts": 5}}),
            "counts",
            "'grid.alpha.counts' (expected lo, hi, count)",
        ),
        ({"channel": _CHANNEL, "region": ["g_sp1"]}, "region", "'region' (expected channel,"),
    ],
    ids=["misspelt", "top_level", "grid", "axis", "stale_region_alias"],
)
def test_region_config_unknown_key_exits_2_naming_it(tmp_path, capsys, doc, key, needle):
    # Each of these ran with exit 0: the misspelt config with p1 = 0, no
    # hull and 201 alpha points.
    config = write_config(tmp_path, doc)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    lines = config.read_text().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if f'"{key}"' in text)
    assert capsys.readouterr().err.startswith(f"error: line {line}: unknown key {needle}")


@pytest.mark.parametrize(
    "text, message",
    [
        ('[{"channel": {"p1": 6}}]\n', "top level must be a JSON object"),
        ('{"regions": ["g_sp1"]}\n', "missing 'channel' object"),
        ('{"regions": ["g_sp1"],\n "channel": [6, 6]}\n', "line 2: 'channel' must be an object"),
        ('{"channel": {"p1": 6}, "regions": ["g_sp1"],\n "grid": [1]}\n', "line 2: 'grid' must be an object"),
        (
            '{"channel": {"p1": 6}, "regions": ["g_sp1"],\n "grid": {\n  "alpha": 41}}\n',
            "line 3: grid.alpha must be an object",
        ),
    ],
    ids=["top_level_list", "no_channel", "channel_list", "grid_list", "axis_number"],
)
def test_region_config_of_a_bad_shape_exits_2(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_region_config_regions_may_be_one_string(tmp_path):
    one = write_config(tmp_path, dict(SMALL_CONFIG, regions="g_sp1"), "one.json")
    listed = write_config(tmp_path, SMALL_CONFIG, "listed.json")
    assert main(["region", "--config", str(one), "--out", str(tmp_path / "one")]) == 0
    assert main(["region", "--config", str(listed), "--out", str(tmp_path / "listed")]) == 0
    for name in ("frontier.csv", "frontier.meta.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "listed" / name).read_bytes()


@pytest.mark.parametrize(
    "text, needle",
    [
        (
            '{"channel": {"p1": 6, "p2": 6, "c21": 0.3},\n'
            ' "regions": ["g_sp1"],\n'
            ' "grid": {"alpha": {"count": 5},\n'
            '          "beta": {"count": 5, "alpha": 3}}}\n',
            "line 4: unknown key 'grid.beta.alpha'",
        ),
        (
            '{"grid": {"lambda1": {"count": 3}}, "regions": ["g_sp1"],\n'
            ' "channel": {"p1": 6, "p2": 6, "c21": 0.3},\n'
            ' "lambda1": 3}\n',
            "line 3: unknown key 'lambda1'",
        ),
        (
            '{"channel": {"p1": 6, "p2": 6, "c21": 0.3},\n'
            ' "regions": ["g_sp1",\n'
            '             "g_sp3"]}\n',
            "line 3: unknown region selector 'g_sp3'",
        ),
    ],
    ids=["nested_after_sibling", "top_level_after_nested", "list_member"],
)
def test_config_error_line_follows_its_path(tmp_path, capsys, text, needle):
    # Each unknown key also occurs earlier in the text under another path,
    # so only its own path finds its line.
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {needle} ")


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
        (["figure", "fig4", "--grid-steps", str(10**6 + 1)], "--grid-steps"),
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


def test_figures_match_bench_references(tmp_path):
    # Every output byte of figs. 4-7 is pinned: a change that moves one
    # fails here, not only in the benchmark.
    refs = sorted(FIGURE_REFS.iterdir())
    assert len(refs) == 12
    for fig in ("fig4", "fig5", "fig6", "fig7"):
        assert main(["figure", fig, "--out", str(tmp_path)]) == 0
    for ref in refs:
        assert (tmp_path / ref.name).read_bytes() == ref.read_bytes(), ref.name


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, imported without writing bytecode, so that the
    inputs and references cannot drift from the benchmark's."""
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_fine_region_matches_bench_reference(tmp_path, workloads):
    config = write_config(tmp_path, workloads.fine_region_config(workloads.DEFAULT_SEED, False))
    assert main(["region", "--config", str(config), "--out", str(tmp_path)]) == 0
    digest = workloads.sha256((tmp_path / "frontier.csv").read_bytes())
    assert digest == workloads.load_refs()["fine-region"]


def test_oracle_check_matches_bench_reference(capsys, workloads):
    seed, samples = workloads.DEFAULT_SEED, workloads.ORACLE_SAMPLES
    argv = ["oracle-check", "--draws", "1", "--samples", str(samples), "--seed", str(seed)]
    assert main(argv) == 0
    assert capsys.readouterr().out == workloads.load_refs()["oracle"]


def test_discrete_op_0_matches_bench_reference(tmp_path, workloads):
    evaluate = dict(workloads._EVALUATORS)
    calls = workloads.Discrete(tmp_path, workloads.DEFAULT_SEED, False).inputs(0)
    text = workloads.region_text([evaluate[scheme](fd) for scheme, fd in calls])
    assert workloads.sha256(text.encode()) == workloads.load_refs()["discrete"][0]


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


def test_discrete_paper_literal_with_the_full_scheme_exits_2(tmp_path, capsys):
    # The full scheme reads no sign constraint: the flag was ignored, with
    # exit 0 and "paper_literal": true in the report.
    argv = ["discrete", "--distribution", str(tmp_path / "absent.json"), "--scheme", "full"]
    assert main([*argv, "--paper-literal", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --paper-literal ") and err.count("\n") == 1
    assert "--scheme full" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, extra_factors, needle",
    [
        ({"famly": "star"}, {}, "unknown key 'famly' (expected family, factors)"),
        (
            {},
            {"u_ut": [1.0]},
            "unknown star factor key 'u_ut' (expected q, w_x1, u, v_vt, x2, channel)",
        ),
    ],
)
def test_discrete_unknown_key_exits_2_naming_it(tmp_path, capsys, extra, extra_factors, needle):
    # Both ran with exit 0: the extra factor and the misspelt key were ignored.
    doc = distribution_to_dict(random_star(AlphabetSpec(), np.random.default_rng(5)))
    doc["factors"].update(extra_factors)
    doc.update(extra)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(doc))
    assert main(["discrete", "--distribution", str(dist)]) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"


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
    assert "factor 'p_vvt' (file key 'v_vt'), slice (0, 1): mass sums to " in err


@pytest.mark.parametrize(
    "key, table, needle",
    [
        ("q", 1.0, "'p_q' (file key 'q') must have rank 1"),
        ("w_x1", [[0.25, 0.25], [0.25, 0.25]], "'p_wx1' (file key 'w_x1') must have rank 3"),
        ("x2", np.full((1, 3, 2, 2, 2), 0.5).tolist(), "'p_x2' (file key 'x2'): axis 'w'"),
        ("q", [{"a": 1.0}], "'p_q' (file key 'q') must be an array of numbers"),
        ("u", [[0.5], [0.25, 0.75]], "'p_u' (file key 'u') must be an array of numbers"),
        ("q", ["1"], "'p_q' (file key 'q') must be an array of numbers, got '1'"),
        ("q", [True], "'p_q' (file key 'q') must be an array of numbers, got True"),
        ("u", [[0.0, True]], "'p_u' (file key 'u') must be an array of numbers, got True"),
        # These two were reported as the sum of slice (): the negative entry's
        # slice sums to 1, yet it read "slice (): mass sums to -0.5".
        ("u", [[1.5, -0.5]], "'p_u' (file key 'u'), entry (0, 1) is -0.5, not a finite number >= 0"),
        ("q", [None], "'p_q' (file key 'q'), entry (0,) is nan, not a finite number >= 0"),
    ],
    ids=[
        "scalar_q", "2d_w_x1", "x2_w_axis_3", "object_in_q", "ragged_u", "string_q", "bool_q", "mixed_u",
        "negative_u", "null_q",
    ],
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


@pytest.mark.parametrize("command", [["region", "--config"], ["discrete", "--distribution"]])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


def test_config_nested_near_the_recursion_limit_exits_2(tmp_path, capsys):
    # json.loads reads some of these depths, and the search for the error's
    # line then steps over the same value from deeper in the stack.
    path = tmp_path / "deep.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit + 1):
        doc = {"channel": {"p1": 1.0}, "grid": {"alpha": "@"}}
        path.write_text(json.dumps(doc).replace('"@"', "[" * depth + "]" * depth))
        assert main(["region", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("p2", ["1e20", "1e30", "1e50", "1e100"])
def test_dpc_lambda_check_at_high_power(p2, capsys):
    # The grid check ended in a NonFiniteObjectiveError traceback: the
    # objective's determinant cancelled to 0 or below.
    argv = ["dpc-lambda", "--p1", "0", "--p2", p2, "--alpha", "1", "--beta", "0"]
    assert main([*argv, "--check", "101"]) == 0
    out = capsys.readouterr().out
    assert "closed-form minus grid value = 0\n" in out


@pytest.mark.parametrize(
    "p1, p2", [("1e10", "1e10"), ("1e14", "1e14"), ("1e16", "1e16"), ("0", "1e20")],
    ids=["1e10", "1e14", "1e16", "p1_0_p2_1e20"],
)
def test_dpc_lambda_check_finds_a_peak_between_grid_points(p1, p2, capsys):
    # The objective's peak is about 1 wide in lambda.  At p1 = p2 = 1e10 it
    # falls between the points of a 50,001-point grid over [0, 2.1e5] (a
    # gap of 0.709 bits), and past about 1e14 also between those of one
    # pass around the grid's argmax (6.96e-6 bits at 1e14, 2.27 at p1 = 0,
    # p2 = 1e20).  Passes that narrow around the best argmax close it.
    argv = ["dpc-lambda", "--p1", p1, "--p2", p2, "--alpha", "0.5", "--beta", "0"]
    assert main([*argv, "--check", "50001"]) == 0
    gap = re.search(r"closed-form minus grid value = (\S+)\n", capsys.readouterr().out)
    assert abs(float(gap.group(1))) < 1e-6


@pytest.mark.parametrize(
    "channel, steps",
    [
        (["--p1", "5", "--p2", "1e-320"], "50001"),
        (["--p1", "1e100", "--c12", "1", "--p2", "1e-320"], "3"),
        (["--p1", "0.25", "--c12", "1", "--p2", "5e-324"], "50001"),
    ],
)
def test_dpc_lambda_check_on_a_subnormal_stream_power(channel, steps, capsys):
    # The bin cost lambda**2 / s overflowed on the grid: the check ended in a
    # NonFiniteObjectiveError traceback, and later refused the channel with
    # exit code 2.  At s = 5e-324, s * (lambda - eta2)**2 rounds to 0 unless
    # s is scaled, and the grid value read 0.161 bits above the gain of 0.
    argv = ["dpc-lambda", *channel, "--alpha", "1", "--beta", "0"]
    assert main([*argv, "--check", steps]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "closed-form minus grid value = 0\n" in out


def test_dpc_lambda_check_at_zero_stream_power(capsys):
    # beta = 1 gives the V stream no power, so no lambda changes the objective.
    argv = ["dpc-lambda", "--p1", "6", "--p2", "6", "--c21", "0.3", "--alpha", "0.5", "--beta", "1"]
    assert main([*argv, "--check"]) == 0
    out = "lambda_star = 0\ngain_bits   = 0\ncheck: zero stream power, objective identically 0\n"
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize(
    "steps, grid",
    [
        ("2", "grid argmax = 0, value = 0.82603834829\nclosed-form minus grid value = 0.578\n"),
        ("3", "grid argmax = 1.75623058987, value = 1.19197415837\nclosed-form minus grid value = 0.212\n"),
    ],
)
def test_dpc_lambda_check_on_the_coarsest_grids_makes_one_pass(steps, grid, capsys, monkeypatch):
    # Two or three points cannot narrow the window, so the search stops after
    # one pass around the first grid's argmax: at 2 it finds no better value,
    # at 3 it does.
    calls, grid_maximize = [], cli_module.grid_maximize

    def counted(*args):
        calls.append(args)
        return grid_maximize(*args)

    monkeypatch.setattr(cli_module, "grid_maximize", counted)
    argv = ["dpc-lambda", "--p1", "6", "--p2", "6", "--c12", "0.3", "--c21", "0.3", "--alpha", "1", "--beta", "0"]
    assert main([*argv, "--check", steps]) == 0
    head = "lambda_star = 1.149977817\ngain_bits   = 1.40367746103\n"
    assert capsys.readouterr() == (head + grid, "")
    assert len(calls) == 2


def test_oracle_check_command(capsys):
    assert (
        main(["oracle-check", "--draws", "2", "--samples", "50000", "--seed", "5"]) == 0
    )
    out = capsys.readouterr().out
    assert "max |z|" in out and "ok" in out
