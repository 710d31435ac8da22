import hashlib
import json
import math
import shutil

import pytest

import probefp.cli as cli_module
import probefp.fingerprint as fingerprint_module
import probefp.simulate as simulate_module
from probefp import bundled_strategy_path
from probefp.chain import compose
from probefp.cli import build_parser, main
from probefp.polyexpr import ParamExpr, RationalFn, expr_parse, ratfn_equiv

BAD_PROBE = """probe BADSUM
alphabet C D
init C 0 : x
init D 0 : y
0 C -> C 0 : 1
0 D -> C 0 : 1
"""

# One-state probe that copies the player's last move and flips it with
# weight (x - 2y)^2/4.
NOISY_TFT = """probe NOISY_TFT
alphabet C D
init C 0 : 1
0 C -> C 0 : 1 - 1/4*(x - 2*y)^2
0 C -> D 0 : 1/4*(x - 2*y)^2
0 D -> D 0 : 1 - 1/4*(x - 2*y)^2
0 D -> C 0 : 1/4*(x - 2*y)^2
"""

CONST_C = """probe CONSTC
alphabet C D
init C 0 : 1
0 C -> C 0 : 1
0 D -> C 0 : 1
"""


@pytest.fixture
def workdir(tmp_path):
    for name in ("tft", "allc", "alld", "grim", "pavlov"):
        shutil.copy(bundled_strategy_path(name), tmp_path / f"{name}.player")
    (tmp_path / "constc.probe").write_text(CONST_C)
    (tmp_path / "badsum.probe").write_text(BAD_PROBE)
    return tmp_path


def test_validate_ok(workdir, capsys):
    code = main(["validate", str(workdir / "tft.player"), str(workdir / "constc.probe")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("OK") == 2


def test_validate_bad_probe_prints_residual(workdir, capsys):
    code = main(["validate", str(workdir / "badsum.probe")])
    out = capsys.readouterr().out
    assert code == 2
    assert "-x - y + 1" in out


def test_validate_unreadable_path(workdir, capsys):
    code = main(["validate", str(workdir / "missing.player")])
    assert code == 2
    assert "INVALID" in capsys.readouterr().out


def test_fingerprint_csv(workdir, capsys):
    out_file = workdir / "grid.csv"
    code = main([
        "fingerprint", str(workdir / "allc.player"),
        "--joss-ann", str(workdir / "tft.player"),
        "-n", "4", "-o", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "x,y,value"
    assert len(data) == 16
    for row in data[1:]:
        _, y, value = row.split(",")
        assert float(value) == pytest.approx(3 - 3 * float(y), abs=1e-9)
    meta = [line for line in lines if line.startswith("#")]
    assert any("player_sha256" in line for line in meta)


def test_fingerprint_json_meta(workdir):
    out_file = workdir / "grid.json"
    code = main([
        "fingerprint", str(workdir / "tft.player"), str(workdir / "constc.probe"),
        "-n", "2", "--format", "json", "-o", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["n"] == 2
    assert doc["meta"]["boundary_mode"] == "cesaro"
    assert all(v == 3.0 for _, _, v in doc["values"])


def test_fingerprint_missing_probe_is_usage_error(workdir, capsys):
    assert main(["fingerprint", str(workdir / "allc.player")]) == 64
    both = main([
        "fingerprint", str(workdir / "allc.player"), str(workdir / "constc.probe"),
        "--joss-ann", str(workdir / "tft.player"),
    ])
    assert both == 64


def test_symbolic_output(workdir, capsys):
    code = main([
        "symbolic", str(workdir / "alld.player"), "--joss-ann", str(workdir / "tft.player"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "num: 4*x + 1" in out
    assert "den: 1" in out
    assert out.endswith(
        "\nagreement: exact, checked modulo a prime near 2^61; the form holds off the zeros "
        "of den and of the chain's nonzero weights\n"
    )


def test_symbolic_keeps_a_form_with_a_squared_factor(workdir, capsys):
    # the flip weight (x - 2y)^2/4 gives 9(x - 2y)^4 / 4(x - 2y)^4, which
    # the exact check accepts uncancelled
    (workdir / "noisy_tft.probe").write_text(NOISY_TFT)
    code = main(["symbolic", str(workdir / "tft.player"), str(workdir / "noisy_tft.probe")])
    out = capsys.readouterr().out
    assert code == 0
    forms = dict(line.split(": ", 1) for line in out.splitlines() if line[:5] in ("num: ", "den: "))
    fn = RationalFn(expr_parse(forms["num"]), expr_parse(forms["den"]))
    assert fn.den.degree() == 4
    assert ratfn_equiv(fn, RationalFn(expr_parse("9/4")))


def test_symbolic_wrong_form_exit_3(workdir, capsys, monkeypatch):
    solve = fingerprint_module._bareiss_last_rows

    def off_by_one(system, last_rows):
        den, num = solve(system, last_rows)
        return [den, num + ParamExpr.one()]

    monkeypatch.setattr(fingerprint_module, "_bareiss_last_rows", off_by_one)
    code = main([
        "symbolic", str(workdir / "pavlov.player"), "--joss-ann", str(workdir / "tft.player"),
    ])
    err = capsys.readouterr().err
    p, a, b = fingerprint_module.EXACT_CHECKS[0]
    assert code == 3
    assert f"closed form disagrees with the chain modulo the prime {p} at (x, y) = ({a}, {b})" in err


def test_fingerprint_value_outside_payoff_bounds_exit_3(workdir, capsys, monkeypatch):
    # 10 added to every value at x = 0.5
    values = fingerprint_module._values
    monkeypatch.setattr(
        fingerprint_module, "_values", lambda *args: values(*args) + (args[1] == 0.5) * 10
    )
    code = main([
        "fingerprint", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player"),
        "-n", "2",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "grid value 13.0 at node (1, 0), point (0.5, 0.0), is outside the payoff bounds [0, 5]" in err


def test_symbolic_reducible_exit_4(workdir, capsys):
    code = main([
        "symbolic", str(workdir / "grim.player"), "--joss-ann", str(workdir / "tft.player"),
    ])
    err = capsys.readouterr().err
    assert code == 4
    assert "closed" in err and "transient" in err


def test_symbolic_swell_exit_5(workdir, capsys, monkeypatch):
    monkeypatch.setattr(fingerprint_module, "TERM_CAP", 2)
    code = main([
        "symbolic", str(workdir / "tft.player"), "--joss-ann", str(workdir / "tft.player"),
    ])
    assert code == 5


def test_distance_pairs(workdir):
    out_file = workdir / "d.csv"
    code = main([
        "distance",
        f"{workdir / 'allc.player'}:ja:{workdir / 'tft.player'}",
        f"{workdir / 'alld.player'}:ja:{workdir / 'tft.player'}",
        "--quad-n", "40", "-o", str(out_file),
    ])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "name,ALLC,ALLD"
    value = float(lines[1].split(",")[2])
    assert value == pytest.approx(math.sqrt(5 / 12), abs=1e-3)


def test_distance_accepts_grid_files(workdir):
    grid = workdir / "allc.json"
    main([
        "fingerprint", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player"),
        "-n", "20", "--format", "json", "-o", str(grid),
    ])
    out_file = workdir / "d2.csv"
    code = main([
        "distance", str(grid),
        f"{workdir / 'alld.player'}:ja:{workdir / 'tft.player'}",
        "--quad-n", "40", "-o", str(out_file),
    ])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    value = float(lines[1].split(",")[2])
    assert value == pytest.approx(math.sqrt(5 / 12), abs=2e-3)


def _grid_files(workdir) -> list[str]:
    """Two grid files written by `probefp fingerprint`, one CSV and one JSON."""
    paths = []
    for name, fmt in (("allc", "csv"), ("alld", "json")):
        path = workdir / f"{name}.{fmt}"
        assert main([
            "fingerprint", str(workdir / f"{name}.player"), "--joss-ann", str(workdir / "tft.player"),
            "-n", "2", "--format", fmt, "-o", str(path),
        ]) == 0
        paths.append(str(path))
    return paths


def test_distance_over_grid_files_only_records_no_payoff(workdir):
    grids = _grid_files(workdir)
    assert main(["distance", *grids, "--quad-n", "4", "-o", str(workdir / "d.csv")]) == 0
    meta = [l for l in (workdir / "d.csv").read_text().splitlines() if l.startswith("#")]
    assert meta and not any(l.startswith("# payoff:") for l in meta)
    source = f"{workdir / 'pavlov.player'}:ja"
    assert main(["distance", *grids, source, "--quad-n", "4", "-o", str(workdir / "e.csv")]) == 0
    assert "# payoff: C,C=3; C,D=0; D,C=5; D,D=1" in (workdir / "e.csv").read_text()


def test_distance_input_digests_follow_spec_order(workdir):
    grid = workdir / "alld.json"
    assert main([
        "fingerprint", str(workdir / "alld.player"), "--joss-ann", str(workdir / "tft.player"),
        "-n", "4", "--format", "json", "-o", str(grid),
    ]) == 0
    out_file = workdir / "d3.json"
    code = main([
        "distance",
        f"{workdir / 'allc.player'}:ja:{workdir / 'tft.player'}",
        f"{workdir / 'tft.player'}:{workdir / 'constc.probe'}",
        str(grid),
        f"{workdir / 'pavlov.player'}:ja",
        "--quad-n", "4", "--format", "json", "-o", str(out_file),
    ])
    assert code == 0
    read = ["allc.player", "tft.player", "tft.player", "constc.probe", "alld.json",
            "pavlov.player"]
    expected = [hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in read]
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["input_sha256"] == ";".join(expected)


def test_distance_usage_errors(workdir):
    one = f"{workdir / 'allc.player'}:ja:{workdir / 'tft.player'}"
    assert main(["distance", one]) == 64
    assert main(["distance", one, one]) == 64


def test_simulate_report(workdir):
    out_file = workdir / "sim.json"
    code = main([
        "simulate", str(workdir / "allc.player"), "0.25", "0.25",
        "--joss-ann", str(workdir / "tft.player"),
        "--rounds", "20000", "--seed", "42", "-o", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["rng"] == "numpy-pcg64"
    assert doc["exact_fingerprint"] == pytest.approx(2.25, abs=1e-12)
    assert abs(doc["z_score"]) <= 4
    assert doc["estimate"]["seed"] == 42


def test_simulate_composes_the_chain_once(workdir, monkeypatch):
    calls = []

    def counting(player, probe, payoff):
        calls.append(player.name)
        return compose(player, probe, payoff)

    for module in (cli_module, fingerprint_module, simulate_module):
        monkeypatch.setattr(module, "compose", counting, raising=False)
    code = main([
        "simulate", str(workdir / "tft.player"), "0.3", "0.2",
        "--joss-ann", str(workdir / "tft.player"), "--rounds", "2000",
        "-o", str(workdir / "sim.json"),
    ])
    assert code == 0
    assert calls == ["TFT"]


def test_simulate_deterministic_pair_reports_zero_stderr(workdir):
    out_file = workdir / "sim0.json"
    code = main([
        "simulate", str(workdir / "tft.player"), "0.3", "0.3",
        str(workdir / "constc.probe"), "--rounds", "2000", "-o", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["estimate"]["stderr"] == 0.0
    assert doc["z_score"] == 0.0


def test_grim_near_edge_cli(workdir):
    out_file = workdir / "grim_sim.json"
    code = main([
        "simulate", str(workdir / "grim.player"), "0.3", "1e-9",
        "--joss-ann", str(workdir / "tft.player"), "--rounds", "2000", "-o", str(out_file),
    ])
    assert code == 0
    assert json.loads(out_file.read_text())["exact_fingerprint"] == pytest.approx(2.2, abs=1e-12)
    assert main([
        "fingerprint", str(workdir / "grim.player"), "--joss-ann", str(workdir / "tft.player"),
        "-n", "20", "--boundary", "offset", "-o", str(workdir / "grim_offset.csv"),
    ]) == 0


def test_simulate_out_of_simplex_usage(workdir, capsys):
    # a NaN that got through would be written as "x": NaN, which is not JSON
    out_file = workdir / "never.json"
    for x, y in [("0.7", "0.7"), ("nan", "0.2"), ("0.2", "nan"), ("inf", "0"), ("0", "1e309")]:
        assert main([
            "simulate", str(workdir / "allc.player"), x, y,
            "--joss-ann", str(workdir / "tft.player"), "--rounds", "100", "-o", str(out_file),
        ]) == 64
        assert "outside the parameter triangle" in capsys.readouterr().err
        assert not out_file.exists()


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--rounds", "10", "--burn-in", "20"], ""),
        (["--rounds", "10", "--burn-in", "10"], ""),
        (["--burn-in", "-5"], ""),
        (["--rounds", "10"], "burn-in 10\n"),
        (["--burn-in", "10"], "rounds 10\n"),
    ],
)
def test_simulate_burn_in_outside_rounds_is_usage_error(workdir, capsys, flags, config):
    config_file = workdir / "burn.cfg"
    config_file.write_text(config)
    assert main([
        "simulate", str(workdir / "allc.player"), "0.2", "0.3",
        "--joss-ann", str(workdir / "tft.player"), "--config", str(config_file), *flags,
    ]) == 64
    assert "burn-in" in capsys.readouterr().err


def test_simulate_burn_in_outside_rounds_from_config_is_input_error(workdir, capsys):
    config_file = workdir / "burn.cfg"
    config_file.write_text("rounds 10\nburn-in 10\n")
    assert main([
        "simulate", str(workdir / "allc.player"), "0.2", "0.3",
        "--joss-ann", str(workdir / "tft.player"), "--config", str(config_file),
    ]) == 2
    err = capsys.readouterr().err
    assert "invalid input: config line 2: burn-in must be below rounds (10)" in err


def test_distance_rejects_malformed_grid_files(workdir, capsys):
    assert main([
        "fingerprint", str(workdir / "alld.player"), "--joss-ann", str(workdir / "tft.player"),
        "-n", "2", "-o", str(workdir / "good.csv"),
    ]) == 0
    lines = (workdir / "good.csv").read_text().splitlines()
    body = lines.index("x,y,value") + 1
    nodes = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]  # (2, 0) is missing
    doc = {"meta": {"resolution": 2}, "values": [[i / 2, j / 2, 1.0] for i, j in nodes]}
    malformed = {
        "two_rows.csv": "\n".join(lines[: body + 2]) + "\n",
        "one_row.csv": "\n".join(lines[: body + 1]) + "\n",
        "two_fields.csv": "\n".join(lines[:-1] + ["0.5,0.5"]) + "\n",
        "missing_node.json": json.dumps(doc),
        "invalid.json": '{"meta": {"resolution": 2}, "values": [',
        # (0.3, 0) is no node at n = 2; it replaces node (1, 0), its nearest
        "off_lattice.csv": "\n".join(lines[: body + 3] + ["0.3,0,2"] + lines[body + 4 :]) + "\n",
        "nan_value.csv": "\n".join(lines[:-1] + ["1,0,nan"]) + "\n",
        "nan_value.json": json.dumps(
            {**doc, "values": doc["values"] + [[1.0, 0.0, float("nan")]]}
        ),
    }
    source = f"{workdir / 'allc.player'}:ja:{workdir / 'tft.player'}"
    for name, text in malformed.items():
        (workdir / name).write_text(text)
        capsys.readouterr()
        code = main(["distance", str(workdir / name), source, "--quad-n", "4"])
        assert code == 2, name
        assert "invalid input" in capsys.readouterr().err, name


def test_distance_refuses_grid_files_with_a_wrong_mode_or_resolution(workdir, capsys):
    for player, fmt in (("pavlov", "csv"), ("allc", "json")):
        assert main([
            "fingerprint", str(workdir / f"{player}.player"),
            "--joss-ann", str(workdir / "tft.player"), "-n", "6", "--format", fmt,
            "-o", str(workdir / f"{player}.{fmt}"),
        ]) == 0
    doc = json.loads((workdir / "allc.json").read_text())
    doc["meta"]["boundary_mode"] = "bogus"
    (workdir / "bogus.json").write_text(json.dumps(doc))
    (workdir / "n9.csv").write_text("# resolution: 9\n" + (workdir / "pavlov.csv").read_text())
    cases = {
        ("pavlov.csv", "bogus.json"): "unknown grid boundary mode 'bogus'",
        ("n9.csv", "allc.json"): "resolution line says '9', but its 28 rows give resolution 6",
    }
    for files, message in cases.items():
        capsys.readouterr()
        assert main(["distance", *(str(workdir / f) for f in files), "--quad-n", "4"]) == 2
        assert message in capsys.readouterr().err
    grids = [str(workdir / "pavlov.csv"), str(workdir / "allc.json")]
    assert main(["distance", *grids, "--quad-n", "4"]) == 0


def test_reproducible_outputs(workdir):
    pairs = [
        f"{workdir / 'allc.player'}:ja:{workdir / 'tft.player'}",
        f"{workdir / 'alld.player'}:ja:{workdir / 'tft.player'}",
    ]
    runs = []
    for tag in ("one", "two"):
        fp = workdir / f"fp_{tag}.csv"
        dm = workdir / f"dm_{tag}.csv"
        sim = workdir / f"sim_{tag}.json"
        assert main([
            "fingerprint", str(workdir / "pavlov.player"),
            "--joss-ann", str(workdir / "tft.player"), "-n", "6", "-o", str(fp),
        ]) == 0
        assert main(["distance", *pairs, "--quad-n", "30", "-o", str(dm)]) == 0
        assert main([
            "simulate", str(workdir / "tft.player"), "0.2", "0.3",
            "--joss-ann", str(workdir / "tft.player"),
            "--rounds", "5000", "--seed", "9", "-o", str(sim),
        ]) == 0
        runs.append((fp.read_bytes(), dm.read_bytes(), sim.read_bytes()))
    assert runs[0] == runs[1]


def test_payoff_override_flag(workdir, capsys):
    code = main([
        "symbolic", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player"),
        "--payoff", "C", "C", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "num: 4 - 4*y" in out or "num: -4*y + 4" in out


def test_config_file_and_flag_precedence(workdir):
    config = workdir / "run.cfg"
    config.write_text("n 2\npayoff C C 4\nformat json\n")
    out_file = workdir / "cfg.json"
    code = main([
        "fingerprint", str(workdir / "allc.player"),
        "--joss-ann", str(workdir / "tft.player"),
        "--config", str(config), "-o", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["n"] == 2
    assert "C,C=4" in doc["meta"]["payoff"]
    # explicit flag beats the config file
    out2 = workdir / "cfg2.json"
    code = main([
        "fingerprint", str(workdir / "allc.player"),
        "--joss-ann", str(workdir / "tft.player"),
        "--config", str(config), "-n", "3", "-o", str(out2),
    ])
    assert code == 0
    assert json.loads(out2.read_text())["meta"]["n"] == 3


@pytest.mark.parametrize("line", ["n abc", "seed 1.5", "payoff C C abc", "payoff C C 1/0"])
def test_config_file_value_that_does_not_convert_is_input_error(workdir, capsys, line):
    config = workdir / "bad.cfg"
    config.write_text(f"format json\n{line}\n")
    code = main([
        "fingerprint", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player"),
        "--config", str(config), "-o", str(workdir / "never.json"),
    ])
    assert code == 2
    assert "invalid input: config line 2" in capsys.readouterr().err
    assert not (workdir / "never.json").exists()


@pytest.mark.parametrize(
    "line, grids_only",
    [
        pytest.param(line, False, id=line)
        for line in [
            "n 0", "boundary foo", "format xml", "replicates 1", "seed -1", "burn-in -5",
            "burn-in 100000",  # not below the default rounds
            "quad-n 0", "rounds 0",
            "payoff c d 7",  # moves outside the player's alphabet C D
        ]
    ]
    # a distance over grid files alone uses no payoff
    + [pytest.param("payoff C C 9", True, id="payoff C C 9 over grid files")],
)
def test_config_file_value_out_of_range_is_input_error(workdir, capsys, line, grids_only):
    config = workdir / "range.cfg"
    config.write_text(f"seed 4\n{line}\n")
    if grids_only:
        args = ["distance", *_grid_files(workdir)]
    else:
        args = ["fingerprint", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player")]
    code = main([*args, "--config", str(config), "-o", str(workdir / "never.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"invalid input: config line 2: {line.split()[0]} must be" in err
    assert not (workdir / "never.csv").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fingerprint", ["-n", "0"]),
        ("fingerprint", ["--boundary", "foo"]),
        ("fingerprint", ["--format", "xml"]),
        ("simulate", ["--replicates", "1"]),
        ("simulate", ["--seed", "-1"]),
        ("distance", ["--quad-n", "0"]),
        ("simulate", ["--rounds", "0"]),
        ("simulate", ["--burn-in", "-5"]),
        # moves outside the player's alphabet C D
        ("fingerprint", ["--payoff", "c", "d", "7"]),
        ("distance", ["--payoff", "D", "q", "1"]),
        # a distance over grid files alone uses no payoff
        ("grid distance", ["--payoff", "C", "C", "9"]),
    ],
)
def test_flag_value_out_of_range_is_usage_error(workdir, capsys, command, flags):
    tft = str(workdir / "tft.player")
    if command == "grid distance":
        args = ["distance", *_grid_files(workdir)]
    else:
        args = {
            "fingerprint": ["fingerprint", str(workdir / "allc.player"), "--joss-ann", tft],
            "simulate": ["simulate", str(workdir / "allc.player"), "0.2", "0.3", "--joss-ann", tft],
            "distance": ["distance", f"{workdir / 'allc.player'}:ja:{tft}", f"{tft}:ja"],
        }[command]
    code = main([*args, *flags, "-o", str(workdir / "never.out")])
    assert code == 64
    err = capsys.readouterr().err
    assert "usage error:" in err and flags[0] in err
    assert not (workdir / "never.out").exists()


@pytest.mark.parametrize("value", ["abc", "1/0", "nan"])
def test_payoff_flag_value_that_does_not_convert_is_usage_error(workdir, capsys, value):
    code = main([
        "symbolic", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player"),
        "--payoff", "C", "C", value,
    ])
    assert code == 64
    assert "usage error: --payoff" in capsys.readouterr().err


def test_consecutive_runs_share_the_parser_but_no_state(workdir, capsys):
    assert build_parser() is build_parser()
    symbolic = [
        "symbolic", str(workdir / "allc.player"), "--joss-ann", str(workdir / "tft.player"),
    ]
    simulate = [
        "simulate", str(workdir / "tft.player"), "0.2", "0.3",
        "--joss-ann", str(workdir / "tft.player"), "--rounds", "200",
    ]
    assert main(symbolic) == 0
    alone = capsys.readouterr().out
    assert main([*simulate, "--payoff", "C", "C", "4", "-o", str(workdir / "four.json")]) == 0
    assert "C,C=4" in json.loads((workdir / "four.json").read_text())["meta"]["payoff"]
    assert main(symbolic) == 0
    assert capsys.readouterr().out == alone
    assert main([*simulate, "-o", str(workdir / "three.json")]) == 0
    assert "C,C=3" in json.loads((workdir / "three.json").read_text())["meta"]["payoff"]


def test_unknown_flag_is_usage_error(workdir):
    assert main(["fingerprint", str(workdir / "allc.player"), "--bogus"]) == 64


_COMMAND_ARGS = {
    "fingerprint": ["fingerprint", "p.player", "--joss-ann", "b.player"],
    "symbolic": ["symbolic", "p.player", "--joss-ann", "b.player"],
    "distance": ["distance", "p.player:ja", "q.player:ja"],
    "simulate": ["simulate", "p.player", "0.2", "0.3", "--joss-ann", "b.player"],
}
_FLAG_ARGS = {
    "-n": ["-n", "4"],
    "--boundary": ["--boundary", "offset"],
    "--quad-n": ["--quad-n", "10"],
    "--format": ["--format", "json"],
    "--seed": ["--seed", "3"],
    "-v": ["-v"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("fingerprint", "--quad-n"), ("fingerprint", "--seed"), ("fingerprint", "-v"),
        ("symbolic", "-n"), ("symbolic", "--boundary"), ("symbolic", "--quad-n"),
        ("symbolic", "--format"), ("symbolic", "--seed"), ("symbolic", "-v"),
        ("distance", "-n"), ("distance", "--seed"), ("distance", "-v"),
        ("simulate", "-n"), ("simulate", "--quad-n"), ("simulate", "--format"),
        ("simulate", "-v"),
    ],
)
def test_command_rejects_flags_it_does_not_read(command, flag, capsys):
    base = _COMMAND_ARGS[command]
    build_parser().parse_args(base)  # the command line is valid without the flag
    assert main(base + _FLAG_ARGS[flag]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_numeric_failure_exit_3(workdir, capsys):
    # weight (x - 1/40)^2 - 1/10000 is positive at every 20-lattice node but
    # dips to -1e-4 at x = 1/40, which an n=40 grid evaluates
    sneaky = workdir / "sneaky.probe"
    sneaky.write_text(
        "probe SNEAKY\nalphabet C D\ninit C 0 : 1\n"
        "0 C -> C 0 : (x - 1/40)^2 - 1/10000\n"
        "0 C -> D 0 : 1 - (x - 1/40)^2 + 1/10000\n"
        "0 D -> C 0 : 1\n"
    )
    assert main(["validate", str(sneaky)]) == 0
    capsys.readouterr()
    code = main([
        "fingerprint", str(workdir / "allc.player"), str(sneaky),
        "-n", "40", "-o", str(workdir / "never.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "0.025" in err
