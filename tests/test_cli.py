import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from shallowice import __version__, build_mesh, write_snapshot
from shallowice.cli import cli
from shallowice.config import ConfigError, load_config, parse_config
from shallowice.physics import PhysicalRangeWarning


def write_config(path, outdir, **overrides):
    doc = {
        "domain": {"Lx": 1.0, "Ly": 1.0, "nx": 7, "ny": 7},
        "time": {"T": 0.3, "N": 3},
        "physics": {"p": 3.0, "rho_g": 3.0, "A_const": 1.0, "mu": 0.1},
        "penalty": {"kappa": 1e-3},
        "forcing": {"preset": "constant", "value": 0.0},
        "initial": {"preset": "zero"},
        "output": {"directory": str(outdir)},
    }
    for key, value in overrides.items():
        doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_monitor_row(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def vtk_title_digest(path):
    """The version and config digest named by the title of a VTK file."""
    title = path.read_text(encoding="utf-8").splitlines()[1]
    assert len(title) <= 255
    match = re.fullmatch(r"shallowice (\S+) config sha256:([0-9a-f]{64})", title)
    assert match, title
    return match.group(1), match.group(2)


def sha256_of_config(config):
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def read_metadata_line(path):
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# ")
    return json.loads(first[2:])


def test_run_zero_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", tmp_path / "out")
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "run_metadata.json").exists()
    assert (out / "states.csv").exists()
    row = read_monitor_row(out / "monitors.csv")
    assert float(row["est1"]) == 0.0
    assert float(row["neg_norm"]) == 0.0
    snapshots = sorted(out.glob("u_*.csv"))
    assert len(snapshots) == 4
    assert (out / "H_final.csv").exists()


def test_run_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path / "a.json", tmp_path / "out",
                       initial={"preset": "dome", "amplitude": 1.0})
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli(["run", str(cfg)]) == 0
    for p in out.iterdir():
        assert p.read_bytes() == first[p.name]


def test_run_saves_its_validated_config(tmp_path):
    # the package version and the validated config are the one record of a
    # run: run_metadata.json and every CSV's '#' line hold them, every VTK
    # title names them by version and config digest
    cfg = write_config(tmp_path / "run.json", tmp_path / "out",
                       initial={"preset": "dome", "amplitude": 0.8},
                       forcing={"preset": "melt", "rate": -0.5},
                       penalty={"kappa": 1e-3, "delta": 1e-7, "eps": 1e-9},
                       output={"directory": str(tmp_path / "out"), "stride": 1,
                               "formats": ["csv", "vtk"]})
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
    assert meta == {"version": __version__, "config": load_config(cfg)}
    assert parse_config(json.dumps(meta["config"])) == meta["config"]
    text = json.dumps(meta, sort_keys=True)
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 7  # states, monitors, u_000000..u_000003, H_final
    for path in csvs:
        assert path.read_text(encoding="utf-8").splitlines()[0] == "# " + text
    vtks = sorted(out.glob("*.vtk"))
    assert len(vtks) == 5
    for path in vtks:
        assert vtk_title_digest(path) == (__version__, sha256_of_config(meta["config"]))

    # the saved config re-runs the run
    again = dict(meta["config"], output={**meta["config"]["output"],
                                         "directory": str(tmp_path / "again")})
    (tmp_path / "again.json").write_text(json.dumps(again), encoding="utf-8")
    assert cli(["run", str(tmp_path / "again.json")]) == 0

    def state_rows(directory):
        return (directory / "states.csv").read_text(encoding="utf-8").splitlines()[1:]

    assert state_rows(tmp_path / "again") == state_rows(out)


def test_vtk_title_names_a_long_config(tmp_path):
    # a config whose JSON is far past the 255-character VTK title limit
    cfg = write_config(tmp_path / "run.json", tmp_path / "out",
                       time={"T": 0.2, "N": 2},
                       initial={"preset": "dome", "amplitude": 0.8},
                       forcing={"preset": "melt", "rate": -0.5},
                       penalty={"kappa": 1e-3, "delta": 1e-7, "eps": 1e-9},
                       solver={"tol_residual": 1e-10},
                       output={"directory": str(tmp_path / "out" / ("long_name_" * 12)),
                               "stride": 2, "formats": ["vtk"]})
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out" / ("long_name_" * 12)
    meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
    assert len(json.dumps(meta, sort_keys=True)) > 2 * 255
    vtks = sorted(out.glob("*.vtk"))
    assert [p.name for p in vtks] == ["H_final.vtk", "u_000000.vtk", "u_000002.vtk"]
    for path in vtks:
        assert vtk_title_digest(path) == (meta["version"], sha256_of_config(meta["config"]))


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli(["run", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err

    cfg = write_config(tmp_path / "p1.json", tmp_path / "out")
    doc = json.loads(cfg.read_text())
    doc["physics"]["p"] = 1.0
    cfg.write_text(json.dumps(doc))
    assert cli(["run", str(cfg)]) == 2

    missing = str(tmp_path / "missing.json")
    for argv in (["run", missing], ["sweep", missing, "--kappas", "1e-2"], ["mms", missing]):
        assert cli(argv) == 2
        assert "cannot read" in capsys.readouterr().err

    # malformed input files named by the config are configuration errors too
    (tmp_path / "short.csv").write_text("x,y,value\n0.0,0.0,0.0\n", encoding="utf-8")
    (tmp_path / "novalue.csv").write_text(
        "x,y,value\n" + "0.0,0.0\n" * 49, encoding="utf-8")
    (tmp_path / "mu.txt").write_text("0.1\nabc\n", encoding="utf-8")
    (tmp_path / "ragged.csv").write_text("0.0,1.0,2.0\n1.0,1.0\n", encoding="utf-8")
    (tmp_path / "nodes.csv").write_text("0.0,1.0,2.0\n1.0,1.0,2.0\n", encoding="utf-8")
    # parse, but are not usable values: a mu <= 0, a thickness that is
    # nonzero on the boundary or negative inside, a NaN forcing sample
    (tmp_path / "mu_zero.txt").write_text("0.1\n" * 71 + "0.0\n", encoding="utf-8")
    mesh = build_mesh(7, 7, 1.0, 1.0)
    write_snapshot(np.ones(49), mesh, tmp_path / "edge.csv", "csv")
    write_snapshot(np.where(mesh.boundary_mask, 0.0, -1.0), mesh,
                   tmp_path / "negative.csv", "csv")
    # and a valid thickness of another 7x7 grid, whose rows name other nodes
    elsewhere = build_mesh(7, 7, 1.0, 2.0)
    write_snapshot(np.where(elsewhere.boundary_mask, 0.0, 1.0), elsewhere,
                   tmp_path / "elsewhere.csv", "csv")
    np.savetxt(tmp_path / "nan.csv",
               np.column_stack([[0.0, 1.0], np.full((2, 49), np.nan)]), delimiter=",")
    # a valid thickness but for one row that lost its value
    write_snapshot(np.where(mesh.boundary_mask, 0.0, 1.0), mesh, tmp_path / "twocell.csv", "csv")
    lines = (tmp_path / "twocell.csv").read_text(encoding="utf-8").splitlines()
    lines[9] = lines[9].rsplit(",", 1)[0]
    (tmp_path / "twocell.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cases = [
        ("initial.csv", {"initial": {"csv": "short.csv"}}),
        ("initial.csv", {"initial": {"csv": "novalue.csv"}}),
        ("physics.mu", {"physics": {"p": 3.0, "rho_g": 3.0, "A_const": 1.0,
                                    "mu": "mu.txt"}}),
        ("forcing.csv", {"forcing": {"preset": "gridded", "csv": "ragged.csv"}}),
        ("forcing.csv", {"forcing": {"preset": "gridded", "csv": "nodes.csv"}}),
        ("physics.mu", {"physics": {"p": 3.0, "rho_g": 3.0, "A_const": 1.0,
                                    "mu": "mu_zero.txt"}}),
        ("initial.csv", {"initial": {"csv": "edge.csv"}}),
        ("initial.csv", {"initial": {"csv": "negative.csv"}}),
        ("initial.csv", {"initial": {"csv": "elsewhere.csv"}}),
        ("forcing.csv", {"forcing": {"preset": "gridded", "csv": "nan.csv"}}),
        ("initial.csv", {"initial": {"csv": "twocell.csv"}}),
    ]
    for fieldname, override in cases:
        cfg = write_config(tmp_path / "files.json", tmp_path / "out", **override)
        assert cli(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {fieldname}: malformed" in err
        assert "Traceback" not in err

    # a gridded forcing sampled on [0, 0.1] does not cover the run [0, 0.3]
    np.savetxt(tmp_path / "early.csv",
               np.column_stack([[0.0, 0.1], np.zeros((2, 49))]), delimiter=",")
    cfg = write_config(tmp_path / "cover.json", tmp_path / "out",
                       forcing={"preset": "gridded", "csv": "early.csv"})
    assert cli(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: forcing.csv:" in err and "does not cover" in err


def test_gridded_run_on_exactly_the_sampled_range(tmp_path, capsys):
    # 19 ell rounds above T = 1e5; the last slab must still end at the last
    # sample of a series on exactly [0, 1e5]
    times = np.array([0.0, 2.5e4, 1e5])
    np.savetxt(tmp_path / "melt.csv",
               np.column_stack([times, np.outer([0.0, -1e-4, -2e-4], np.ones(49))]),
               delimiter=",")
    cfg = write_config(tmp_path / "run.json", tmp_path / "out",
                       time={"T": 1e5, "N": 19},
                       forcing={"preset": "gridded", "csv": "melt.csv"},
                       initial={"preset": "dome", "amplitude": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["run", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "u_000019.csv").exists()


def test_gridded_series_skips_blank_and_comment_lines(tmp_path, capsys):
    # an indented '#' line and a whitespace-only line between the rows of a
    # series are skipped, as in initial.csv, and the run equals that of the
    # plain series; a file without data rows stays malformed
    table = np.column_stack([[0.0, 0.1, 0.3], np.outer([0.0, -1.0, -2.0], np.ones(49))])
    np.savetxt(tmp_path / "plain.csv", table, delimiter=",")
    rows = (tmp_path / "plain.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "spaced.csv").write_text(
        "# t, a\n" + rows[0] + "   # between rows\n" + rows[1] + "  \t \n\n" + rows[2],
        encoding="utf-8")
    (tmp_path / "empty.csv").write_text("# t, a\n  \n", encoding="utf-8")
    for name in ("plain", "spaced"):
        cfg = write_config(tmp_path / f"{name}.json", tmp_path / name,
                           forcing={"preset": "gridded", "csv": f"{name}.csv"},
                           initial={"preset": "dome", "amplitude": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli(["run", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    states = [(tmp_path / name / "states.csv").read_text(encoding="utf-8").splitlines()[1:]
              for name in ("plain", "spaced")]
    assert states[0] == states[1]
    cfg = write_config(tmp_path / "empty.json", tmp_path / "empty",
                       forcing={"preset": "gridded", "csv": "empty.csv"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: forcing.csv: malformed" in err and "no data rows" in err


def test_unusable_output_directory_stops_before_the_solve(tmp_path, capsys, monkeypatch):
    # an output directory below a regular file cannot be created
    import shallowice.timestep as timestep

    def no_step(*args, **kwargs):
        raise AssertionError("a step was solved")

    monkeypatch.setattr(timestep, "solve_step", no_step)
    (tmp_path / "file").write_text("", encoding="utf-8")
    outdir = tmp_path / "file" / "out"
    cfg = write_config(tmp_path / "run.json", outdir,
                       initial={"preset": "dome", "amplitude": 0.8})
    for argv in (["run", str(cfg)], ["sweep", str(cfg), "--kappas", "1e-2,1e-3"],
                 ["mms", str(cfg), "--meshes", "5,7", "--steps", "1,2"]):
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert str(outdir) in err and "Traceback" not in err
    # a sweep row's directory is checked before the solve too
    (tmp_path / "sweep_out").mkdir()
    (tmp_path / "sweep_out" / "kappa_0.001").write_text("", encoding="utf-8")
    cfg = write_config(tmp_path / "sweep.json", tmp_path / "sweep_out")
    assert cli(["sweep", str(cfg), "--kappas", "1e-2,1e-3"]) == 2
    err = capsys.readouterr().err
    assert "kappa_0.001" in err and "Traceback" not in err


@pytest.mark.parametrize("section, values, literal", [
    ("time", {"T": float("inf"), "N": 3}, "Infinity"),
    ("forcing", {"preset": "constant", "value": float("nan")}, "NaN"),
    ("domain", {"Lx": float("inf"), "Ly": 1.0, "nx": 7, "ny": 7}, "Infinity"),
])
def test_nonfinite_literal_is_a_config_error(tmp_path, capsys, section, values, literal):
    # json.dumps writes these literals, which are not JSON; unchecked, they
    # ran with a NaN monitor, failed in the solver or ended in a traceback
    cfg = write_config(tmp_path / "nonfinite.json", tmp_path / "out", **{section: values})
    assert literal in cfg.read_text(encoding="utf-8")
    with pytest.raises(ConfigError, match=literal):
        parse_config(cfg.read_text(encoding="utf-8"))
    assert cli(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, numeral", [
    ("solver", "tol_residual", "1e999"),
    ("time", "T", "1e999"),
    ("penalty", "kappa", "1e999"),
    ("penalty", "delta", "1e999"),
    ("forcing", "rate", "-1e999"),
    ("physics", "p", "1e999"),
    ("domain", "Lx", "1e999"),
    ("initial", "amplitude", "1e999"),
    pytest.param("domain", "Ly", "1" + "0" * 400, id="domain-Ly-400-digit-integer"),
])
def test_overflowing_numeral_is_a_config_error(tmp_path, capsys, section, key, numeral):
    # json.loads reads 1e999 as inf without calling parse_constant; unchecked,
    # it ran a run of unchanged states, failed in the solver or ended in a
    # traceback
    cfg = write_config(tmp_path / "overflow.json", tmp_path / "out",
                       forcing={"preset": "melt", "rate": -0.5},
                       initial={"preset": "dome", "amplitude": 0.8},
                       solver={"tol_residual": 1e-10})
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc[section][key] = "@"
    cfg.write_text(json.dumps(doc).replace('"@"', numeral), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{section}.{key}: must be a finite number"):
        parse_config(cfg.read_text(encoding="utf-8"))
    assert cli(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# a JSON integer of 400 digits: rejected before anything is allocated
HUGE = 10**399
NO_NODES = "domain: nx * ny nodes are more than numpy can index"
NO_STEP = "time.N: the step T / N must be a positive float"


@pytest.mark.parametrize("section, key", [("domain", "nx"), ("domain", "ny"), ("time", "N")])
@pytest.mark.parametrize("command", ["run", "sweep", "mms", "monitors"])
def test_sizes_no_run_can_build_are_config_errors(tmp_path, capsys, command, section, key):
    # unchecked, run and sweep ended in a ValueError or OverflowError
    # traceback, mms ran, and monitors blamed an unreadable saved run
    message = NO_STEP if key == "N" else NO_NODES
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.json", out)
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc[section][key] = HUGE
    if command == "monitors":
        assert cli(["run", str(cfg)]) == 0
        meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
        meta["config"][section][key] = HUGE
        (out / "run_metadata.json").write_text(json.dumps(meta), encoding="utf-8")
        message = f"{out}: {message}"
    else:
        cfg.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"run": ["run", str(cfg)],
            "sweep": ["sweep", str(cfg), "--kappas", "1e-2"],
            "mms": ["mms", str(cfg), "--meshes", "5", "--steps", "1"],
            "monitors": ["monitors", str(out)]}[command]
    capsys.readouterr()
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err
    assert "Traceback" not in err
    assert not (out / "monitors_recomputed.csv").exists()
    assert command == "monitors" or not out.exists()


def test_a_mesh_that_cannot_be_allocated_is_a_config_error(tmp_path, capsys, monkeypatch):
    import shallowice.cli as cli_module
    import shallowice.config as config_module

    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.json", out)
    assert cli(["run", str(cfg)]) == 0

    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(config_module, "build_mesh", no_memory)
    monkeypatch.setattr(cli_module, "build_mesh", no_memory)
    message = "domain: cannot allocate a 7 x 7 mesh: Unable to allocate 1.00 TiB"
    for argv, prefix in ((["run", str(cfg)], ""),
                         (["sweep", str(cfg), "--kappas", "1e-2"], ""),
                         (["monitors", str(out)], f"{out}: ")):
        capsys.readouterr()
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {prefix}{message}" in err
        assert "Traceback" not in err
    assert not (out / "monitors_recomputed.csv").exists()


def test_solver_failure_exit_code(monkeypatch, tmp_path, capsys):
    import shallowice.solver as solver

    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    cfg = write_config(
        tmp_path / "hard.json", tmp_path / "out",
        initial={"preset": "dome", "amplitude": 1.0},
        forcing={"preset": "melt", "rate": -5.0},
    )
    assert cli(["run", str(cfg)]) == 1
    assert "failed at step" in capsys.readouterr().err


def test_eps0_bare_ground_exit_code(tmp_path, capsys):
    # bare ground with eps = 0, where the power slope is unbounded at u = 0
    cfg = write_config(
        tmp_path / "eps0.json", tmp_path / "out",
        domain={"Lx": 1.0, "Ly": 1.0, "nx": 9, "ny": 9},
        time={"T": 2.0, "N": 20},
        penalty={"kappa": 1e-3, "eps": 0.0},
        forcing={"preset": "melt", "rate": -2.0},
    )
    assert cli(["run", str(cfg)]) == 0
    assert "failed" not in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "sweep.json", tmp_path / "sweep_out",
        initial={"preset": "dome", "amplitude": 0.8},
        forcing={"preset": "melt", "rate": -1.0},
        time={"T": 0.6, "N": 4},
    )
    assert cli(["sweep", str(cfg), "--kappas", "1e-2,1e-3,1e-4"]) == 0
    out = tmp_path / "sweep_out"
    lines = [l for l in (out / "sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    assert len(lines) == 4
    neg = [float(row.split(",")[header.index("neg_norm")]) for row in lines[1:]]
    assert neg[0] >= neg[1] >= neg[2]
    assert "neg_norm nonincreasing: True" in capsys.readouterr().out
    # each row's monitors.csv carries the config of that row's run: the
    # sweep's config with penalty.kappa set to the row's kappa
    # as does its u_final.csv
    config = load_config(cfg)
    for kappa in (1e-2, 1e-3, 1e-4):
        row_meta = {"version": __version__,
                    "config": {**config, "penalty": {**config["penalty"],
                                                     "kappa": kappa}}}
        for name in ("monitors.csv", "u_final.csv"):
            assert read_metadata_line(out / f"kappa_{kappa:g}" / name) == row_meta
    assert read_metadata_line(out / "sweep.csv") == {
        "version": __version__, "config": config, "kappas": [1e-2, 1e-3, 1e-4]}


def test_sweep_writes_failed_rows(tmp_path, capsys, monkeypatch):
    # the second penalty's march fails after the first one succeeded; the
    # solver converges at every penalty, so the failure is injected
    import shallowice.monitors as monitors
    from shallowice.solver import NonConvergence
    from shallowice.timestep import MarchError

    def run_failing_at_1e8(mesh, params, time_grid, kappa, *args, **kwargs):
        if kappa == 1e-8:
            raise MarchError(0, None, NonConvergence("injected failure"))
        return run(mesh, params, time_grid, kappa, *args, **kwargs)

    run = monitors.run
    monkeypatch.setattr(monitors, "run", run_failing_at_1e8)
    cfg = write_config(
        tmp_path / "sweep.json", tmp_path / "out",
        domain={"Lx": 1.0, "Ly": 1.0, "nx": 9, "ny": 9},
        time={"T": 2.0, "N": 2},
        physics={"p": 3.0, "rho_g": 3.0, "A_const": 1.0, "mu": 1.0},
        forcing={"preset": "melt", "rate": -2.0},
        initial={"preset": "dome", "amplitude": 1.0},
    )
    assert cli(["sweep", str(cfg), "--kappas", "1e-3,1e-8"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out
    lines = [l.split(",") for l in (tmp_path / "out" / "sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 3
    assert len(lines[1]) == len(lines[2]) == len(lines[0])
    ok, failed = (dict(zip(lines[0], row)) for row in lines[1:])
    assert ok["error"] == "" and float(ok["est1"]) > 0.0
    assert failed["error"] != "" and failed["est1"] == ""
    assert (tmp_path / "out" / "kappa_1e-08" / "FAILED").exists()


def test_sweep_rejects_bad_kappas(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", tmp_path / "out")
    assert cli(["sweep", str(cfg), "--kappas", "1e-3,1e-2"]) == 2
    assert cli(["sweep", str(cfg), "--kappas", "abc"]) == 2
    assert cli(["sweep", str(cfg), "--kappas", ","]) == 2
    assert cli(["sweep", str(cfg), "--kappas", "1e-2,-1e-3"]) == 2
    # two kappas whose rows would share one directory
    assert cli(["sweep", str(cfg), "--kappas", "1e-3,9.999999e-4"]) == 2
    assert "--kappas 0.001 and 0.0009999999 both write kappa_0.001" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    for extra in (["--meshes", "9,abc"], ["--meshes", ","], ["--meshes", "2"],
                  ["--steps", "0"], ["--steps", "x"], ["--spatial-steps", "0"]):
        assert cli(["mms", str(cfg), *extra]) == 2


def test_monitors_recompute(tmp_path):
    cfg = write_config(
        tmp_path / "run.json", tmp_path / "out",
        initial={"preset": "dome", "amplitude": 0.8},
        forcing={"preset": "melt", "rate": -0.5},
    )
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    # run directories written before the config became the only record also
    # carry sections derived from the run's objects; the oldest of those
    # still have solver keys that were removed since
    meta_path = out / "run_metadata.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta.update(
        domain={"Lx": 1.0, "Ly": 1.0, "nx": 7, "ny": 7},
        time={"N": 3, "T": 0.3, "ell": 0.09999999999999999},
        physics={"A_const": 1.0, "alpha": 4.0 / 3.0, "mu1": 0.1, "mu2": 0.1,
                 "mu_constant": True, "p": 3.0, "rho_g": 3.0},
        penalty={"delta": 1e-8, "eps": 1e-10, "kappa": 1e-3},
        solver={"cg_tol": 1e-6, "max_newton": 60, "tol_residual": 1e-10,
                "max_backtrack": 40, "armijo_c": 1e-4, "cg_max": 1500},
        forcing={"preset": "melt", "rate": -0.5},
        forcing_quadrature="exact",
    )
    # and configs saved before the Newton cap and the inner-solve tolerance
    # became solver constants carry those keys
    meta["config"]["solver"].update(cg_tol=1e-6, max_newton=60)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert cli(["monitors", str(out)]) == 0
    orig = read_monitor_row(out / "monitors.csv")
    redo = read_monitor_row(out / "monitors_recomputed.csv")
    assert orig == redo
    assert cli(["monitors", str(tmp_path / "nothing")]) == 2


@pytest.mark.parametrize("kappa", [0, -1.0, "1e-3", float("nan"), float("inf"), True])
def test_monitors_rejects_a_saved_kappa_that_is_not_a_penalty(tmp_path, capsys, kappa):
    # a hand-edited run_metadata.json; the monitors divide by kappa, so an
    # unchecked one ended in a traceback or wrote negative or NaN monitors
    out = tmp_path / "out"
    assert cli(["run", str(write_config(tmp_path / "run.json", out))]) == 0
    meta_path = out / "run_metadata.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["config"]["penalty"]["kappa"] = kappa
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert cli(["monitors", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{out}: penalty.kappa: " in err
    assert "Traceback" not in err
    assert not (out / "monitors_recomputed.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("physics", "p", float("nan")),
    ("physics", "p", "3"),
    ("physics", "p", 0.5),
    ("penalty", "delta", -1.0),
    ("penalty", "eps", -1.0),
    ("physics", "q", 1.0),
])
def test_monitors_validates_the_saved_config_like_run(tmp_path, capsys, section, key, value):
    # a hand-edited run_metadata.json is judged by the rules run applied:
    # unchecked, a NaN or string p and a negative delta or eps wrote
    # monitors, an unknown key passed, and p = 0.5 blamed states.csv
    out = tmp_path / "out"
    assert cli(["run", str(write_config(tmp_path / "run.json", out))]) == 0
    meta_path = out / "run_metadata.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["config"][section][key] = value
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert cli(["monitors", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {out}: {section}.{key}: " in err
    assert "Traceback" not in err
    assert not (out / "monitors_recomputed.csv").exists()


def test_monitors_does_not_rewarn_about_the_run(tmp_path):
    # a zero initial state, and p outside the Glen range, warned when the
    # run was made; recomputing its monitors must not warn again
    for p in (3.0, 2.0):
        out = tmp_path / f"out_{p:g}"
        cfg = write_config(tmp_path / "zero.json", out,
                           domain={"Lx": 1.0, "Ly": 1.0, "nx": 9, "ny": 9},
                           physics={"p": p, "rho_g": 3.0, "A_const": 1.0, "mu": 0.1})
        assert cli(["run", str(cfg)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli(["monitors", str(out)]) == 0
        assert (out / "monitors_recomputed.csv").read_bytes() == (
            out / "monitors.csv").read_bytes()


def test_monitors_skips_blank_and_indented_comment_lines(tmp_path):
    # a hand-edited states.csv: a blank or indented comment line between
    # state rows is skipped as it is before the first row
    from shallowice.snapshots import read_states_csv

    cfg = write_config(tmp_path / "run.json", tmp_path / "out",
                       initial={"preset": "dome", "amplitude": 0.8},
                       forcing={"preset": "melt", "rate": -0.5})
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    path = out / "states.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    states = read_states_csv(path)
    for extra in ("  # a note\n", "   \n", "\t\n"):
        edited = lines[:3] + [extra] + lines[3:4] + [extra] + lines[4:]
        path.write_text("".join(edited), encoding="utf-8")
        back = read_states_csv(path)
        assert [u.tobytes() for u in back] == [u.tobytes() for u in states]
        assert cli(["monitors", str(out)]) == 0
        assert (out / "monitors_recomputed.csv").read_bytes() == (
            out / "monitors.csv").read_bytes()


def test_monitors_rejects_broken_run_dir(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", tmp_path / "out",
                       initial={"preset": "dome", "amplitude": 0.8})
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    meta = (out / "run_metadata.json").read_text(encoding="utf-8")
    states = (out / "states.csv").read_text(encoding="utf-8")
    lines = states.splitlines(keepends=True)
    broken = {
        # N = 3 steps, but only 3 of the 4 states
        "states.csv": ["".join(lines[:-1]),
                       # one value short in the last row
                       "".join(lines[:-1]) + lines[-1].rsplit(",", 1)[0] + "\n",
                       # a non-numeric cell
                       "".join(lines[:-1]) + lines[-1].replace(",", ",abc,", 1)],
        "run_metadata.json": [meta[: len(meta) // 2], "[]", "{}"],
    }
    for name, texts in broken.items():
        for text in texts:
            (out / "run_metadata.json").write_text(meta, encoding="utf-8")
            (out / "states.csv").write_text(states, encoding="utf-8")
            (out / name).write_text(text, encoding="utf-8")
            assert cli(["monitors", str(out)]) == 2
            err = capsys.readouterr().err
            assert str(out) in err and "Traceback" not in err
            assert not (out / "monitors_recomputed.csv").exists()


def test_monitors_rejects_a_negative_initial_state(tmp_path, capsys):
    # a saved run's first state is its u0, which must be nonnegative
    cfg = write_config(tmp_path / "run.json", tmp_path / "out",
                       initial={"preset": "dome", "amplitude": 0.8})
    assert cli(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    lines = (out / "states.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("0,"))
    cells = lines[first].split(",")
    center = 1 + 24  # node 24 is the center of the 7 x 7 mesh
    assert float(cells[center]) > 0.0
    cells[center] = "-0.5"
    lines[first] = ",".join(cells)
    (out / "states.csv").write_text("".join(lines), encoding="utf-8")
    assert cli(["monitors", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err
    assert not (out / "monitors_recomputed.csv").exists()


def test_run_formats_each_field_once(tmp_path, monkeypatch):
    # each distinct state is formatted once for states.csv and both of its
    # snapshots, H_final once for its two, and each coordinate column once;
    # the melt run settles, and a state equal to its predecessor shares its
    # text, so its files repeat the predecessor's bytes
    import shallowice.snapshots as snapshots
    from shallowice.snapshots import read_states_csv

    calls = []

    def counted(a):
        calls.append(a)
        return fmt_array(a)

    fmt_array = snapshots._fmt_array
    monkeypatch.setattr(snapshots, "_fmt_array", counted)
    runs = {
        "dome": ({"preset": "constant", "value": 0.0}, 0.1, {"T": 0.4, "N": 4}),
        "melt": ({"preset": "melt", "rate": -2.0}, 1.0, {"T": 2.0, "N": 40}),
    }
    for name, (forcing, mu, time) in runs.items():
        calls.clear()
        out = tmp_path / name
        cfg = write_config(tmp_path / f"{name}.json", out,
                           initial={"preset": "dome", "amplitude": 0.8},
                           forcing=forcing, time=time,
                           physics={"p": 3.0, "rho_g": 3.0, "A_const": 1.0, "mu": mu},
                           output={"directory": str(out), "stride": 1,
                                   "formats": ["csv", "vtk"]})
        assert cli(["run", str(cfg)]) == 0
        N = time["N"]
        assert len(sorted(out.glob("u_*"))) == 2 * (N + 1)
        states = read_states_csv(out / "states.csv")
        repeats = [n for n in range(1, N + 1)
                   if states[n].tobytes() == states[n - 1].tobytes()]
        assert len(calls) == (N + 1 - len(repeats)) + 1 + 2
        if name == "dome":
            assert not repeats
        else:
            assert len(repeats) > N // 4
            for n in repeats:
                for fmt in ("csv", "vtk"):
                    assert ((out / f"u_{n:06d}.{fmt}").read_bytes()
                            == (out / f"u_{n - 1:06d}.{fmt}").read_bytes())


def test_settled_run_builds_each_snapshot_text_once(tmp_path, monkeypatch):
    # the snapshots of each run of equal states are written format by
    # format, before the next run's: the run's saved states share one text
    # per format, built once and written to every file of the run, also
    # when the stride skips states; H_final adds one text per format
    import itertools

    import shallowice.snapshots as snapshots
    from shallowice.snapshots import read_states_csv

    builds = []
    file_text = snapshots._file_text
    monkeypatch.setattr(snapshots, "_file_text",
                        lambda *args: builds.append(args[1:]) or file_text(*args))
    for stride in (1, 3):
        builds.clear()
        out = tmp_path / f"stride{stride}"
        cfg = write_config(tmp_path / f"stride{stride}.json", out,
                           initial={"preset": "dome", "amplitude": 0.8},
                           forcing={"preset": "melt", "rate": -2.0},
                           time={"T": 2.0, "N": 40},
                           physics={"p": 3.0, "rho_g": 3.0, "A_const": 1.0, "mu": 1.0},
                           output={"directory": str(out), "stride": stride,
                                   "formats": ["csv", "vtk"]})
        assert cli(["run", str(cfg)]) == 0
        states = read_states_csv(out / "states.csv")
        saved = sorted(set(range(0, 41, stride)) | {40})
        # the first state of the run of equal states that each state is in
        first = [0]
        for k in range(1, 41):
            first.append(first[-1] if states[k].tobytes() == states[k - 1].tobytes() else k)
        runs = [list(run) for _, run in itertools.groupby(saved, first.__getitem__)]
        assert any(len(run) > 1 for run in runs)
        assert builds == [(fmt, "u") for _ in runs for fmt in ("csv", "vtk")] + [
            ("csv", "H"), ("vtk", "H")]
        for run in runs:
            for fmt in ("csv", "vtk"):
                first = (out / f"u_{run[0]:06d}.{fmt}").read_bytes()
                assert all((out / f"u_{n:06d}.{fmt}").read_bytes() == first for n in run)


def test_settled_run_holds_one_state_text_at_a_time(tmp_path, monkeypatch):
    # a run's outputs are written in one pass over its runs of equal
    # states, and the text of each run is dropped before the next run is
    # formatted: whenever a snapshot is written, at most two FieldTexts are
    # alive, however many runs the states make
    import itertools
    import weakref

    import shallowice.cli as cli_module
    import shallowice.snapshots as snapshots
    from shallowice.snapshots import read_states_csv

    alive = weakref.WeakSet()
    counts = []
    field = snapshots.SnapshotText.field

    def tracked(text, values):
        made = field(text, values)
        alive.add(made)
        return made

    write_snapshot = cli_module.write_snapshot

    def counted(*args, **kwargs):
        counts.append(len(alive))
        return write_snapshot(*args, **kwargs)

    monkeypatch.setattr(snapshots.SnapshotText, "field", tracked)
    monkeypatch.setattr(cli_module, "write_snapshot", counted)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.json", out,
                       initial={"preset": "dome", "amplitude": 0.8},
                       forcing={"preset": "melt", "rate": -2.0},
                       time={"T": 2.0, "N": 40},
                       physics={"p": 3.0, "rho_g": 3.0, "A_const": 1.0, "mu": 1.0},
                       output={"directory": str(out), "stride": 1,
                               "formats": ["csv", "vtk"]})
    assert cli(["run", str(cfg)]) == 0
    assert len(counts) == 2 * 41 + 2
    assert 1 <= max(counts) <= 2
    states = read_states_csv(out / "states.csv")
    runs = 1 + sum(a.tobytes() != b.tobytes() for a, b in itertools.pairwise(states))
    assert runs > 2


def test_run_melt_writes_clipped_thickness(tmp_path):
    # final states sit a penalty-depth below zero; the thickness snapshot
    # must clip at the obstacle rather than reject the field
    cfg = write_config(
        tmp_path / "melt.json", tmp_path / "out",
        initial={"preset": "dome", "amplitude": 0.8},
        forcing={"preset": "melt", "rate": -1.5},
        time={"T": 0.8, "N": 4},
    )
    assert cli(["run", str(cfg)]) == 0
    from shallowice import build_mesh
    from shallowice.snapshots import read_field_csv

    mesh = build_mesh(7, 7, 1.0, 1.0)
    states = (tmp_path / "out" / "states.csv").read_text()
    assert "-" in states.split("\n")[-2]  # last state dips below zero
    H = read_field_csv(tmp_path / "out" / "H_final.csv", mesh)
    assert np.all(H >= 0.0)


def test_mms_command_small(tmp_path, capsys):
    cfg = write_config(tmp_path / "mms.json", tmp_path / "mms_out",
                       time={"T": 0.25, "N": 2})
    code = cli(["mms", str(cfg), "--meshes", "5,9", "--steps", "2,4",
                "--spatial-steps", "8"])
    assert code == 0
    assert (tmp_path / "mms_out" / "mms.csv").exists()
    assert "temporal study" in capsys.readouterr().out


def test_mms_reads_only_what_the_study_needs(tmp_path, capsys):
    # the study builds its own u0 and forcing: a zero initial state must not
    # warn, an unread forcing file need not exist, and an absent mu is the
    # Glen-law value
    doc = {"physics": {"p": 3.0, "rho_g": 3.0, "A_const": 1.0},
           "forcing": {"preset": "gridded", "csv": "missing.csv"}}
    cfg = write_config(tmp_path / "mms.json", tmp_path / "mms_out", **doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["mms", str(cfg), "--meshes", "3,5", "--steps", "1,2"]) == 0
    assert "temporal study" in capsys.readouterr().out

    doc["physics"]["mu"] = "mu.txt"
    cfg = write_config(tmp_path / "mms.json", tmp_path / "mms_out", **doc)
    assert cli(["mms", str(cfg), "--meshes", "3,5", "--steps", "1,2"]) == 2
    assert "requires a constant mu" in capsys.readouterr().err


def test_mms_uses_the_config_regularizations(tmp_path):
    rows = []
    for delta in (0.3, 1e-8):
        cfg = write_config(tmp_path / "mms.json", tmp_path / "mms_out",
                           penalty={"kappa": 1e-3, "delta": delta})
        assert cli(["mms", str(cfg), "--meshes", "3,5", "--steps", "1,2"]) == 0
        text = (tmp_path / "mms_out" / "mms.csv").read_text(encoding="utf-8")
        rows.append([l for l in text.splitlines() if not l.startswith("#")])
        assert read_metadata_line(tmp_path / "mms_out" / "mms.csv") == {
            "version": __version__, "config": load_config(cfg)}
    assert rows[0][0] == rows[1][0]  # same header
    assert rows[0][1:] != rows[1][1:]


def test_mms_rows_are_labelled_by_the_study(tmp_path):
    # unsorted lists with a repeated step count: the temporal rows ran on
    # the finest mesh (9) and the spatial rows at the largest N (4), each
    # pair once, and integer cells are written as integers
    cfg = write_config(tmp_path / "mms.json", tmp_path / "mms_out",
                       time={"T": 0.25, "N": 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["mms", str(cfg), "--meshes", "9,5", "--steps", "4,2,2"]) == 0
    text = (tmp_path / "mms_out" / "mms.csv").read_text(encoding="utf-8")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "study,nx,N,error"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[:3] for r in rows] == [["temporal", "9", "2"], ["temporal", "9", "4"],
                                     ["spatial", "5", "4"], ["spatial", "9", "4"]]
    # the 9 x 9 mesh at N = 4 is a row of both studies
    assert rows[1][3] == rows[3][3]


def test_verify_command(capsys):
    # the oracle's p = 2 cases are internal and must not warn about p
    with warnings.catch_warnings():
        warnings.simplefilter("error", PhysicalRangeWarning)
        assert cli(["verify", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    for samples in ("0", "-5"):
        assert cli(["verify", "--samples", samples]) == 2
        assert "--samples must be at least 1" in capsys.readouterr().err
