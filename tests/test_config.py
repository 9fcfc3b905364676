import json

import numpy as np
import pytest

from shallowice import build_setup, initial_thickness_field
from shallowice.config import (
    ConfigSyntaxError,
    MissingField,
    ValidationError,
    parse_config,
)
from shallowice.forcing import (
    ConstantForcing,
    GriddedForcing,
    LinearForcing,
    MeltForcing,
    SeasonalForcing,
    poly_bump,
)
from shallowice.physics import u_from_thickness
from shallowice.snapshots import write_snapshot


def minimal_config(**overrides):
    doc = {
        "domain": {"Lx": 1.0, "Ly": 1.0, "nx": 5, "ny": 5},
        "time": {"T": 0.5, "N": 4},
        "physics": {"p": 3.0, "rho_g": 3.0, "A_const": 1.0},
        "penalty": {"kappa": 1e-3},
        "forcing": {"preset": "constant", "value": 0.0},
        "initial": {"preset": "dome", "amplitude": 1.0},
    }
    doc.update(overrides)
    return doc


def test_minimal_document_round_trip():
    config = parse_config(json.dumps(minimal_config()))
    assert isinstance(config, dict)
    assert config["penalty"] == {"kappa": 1e-3, "delta": 1e-8, "eps": 1e-10}
    assert config["solver"]["tol_residual"] == 1e-10
    assert config["output"] == {"directory": "out", "stride": 1, "formats": ["csv"]}
    assert config["physics"]["mu"] is None
    # the parsed dict, defaults included, parses back to itself, as text
    # or as the dict that json.loads makes of it
    assert parse_config(json.dumps(config)) == config
    assert parse_config(json.loads(json.dumps(config))) == config


def test_a_decoded_document_names_its_nonfinite_field():
    # json.loads takes NaN and Infinity; in a decoded document they are
    # values of a field, not literals of the text
    doc = minimal_config()
    doc["physics"]["p"] = float("nan")
    with pytest.raises(ValidationError, match="physics.p: must be a finite number"):
        parse_config(doc)


def test_sizes_no_run_can_build():
    huge = 10**399
    for section, key, value, match in [
        ("domain", "nx", huge, "domain: nx \\* ny nodes are more than numpy can index"),
        ("domain", "ny", huge, "domain: nx \\* ny nodes"),
        ("time", "N", huge, "time.N: the step T / N must be a positive float"),
    ]:
        doc = minimal_config()
        doc[section][key] = value
        with pytest.raises(ValidationError, match=match):
            parse_config(json.dumps(doc))
    # the smallest positive float halved rounds to 0: no step is left
    doc = minimal_config(time={"T": 5e-324, "N": 2})
    with pytest.raises(ValidationError, match="time.N: the step T / N"):
        parse_config(json.dumps(doc))
    assert parse_config(json.dumps(minimal_config(time={"T": 5e-324, "N": 1})))
    # the triangle area (Lx / (nx - 1)) (Ly / (ny - 1)) / 2 underflows to 0
    # or overflows to inf
    for length in (1e-200, 1e200):
        doc = minimal_config(domain={"Lx": length, "Ly": length, "nx": 5, "ny": 5})
        with pytest.raises(ValidationError, match="domain: the triangle area"):
            parse_config(json.dumps(doc))


def test_rejects_p_at_most_one():
    doc = minimal_config()
    doc["physics"]["p"] = 1.0
    with pytest.raises(ValidationError, match="p must exceed 1"):
        parse_config(json.dumps(doc))


def test_unknown_key_is_named():
    doc = minimal_config()
    doc["penalty"]["kapa"] = 0.1
    with pytest.raises(ValidationError, match="kapa"):
        parse_config(json.dumps(doc))


def test_missing_field_is_named():
    doc = minimal_config()
    del doc["time"]["N"]
    with pytest.raises(MissingField, match="time.N"):
        parse_config(json.dumps(doc))


def test_syntax_error_reports_position():
    with pytest.raises(ConfigSyntaxError) as err:
        parse_config("{\n  broken")
    assert err.value.line == 2


def test_type_and_range_checks():
    doc = minimal_config()
    doc["domain"]["nx"] = 2
    with pytest.raises(ValidationError, match="domain.nx"):
        parse_config(json.dumps(doc))
    doc = minimal_config()
    doc["time"]["T"] = "late"
    with pytest.raises(ValidationError, match="time.T"):
        parse_config(json.dumps(doc))
    doc = minimal_config(forcing={"preset": "melt", "rate": 0.5})
    with pytest.raises(ValidationError, match="forcing.rate"):
        parse_config(json.dumps(doc))
    doc = minimal_config(forcing={"preset": "tidal"})
    with pytest.raises(ValidationError, match="forcing.preset"):
        parse_config(json.dumps(doc))
    doc = minimal_config(initial={"preset": "bump"})
    with pytest.raises(MissingField, match="initial.amplitude"):
        parse_config(json.dumps(doc))


def test_build_setup_materializes(tmp_path):
    config = parse_config(json.dumps(minimal_config()))
    setup = build_setup(config, tmp_path)
    assert setup.mesh.n_nodes == 25
    assert setup.time_grid.N == 4
    # mu derived from the Glen law: base rho_g (p-1)/(2p) = 1 here
    assert setup.params.mu[0] == pytest.approx(0.5, rel=1e-15)
    # initial thickness converted through the power transform
    H0 = initial_thickness_field("dome", 1.0, setup.mesh)
    assert np.allclose(setup.params.u0, u_from_thickness(H0, 3.0), rtol=1e-14)
    assert setup.kappa == 1e-3


def test_build_setup_melt_and_zero(tmp_path):
    doc = minimal_config(forcing={"preset": "melt", "rate": -1.5},
                         initial={"preset": "zero"})
    setup = build_setup(parse_config(json.dumps(doc)), tmp_path)
    assert isinstance(setup.params.forcing, MeltForcing)
    assert setup.params.forcing.rate == -1.5
    assert np.array_equal(setup.params.u0, np.zeros(25))


def test_build_setup_mu_csv(tmp_path):
    ntri = 2 * 4 * 4
    mu = np.linspace(0.5, 1.5, ntri)
    path = tmp_path / "mu.csv"
    np.savetxt(path, mu)
    doc = minimal_config()
    doc["physics"]["mu"] = "mu.csv"
    setup = build_setup(parse_config(json.dumps(doc)), tmp_path)
    assert np.allclose(setup.params.mu, mu, rtol=1e-15)
    # wrong length rejected
    np.savetxt(path, mu[:-1])
    with pytest.raises(ValidationError, match="physics.mu"):
        build_setup(parse_config(json.dumps(doc)), tmp_path)


def test_initial_csv_round_trip(tmp_path):
    from shallowice import build_mesh

    mesh = build_mesh(5, 5, 1.0, 1.0)
    rng = np.random.default_rng(2)
    H0 = rng.uniform(0.0, 2.0, mesh.n_nodes)
    H0[mesh.boundary_mask] = 0.0
    write_snapshot(H0, mesh, tmp_path / "h0.csv", "csv", name="H")
    doc = minimal_config(initial={"csv": "h0.csv"})
    setup = build_setup(parse_config(json.dumps(doc)), tmp_path)
    assert np.array_equal(setup.params.u0, u_from_thickness(H0, 3.0))


def test_gridded_forcing_config(tmp_path):
    mesh_nodes = 25
    times = np.array([0.0, 0.25, 0.5])
    table = np.column_stack([times, np.outer(times, np.ones(mesh_nodes))])
    np.savetxt(tmp_path / "forcing.csv", table, delimiter=",")
    doc = minimal_config(forcing={"preset": "gridded", "csv": "forcing.csv"})
    setup = build_setup(parse_config(json.dumps(doc)), tmp_path)
    assert isinstance(setup.params.forcing, GriddedForcing)
    # linear-in-t series: slab averages are exact midpoints
    avg = setup.params.forcing.slab_average(setup.mesh, 0.0, 0.5)
    assert np.allclose(avg, 0.25, rtol=1e-14)


def test_seasonal_forcing_config(tmp_path):
    spec = {"preset": "seasonal", "base": 0.1, "amplitude": 0.3, "period": 1.0}
    setup = build_setup(parse_config(json.dumps(minimal_config(forcing=spec))),
                        tmp_path)
    forcing = setup.params.forcing
    assert forcing == SeasonalForcing(base=0.1, amplitude=0.3, period=1.0)
    doc = minimal_config(forcing=dict(spec, period=0))
    with pytest.raises(ValidationError, match="forcing.period: must be positive"):
        parse_config(json.dumps(doc))

    mesh, h = setup.mesh, 0.25
    avg = forcing.slab_average(mesh, 0.0, h)
    # the bump vanishes on the boundary, so only the base remains there
    assert np.all(avg[mesh.boundary_mask] == 0.1)
    # at the bump's peak: the closed-form slab average of
    # base + amplitude sin(2 pi t), up to the two-point Gauss remainder
    # h^4 max|f''''| / 4320 (about 4e-4 here; the error is 2.9e-4)
    bump = poly_bump(mesh)
    peak = int(np.argmax(bump))
    assert bump[peak] == 1.0
    exact = 0.1 + 0.3 * (1.0 - np.cos(2.0 * np.pi * h)) / (2.0 * np.pi * h)
    assert abs(avg[peak] - exact) <= 0.3 * h**4 * (2.0 * np.pi) ** 4 / 4320


@pytest.mark.parametrize("spec, expected", [
    ({"preset": "constant", "value": 0.25}, ConstantForcing(0.25)),
    ({"preset": "linear_t", "a0": 0.5, "a1": -2}, LinearForcing(0.5, -2.0)),
    ({"preset": "seasonal", "base": 0.1, "amplitude": 0.3, "period": 2},
     SeasonalForcing(0.1, 0.3, 2.0)),
    ({"preset": "melt", "rate": -1.5}, MeltForcing(-1.5)),
])
def test_forcing_preset_round_trip(tmp_path, spec, expected):
    # every dataclass preset parses to its fields as floats, parses back to
    # itself, and builds the object its constructor gives
    config = parse_config(json.dumps(minimal_config(forcing=spec)))
    assert config["forcing"] == {key: value if key == "preset" else float(value)
                                 for key, value in spec.items()}
    assert parse_config(json.dumps(config)) == config
    assert build_setup(config, tmp_path).params.forcing == expected


def test_solver_overrides():
    doc = minimal_config(solver={"tol_residual": 1e-8})
    config = parse_config(json.dumps(doc))
    assert config["solver"] == {"tol_residual": 1e-8}
    doc = minimal_config(solver={"tol_residual": 0.0})
    with pytest.raises(ValidationError, match="solver.tol_residual: must be positive"):
        parse_config(json.dumps(doc))
    # the Newton cap, the inner-solve tolerance, the Armijo constant and the
    # backtrack and CG caps are fixed in the solver
    for key, value in (("cg_max", 1500), ("max_backtrack", 40), ("armijo_c", 1e-4),
                       ("cg_tol", 1e-6), ("max_newton", 60)):
        doc = minimal_config(solver={key: value})
        with pytest.raises(ValidationError, match=f"solver.{key}: unknown key"):
            parse_config(json.dumps(doc))


def test_output_format_validation():
    doc = minimal_config(output={"formats": ["csv", "hdf5"]})
    with pytest.raises(ValidationError, match="output.formats"):
        parse_config(json.dumps(doc))
