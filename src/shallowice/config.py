"""Strict JSON run configuration.

A configuration is the plain dict of the validated JSON document, with
every optional field filled in.  All physics must be spelled out; defaults
exist only for solver knobs, regularizations, and output options.  Unknown
keys are errors, so typos cannot silently change a run.  This dict, with
the package version, is the whole description of a run that the CLI saves
beside its output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import forcing as forcing_mod
from .mesh import StructuredMesh, build_mesh
from .operators import DEFAULT_DELTA, DEFAULT_EPS
from .physics import PhysicalParams, make_params
from .solver import SolverConfig
from .timestep import TimeGrid

__all__ = [
    "ConfigError",
    "ConfigSyntaxError",
    "ValidationError",
    "MissingField",
    "parse_config",
    "load_config",
    "build_setup",
    "initial_thickness_field",
]


class ConfigError(Exception):
    """Base class for configuration failures."""


class ConfigSyntaxError(ConfigError):
    """The document is not valid JSON; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(ConfigError):
    """A field value violates its constraint."""

    def __init__(self, fieldname: str, constraint: str):
        super().__init__(f"{fieldname}: {constraint}")
        self.fieldname = fieldname
        self.constraint = constraint


class MissingField(ConfigError):
    def __init__(self, fieldname: str):
        super().__init__(f"missing required field {fieldname!r}")
        self.fieldname = fieldname


FORCING_PRESETS = ("constant", "linear_t", "seasonal", "melt", "gridded")
INITIAL_PRESETS = ("dome", "zero", "bump")
OUTPUT_FORMATS = ("csv", "vtk")


class _Section:
    """Helper walking one JSON object with strict key checking."""

    def __init__(self, name: str, raw: dict):
        if not isinstance(raw, dict):
            raise ValidationError(name, "must be a JSON object")
        self.name = name
        self.raw = raw
        self.seen = set()

    def _field(self, key):
        return f"{self.name}.{key}" if self.name else key

    def require(self, key, kind, check=None, constraint=""):
        if key not in self.raw:
            raise MissingField(self._field(key))
        return self._convert(key, kind, check, constraint)

    def optional(self, key, kind, default, check=None, constraint=""):
        if key not in self.raw:
            return default
        return self._convert(key, kind, check, constraint)

    def _convert(self, key, kind, check, constraint):
        self.seen.add(key)
        value = self.raw[key]
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(self._field(key), "must be a number")
            value = float(value)
        elif kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(self._field(key), "must be an integer")
        elif kind is str:
            if not isinstance(value, str):
                raise ValidationError(self._field(key), "must be a string")
        elif kind is list:
            if not isinstance(value, list):
                raise ValidationError(self._field(key), "must be a list")
        elif kind is dict:
            if not isinstance(value, dict):
                raise ValidationError(self._field(key), "must be an object")
        if check is not None and not check(value):
            raise ValidationError(self._field(key), constraint)
        return value

    def reject_unknown(self):
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ValidationError(self._field(key), "unknown key")


def parse_config(text: str) -> dict:
    """Parse and validate a UTF-8 JSON run configuration into a plain dict.

    Sections: domain {Lx, Ly, nx, ny}; time {T, N}; physics {p, rho_g,
    A_const, mu?}; penalty {kappa, delta?, eps?}; forcing {preset, ...};
    initial {preset, amplitude} or {csv}; solver {tol_residual?,
    max_newton?, cg_tol?}; output {directory?, stride?, formats?}.
    Solver, regularization, and output fields have defaults; everything
    physical is required.  The returned dict has every default filled in,
    so parse_config(json.dumps(config)) == config.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigSyntaxError(err.msg, err.lineno, err.colno) from err
    top = _Section("", raw)

    dom = _Section("domain", top.require("domain", dict))
    domain = {
        "Lx": dom.require("Lx", float, lambda v: v > 0, "must be positive"),
        "Ly": dom.require("Ly", float, lambda v: v > 0, "must be positive"),
        "nx": dom.require("nx", int, lambda v: v >= 3, "must be at least 3"),
        "ny": dom.require("ny", int, lambda v: v >= 3, "must be at least 3"),
    }
    dom.reject_unknown()

    tim = _Section("time", top.require("time", dict))
    time = {
        "T": tim.require("T", float, lambda v: v > 0, "must be positive"),
        "N": tim.require("N", int, lambda v: v >= 1, "must be at least 1"),
    }
    tim.reject_unknown()

    phys = _Section("physics", top.require("physics", dict))
    physics = {
        "p": phys.require("p", float, lambda v: v > 1, "p must exceed 1"),
        "rho_g": phys.require("rho_g", float, lambda v: v > 0, "must be positive"),
        "A_const": phys.require("A_const", float, lambda v: v > 0, "must be positive"),
    }
    if phys.raw.get("mu") is not None:
        value = phys.raw["mu"]
        if isinstance(value, str):
            physics["mu"] = phys.require("mu", str)
        else:
            physics["mu"] = phys.require(
                "mu", float, lambda v: v > 0, "must be positive"
            )
    else:
        phys.seen.add("mu")
        physics["mu"] = None
    phys.reject_unknown()

    pen = _Section("penalty", top.require("penalty", dict))
    penalty = {
        "kappa": pen.require("kappa", float, lambda v: v > 0, "must be positive"),
        "delta": pen.optional("delta", float, DEFAULT_DELTA, lambda v: v >= 0,
                              "must be nonnegative"),
        "eps": pen.optional("eps", float, DEFAULT_EPS, lambda v: v >= 0,
                            "must be nonnegative"),
    }
    pen.reject_unknown()

    forc = _Section("forcing", top.require("forcing", dict))
    preset = forc.require("preset", str, lambda v: v in FORCING_PRESETS,
                          f"must be one of {FORCING_PRESETS}")
    forcing = {"preset": preset}
    if preset == "constant":
        forcing["value"] = forc.require("value", float)
    elif preset == "linear_t":
        forcing["a0"] = forc.require("a0", float)
        forcing["a1"] = forc.require("a1", float)
    elif preset == "seasonal":
        forcing["base"] = forc.require("base", float)
        forcing["amplitude"] = forc.require("amplitude", float)
        forcing["period"] = forc.require("period", float, lambda v: v > 0,
                                         "must be positive")
    elif preset == "melt":
        forcing["rate"] = forc.require("rate", float, lambda v: v < 0,
                                       "must be negative")
    elif preset == "gridded":
        forcing["csv"] = forc.require("csv", str)
    forc.reject_unknown()

    init = _Section("initial", top.require("initial", dict))
    if "csv" in init.raw:
        initial = {"csv": init.require("csv", str)}
    else:
        initial = {
            "preset": init.require("preset", str, lambda v: v in INITIAL_PRESETS,
                                   f"must be one of {INITIAL_PRESETS}"),
            "amplitude": init.optional("amplitude", float, 1.0, lambda v: v >= 0,
                                       "must be nonnegative"),
        }
        if initial["preset"] != "zero" and "amplitude" not in init.raw:
            raise MissingField("initial.amplitude")
    init.reject_unknown()

    sol = _Section("solver", top.optional("solver", dict, {}))
    defaults = SolverConfig()
    solver = {
        "tol_residual": sol.optional("tol_residual", float, defaults.tol_residual,
                                     lambda v: v > 0, "must be positive"),
        "max_newton": sol.optional("max_newton", int, defaults.max_newton,
                                   lambda v: v >= 1, "must be at least 1"),
        "cg_tol": sol.optional("cg_tol", float, defaults.cg_tol,
                               lambda v: v > 0, "must be positive"),
    }
    sol.reject_unknown()

    out = _Section("output", top.optional("output", dict, {}))
    output = {
        "directory": out.optional("directory", str, "out"),
        "stride": out.optional("stride", int, 1, lambda v: v >= 1,
                               "must be at least 1"),
        "formats": out.optional(
            "formats", list, ["csv"],
            lambda v: all(f in OUTPUT_FORMATS for f in v),
            f"entries must be among {OUTPUT_FORMATS}",
        ),
    }
    out.reject_unknown()
    top.reject_unknown()

    return {
        "domain": domain, "time": time, "physics": physics, "penalty": penalty,
        "forcing": forcing, "initial": initial, "solver": solver, "output": output,
    }


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    return parse_config(text)


def initial_thickness_field(kind: str, amplitude: float, mesh: StructuredMesh) -> np.ndarray:
    """Preset initial thickness profiles, all zero on the boundary.

    dome: amplitude * sqrt(bump) -- a steep-margined cap;
    bump: amplitude * bump -- the smooth polynomial hill;
    zero: flat bare ground.
    """
    if kind == "zero":
        return np.zeros(mesh.n_nodes)
    shape = forcing_mod.poly_bump(mesh)
    if kind == "dome":
        return amplitude * np.sqrt(shape)
    if kind == "bump":
        return amplitude * shape
    raise ValidationError("initial.preset", f"must be one of {INITIAL_PRESETS}")


def _build_forcing(spec: dict, base_dir: Path, mesh: StructuredMesh, T: float):
    preset = spec["preset"]
    if preset == "constant":
        return forcing_mod.ConstantForcing(spec["value"])
    if preset == "linear_t":
        return forcing_mod.LinearForcing(spec["a0"], spec["a1"])
    if preset == "seasonal":
        return forcing_mod.SeasonalForcing(spec["base"], spec["amplitude"],
                                           spec["period"])
    if preset == "melt":
        return forcing_mod.MeltForcing(spec["rate"])
    if preset == "gridded":
        path = base_dir / spec["csv"]
        try:
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
            forcing = forcing_mod.GriddedForcing(table[:, 0], table[:, 1:])
        except OSError as err:
            raise ValidationError("forcing.csv", f"cannot read {path}: {err}")
        except ValueError as err:
            raise ValidationError("forcing.csv", f"malformed {path}: {err}")
        if forcing.values.shape[1] != mesh.n_nodes:
            raise ValidationError("forcing.csv", f"malformed {path}: needs "
                                  f"{mesh.n_nodes} nodal values after the time")
        try:
            forcing.check_cover(0.0, T)
        except ValueError as err:
            raise ValidationError("forcing.csv", f"{path} does not cover the "
                                  f"run [0, {T}]: {err}")
        return forcing
    raise ValidationError("forcing.preset", "unsupported preset")


@dataclass
class RunSetup:
    """Materialized objects of a configuration, ready to integrate."""

    mesh: StructuredMesh
    params: PhysicalParams
    time_grid: TimeGrid
    solver_config: SolverConfig
    kappa: float
    delta: float
    eps: float
    output: dict


def build_setup(config: dict, base_dir=".") -> RunSetup:
    """Construct mesh, parameters, grid, and solver objects from a config.

    Relative file paths (per-triangle mu, gridded forcing, initial CSV)
    resolve against base_dir.  The initial CSV is read as thickness and
    converted through the power transform, like the presets.
    """
    base_dir = Path(base_dir)
    domain, physics, penalty = config["domain"], config["physics"], config["penalty"]
    mesh = build_mesh(domain["nx"], domain["ny"], domain["Lx"], domain["Ly"])
    time_grid = TimeGrid(config["time"]["T"], config["time"]["N"])

    mu = physics["mu"]
    if isinstance(mu, str):
        path = base_dir / mu
        try:
            mu = np.loadtxt(path, comments="#")
        except OSError as err:
            raise ValidationError("physics.mu", f"cannot read {path}: {err}")
        except ValueError as err:
            raise ValidationError("physics.mu", f"malformed {path}: {err}")
        if mu.shape != (mesh.n_triangles,):
            raise ValidationError(
                "physics.mu",
                f"needs {mesh.n_triangles} per-triangle values, got {mu.shape}",
            )

    forcing = _build_forcing(config["forcing"], base_dir, mesh, time_grid.T)

    initial = config["initial"]
    if "csv" in initial:
        from .snapshots import read_field_csv

        path = base_dir / initial["csv"]
        try:
            H0 = read_field_csv(path, mesh)
        except OSError as err:
            raise ValidationError("initial.csv", f"cannot read {path}: {err}")
        except ValueError as err:
            raise ValidationError("initial.csv", f"malformed {path}: {err}")
        if np.any(H0 < 0):
            raise ValidationError("initial.csv", "thickness must be nonnegative")
    else:
        H0 = initial_thickness_field(initial["preset"], initial["amplitude"], mesh)

    params = make_params(
        mesh, physics["p"], forcing, H0=H0, mu=mu,
        rho_g=physics["rho_g"], A_const=physics["A_const"],
    )
    return RunSetup(
        mesh=mesh, params=params, time_grid=time_grid,
        solver_config=SolverConfig(**config["solver"]), kappa=penalty["kappa"],
        delta=penalty["delta"], eps=penalty["eps"], output=config["output"],
    )
