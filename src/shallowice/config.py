"""Strict JSON run configuration.

A configuration is the plain dict of the validated JSON document, with
every optional field filled in.  All physics must be spelled out; defaults
exist only for the solver tolerance, regularizations, and output options.
Unknown keys are errors, so typos cannot silently change a run, and every
number must be finite, so neither can a numeral that overflows to
infinity.  This dict, with the package version, is the whole description
of a run that the CLI saves beside its output, and `shallowice monitors`
validates the saved dict with the same parse_config.

FORCING_CLASSES maps each forcing preset but gridded to its dataclass,
whose fields are the preset's numeric keys; FORCING_CHECKS holds the range
checks of some fields.  Every file a config names (physics.mu, forcing.csv
of the gridded preset, initial.csv) goes through _read_named_file, so each
one that cannot be read or used is a configuration error of its field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import forcing as forcing_mod
from .mesh import StructuredMesh, build_mesh
from .operators import DEFAULT_DELTA, DEFAULT_EPS
from .physics import PhysicalParams, make_params
from .snapshots import _data_lines, read_field_csv
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
    "build_mesh_and_grid",
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


class MissingField(ConfigError):
    def __init__(self, fieldname: str):
        super().__init__(f"missing required field {fieldname!r}")


FORCING_CLASSES = {
    "constant": forcing_mod.ConstantForcing,
    "linear_t": forcing_mod.LinearForcing,
    "seasonal": forcing_mod.SeasonalForcing,
    "melt": forcing_mod.MeltForcing,
}
FORCING_CHECKS = {
    "rate": (lambda v: v < 0, "must be negative"),
    "period": (lambda v: v > 0, "must be positive"),
}
FORCING_PRESETS = (*FORCING_CLASSES, "gridded")
INITIAL_PRESETS = ("dome", "zero", "bump")
OUTPUT_FORMATS = ("csv", "vtk")
KIND_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list",
              dict: "an object"}


class _Section:
    """Helper walking one JSON object with strict key checking."""

    def __init__(self, name: str, raw: dict):
        if not isinstance(raw, dict):
            if not name:
                raise ConfigError("the configuration must be a JSON object")
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
        accepted = (int, float) if kind is float else kind
        # a JSON true or false is a bool, which Python counts as an int
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValidationError(self._field(key), f"must be {KIND_NAMES[kind]}")
        if kind is float:
            # json.loads reads a numeral such as 1e999 as inf; an integer
            # numeral past the float range compares above its maximum too
            if not abs(value) <= sys.float_info.max:
                raise ValidationError(self._field(key), "must be a finite number")
            value = float(value)
        if check is not None and not check(value):
            raise ValidationError(self._field(key), constraint)
        return value

    def reject_unknown(self):
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ValidationError(self._field(key), "unknown key")


def _reject_constant(name: str):
    """json.loads accepts NaN, Infinity and -Infinity, which are not JSON."""
    raise ConfigError(f"{name} is not a JSON number; numbers must be finite")


def parse_config(document: str | dict) -> dict:
    """Parse and validate a UTF-8 JSON run configuration into a plain dict.

    document: the JSON text, or the dict json.loads made of it, such as
    the config a run saved in run_metadata.json.

    Sections: domain {Lx, Ly, nx, ny}; time {T, N}; physics {p, rho_g,
    A_const, mu?}; penalty {kappa, delta?, eps?}; forcing {preset, ...};
    initial {preset, amplitude} or {csv}; solver {tol_residual?}; output
    {directory?, stride?, formats?}.  Solver, regularization, and output
    fields have defaults; everything physical is required.  The solver's
    Newton cap and inner-solve tolerances are constants of the solver
    module, not keys of the solver section.  The returned dict has every
    default filled in, so parse_config(json.dumps(config)) == config.  The
    literals NaN, Infinity and -Infinity, which json.loads would take, are
    rejected, and so is a numeral that overflows to infinity, such as 1e999.
    JSON integers are unbounded, so sizes no run can build are rejected too:
    nx * ny beyond the index range of numpy, a triangle area
    (Lx / (nx - 1)) (Ly / (ny - 1)) / 2 and a step T / N that are not
    positive finite floats.
    """
    raw = document
    if isinstance(document, str):
        try:
            raw = json.loads(document, parse_constant=_reject_constant)
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
    if domain["nx"] * domain["ny"] > np.iinfo(np.intp).max:
        raise ValidationError("domain", "nx * ny nodes are more than numpy can index")
    # a tiny or huge domain's triangle area underflows to 0 or overflows
    area = domain["Lx"] / (domain["nx"] - 1) * (domain["Ly"] / (domain["ny"] - 1)) / 2
    if not 0.0 < area < np.inf:
        raise ValidationError("domain", "the triangle area must be a positive finite float")

    tim = _Section("time", top.require("time", dict))
    time = {
        "T": tim.require("T", float, lambda v: v > 0, "must be positive"),
        "N": tim.require("N", int, lambda v: v >= 1, "must be at least 1"),
    }
    tim.reject_unknown()
    # an N past the float range cannot divide T, and T / N may underflow to 0
    if not (time["N"] <= sys.float_info.max and time["T"] / time["N"] > 0):
        raise ValidationError("time.N", "the step T / N must be a positive float")

    phys = _Section("physics", top.require("physics", dict))
    physics = {
        "p": phys.require("p", float, lambda v: v > 1, "p must exceed 1"),
        "rho_g": phys.require("rho_g", float, lambda v: v > 0, "must be positive"),
        "A_const": phys.require("A_const", float, lambda v: v > 0, "must be positive"),
    }
    # absent or null: the Glen law; a string names a per-triangle file
    mu = phys.raw.get("mu")
    physics["mu"] = mu if mu is None or isinstance(mu, str) else phys.require(
        "mu", float, lambda v: v > 0, "must be positive")
    phys.seen.add("mu")
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
    if preset == "gridded":
        forcing["csv"] = forc.require("csv", str)
    else:
        for key in (f.name for f in fields(FORCING_CLASSES[preset])):
            forcing[key] = forc.require(key, float, *FORCING_CHECKS.get(key, ()))
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
    solver = {
        "tol_residual": sol.optional("tol_residual", float, SolverConfig.tol_residual,
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


def build_mesh_and_grid(config: dict) -> tuple[StructuredMesh, TimeGrid]:
    """The mesh and time grid of a validated config.  A domain whose mesh
    build_mesh cannot allocate (MemoryError, or numpy's ValueError for an
    array past its size limit) is a configuration error of the domain."""
    domain = config["domain"]
    nx, ny = domain["nx"], domain["ny"]
    try:
        mesh = build_mesh(nx, ny, domain["Lx"], domain["Ly"])
    except (MemoryError, ValueError) as err:
        raise ValidationError("domain", f"cannot allocate a {nx} x {ny} mesh: {err}") from err
    return mesh, TimeGrid(config["time"]["T"], config["time"]["N"])


def _read_named_file(fieldname: str, path: Path, reader, *args):
    """Return reader(path, *args), the content of the file config field
    fieldname names.

    The reader raises OSError when the file cannot be read and ValueError
    when its content cannot be used (shape, finiteness, sign, boundary,
    node count); either is a ValidationError of the field.
    """
    try:
        return reader(path, *args)
    except OSError as err:
        raise ValidationError(fieldname, f"cannot read {path}: {err}") from err
    except ValueError as err:
        raise ValidationError(fieldname, f"malformed {path}: {err}") from err


def _read_mu(path: Path, mesh: StructuredMesh) -> np.ndarray:
    mu = np.loadtxt(path, comments="#")
    if mu.shape != (mesh.n_triangles,):
        raise ValueError(f"needs {mesh.n_triangles} per-triangle values, got {mu.shape}")
    if not np.all(np.isfinite(mu) & (mu > 0)):
        raise ValueError("values must be finite and positive")
    return mu


def _read_gridded(path: Path, mesh: StructuredMesh, T: float):
    """The series of a gridded forcing: data lines (_data_lines) of a time
    and the nodal values, comma-separated."""
    with open(path, encoding="utf-8") as fh:
        rows = list(_data_lines(fh))
    # checked here, since loadtxt only warns on a file without data rows
    if not rows:
        raise ValueError("no data rows")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    forcing = forcing_mod.GriddedForcing(table[:, 0], table[:, 1:])
    if forcing.values.shape[1] != mesh.n_nodes:
        raise ValueError(f"needs {mesh.n_nodes} nodal values after the time")
    forcing.check_cover(0.0, T)
    return forcing


def _read_thickness(path: Path, mesh: StructuredMesh) -> np.ndarray:
    H0 = read_field_csv(path, mesh)
    if not (np.isfinite(H0).all() and np.all(H0 >= 0) and np.all(H0[mesh.boundary_mask] == 0)):
        raise ValueError("thickness must be finite, nonnegative and 0 on the boundary")
    return H0


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
    resolve against base_dir and are read by _read_named_file.  A gridded
    series must cover the run [0, T].  The initial CSV is read as thickness
    and converted through the power transform, like the presets.
    """
    base_dir = Path(base_dir)
    physics, penalty = config["physics"], config["penalty"]
    mesh, time_grid = build_mesh_and_grid(config)

    mu = physics["mu"]
    if isinstance(mu, str):
        mu = _read_named_file("physics.mu", base_dir / mu, _read_mu, mesh)

    spec = config["forcing"]
    if spec["preset"] == "gridded":
        forcing = _read_named_file("forcing.csv", base_dir / spec["csv"], _read_gridded,
                                  mesh, time_grid.T)
    else:
        forcing = FORCING_CLASSES[spec["preset"]](
            **{key: value for key, value in spec.items() if key != "preset"})

    initial = config["initial"]
    if "csv" in initial:
        H0 = _read_named_file("initial.csv", base_dir / initial["csv"], _read_thickness, mesh)
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
