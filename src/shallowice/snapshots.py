"""Persistence: nodal snapshots (CSV and legacy VTK), monitor and sweep
tables, and full trajectory state dumps.

Decimal output uses Python's shortest round-trip float representation, so
writing and re-reading a field reproduces it bit for bit.  Every file can
carry a metadata dict as JSON on a '#' line; the CLI writes the package
version and the validated config of the run.  A legacy VTK title holds at
most 255 characters, so a VTK file names its run by version and config
digest instead: 'shallowice <version> config sha256:<hex>', hashed from the
same sorted JSON of the config that run_metadata.json holds.

A run writes each state to `states.csv` and to its CSV and VTK snapshots,
and formats it once: `SnapshotText` holds the text those files share (the
metadata line, the CSV 'x,y,' node prefixes, the VTK header), and the
`FieldText` it makes of a state formats the values into one comma-joined
row when a writer first needs them.  `states.csv` streams that row, a CSV
snapshot zips it with the node prefixes, and a VTK body puts one value on
each line.  The writers also take plain numeric arrays, with the same
bytes.
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import cached_property
from pathlib import Path

import numpy as np

from .mesh import StructuredMesh
from .monitors import MonitorRecord

__all__ = [
    "SnapshotText",
    "FieldText",
    "write_snapshot",
    "read_field_csv",
    "write_monitors_csv",
    "write_sweep_csv",
    "write_states_csv",
    "read_states_csv",
    "write_run_metadata",
    "read_run_metadata",
]


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_array(a) -> list[str]:
    """_fmt of every element; one tolist() instead of a float() per element."""
    return list(map(repr, np.asarray(a, dtype=float).tolist()))


def _metadata_lines(metadata: dict | None) -> list[str]:
    if not metadata:
        return []
    return ["# " + json.dumps(metadata, sort_keys=True)]


class SnapshotText:
    """The text shared by the snapshots of one mesh and one metadata dict.

    Each part is built on first use and reused by every file written from
    the FieldTexts that `field` returns.
    """

    def __init__(self, mesh: StructuredMesh, metadata: dict | None = None):
        self.mesh = mesh
        self.metadata = metadata

    def field(self, values) -> FieldText:
        return FieldText(self, values)

    @cached_property
    def csv_head(self) -> str:
        """Optional '#' metadata line and the 'x,y,value' header."""
        return "".join(line + "\n" for line in _metadata_lines(self.metadata)) + "x,y,value\n"

    @cached_property
    def csv_prefixes(self) -> list[str]:
        """'x,y,' of every node, row-major."""
        xs = _fmt_array(self.mesh.nodes[:, 0])
        ys = _fmt_array(self.mesh.nodes[:, 1])
        return [f"{x},{y}," for x, y in zip(xs, ys)]

    @cached_property
    def vtk_head(self) -> str:
        """Every VTK header line before the SCALARS line.

        Without metadata the title is 'shallowice snapshot'; otherwise the
        metadata must hold the 'version' and 'config' of the run, which the
        title names by version and the sha256 of the config's sorted JSON.
        """
        mesh = self.mesh
        hx, hy = mesh.spacing
        title = "shallowice snapshot"
        if self.metadata:
            if not {"version", "config"} <= self.metadata.keys():
                raise ValueError("VTK metadata must hold the 'version' and 'config' of the run")
            # imported here: loading hashlib (OpenSSL) costs every start-up
            # about 5 ms, and only VTK titles need it
            import hashlib

            config = json.dumps(self.metadata["config"], sort_keys=True)
            digest = hashlib.sha256(config.encode("utf-8")).hexdigest()
            title = f"shallowice {self.metadata['version']} config sha256:{digest}"
        return (
            f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
            f"DATASET STRUCTURED_POINTS\nDIMENSIONS {mesh.nx} {mesh.ny} 1\n"
            f"ORIGIN 0 0 0\nSPACING {_fmt(hx)} {_fmt(hy)} 1\n"
            f"POINT_DATA {mesh.n_nodes}\n"
        )


class FieldText:
    """One nodal field bound to a SnapshotText.

    `row` is the comma-joined shortest round-trip decimals of the values,
    formatted once, when a writer first reads it.
    """

    def __init__(self, text: SnapshotText, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (text.mesh.n_nodes,):
            raise ValueError(f"field must have {text.mesh.n_nodes} nodal values")
        self.text = text
        self.values = values

    def __len__(self) -> int:
        return self.values.size

    @cached_property
    def row(self) -> str:
        return ",".join(_fmt_array(self.values))


def write_snapshot(field, mesh: StructuredMesh, path, fmt: str,
                   name: str = "u", metadata: dict | None = None) -> None:
    """Write one nodal field.

    CSV: optional '#' metadata lines, header 'x,y,value', one row per node
    in row-major order, shortest round-trip decimals.  VTK: legacy ASCII
    structured points with DIMENSIONS nx ny 1, ORIGIN 0 0 0, SPACING
    Lx/(nx-1) Ly/(ny-1) 1, and a single SCALARS field.

    field: nodal values, or a FieldText of a SnapshotText built from this
    mesh and metadata (the same objects), whose text is then reused.
    """
    if isinstance(field, FieldText):
        if field.text.mesh is not mesh or field.text.metadata is not metadata:
            raise ValueError("a FieldText must be written with the mesh and "
                             "metadata of its SnapshotText")
    else:
        field = SnapshotText(mesh, metadata).field(field)
    text = field.text
    path = Path(path)
    try:
        if fmt == "csv":
            body = "\n".join(map(operator.add, text.csv_prefixes, field.row.split(",")))
            path.write_text(text.csv_head + body + "\n", encoding="utf-8")
        elif fmt == "vtk":
            head = f"{text.vtk_head}SCALARS {name} double\nLOOKUP_TABLE default\n"
            path.write_text(head + field.row.replace(",", "\n") + "\n", encoding="utf-8")
        else:
            raise ValueError(f"format must be 'csv' or 'vtk', got {fmt!r}")
    except OSError as err:
        raise OSError(f"cannot write snapshot {path}: {err}") from err


def read_field_csv(path, mesh: StructuredMesh) -> np.ndarray:
    """Read a nodal field written by write_snapshot(..., 'csv')."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("x,"):
                continue
            cells = line.split(",")
            if len(cells) < 3:
                raise ValueError(f"line {number} has no value column")
            values.append(float(cells[2]))
    arr = np.array(values)
    if arr.shape != (mesh.n_nodes,):
        raise ValueError(f"expected {mesh.n_nodes} data rows, found {arr.size}")
    return arr


def write_monitors_csv(record: MonitorRecord, path, metadata: dict | None = None) -> None:
    lines = _metadata_lines(metadata)
    fields = record.as_dict()
    lines.append(",".join(fields))
    lines.append(",".join(
        str(int(v)) if isinstance(v, bool) else _fmt(v) for v in fields.values()
    ))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_csv(table: list, path, metadata: dict | None = None) -> None:
    """Write kappa-sweep rows (list of dicts sharing the same keys)."""
    lines = _metadata_lines(metadata)
    if table:
        keys = list(table[0])
        lines.append(",".join(keys))
        for row in table:
            cells = []
            for key in keys:
                v = row[key]
                if v is None:
                    cells.append("")
                elif isinstance(v, bool):
                    cells.append(str(int(v)))
                elif isinstance(v, str):
                    cells.append(v.replace(",", ";"))
                else:
                    cells.append(_fmt(v))
            lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_states_csv(states: list, path, metadata: dict | None = None) -> None:
    """Dump the full state sequence, one row per time level, streamed to
    the file row by row.  states: nodal arrays or FieldTexts."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in _metadata_lines(metadata):
            fh.write(line + "\n")
        fh.write("step," + ",".join(f"node{i}" for i in range(len(states[0]))) + "\n")
        for n, u in enumerate(states):
            row = u.row if isinstance(u, FieldText) else ",".join(_fmt_array(u))
            fh.write(f"{n},{row}\n")


def read_states_csv(path) -> list:
    """Read the states written by write_states_csv, one nodal array per step."""
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith(("#", "step,")) or line.isspace():
            line = fh.readline()
        # checked here, since loadtxt only warns on a file without data rows
        if not line:
            raise ValueError(f"{path}: no state rows found")
        table = np.loadtxt(itertools.chain([line], fh), delimiter=",", ndmin=2)
    return list(table[:, 1:])


def write_run_metadata(metadata: dict, path) -> None:
    Path(path).write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_run_metadata(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
