"""Persistence: nodal snapshots (CSV and legacy VTK), monitor and sweep
tables, and full trajectory state dumps.

Decimal output uses Python's shortest round-trip float representation, so
writing and re-reading a field reproduces it bit for bit.  Every file can
carry the resolved run settings in '#' comment lines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .mesh import StructuredMesh
from .monitors import MonitorRecord

__all__ = [
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


def write_snapshot(field: np.ndarray, mesh: StructuredMesh, path, fmt: str,
                   name: str = "u", metadata: dict | None = None) -> None:
    """Write one nodal field.

    CSV: optional '#' metadata lines, header 'x,y,value', one row per node
    in row-major order, shortest round-trip decimals.  VTK: legacy ASCII
    structured points with DIMENSIONS nx ny 1, ORIGIN 0 0 0, SPACING
    Lx/(nx-1) Ly/(ny-1) 1, and a single SCALARS field.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_nodes,):
        raise ValueError(f"field must have {mesh.n_nodes} nodal values")
    path = Path(path)
    try:
        if fmt == "csv":
            lines = _metadata_lines(metadata)
            lines.append("x,y,value")
            columns = (_fmt_array(mesh.nodes[:, 0]), _fmt_array(mesh.nodes[:, 1]),
                       _fmt_array(field))
            lines.extend(map(",".join, zip(*columns)))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        elif fmt == "vtk":
            hx, hy = mesh.spacing
            title = "shallowice snapshot"
            if metadata:
                title = ("shallowice " + json.dumps(metadata, sort_keys=True))[:255]
            lines = [
                "# vtk DataFile Version 3.0",
                title,
                "ASCII",
                "DATASET STRUCTURED_POINTS",
                f"DIMENSIONS {mesh.nx} {mesh.ny} 1",
                "ORIGIN 0 0 0",
                f"SPACING {_fmt(hx)} {_fmt(hy)} 1",
                f"POINT_DATA {mesh.n_nodes}",
                f"SCALARS {name} double",
                "LOOKUP_TABLE default",
            ]
            lines.extend(_fmt_array(field))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"format must be 'csv' or 'vtk', got {fmt!r}")
    except OSError as err:
        raise OSError(f"cannot write snapshot {path}: {err}") from err


def read_field_csv(path, mesh: StructuredMesh) -> np.ndarray:
    """Read a nodal field written by write_snapshot(..., 'csv')."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("x,"):
                continue
            values.append(float(line.split(",")[2]))
    arr = np.array(values)
    if arr.shape != (mesh.n_nodes,):
        raise ValueError(
            f"{path}: expected {mesh.n_nodes} data rows, found {arr.size}"
        )
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
    """Dump the full state sequence, one row per time level."""
    lines = _metadata_lines(metadata)
    lines.append("step," + ",".join(f"node{i}" for i in range(len(states[0]))))
    for n, u in enumerate(states):
        lines.append(str(n) + "," + ",".join(_fmt_array(u)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_states_csv(path) -> list:
    states = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("step,"):
                continue
            cells = line.split(",")
            states.append(np.array([float(c) for c in cells[1:]]))
    if not states:
        raise ValueError(f"{path}: no state rows found")
    return states


def write_run_metadata(metadata: dict, path) -> None:
    Path(path).write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_run_metadata(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
