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
each line.  The writers also take plain numeric arrays, with the same bytes.

Repetition costs only what is new, by three rules:

* A repeated value is formatted once: `_fmt_array` formats each distinct
  value of an array once, told apart by its bits (so -0.0 is not 0.0), and
  spreads the texts back through the inverse index.
* A repeated state is formatted once.  A settled implicit step repeats its
  predecessor's state, and `state_runs` is the one rule for such a repeat:
  it splits a sequence into runs of consecutive items with equal keys, a
  state's bytes or a `states.csv` row's text after its step cell.
  The CLI makes one FieldText per run, `read_states_csv` parses the first
  row of each run, and the monitors compute each term once per run.
* A repeated file is built once.  A run's outputs are written in one pass
  over its runs of equal states: each run's `states.csv` rows, then its
  snapshots, format by format.  `SnapshotText.file_text` keeps the last
  snapshot text it built, so it builds one text per run and format, and
  one state's text is held at a time.
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import cached_property
from pathlib import Path

import numpy as np

from .mesh import StructuredMesh

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
    "state_runs",
]

# read_field_csv tolerance on x, y relative to Lx, Ly: seven significant
# digits pass, a node of another grid is a cell width away
NODE_RTOL = 1e-6


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_array(a) -> list[str]:
    """_fmt of every element, each distinct value formatted once.

    Values are told apart by their bits, so -0.0 is not 0.0; the texts of
    the distinct values are spread back through the inverse index.
    """
    bits, inverse = np.unique(np.ascontiguousarray(a, dtype=float).view(np.int64),
                              return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return texts[inverse].tolist()


def state_runs(items, key=np.ndarray.tobytes):
    """(first item, run length) of each run of consecutive items with equal
    keys; by default the items are states keyed by their bytes.

    A generator that reads the items only as far as the end of the run it
    yields, and one item past it, so a file streams through it.
    """
    for _, run in itertools.groupby(items, key):
        yield next(run), 1 + sum(1 for _ in run)


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
        # (row, fmt, name, text) of the last snapshot text built
        self._last = None

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

    def file_text(self, field: FieldText, fmt: str, name: str) -> str:
        """_file_text of one of this text's fields, of which the last one
        built is kept: when the files of a run of equal states, which share
        one FieldText, are written format by format, each format's text is
        built once, and one text is held at a time."""
        # keyed on the field's row, which makes the text with this
        # SnapshotText: holding the field would make a reference cycle,
        # which keeps both alive after the run until a garbage collection
        last = self._last
        if last is None or last[0] is not field.row or last[1:3] != (fmt, name):
            last = self._last = (field.row, fmt, name, _file_text(field, fmt, name))
        return last[3]


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


def _file_text(field: FieldText, fmt: str, name: str) -> str:
    """The whole text of a snapshot file of field, named name in a VTK file."""
    text = field.text
    if fmt == "csv":
        body = "\n".join(map(operator.add, text.csv_prefixes, field.row.split(",")))
        return text.csv_head + body + "\n"
    if fmt == "vtk":
        head = f"{text.vtk_head}SCALARS {name} double\nLOOKUP_TABLE default\n"
        return head + field.row.replace(",", "\n") + "\n"
    raise ValueError(f"format must be 'csv' or 'vtk', got {fmt!r}")


def write_snapshot(field, mesh: StructuredMesh, path, fmt: str,
                   name: str = "u", metadata: dict | None = None) -> None:
    """Write one nodal field.

    CSV: optional '#' metadata lines, header 'x,y,value', one row per node
    in row-major order, shortest round-trip decimals.  VTK: legacy ASCII
    structured points with DIMENSIONS nx ny 1, ORIGIN 0 0 0, SPACING
    Lx/(nx-1) Ly/(ny-1) 1, and a single SCALARS field.

    field: nodal values, or a FieldText of a SnapshotText built from this
    mesh and metadata (the same objects), whose text is then reused.
    path: a str or path-like object, opened as given.
    """
    if isinstance(field, FieldText):
        if field.text.mesh is not mesh or field.text.metadata is not metadata:
            raise ValueError("a FieldText must be written with the mesh and "
                             "metadata of its SnapshotText")
    else:
        field = SnapshotText(mesh, metadata).field(field)
    content = field.text.file_text(field, fmt, name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as err:
        raise OSError(f"cannot write snapshot {path}: {err}") from err


def read_field_csv(path, mesh: StructuredMesh) -> np.ndarray:
    """Read a nodal field written by write_snapshot(..., 'csv').

    Data lines (_data_lines) after an optional 'x,y,value' header hold x, y
    and the value; further columns are ignored.  Row i must hold node i of
    this mesh: its x and y columns may differ from the node coordinates by
    at most NODE_RTOL times Lx and Ly, so a field of another grid with the
    same node count is rejected.
    """
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in _data_lines(fh) if not line.lstrip().startswith("x,")]
    # counted here, since loadtxt only warns on a file without data rows
    if len(rows) != mesh.n_nodes:
        raise ValueError(f"expected {mesh.n_nodes} data rows, found {len(rows)}")
    table = np.loadtxt(rows, delimiter=",", usecols=(0, 1, 2), ndmin=2)
    within = np.abs(table[:, :2] - mesh.nodes) <= NODE_RTOL * np.array([mesh.Lx, mesh.Ly])
    if not within.all():
        i = int(np.argmin(within.all(axis=1)))
        raise ValueError(f"data row {i + 1} lies at {tuple(table[i, :2].tolist())}, not at "
                         f"node {tuple(mesh.nodes[i].tolist())} of this {mesh.nx}x{mesh.ny} grid")
    return table[:, 2].copy()


def write_monitors_csv(record, path, metadata: dict | None = None) -> None:
    """Write a monitors.MonitorRecord as a table of one row."""
    write_sweep_csv([record.as_dict()], path, metadata)


def write_sweep_csv(table: list, path, metadata: dict | None = None) -> None:
    """Write a table, rows of dicts sharing the same keys, under a header
    of the keys; the one CSV table writer (sweep.csv, mms.csv, monitors).
    An int cell is written as an integer, a bool as 0 or 1."""
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
                elif isinstance(v, int):
                    cells.append(str(v))
                elif isinstance(v, str):
                    cells.append(v.replace(",", ";"))
                else:
                    cells.append(_fmt(v))
            lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_states_csv(states, path, metadata: dict | None = None) -> None:
    """Dump the full state sequence, one row per time level, streamed to
    the file row by row.  states: an iterable of nodal arrays or FieldTexts,
    read one at a time; the first is read before the file is opened, so an
    empty one raises ValueError and writes no file."""
    states = iter(states)
    u = next(states, None)
    if u is None:
        raise ValueError(f"{path}: no states to write")
    with open(path, "w", encoding="utf-8") as fh:
        for line in _metadata_lines(metadata):
            fh.write(line + "\n")
        fh.write("step," + ",".join(f"node{i}" for i in range(len(u))) + "\n")
        fh.write(f"0,{_state_row(u)}\n")
        # u is rebound to each state as it is read, which drops the one before
        for n, u in enumerate(states, 1):
            fh.write(f"{n},{_state_row(u)}\n")


def _state_row(u) -> str:
    return u.row if isinstance(u, FieldText) else ",".join(_fmt_array(u))


def _data_lines(fh):
    """The lines of a text file that hold data: a line that is blank or
    whose first non-blank character is '#' is skipped wherever it stands."""
    # lstrip copies nothing of a line that has no leading blank
    return (line for line in fh if line.lstrip()[:1] not in ("", "#"))


def _row_values(line: str) -> str:
    """The text of a states.csv row after its step cell, which must be a
    number: loadtxt sees only the first row of each run."""
    step, _, values = line.partition(",")
    float(step)
    return values


def read_states_csv(path) -> list:
    """Read the states written by write_states_csv, one nodal array per step.

    Only data lines are read (_data_lines).  Each run of rows whose text
    after the step column repeats (state_runs) is parsed once; every step
    cell must still be a number.  Each returned array is independent of
    the others: the first of a run is a row of the parsed table, and each
    repeat a copy of that row.
    """
    with open(path, encoding="utf-8") as fh:
        rows = _data_lines(fh)
        first = next((line for line in rows if not line.startswith("step,")), None)
        # checked here, since loadtxt only warns on a file without data rows
        if first is None:
            raise ValueError(f"{path}: no state rows found")
        runs = state_runs(itertools.chain([first], rows), _row_values)
        counts = []

        def firsts():
            for line, count in runs:
                counts.append(count)
                yield line

        table = np.loadtxt(firsts(), delimiter=",", ndmin=2)
    # the first state of a run is its row of the table, a repeat a copy of it
    return [row if k == 0 else row.copy()
            for row, count in zip(table[:, 1:], counts) for k in range(count)]


def write_run_metadata(metadata: dict, path) -> None:
    Path(path).write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_run_metadata(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
