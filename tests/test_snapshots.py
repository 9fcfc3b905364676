import hashlib
import json
import warnings

import numpy as np
import pytest

from shallowice import build_mesh, write_snapshot
from shallowice.monitors import MonitorRecord
from shallowice.snapshots import (
    SnapshotText,
    read_field_csv,
    read_states_csv,
    write_monitors_csv,
    write_states_csv,
)


def test_csv_zero_field(tmp_path, mesh3):
    path = tmp_path / "u.csv"
    write_snapshot(np.zeros(9), mesh3, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 10
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_csv_round_trip_bit_exact(tmp_path):
    mesh = build_mesh(6, 4, 2.0, 1.0)
    rng = np.random.default_rng(7)
    field = rng.standard_normal(mesh.n_nodes) * np.pi
    path = tmp_path / "field.csv"
    write_snapshot(field, mesh, path, "csv", metadata={"kappa": 1e-3})
    back = read_field_csv(path, mesh)
    assert np.array_equal(back, field)


def test_vtk_header_layout(tmp_path, mesh3):
    path = tmp_path / "u.vtk"
    write_snapshot(np.zeros(9), mesh3, path, "vtk", name="u")
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 3 3 1"
    assert lines[5] == "ORIGIN 0 0 0"
    assert lines[6] == "SPACING 0.5 0.5 1"
    assert lines[7] == "POINT_DATA 9"
    assert lines[8] == "SCALARS u double"
    assert lines[9] == "LOOKUP_TABLE default"
    assert len(lines) == 10 + 9


def test_vtk_thickness_name(tmp_path, mesh3):
    path = tmp_path / "H.vtk"
    write_snapshot(np.ones(9), mesh3, path, "vtk", name="H")
    assert "SCALARS H double" in path.read_text()


def test_snapshot_rejects_bad_format(tmp_path, mesh3):
    with pytest.raises(ValueError):
        write_snapshot(np.zeros(9), mesh3, tmp_path / "x.bin", "hdf5")
    with pytest.raises(ValueError):
        write_snapshot(np.zeros(4), mesh3, tmp_path / "x.csv", "csv")


def test_snapshot_io_error_mentions_path(mesh3):
    with pytest.raises(OSError, match="no/such/dir"):
        write_snapshot(np.zeros(9), mesh3, "no/such/dir/u.csv", "csv")


def test_metadata_header_lines(tmp_path, mesh3):
    path = tmp_path / "u.csv"
    write_snapshot(np.zeros(9), mesh3, path, "csv",
                   metadata={"kappa": 1e-3, "p": 3.0})
    first = path.read_text().splitlines()[0]
    assert first.startswith("# ")
    assert '"kappa": 0.001' in first


def test_states_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    states = [rng.standard_normal(12) for _ in range(4)]
    # values across the whole double range, negative zero and the smallest
    # subnormal must come back bit for bit
    awkward = rng.choice([-1.0, 1.0], 996) * 10.0 ** rng.uniform(-300, 300, 996)
    awkward[:3] = [-0.0, 5e-324, -5e-324]
    states += list(awkward.reshape(83, 12))
    path = tmp_path / "states.csv"
    write_states_csv(states, path, metadata={"N": 3})
    back = read_states_csv(path)
    assert len(back) == len(states)
    for a, b in zip(states, back):
        assert a.tobytes() == b.tobytes()

    # a file without state rows is an error, not a numpy warning
    path.write_text('# {"N": 0}\nstep,node0\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no state rows"):
            read_states_csv(path)


def test_monitors_csv_zero_record(tmp_path):
    record = MonitorRecord(est1=0.0, est2=0.0, est3=0.0, est3_1=0.0, est4=0.0,
                           est5_1=0.0, pen_sum=0.0, sc1_value=0.0,
                           sc1_prime_ok=True, sc2_prime_value=0.0, neg_norm=0.0)
    path = tmp_path / "monitors.csv"
    write_monitors_csv(record, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("est1,")
    cells = lines[1].split(",")
    assert cells[list(record.as_dict()).index("sc1_prime_ok")] == "1"
    assert all(c in ("0.0", "1") for c in cells)


# signed zero, repeating and inexact decimals, the smallest subnormal, a huge value
AWKWARD = (-0.0, 1.0 / 3.0, 0.1 + 0.2, 5e-324, 1e300)


def test_value_format_is_repr_of_float(tmp_path, mesh3):
    field = np.resize(np.array(AWKWARD), mesh3.n_nodes)
    field[::2] *= -1.0
    write_snapshot(field, mesh3, tmp_path / "u.csv", "csv")
    write_snapshot(field, mesh3, tmp_path / "u.vtk", "vtk")
    write_states_csv([field, field[::-1]], tmp_path / "states.csv")

    csv_rows = (tmp_path / "u.csv").read_text().splitlines()[1:]
    assert csv_rows == [f"{repr(float(x))},{repr(float(y))},{repr(float(v))}"
                        for (x, y), v in zip(mesh3.nodes, field)]
    vtk_values = (tmp_path / "u.vtk").read_text().splitlines()[10:]
    assert vtk_values == [repr(float(v)) for v in field]
    state_rows = (tmp_path / "states.csv").read_text().splitlines()[1:]
    assert state_rows == [f"{n}," + ",".join(repr(float(v)) for v in u)
                          for n, u in enumerate([field, field[::-1]])]
    assert "-0.0" in vtk_values and "5e-324" in vtk_values


def test_formatted_field_writes_numeric_bytes(tmp_path, mesh3):
    # FieldTexts written to every kind of file give the numeric path's bytes
    field = np.resize(np.array(AWKWARD), mesh3.n_nodes)
    field[1::2] *= -1.0
    fields = [field, field[::-1].copy()]
    for metadata in (None, {"version": "0.0", "config": {"kappa": 1e-3, "p": 3.0}}):
        text = SnapshotText(mesh3, metadata)
        for kind, values in (("numeric", fields), ("text", [text.field(u) for u in fields])):
            out = tmp_path / kind
            out.mkdir(exist_ok=True)
            for fmt in ("csv", "vtk"):
                write_snapshot(values[0], mesh3, out / f"H.{fmt}", fmt,
                               name="H", metadata=metadata)
            write_states_csv(values, out / "states.csv", metadata=metadata)
        for name in ("H.csv", "H.vtk", "states.csv"):
            expected = (tmp_path / "numeric" / name).read_bytes()
            assert (tmp_path / "text" / name).read_bytes() == expected
            named = b"config sha256:" if name == "H.vtk" else b'"kappa": 0.001'
            assert (named in expected) == (metadata is not None)
    assert "5e-324" in (tmp_path / "text" / "H.vtk").read_text()


def test_vtk_title_needs_the_run_version_and_config(tmp_path, mesh3):
    config = {"domain": {"nx": 3}, "notes": "x" * 400}
    path = tmp_path / "u.vtk"
    write_snapshot(np.zeros(9), mesh3, path, "vtk",
                   metadata={"version": "1.2.3", "config": config, "kappas": [1.0]})
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    assert path.read_text().splitlines()[1] == f"shallowice 1.2.3 config sha256:{digest}"
    with pytest.raises(ValueError, match="version"):
        write_snapshot(np.zeros(9), mesh3, path, "vtk", metadata={"kappa": 1e-3})


def test_formatted_field_needs_its_mesh_and_metadata(tmp_path, mesh3):
    meta = {"kappa": 1e-3}
    formatted = SnapshotText(mesh3, meta).field(np.zeros(9))
    with pytest.raises(ValueError):
        write_snapshot(formatted, build_mesh(3, 3, 1.0, 1.0), tmp_path / "u.csv", "csv",
                       metadata=meta)
    with pytest.raises(ValueError):
        write_snapshot(formatted, mesh3, tmp_path / "u.csv", "csv", metadata=dict(meta))
    with pytest.raises(ValueError):
        SnapshotText(mesh3).field(np.zeros(4))
