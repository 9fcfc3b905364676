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
    state_runs,
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


def test_csv_read_checks_the_node_coordinates(tmp_path):
    # a 5x7 field on [0, 1] x [0, 2] has the node count of a 7x5 mesh on
    # [0, 3] x [0, 1], but its rows name other nodes
    field = np.arange(35.0)
    path = tmp_path / "field.csv"
    write_snapshot(field, build_mesh(5, 7, 1.0, 2.0), path, "csv")
    with pytest.raises(ValueError, match="data row 2 lies at"):
        read_field_csv(path, build_mesh(7, 5, 3.0, 1.0))
    # coordinates to seven significant digits name the same nodes
    mesh = build_mesh(7, 5, 3.0, 1.0)
    rows = [f"{x:.7g},{y:.7g},{v!r}" for (x, y), v in zip(mesh.nodes, field.tolist())]
    path.write_text("x,y,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert np.array_equal(read_field_csv(path, mesh), field)
    rows[3] = "nan,0.0,3.0"
    path.write_text("x,y,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="data row 4 lies at"):
        read_field_csv(path, mesh)


def test_csv_read_takes_an_optional_header_and_extra_columns(tmp_path):
    mesh = build_mesh(6, 4, 2.0, 1.0)
    field = np.random.default_rng(3).standard_normal(mesh.n_nodes) * np.pi
    path = tmp_path / "field.csv"
    write_snapshot(field, mesh, path, "csv", metadata={"kappa": 1e-3})
    meta, header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert meta.startswith("# ") and header == "x,y,value"
    # no metadata line and no header
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert read_field_csv(path, mesh).tobytes() == field.tobytes()
    # a fourth column, and blank and indented comment lines between rows
    extra = [row + ",7.5" for row in rows]
    extra[3:3] = ["", "  # a note", "\t"]
    path.write_text("\n".join([meta, header, *extra]) + "\n", encoding="utf-8")
    assert read_field_csv(path, mesh).tobytes() == field.tobytes()
    # a row of two cells has no value
    rows[5] = rows[5].rsplit(",", 1)[0]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="column"):
        read_field_csv(path, mesh)
    # a file without data rows
    path.write_text(meta + "\n" + header + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"expected {mesh.n_nodes} data rows, found 0"):
        read_field_csv(path, mesh)


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

    # the awkward floats and a False flag, written with their exact bytes
    names = [name for name in record.as_dict() if name != "sc1_prime_ok"]
    record = MonitorRecord(**dict(zip(names, AWKWARD * 2)), sc1_prime_ok=False)
    write_monitors_csv(record, path, metadata={"config": {"b": 1, "a": "x,y"}})
    assert path.read_bytes() == (
        b'# {"config": {"a": "x,y", "b": 1}}\n'
        b"est1,est2,est3,est3_1,est4,est5_1,pen_sum,sc1_value,sc1_prime_ok,"
        b"sc2_prime_value,neg_norm\n"
        b"-0.0,0.3333333333333333,0.30000000000000004,5e-324,1e+300,"
        b"-0.0,0.3333333333333333,0.30000000000000004,0,5e-324,1e+300\n"
    )


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


def test_repeated_values_format_as_repr_of_each(tmp_path):
    # each distinct value is formatted once, told apart by its bits: 0.0 and
    # -0.0 compare equal, yet each value must be written as its own repr
    mesh = build_mesh(9, 9, 1.0, 1.0)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0 / 3.0, 0.1 + 0.2])
    field = np.random.default_rng(5).choice(pool, mesh.n_nodes)
    assert len(np.unique(field.view(np.int64))) == pool.size
    values = [repr(float(v)) for v in field]
    assert "0.0" in values and "-0.0" in values
    text = SnapshotText(mesh)
    for kind, u in (("numeric", field), ("text", text.field(field))):
        out = tmp_path / kind
        out.mkdir()
        write_snapshot(u, mesh, out / "u.csv", "csv")
        write_snapshot(u, mesh, out / "u.vtk", "vtk")
        write_states_csv([u, u], out / "states.csv")
        assert (out / "u.csv").read_bytes() == ("x,y,value\n" + "".join(
            f"{float(x)!r},{float(y)!r},{v}\n"
            for (x, y), v in zip(mesh.nodes, values))).encode()
        assert (out / "u.vtk").read_text().splitlines()[10:] == values
        row = ",".join(values)
        assert (out / "states.csv").read_text().splitlines()[1:] == [f"0,{row}", f"1,{row}"]


def test_snapshot_text_is_built_once_per_run_and_format(tmp_path, mesh3, monkeypatch):
    # the files of a run of equal states (state_runs), which share one
    # FieldText, written one format after the other, build each format's
    # text once; writing another format or name in between builds it
    # again, since a FieldText keeps only the last text it built
    import shallowice.snapshots as snapshots

    builds = []
    file_text = snapshots._file_text
    monkeypatch.setattr(snapshots, "_file_text",
                        lambda *args: builds.append(args[1:]) or file_text(*args))
    a, b = np.zeros(9), np.arange(9.0)
    text = SnapshotText(mesh3)
    runs = [(text.field(u), count) for u, count in state_runs([a, a, b, b, b, a])]
    assert [count for _, count in runs] == [2, 3, 1]
    start = 0
    for field, count in runs:
        for fmt in ("csv", "vtk"):
            for n in range(start, start + count):
                write_snapshot(field, mesh3, tmp_path / f"u_{n}.{fmt}", fmt)
        start += count
    assert builds == [(fmt, "u") for _ in runs for fmt in ("csv", "vtk")]
    for fmt in ("csv", "vtk"):
        files = [(tmp_path / f"u_{n}.{fmt}").read_bytes() for n in range(6)]
        assert files[0] == files[1] == files[5] != files[2] == files[3] == files[4]
    builds.clear()
    first = runs[0][0]
    write_snapshot(first, mesh3, tmp_path / "again.csv", "csv")
    write_snapshot(first, mesh3, tmp_path / "again.vtk", "vtk", name="H")
    write_snapshot(first, mesh3, tmp_path / "again.csv", "csv")
    assert builds == [("csv", "u"), ("vtk", "H"), ("csv", "u")]


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


def test_repeated_field_is_formatted_once(tmp_path, mesh3, monkeypatch):
    # a state equal to its predecessor byte for byte shares its FieldText;
    # one that differs only by a signed zero does not, so both round-trip
    import shallowice.snapshots as snapshots

    calls = []
    fmt_array = snapshots._fmt_array
    monkeypatch.setattr(snapshots, "_fmt_array", lambda a: calls.append(a) or fmt_array(a))
    field = np.resize(np.array(AWKWARD), mesh3.n_nodes)
    positive = np.where(field == 0.0, 0.0, field)
    assert positive.tobytes() != field.tobytes() and np.array_equal(positive, field)
    states = [field, field.copy(), positive, positive, field]
    text = SnapshotText(mesh3)
    runs = [(text.field(u), count) for u, count in state_runs(states)]
    assert [count for _, count in runs] == [2, 2, 1]
    write_states_csv((f for f, count in runs for _ in range(count)), tmp_path / "states.csv")
    assert len(calls) == 3
    back = read_states_csv(tmp_path / "states.csv")
    assert [u.tobytes() for u in back] == [u.tobytes() for u in states]
    assert back[0].tobytes() != back[2].tobytes()


def test_states_written_from_an_iterator(tmp_path, mesh3):
    # write_states_csv reads its states one at a time: a generator of
    # arrays or of FieldTexts writes the bytes of a list of them
    rng = np.random.default_rng(4)
    states = [rng.standard_normal(9) for _ in range(3)]
    states.insert(2, states[1])
    metadata = {"N": 3}
    text = SnapshotText(mesh3, metadata)
    for kind, values in (("numeric", states), ("text", [text.field(u) for u in states])):
        listed, streamed = tmp_path / f"{kind}_list.csv", tmp_path / f"{kind}_gen.csv"
        write_states_csv(values, listed, metadata=metadata)
        write_states_csv((u for u in values), streamed, metadata=metadata)
        assert streamed.read_bytes() == listed.read_bytes()
        assert [u.tobytes() for u in read_states_csv(streamed)] == [
            u.tobytes() for u in states]


def test_states_need_a_state(tmp_path):
    # no states: a ValueError that names the file, and no file
    import re

    path = tmp_path / "states.csv"
    for states in ([], (u for u in [])):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_states_csv(states, path)
        assert not path.exists()


def test_states_read_repeated_rows(tmp_path):
    # repeated rows are parsed once into equal but independent arrays; a
    # blank or comment line within a run of them is skipped as loadtxt
    # skips it
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    path = tmp_path / "states.csv"
    write_states_csv([a, a, b, b, b, a], path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(2, "\n")
    lines.insert(5, "# a note\n")
    path.write_text("".join(lines), encoding="utf-8")
    back = read_states_csv(path)
    assert [u.tobytes() for u in back] == [u.tobytes() for u in (a, a, b, b, b, a)]
    back[0][:] = 7.0
    back[3][:] = 7.0
    assert back[1].tobytes() == a.tobytes()
    assert back[2].tobytes() == back[4].tobytes() == b.tobytes()

    # a repeated row still needs a numeric step cell
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for step in ("x", ""):
        broken = lines[:-1] + [step + lines[-2][lines[-2].index(","):]]
        path.write_text("".join(broken), encoding="utf-8")
        with pytest.raises(ValueError):
            read_states_csv(path)
