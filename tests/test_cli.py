"""Command-line front end: view lifecycle, query, verification, bench."""
import json

import pytest

from secjoin import cli, store

T0 = "k,g0,v0\n10,0,1\n20,1,2\n30,0,3\n40,1,4\n"
T1 = "k,g1,v1\n30,5,7\n10,6,8\n60,5,9\n"


@pytest.fixture
def workspace(tmp_path):
    t0 = tmp_path / "t0.csv"
    t1 = tmp_path / "t1.csv"
    t0.write_text(T0)
    t1.write_text(T1)
    spec = {
        "table0": str(t0), "table1": str(t1), "key0": "k", "key1": "k",
        "join": "pkpk", "group0": "g0", "group1": "g1",
        "aggs": [{"side": 0, "col": "v0", "fn": "sum"},
                 {"side": 1, "col": "v1", "fn": "max"}],
        "level": 2, "protocol": "auto", "seeds": [11, 22, 33],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return tmp_path, spec_path, spec


def test_genview_ne_per_level(workspace, capsys):
    tmp, spec_path, _ = workspace
    for level, ne in ((2, 4), (0, 2), (1, 5)):
        out = tmp / f"views{level}"
        rc = cli.main(["genview", str(spec_path), "--level", str(level),
                       "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert f"n_e={ne}" in printed


def test_query_verify_ok_and_all_protocols_agree(workspace, capsys):
    tmp, spec_path, _ = workspace
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    csvs = set()
    for proto in ("sorting", "osorting", "bsorting", "mix", "bitmap"):
        res = tmp / f"res_{proto}.csv"
        rc = cli.main(["query", str(spec_path), "--views", str(out),
                       "--protocol", proto, "--verify", "--out", str(res)])
        assert rc == 0
        csvs.add(res.read_text())
    capsys.readouterr()
    assert len(csvs) == 1


def test_query_empty_intersection_header_only(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("k,g0,v0\n1,0,1\n")
    (tmp_path / "b.csv").write_text("k,g1,v1\n2,0,1\n")
    spec = {"table0": str(tmp_path / "a.csv"), "table1": str(tmp_path / "b.csv"),
            "key0": "k", "key1": "k", "join": "pkpk",
            "group0": "g0", "group1": "g1",
            "aggs": [{"side": 0, "col": "v0", "fn": "sum"}], "level": 0}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    res = tmp_path / "r.csv"
    assert cli.main(["query", str(sp), "--views", str(views),
                     "--out", str(res)]) == 0
    capsys.readouterr()
    assert res.read_text() == "g0,g1,sum_v0\n"


def test_refresh_pkpk_zero_wire_and_updated_result(workspace, capsys):
    tmp, spec_path, spec = workspace
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    up = tmp / "up.csv"
    up.write_text("idx,v0\n1,999\n")
    rc = cli.main(["refresh", str(spec_path), "--views", str(out),
                   "--updates0", str(up)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wire_bits=0" in printed and "hybrid_bits=0" in printed
    res = tmp / "r.csv"
    assert cli.main(["query", str(spec_path), "--views", str(out),
                     "--verify", "--out", str(res)]) == 0
    assert "999" in res.read_text()


def test_refresh_empty_updates_byte_identical_views(workspace, capsys):
    tmp, spec_path, _ = workspace
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    before = [(out / f).read_bytes() for f in ("view_p0.bin", "view_p1.bin")]
    assert cli.main(["refresh", str(spec_path), "--views", str(out)]) == 0
    capsys.readouterr()
    after = [(out / f).read_bytes() for f in ("view_p0.bin", "view_p1.bin")]
    assert before == after


def test_refresh_pkfk_skips_mapping_phase(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("k,g0,v0\n1,0,10\n2,1,20\n5,0,50\n")
    (tmp_path / "f.csv").write_text("k,g1,v1\n2,3,1\n1,3,2\n2,4,3\n7,4,4\n")
    spec = {"table0": str(tmp_path / "p.csv"), "table1": str(tmp_path / "f.csv"),
            "key0": "k", "key1": "k", "join": "pkfk",
            "group0": "g0", "group1": "g1",
            "aggs": [{"side": 0, "col": "v0", "fn": "sum"}], "level": 0}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    capsys.readouterr()
    up = tmp_path / "up.csv"
    up.write_text("idx,v0\n2,777\n")
    rc = cli.main(["refresh", str(sp), "--views", str(views),
                   "--updates0", str(up)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "mapping" not in printed
    assert "switch" in printed and "duplicate" in printed
    res = tmp_path / "r.csv"
    assert cli.main(["query", str(sp), "--views", str(views), "--verify",
                     "--protocol", "osorting", "--out", str(res)]) == 0


def test_stale_view_detected(workspace, capsys):
    tmp, spec_path, spec = workspace
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    # change a join key under the view
    (tmp / "t0.csv").write_text(T0.replace("40,1,4", "41,1,4"))
    rc = cli.main(["query", str(spec_path), "--views", str(out)])
    capsys.readouterr()
    assert rc == 2


def test_stale_pkfk_view_detected(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("k,g0,v0\n1,0,10\n2,1,20\n")
    (tmp_path / "f.csv").write_text("k,g1,v1\n2,3,1\n1,3,2\n2,4,3\n")
    spec = {"table0": str(tmp_path / "p.csv"), "table1": str(tmp_path / "f.csv"),
            "key0": "k", "key1": "k", "join": "pkfk",
            "group0": "g0", "group1": "g1",
            "aggs": [{"side": 0, "col": "v0", "fn": "sum"}], "level": 0}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    assert cli.main(["query", str(sp), "--views", str(views)]) == 0
    # change a foreign key under the view
    (tmp_path / "f.csv").write_text("k,g1,v1\n2,3,1\n1,3,2\n1,4,3\n")
    rc = cli.main(["query", str(sp), "--views", str(views)])
    err = capsys.readouterr().err
    assert rc == 2 and "no longer matches" in err


def _pkfk_workspace(tmp_path):
    """PK keys 1..4 and FK keys 3, 1, 1, 9, a PK-FK view of them, and the
    spec of an osorting sum query."""
    (tmp_path / "p.csv").write_text("k,g0,v0\n1,0,10\n2,1,20\n3,0,30\n4,1,40\n")
    (tmp_path / "f.csv").write_text("k,g1,v1\n3,5,7\n1,5,8\n1,6,9\n9,5,9\n")
    spec = {"table0": str(tmp_path / "p.csv"), "table1": str(tmp_path / "f.csv"),
            "key0": "k", "key1": "k", "join": "pkfk",
            "group0": "g0", "group1": "g1", "protocol": "osorting",
            "aggs": [{"side": 0, "col": "v0", "fn": "sum"}], "level": 2}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    return sp, views


def _files(tmp_path):
    return {p.name: p.read_bytes() for p in sorted(tmp_path.rglob("*.*"))}


def test_refresh_refuses_a_stale_pkfk_view(tmp_path, capsys):
    # a refresh once wrote the current tables' key hash into the view, so
    # PK 3 -> 5 passed the query's check and gave (0, 5, 40), not (0, 5, 10)
    sp, views = _pkfk_workspace(tmp_path)
    p = tmp_path / "p.csv"
    p.write_text(p.read_text().replace("3,0,30", "5,0,30"))
    before = _files(tmp_path)
    up = tmp_path / "up.csv"
    up.write_text("idx,v0\n1,11\n")
    rc = cli.main(["refresh", str(sp), "--views", str(views),
                   "--updates0", str(up)])
    err = capsys.readouterr().err
    assert rc == 2 and "no longer matches" in err
    assert {k: v for k, v in _files(tmp_path).items() if k != "up.csv"} == before
    assert cli.main(["query", str(sp), "--views", str(views), "--verify"]) == 2


@pytest.mark.parametrize("cmd", ("refresh", "query"))
@pytest.mark.parametrize("entry", (0, 99))
def test_view_mapping_outside_its_table_is_a_typed_error(tmp_path, capsys,
                                                         cmd, entry):
    # an index map entry past the table once raised a bare IndexError in
    # refresh, and entry 0 read the table's last row
    sp, views = _pkfk_workspace(tmp_path)
    path = str(views / "view_p0.bin")
    view = store.load_view(path)
    view.pi[1] = entry
    store.save_view(view, path)
    before = _files(tmp_path)
    rc = cli.main([cmd, str(sp), "--views", str(views)])
    err = capsys.readouterr().err
    assert rc == 2 and "outside its table" in err
    assert _files(tmp_path) == before


def test_verify_fails_on_injected_fault(workspace, capsys, flip_in_reveal):
    tmp, spec_path, _ = workspace
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    flipped = flip_in_reveal()
    rc = cli.main(["query", str(spec_path), "--views", str(out),
                   "--protocol", "osorting", "--verify"])
    capsys.readouterr()
    assert flipped and rc == 1


def test_reproducible_outputs(workspace, capsys):
    tmp, spec_path, _ = workspace
    blobs = []
    for run in range(2):
        out = tmp / f"rep{run}"
        assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
        res = tmp / f"rep{run}.csv"
        assert cli.main(["query", str(spec_path), "--views", str(out),
                         "--out", str(res)]) == 0
        blobs.append(((out / "view_p0.bin").read_bytes(),
                      (out / "view_p1.bin").read_bytes(),
                      res.read_text()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_parse_errors_exit_2(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("k,v\n1,notanumber\n")
    spec = {"table0": str(tmp_path / "bad.csv"), "table1": str(tmp_path / "bad.csv"),
            "key0": "k", "key1": "k", "join": "pkpk",
            "aggs": [{"side": 0, "col": "v", "fn": "sum"}]}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    rc = cli.main(["genview", str(sp), "--out", str(tmp_path / "v")])
    capsys.readouterr()
    assert rc == 2


def test_demo_and_bench(tmp_path, capsys):
    assert cli.main(["demo", "--out", str(tmp_path / "demo")]) == 0
    assert cli.main(["bench", "--out", str(tmp_path / "bench.csv")]) == 0
    printed = capsys.readouterr().out
    assert "osn bits" in printed
    assert (tmp_path / "bench.csv").exists()


def test_bench_custom_grid_reports_bad_cells_not_fatal(tmp_path, capsys):
    grid = {"cells": [
        {"protocol": "osn", "n": 64},
        {"protocol": "bitmap", "n": 16, "d0": 64, "d1": 64, "agg": "sum"},
    ]}
    gp = tmp_path / "grid.json"
    gp.write_text(json.dumps(grid))
    rc = cli.main(["bench", "--grid", str(gp),
                   "--out", str(tmp_path / "b.csv")])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "DomainTooLarge" in printed          # surfaced per cell
    assert "| osn | 64 |" in printed            # good cell still reported
    header = (tmp_path / "b.csv").read_text().splitlines()[0]
    assert header.endswith("phase_bits_rounds")


def test_query_on_cut_view_file_exits_2(workspace, capsys):
    tmp, spec_path, _ = workspace
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    view = out / "view_p0.bin"
    view.write_bytes(view.read_bytes()[:-8])
    rc = cli.main(["query", str(spec_path), "--views", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bitmap_on_pkfk_without_bitmap_columns_exits_2(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("k,g0,v0\n1,0,10\n2,1,20\n")
    (tmp_path / "f.csv").write_text("k,g1,v1\n2,3,1\n1,3,2\n2,4,3\n")
    spec = {"table0": str(tmp_path / "p.csv"), "table1": str(tmp_path / "f.csv"),
            "key0": "k", "key1": "k", "join": "pkfk", "group0": "g0",
            "group1": "g1", "dom0": [0, 1], "level": 0,
            "aggs": [{"side": 1, "col": "v1", "fn": "sum"}]}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    capsys.readouterr()
    rc = cli.main(["query", str(sp), "--views", str(views),
                   "--protocol", "bitmap"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "__bm:g0:0" in err and "views.append_bitmap_columns" in err


def test_auto_on_pkfk_without_bitmap_columns_verifies(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("k,g0,v0\n1,0,10\n2,1,20\n3,0,30\n")
    (tmp_path / "f.csv").write_text("k,g1,v1\n1,0,1\n1,1,2\n3,1,3\n2,0,4\n")
    spec = {"table0": str(tmp_path / "p.csv"), "table1": str(tmp_path / "f.csv"),
            "key0": "k", "key1": "k", "join": "pkfk", "group0": "g0",
            "group1": "g1", "dom0": [0, 1], "dom1": [0, 1], "level": 2,
            "aggs": [{"side": 0, "col": "v0", "fn": "sum"}]}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    assert cli.main(["query", str(sp), "--views", str(views),
                     "--protocol", "auto", "--verify"]) == 0

def test_join_key_out_of_range_exits_2(workspace, capsys):
    tmp, spec_path, _ = workspace
    (tmp / "t1.csv").write_text(T1.replace("60,5,9", f"{1 << 62},5,9"))
    rc = cli.main(["genview", str(spec_path), "--out", str(tmp / "views")])
    assert rc == 2
    assert "2^62" in capsys.readouterr().err


def test_bitmap_query_with_xor_aggregates(workspace, capsys):
    tmp, spec_path, spec = workspace
    spec.update(group1=None, aggs=[{"side": 0, "col": "v0", "fn": "xor"},
                                   {"side": 1, "col": "v1", "fn": "xor"}])
    spec_path.write_text(json.dumps(spec))
    views = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(views)]) == 0
    res = tmp / "res.csv"
    assert cli.main(["query", str(spec_path), "--views", str(views),
                     "--protocol", "bitmap", "--verify", "--out", str(res)]) == 0
    capsys.readouterr()
    # keys 10 and 30 join, both in g0 = 0: 1 ^ 3 and 8 ^ 7
    assert res.read_text() == "g0,g1,xor_v0,xor_v1\n0,,2,15\n"


def test_group_value_outside_dom0_exits_2(workspace, capsys):
    # both joined rows of T0 have g0 = 0, which a dom0 of [1] leaves out
    tmp, spec_path, spec = workspace
    spec = dict(spec, dom0=[1], dom1=[5, 6])
    spec_path.write_text(json.dumps(spec))
    out = tmp / "views"
    assert cli.main(["genview", str(spec_path), "--out", str(out)]) == 0
    for proto in ("sorting", "osorting", "bsorting", "mix", "bitmap", "auto"):
        capsys.readouterr()
        rc = cli.main(["query", str(spec_path), "--views", str(out),
                       "--protocol", proto])
        assert rc == 2, proto
        assert "outside dom0" in capsys.readouterr().err


def _join_workspace(tmp_path, join):
    """PK keys 1..4 and distinct FK keys 3, 1, 9, a view of kind `join`
    built from them, and that spec."""
    tmp_path.mkdir()
    (tmp_path / "p.csv").write_text("k,g0,v0\n1,0,10\n2,1,20\n3,0,30\n4,1,40\n")
    (tmp_path / "f.csv").write_text("k,g1,v1\n3,5,7\n1,6,8\n9,5,9\n")
    spec = {"table0": str(tmp_path / "p.csv"), "table1": str(tmp_path / "f.csv"),
            "key0": "k", "key1": "k", "join": join, "protocol": "osorting",
            "group0": "g0", "group1": "g1", "level": 2,
            "aggs": [{"side": 0, "col": "v0", "fn": "sum"},
                     {"side": 1, "col": "v1", "fn": "max"}]}
    sp = tmp_path / "s.json"
    sp.write_text(json.dumps(spec))
    views = tmp_path / "v"
    assert cli.main(["genview", str(sp), "--out", str(views)]) == 0
    (tmp_path / "up0.csv").write_text("idx,v0\n2,777\n")
    (tmp_path / "up1.csv").write_text("idx,v1\n1,55\n")
    return sp, views, spec


@pytest.mark.parametrize("join", ("pkfk", "pkpk"))
def test_refresh_follows_the_stored_view_kind(tmp_path, capsys, join):
    # a spec whose join disagreed with the stored view once reached the
    # other kind's refresh and died with a bare AttributeError
    runs = {}
    for name, spec_join in (("match", join),
                            ("flip", {"pkfk": "pkpk", "pkpk": "pkfk"}[join])):
        sp, views, spec = _join_workspace(tmp_path / name, join)
        sp.write_text(json.dumps(dict(spec, join=spec_join)))
        assert cli.main(["refresh", str(sp), "--views", str(views),
                         "--updates0", str(tmp_path / name / "up0.csv"),
                         "--updates1", str(tmp_path / name / "up1.csv")]) == 0
        assert cli.main(["query", str(sp), "--views", str(views),
                         "--verify"]) == 0
        runs[name] = {k: v for k, v in _files(tmp_path / name).items()
                      if k != "s.json"}
    capsys.readouterr()
    assert runs["match"] == runs["flip"]


@pytest.mark.parametrize("updates", (
    "idx,v0\n1,-5\n", f"idx,v0\n1,{1 << 64}\n", "idx,v0\n1\n",
    "idx,v0\n1,5,6\n", "idx,v0,v0\n1,5,6\n", ""))
def test_bad_updates_csv_exits_2_and_writes_nothing(workspace, capsys,
                                                     updates):
    # -5 was once stored as 2^64 - 5, 2^64 as 0, and a short or long row's
    # missing or extra cells were ignored
    tmp, spec_path, _ = workspace
    assert cli.main(["genview", str(spec_path), "--out", str(tmp / "v")]) == 0
    (tmp / "up.csv").write_text(updates)
    before = _files(tmp)
    rc = cli.main(["refresh", str(spec_path), "--views", str(tmp / "v"),
                   "--updates0", str(tmp / "up.csv")])
    assert rc == 2 and "up.csv" in capsys.readouterr().err
    assert _files(tmp) == before


@pytest.mark.parametrize("agg", ({"side": 0, "col": "v0", "fn": "avg"},
                                 {"side": 2, "col": "v0", "fn": "sum"},
                                 {"side": 1, "fn": "max"},
                                 {"side": 0, "col": 5, "fn": "sum"},
                                 {"side": 0, "col": "v0", "fn": ["sum"]}))
def test_malformed_aggregate_exits_2_on_every_protocol(workspace, capsys, agg):
    # "avg" once ended bitmap in a bare UnboundLocalError, side 2 ran the
    # query on P0's column, and a missing or numeric column or a list as fn
    # ended in a bare AttributeError or TypeError
    tmp, spec_path, spec = workspace
    assert cli.main(["genview", str(spec_path), "--out", str(tmp / "v")]) == 0
    spec_path.write_text(json.dumps(dict(spec, aggs=[agg])))
    for proto in ("sorting", "osorting", "bsorting", "mix", "bitmap",
                  "oneside", "auto"):
        capsys.readouterr()
        rc = cli.main(["query", str(spec_path), "--views", str(tmp / "v"),
                       "--protocol", proto, "--verify"])
        assert rc == 2, proto
        assert "aggregate" in capsys.readouterr().err, proto


def test_update_of_a_missing_column_exits_2_and_writes_nothing(workspace,
                                                               capsys):
    # an unknown column once ended in a bare KeyError: "error: 'zz'"
    tmp, spec_path, _ = workspace
    assert cli.main(["genview", str(spec_path), "--out", str(tmp / "v")]) == 0
    (tmp / "up.csv").write_text("idx,zz\n1,5\n")
    before = _files(tmp)
    stamps = {p: p.stat().st_mtime_ns for p in tmp.rglob("*.*")}
    capsys.readouterr()
    rc = cli.main(["refresh", str(spec_path), "--views", str(tmp / "v"),
                   "--updates0", str(tmp / "up.csv")])
    err = capsys.readouterr().err
    assert rc == 2 and "'zz'" in err and "R0" in err
    assert _files(tmp) == before
    assert {p: p.stat().st_mtime_ns for p in tmp.rglob("*.*")} == stamps


@pytest.mark.parametrize("field, value", (
    ("group0", 5), ("group1", ["g1"]), ("aggs", {"a": 1}), ("aggs", [1]),
    ("aggs", [{"col": "v0", "fn": "sum"}]), ("aggs", [{"side": 0, "col": "v0"}]),
    ("dom0", 5), ("dom0", ["a"]), ("dom0", [-1]), ("dom1", [2 ** 64]),
    ("seeds", [1]), ("seeds", "abc"), ("seeds", [1.5, 2, 3]),
    ("protocol", "PROTO"), ("protocol", 3), ("table0", 0), ("table1", 5),
    ("key0", 1), ("key1", ["k"]), ("table1", None)))
def test_query_spec_field_of_the_wrong_type_exits_2(workspace, capsys,
                                                    field, value):
    # group0 5 once ended in a bare AttributeError, aggs {"a": 1} and dom0
    # 5 in a bare TypeError, dom0 ["a"] in a ValueError and [-1] in an
    # OverflowError (all exit 1); seeds [1] ran on default seeds for two
    # parties, and an aggregate without a side or a protocol "PROTO"
    # printed only the bare key. The check now precedes every file read,
    # so a missing views directory is never reached
    tmp, spec_path, spec = workspace
    spec_path.write_text(json.dumps(dict(spec, **{field: value})))
    rc = cli.main(["query", str(spec_path), "--views", str(tmp / "none")])
    assert rc == 2 and f"spec {field}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", (
    ("level", 3), ("level", "2"), ("join", "PKFK"), ("seeds", [1]),
    ("seeds", "abc"), ("table0", 0), ("table0", 5), ("table1", 1.5),
    ("key0", 1), ("key1", ["k"])))
def test_genview_spec_level_or_join_unknown_exits_2(workspace, capsys,
                                                     field, value):
    # level 3 once exited with only "error: 3", join "PKFK" quietly built
    # a PK-PK view, and seeds [1] built one on default seeds for two
    # parties; table0 0 read the table from standard input and exited 0,
    # table0 5 printed only "[Errno 9] Bad file descriptor", and key1
    # ["k"] ended in a bare TypeError
    tmp, spec_path, spec = workspace
    spec_path.write_text(json.dumps(dict(spec, **{field: value})))
    rc = cli.main(["genview", str(spec_path), "--out", str(tmp / "v")])
    assert rc == 2 and f"spec {field}" in capsys.readouterr().err
    assert not (tmp / "v").exists()


@pytest.mark.parametrize("field, value", (
    ("table0", 0), ("table1", 7), ("key0", None), ("key1", ["k"])))
def test_refresh_spec_table_or_key_of_the_wrong_type_exits_2(workspace, capsys,
                                                             field, value):
    # an integer table path once reached open() as a file descriptor, which
    # the refresh would then have rewritten
    tmp, spec_path, spec = workspace
    assert cli.main(["genview", str(spec_path), "--out", str(tmp / "v")]) == 0
    (tmp / "up.csv").write_text("idx,v0\n1,5\n")
    spec_path.write_text(json.dumps(dict(spec, **{field: value})))
    before = _files(tmp)
    capsys.readouterr()
    rc = cli.main(["refresh", str(spec_path), "--views", str(tmp / "v"),
                   "--updates0", str(tmp / "up.csv")])
    assert rc == 2 and f"spec {field}" in capsys.readouterr().err
    assert _files(tmp) == before


@pytest.mark.parametrize("protocol", ("sorting", "osorting"))
def test_refresh_that_rewrites_g0_then_verified_query(tmp_path, capsys,
                                                      protocol):
    # P0 sorts and flags on its rank of g0, which the view stores; the
    # refresh must rank the updated g0 afresh, or PK row 1 (now 7) would
    # still share row 3's rank of 0
    sp, views = _pkfk_workspace(tmp_path)
    up = tmp_path / "up.csv"
    up.write_text("idx,g0\n1,7\n")
    assert cli.main(["refresh", str(sp), "--views", str(views),
                     "--updates0", str(up)]) == 0
    capsys.readouterr()
    res = tmp_path / "r.csv"
    assert cli.main(["query", str(sp), "--views", str(views), "--verify",
                     "--protocol", protocol, "--out", str(res)]) == 0
    assert "verify: OK" in capsys.readouterr().out
    assert res.read_text() == "g0,g1,sum_v0\n0,5,30\n7,5,10\n7,6,10\n"
