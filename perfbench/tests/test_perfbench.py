"""Tests of the benchmark itself.

Every workload passes a tiny run, traced and untraced, and every correctness
check rejects a deliberately corrupted output. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from secjoin import benes, ga, oblivious  # noqa: E402
from secjoin.ga import JgaQuery  # noqa: E402
from secjoin.session import Session  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_passes(workload, tmp_path):
    result = run.run(workload, seed=7, seconds=1.0, trace=False,
                     root=str(tmp_path), sizes=workloads.TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert result["attempted"] % workloads.WORKLOADS[workload].round_size == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    work = tmp_path / run.WORK_DIR
    assert not work.exists() or not any(work.iterdir())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_traced_run_reports_every_layer(workload, tmp_path):
    result = run.run(workload, seed=7, seconds=0.1, trace=True,
                     root=str(tmp_path), sizes=workloads.TINY)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    trace = json.loads((tmp_path / run.OUT_DIR /
                        f"trace-{workload}-seed7.json").read_text())
    assert trace["spans"] and trace["ops"] == result["attempted"]
    # the wrappers are gone again
    assert oblivious.build_program is benes.build_program
    assert ga.PROTOCOLS["osorting"] is ga.ga_osorting
    bitmap_calls = result["metrics"]["benes.build_program.calls"]["value"]
    assert (bitmap_calls == 0) == (workload == "jga_bitmap")


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        [(name, unit) for name, unit, _ in spans.METRICS]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "view_gen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_come_from_the_seed():
    a = workloads.ViewGen(5, workloads.TINY, "")._inputs(3)
    b = workloads.ViewGen(5, workloads.TINY, "")._inputs(3)
    c = workloads.ViewGen(6, workloads.TINY, "")._inputs(3)
    assert all((a[s][k] == b[s][k]).all() for s in (0, 1) for k in a[s])
    assert not (a[0]["k"] == c[0]["k"]).all()


def test_reference_join_group_by_by_hand():
    t0 = {"k": [1, 2, 3, 4], "g0": [0, 1, 0, 1], "v0": [10, 20, 30, 40]}
    t1 = {"k": [3, 1, 9, 3], "g1": [5, 6, 5, 5], "v1": [7, 8, 9, 2]}
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "max"),
                              (0, None, "count"), (1, "v1", "min")])
    assert reference.join_group_by(t0, "k", t1, "k", q) == \
        [(0, 5, 60, 7, 2, 2), (0, 6, 10, 8, 1, 8)]


# -- each check rejects a corrupted output --------------------------------------

def _view(seed=11, i=0):
    wl = workloads.ViewGen(seed, workloads.TINY, "")
    t0, t1 = wl._inputs(i)
    _, _, v0, v1 = wl._generate(i, t0, t1)
    assert reference.check_pkpk_view(t0, "k", t1, "k", v0, v1) == []
    return t0, t1, v0, v1


def test_view_check_rejects_one_flipped_bit_of_e():
    t0, t1, v0, v1 = _view()
    v0.e_half[3] ^= 1
    assert any("E[3]" in p for p in
               reference.check_pkpk_view(t0, "k", t1, "k", v0, v1))


def test_view_check_rejects_two_swapped_pi_entries():
    t0, t1, v0, v1 = _view()
    v1.pi[[0, 5]] = v1.pi[[5, 0]]
    assert reference.check_pkpk_view(t0, "k", t1, "k", v0, v1)


@pytest.mark.parametrize("cls", [workloads.JgaSort, workloads.JgaBitmap])
def test_jga_check_rejects_one_changed_aggregate(cls):
    wl = cls(13, workloads.TINY, "")
    wl.setup()
    wl.prepare()
    rows = [ga.run_query(Session(1, 2, 3), wl.v0, wl.v1, q).rows
            for q in wl.queries]
    assert wl.check(rows) == []
    qi = next(i for i, r in enumerate(rows) if r)
    row = rows[qi][0]
    rows[qi][0] = (*row[:-1], row[-1] + 1)
    assert wl.check(rows)


def test_pkfk_check_rejects_a_stale_refreshed_payload(tmp_path):
    wl = workloads.PkfkRefresh(17, workloads.TINY, str(tmp_path))
    wl.setup()
    try:
        before = reference.join_group_by(wl.t0, "k", wl.t1, "k",
                                         workloads.PKFK_QUERY)
        stale = tmp_path / "stale"
        shutil.copytree(wl.paths["views"], stale)
        wl._write_updates(0)
        assert reference.join_group_by(wl.t0, "k", wl.t1, "k",
                                       workloads.PKFK_QUERY) != before
        spec, vdir = wl.paths["spec.json"], wl.paths["views"]
        refresh = workloads.run_cli(["refresh", spec, "--views", vdir,
                                     "--updates0", wl.paths["up0.csv"],
                                     "--updates1", wl.paths["up1.csv"]])
        query_argv = ["query", spec, "--views", vdir, "--protocol", "osorting",
                      "--out", wl.paths["result.csv"]]
        assert wl.check(0.0, refresh, workloads.run_cli(query_argv)).problems \
            == []
        shutil.rmtree(vdir)
        shutil.copytree(stale, vdir)  # the refresh's view writes are lost
        problems = wl.check(0.0, refresh,
                            workloads.run_cli(query_argv)).problems
        assert any("pkfk osorting" in p for p in problems)
    finally:
        wl.close()
