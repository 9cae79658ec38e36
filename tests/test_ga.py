"""Group-aggregation protocols: oracle equivalence and ledger properties."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secjoin import bench, ga, oracle
from secjoin import views as vw
from secjoin.errors import DomainTooLarge, SecJoinError, ValueOutsideDomain
from secjoin.ga import JgaQuery, select_protocol
from secjoin.ring import ARITH, BINARY
from secjoin.session import Session
from secjoin.sharing import SharedVector
from secjoin.views import Relation

ALL_PROTOCOLS = ("sorting", "osorting", "bsorting", "mix", "bitmap")


def rand_pair(rng, n_max=16, d0=4, d1=4, key_space=64):
    nx, ny = int(rng.integers(1, n_max + 1)), int(rng.integers(1, n_max + 1))
    xk = rng.choice(np.arange(1, key_space), nx, replace=False)
    yk = rng.choice(np.arange(1, key_space), ny, replace=False)
    r0 = Relation("A", {"k": xk, "g0": rng.integers(0, d0, nx),
                        "v0": rng.integers(0, 99, nx)}, "k")
    r1 = Relation("B", {"k": yk, "g1": rng.integers(0, d1, ny),
                        "v1": rng.integers(0, 99, ny)}, "k")
    return r0, r1


def run_all(r0, r1, q, level=0, seed=5):
    sess = Session(seed, seed + 1, seed + 2)
    v0, v1 = vw.GENERATORS[level](sess, r0, r1)
    outs = {}
    for proto in ALL_PROTOCOLS:
        s2 = Session(seed + 3, seed + 4, seed + 5)
        outs[proto] = ga.PROTOCOLS[proto](s2, v0, v1, q).rows
    return outs


def test_single_row_single_group():
    r0 = Relation("A", {"k": [5], "g0": [1], "v0": [42]}, "k")
    r1 = Relation("B", {"k": [5], "g1": [2], "v1": [10]}, "k")
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "max")])
    expect = [(1, 2, 42, 10)]
    for rows in run_all(r0, r1, q).values():
        assert rows == expect


def test_empty_intersection_empty_canonical():
    r0 = Relation("A", {"k": [1, 2], "g0": [0, 1], "v0": [5, 6]}, "k")
    r1 = Relation("B", {"k": [7, 8], "g1": [0, 1], "v1": [1, 2]}, "k")
    q = JgaQuery("g0", "g1", [(0, "v0", "sum")])
    for rows in run_all(r0, r1, q).values():
        assert rows == []


def test_constant_g0_single_bucket():
    rng = np.random.default_rng(1)
    r0, r1 = rand_pair(rng, d0=1)
    q = JgaQuery("g0", "g1", [(1, "v1", "sum")])
    expect = oracle.eval_jga(r0, r1, q)
    for proto, rows in run_all(r0, r1, q).items():
        assert rows == expect, proto


def test_cross_protocol_agreement_randomized():
    rng = np.random.default_rng(2)
    agg_menu = [
        [(0, "v0", "sum"), (1, "v1", "sum")],
        [(0, "v0", "count"), (1, "v1", "sum")],
        [(0, "v0", "max"), (1, "v1", "min")],
        [(0, "v0", "min"), (1, "v1", "max"), (0, None, "count")],
    ]
    for trial in range(16):
        r0, r1 = rand_pair(rng, d0=int(rng.integers(1, 9)),
                           d1=int(rng.integers(1, 9)))
        q = JgaQuery("g0", "g1", agg_menu[trial % len(agg_menu)])
        expect = oracle.eval_jga(r0, r1, q)
        outs = run_all(r0, r1, q, level=trial % 3, seed=trial)
        for proto, rows in outs.items():
            assert rows == expect, (proto, trial)


def test_group_size_hiding_row_counts():
    r0 = Relation("A", {"k": [1, 2, 3, 4, 5, 6], "g0": [0, 0, 0, 1, 2, 2],
                        "v0": [9, 9, 9, 9, 9, 9]}, "k")
    r1 = Relation("B", {"k": [6, 5, 4, 3, 2, 1], "g1": [1, 1, 1, 1, 0, 2],
                        "v1": [3, 3, 3, 3, 3, 3]}, "k")
    q = JgaQuery("g0", "g1", [(0, "v0", "sum")], dom0=[0, 1, 2], dom1=[0, 1, 2])
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    n = v0.n_e
    assert n == 6

    s2 = Session(4, 5, 6)
    ga.ga_osorting(s2, v0, v1, q)
    reveal = next(p for p in s2.transcript.phases if p.label == "reveal")
    # the sorting family reveals exactly n rows: one flag bit per row,
    # g0 as its 2-bit rank in dom0, and two 64-bit columns (g1, one
    # aggregate)
    assert sum(reveal.wire_bits) == n * (1 + 2 + 2 * 64)

    s3 = Session(4, 5, 6)
    ga.ga_bitmap(s3, v0, v1, q)
    reveal = next(p for p in s3.transcript.phases if p.label == "reveal")
    assert sum(reveal.wire_bits) == 9 * (64 + 64)  # d0*d1 rows: count + sum


def test_oneside_matches_oracle_and_skips_sort():
    rng = np.random.default_rng(4)
    for trial in range(8):
        r0, r1 = rand_pair(rng)
        side = trial % 2
        q = JgaQuery("g0" if side == 0 else None,
                     "g1" if side == 1 else None,
                     [(0, "v0", "sum"), (1, "v1", "max")])
        expect = oracle.eval_jga(r0, r1, q)
        sess = Session(trial, trial + 1, trial + 2)
        v0, v1 = vw.gen_pidv(sess, r0, r1)
        s2 = Session(trial + 3, trial + 4, trial + 5)
        rows = ga.ga_oneside(s2, v0, v1, q).rows
        assert rows == expect
        assert s2.transcript.bits_for("sort") == 0
        assert "sort" not in s2.transcript.phase_labels()
        # P1's runs are opened in its own order; P0's go through the shuffle
        assert ("shuffle" in s2.transcript.phase_labels()) == (side == 0)


def test_bitmap_count_reads_the_bucket_counts():
    # a count-only query: one b2a of e and one 64-bit product per row
    rng = np.random.default_rng(7)
    r0, r1 = rand_pair(rng, d0=3, d1=2)
    q = JgaQuery("g0", "g1", [(0, None, "count"), (1, None, "count")],
                 dom0=[0, 1, 2], dom1=[0, 1])
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_pidv(sess, r0, r1)
    s2 = Session(4, 5, 6)
    assert ga.ga_bitmap(s2, v0, v1, q).rows == oracle.eval_jga(r0, r1, q)
    cells = 3 * 2 * v0.n_e  # bucket pairs x view rows
    agg = next(p for p in s2.transcript.phases if p.label == "aggregate")
    assert sum(agg.wire_bits) == 2 * cells + 4 * 64 * cells
    assert agg.wire_rounds == 2
    assert agg.hybrid_bits == 64 * cells + 64 * cells  # daBits, triples


def test_osorting_cheaper_than_sorting_baseline():
    rng = np.random.default_rng(5)
    n = 64
    keys = rng.permutation(np.arange(1, 2 * n))[:n]
    keys1 = rng.permutation(np.arange(1, 2 * n))[:n]
    r0 = Relation("A", {"k": keys, "g0": rng.integers(0, 9, n),
                        "v0": rng.integers(0, 99, n)}, "k")
    r1 = Relation("B", {"k": keys1, "g1": rng.integers(0, 9, n),
                        "v1": rng.integers(0, 99, n)}, "k")
    q = JgaQuery("g0", "g1", [(0, "v0", "max"), (1, "v1", "max")])
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    bits = {}
    for proto in ("sorting", "osorting"):
        s2 = Session(4, 5, 6)
        rows = ga.PROTOCOLS[proto](s2, v0, v1, q).rows
        bits[proto] = s2.transcript.wire_bits
        assert rows == oracle.eval_jga(r0, r1, q)
    assert bits["osorting"] < bits["sorting"]


def test_all_sum_query_aggregate_phase_is_local():
    rng = np.random.default_rng(6)
    r0, r1 = rand_pair(rng)
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "count")])
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    s2 = Session(4, 5, 6)
    rows = ga.ga_osorting(s2, v0, v1, q).rows
    assert rows == oracle.eval_jga(r0, r1, q)
    assert s2.transcript.rounds_for("aggregate") == 0
    assert s2.transcript.bits_for("aggregate") == 0


def test_bsorting_bitmap_phase_scales_linearly_in_d0():
    b4 = bench.bsorting_bitmap_phase_bits(64, 4)
    b8 = bench.bsorting_bitmap_phase_bits(64, 8)
    assert 1.6 <= b8 / b4 <= 2.4


def test_bitmap_scaling_law():
    c4 = bench.measure_ga("bitmap", 64, 4, 4)
    c8 = bench.measure_ga("bitmap", 64, 8, 8)
    assert 3.2 <= c8.wire_bits / c4.wire_bits <= 4.8


def test_domain_caps():
    r0 = Relation("A", {"k": [1], "g0": [0], "v0": [1]}, "k")
    r1 = Relation("B", {"k": [1], "g1": [0], "v1": [1]}, "k")
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    big = list(range(1 << 13))
    q = JgaQuery("g0", "g1", [(0, "v0", "sum")], dom0=big)
    with pytest.raises(DomainTooLarge):
        ga.ga_bsorting(Session(1, 2, 3), v0, v1, q)
    q2 = JgaQuery("g0", "g1", [(0, "v0", "sum")],
                  dom0=list(range(64)), dom1=list(range(64)))
    with pytest.raises(DomainTooLarge):
        ga.ga_bitmap(Session(1, 2, 3), v0, v1, q2)


def test_selector_decision_list():
    sums = [(0, "v0", "sum")]
    maxes = [(0, "v0", "max")]
    # guideline edge cases
    assert select_protocol(1 << 20, 4, 4, sums) == "bitmap"
    assert select_protocol(1 << 20, 2 ** 6, 1 << 30, sums) == "mix"
    assert select_protocol(1 << 20, 2 ** 13, 2 ** 13, maxes) == "osorting"
    # 16-cell grid spanning the thresholds
    for d0 in (4, 2 ** 6, 2 ** 10, 2 ** 13):
        for d1 in (4, 2 ** 6, 2 ** 10, 2 ** 13):
            got = select_protocol(1 << 20, d0, d1, sums)
            if d0 < 8 and d1 < 8:
                assert got == "bitmap"
            elif min(d0, d1) < 2 ** 7:
                assert got == "mix"
            elif min(d0, d1) < 2 ** 12:
                assert got == "bsorting"
            else:
                assert got == "osorting"
            assert select_protocol(1 << 20, d0, d1, maxes) in \
                ("bsorting", "osorting")
    assert select_protocol(8, 2, 2, sums, one_side=True) == "oneside"


def test_pkfk_osorting_matches_fk_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n0 = int(rng.integers(1, 8))
        m = int(rng.integers(1, 12))
        pk = rng.choice(np.arange(1, 24), n0, replace=False)
        fk = rng.choice(pk.tolist() + list(range(90, 94)), m, replace=True)
        vals, counts = np.unique(fk, return_counts=True)
        if counts.max() > 4:
            continue
        r0 = Relation("P", {"k": pk, "g0": rng.integers(0, 3, n0),
                            "v0": rng.integers(0, 99, n0)}, "k", "pk")
        r1 = Relation("F", {"k": fk, "g1": rng.integers(0, 3, m),
                            "v1": rng.integers(0, 99, m)}, "k", "fk")
        fn = ["sum", "count", "max", "min"][trial % 4]
        q = JgaQuery("g0", "g1", [(0, "v0", fn), (1, "v1", "sum")])
        expect = oracle.eval_jga(r0, r1, q)
        sess = Session(trial, trial + 1, trial + 2)
        v0, v1 = vw.gen_pkfk(sess, r0, r1, level=trial % 3)
        s2 = Session(trial + 3, trial + 4, trial + 5)
        assert ga.ga_osorting(s2, v0, v1, q).rows == expect


def test_pkfk_bitmap_family_with_appended_columns():
    # bitmap-dependent protocols need the g0 bitmap inside the shared
    # transcript: append it to R^0 before generating the PK-FK view
    rng = np.random.default_rng(12)
    for trial in range(6):
        n0, m = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        pk = rng.choice(np.arange(1, 20), n0, replace=False)
        fk = rng.choice(pk.tolist() + [91, 92], m, replace=True)
        vals, counts = np.unique(fk, return_counts=True)
        if counts.max() > 4:
            continue
        dom0 = [0, 1, 2]
        r0 = Relation("P", {"k": pk, "g0": rng.integers(0, 3, n0),
                            "v0": rng.integers(0, 99, n0)}, "k", "pk")
        r1 = Relation("F", {"k": fk, "g1": rng.integers(0, 3, m),
                            "v1": rng.integers(0, 99, m)}, "k", "fk")
        r0b = vw.append_bitmap_columns(r0, "g0", dom0)
        q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "max")],
                     dom0=dom0, dom1=[0, 1, 2])
        expect = oracle.eval_jga(r0, r1, q)
        sess = Session(trial, trial + 1, trial + 2)
        v0, v1 = vw.gen_pkfk(sess, r0b, r1, level=trial % 3)
        for proto in ("bsorting", "mix", "bitmap"):
            s2 = Session(trial + 3, trial + 4, trial + 5)
            got = ga.PROTOCOLS[proto](s2, v0, v1, q).rows
            assert got == expect, (proto, trial, pk, fk)


def test_pkfk_refresh_then_query_matches_updated_oracle():
    rng = np.random.default_rng(8)
    r0 = Relation("P", {"k": [1, 2, 5], "g0": [0, 1, 0],
                        "v0": [10, 20, 50]}, "k", "pk")
    r1 = Relation("F", {"k": [2, 1, 2, 7, 1], "g1": [3, 3, 4, 4, 3],
                        "v1": [1, 2, 3, 4, 5]}, "k", "fk")
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_pkfk(sess, r0, r1, level=2)
    s2 = Session(4, 5, 6)
    v0, v1 = vw.refresh_pkfk(s2, v0, v1, r0, r1,
                             updates0=[(1, {"v0": 111})],
                             updates1=[(2, {"v1": 99})])
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "sum")])
    s3 = Session(7, 8, 9)
    assert ga.ga_sorting(s3, v0, v1, q).rows == oracle.eval_jga(r0, r1, q)


def test_refresh_pkpk_then_query_matches_updated_oracle():
    rng = np.random.default_rng(9)
    r0, r1 = rand_pair(rng)
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_pidv(sess, r0, r1)
    vw.refresh_pkpk(v0, r0, [(1, {"v0": 12345})])
    vw.refresh_pkpk(v1, r1, [(1, {"v1": 54321})])
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "sum")])
    s2 = Session(4, 5, 6)
    assert ga.ga_osorting(s2, v0, v1, q).rows == oracle.eval_jga(r0, r1, q)


def test_mutation_is_detected(flip_in_reveal):
    rng = np.random.default_rng(10)
    r0 = Relation("A", {"k": [1, 2, 3], "g0": [1, 2, 1], "v0": [5, 6, 7]}, "k")
    r1 = Relation("B", {"k": [3, 1, 9], "g1": [4, 4, 4], "v1": [1, 2, 3]}, "k")
    q = JgaQuery("g0", "g1", [(0, "v0", "max")])
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    expect = oracle.eval_jga(r0, r1, q)
    clean = ga.ga_bsorting(Session(4, 5, 6), v0, v1, q).rows
    assert clean == expect
    flipped = flip_in_reveal()
    rows = ga.ga_bsorting(Session(4, 5, 6), v0, v1, q).rows
    assert flipped
    assert rows != expect


def test_wraparound_values_agree_with_oracle():
    # sums wrap mod 2^64 on both sides; max/min treat values as unsigned
    big = (1 << 64) - 2
    r0 = Relation("A", {"k": [1, 2, 3], "g0": [0, 0, 0],
                        "v0": [big, big, 5]}, "k")
    r1 = Relation("B", {"k": [3, 2, 1], "g1": [9, 9, 9],
                        "v1": [big, 1, 2]}, "k")
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "max"),
                              (1, "v1", "min")])
    expect = oracle.eval_jga(r0, r1, q)
    assert expect[0][2] == (2 * big + 5) % (1 << 64)  # wrapped sum
    for proto, rows in run_all(r0, r1, q, level=2).items():
        assert rows == expect, proto


def test_null_absorbs_under_every_aggregate():
    # a masked-out row aggregated with a real one yields the real value:
    # agg(null, x) = x under the (validity, identity-value) encoding
    from secjoin import oblivious as ob
    from secjoin import sharing as sh
    from secjoin.oblivious import AGG_IDENTITY
    for agg in ("sum", "count", "max", "min", "xor"):
        sess = Session(1, 2, 3)
        flavor = sh.ARITH if agg in ("sum", "count") else sh.BINARY
        x = 41 if agg != "count" else 1
        vals = sh.share_vec(sess, 1, [AGG_IDENTITY[agg], x], flavor)
        valid = sh.share_vec(sess, 0, [0, 1], sh.BINARY, 1)
        run = sh.share_vec(sess, 0, [0, 1], sh.BINARY, 1)  # one run of two
        [out], tout = ob.trav_flags(sess, run, [vals], [agg], validity=valid)
        assert int(out.reconstruct()[1]) == x
        assert int(tout.reconstruct()[1]) == 1


def test_run_query_auto_routes():
    rng = np.random.default_rng(11)
    r0, r1 = rand_pair(rng, d0=2, d1=2)
    q = JgaQuery("g0", "g1", [(0, "v0", "sum")])
    sess = Session(1, 2, 3)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    s2 = Session(4, 5, 6)
    rows = ga.run_query(s2, v0, v1, q).rows
    assert rows == oracle.eval_jga(r0, r1, q)


def test_view_gen_bench_reports_wire_and_dealer_bits_apart():
    # level-0 generation is a dealer-emulated PSI: no wire traffic at all
    cell = bench.measure_view_gen(0, 64)
    assert cell.wire_bits == 0 and cell.hybrid_bits > 0
    assert bench.measure_view_gen(2, 64).wire_bits > 0


def test_bitmap_xor_aggregates_match_oracle():
    # xor-only queries once raised UnboundLocalError, and xor next to max
    # went through the max/min tree
    rng = np.random.default_rng(21)
    for trial in range(6):
        r0, r1 = rand_pair(rng, n_max=12, d0=3, d1=3, key_space=16)
        sess = Session(trial, trial + 1, trial + 2)
        v0, v1 = vw.GENERATORS[trial % 3](sess, r0, r1)
        for g0, g1 in (("g0", "g1"), ("g0", None), (None, "g1")):
            for aggs in ([(1, "v1", "xor"), (0, "v0", "xor")],
                         [(0, "v0", "xor"), (1, "v1", "max"), (0, None, "count")]):
                q = JgaQuery(g0, g1, aggs)
                got = ga.ga_bitmap(Session(4, 5, 6), v0, v1, q).rows
                assert got == oracle.eval_jga(r0, r1, q), (trial, q)


def test_mix_and_oneside_without_aggregates_return_group_rows():
    rng = np.random.default_rng(22)
    for level in (0, 1, 2):
        r0, r1 = rand_pair(rng, n_max=12, d0=3, d1=3, key_space=16)
        sess = Session(level, level + 1, level + 2)
        v0, v1 = vw.GENERATORS[level](sess, r0, r1)
        for proto, g0, g1 in (("mix", "g0", "g1"), ("mix", "g0", None),
                              ("mix", None, "g1"), ("oneside", "g0", None),
                              ("oneside", None, "g1")):
            q = JgaQuery(g0, g1, [])
            got = ga.PROTOCOLS[proto](Session(4, 5, 6), v0, v1, q).rows
            assert got == oracle.eval_jga(r0, r1, q), (level, proto, q)


def test_pkfk_bitmap_without_g0_over_p0_values():
    # P0's columns are shared in a PK-FK view; without g0 this once hit a
    # bare AssertionError on P0's plaintext path
    r0 = Relation("P", {"k": [1, 2, 5, 6], "v0": [10, 20, 50, 60]}, "k", "pk")
    r1 = Relation("F", {"k": [2, 1, 2, 7, 5, 2], "g1": [3, 3, 4, 4, 3, 3],
                        "v1": [1, 2, 3, 4, 5, 6]}, "k", "fk")
    for level in (0, 1, 2):
        v0, v1 = vw.gen_pkfk(Session(1, 2, 3), r0, r1, level=level)
        for aggs in ([(0, "v0", "sum")],
                     [(0, "v0", "max"), (0, "v0", "min"), (0, None, "count")]):
            q = JgaQuery(None, "g1", aggs, dom1=[3, 4])
            got = ga.ga_bitmap(Session(4, 5, 6), v0, v1, q).rows
            assert got == oracle.eval_jga(r0, r1, q), (level, aggs)


@pytest.mark.parametrize("bitmaps", [False, True])
def test_auto_on_pkfk_picks_only_protocols_the_view_can_run(bitmaps):
    # P0's g0 is secret-shared in a PK-FK view: auto once picked bitmap or
    # mix without the __bm columns (MissingColumn) and oneside on g0
    dom = [0, 1]
    r0 = Relation("P", {"k": [1, 2, 3], "g0": [0, 1, 0], "v0": [5, 6, 7]},
                  "k", "pk")
    r1 = Relation("F", {"k": [1, 1, 3, 2], "g1": [0, 1, 1, 0],
                        "v1": [1, 2, 3, 4]}, "k", "fk")
    r0v = vw.append_bitmap_columns(r0, "g0", dom) if bitmaps else r0
    agg_lists = ([(0, "v0", "sum"), (1, "v1", "sum"), (0, None, "count")],
                 [(0, "v0", "max"), (1, "v1", "min"), (1, None, "count")])
    for level in (0, 1, 2):
        v0, v1 = vw.gen_pkfk(Session(1, 2, 3), r0v, r1, level=level)
        for g0, g1 in (("g0", "g1"), ("g0", None), (None, "g1")):
            for aggs in agg_lists:
                for dom0 in (dom, None):
                    q = JgaQuery(g0, g1, aggs, dom0=dom0, dom1=dom)
                    got = ga.run_query(Session(4, 5, 6), v0, v1, q).rows
                    assert got == oracle.eval_jga(r0, r1, q), (level, q)


def _join_pair(rng, n, dom0, d1=4):
    """Every key of A joins; B has three keys more, so that levels 1 and 2
    pad P0's view with rows whose g0 is 0, inside dom0 or not."""
    r0 = Relation("A", {"k": rng.permutation(n) + 1,
                        "g0": np.array(dom0, dtype=np.uint64)[
                            rng.integers(0, len(dom0), n)],
                        "v0": rng.integers(0, 99, n)}, "k")
    r1 = Relation("B", {"k": rng.permutation(n + 3) + 1,
                        "g1": rng.integers(0, d1, n + 3),
                        "v1": rng.integers(0, 99, n + 3)}, "k")
    return r0, r1


def test_sorting_ranks_g0_over_a_public_dom0():
    # P0 sorts on g0's rank in dom0 and P1 maps revealed ranks back
    rng = np.random.default_rng(31)
    doms = ([7], [0, 1], [3, 9, (1 << 64) - 1], list(range(16)),
            list(range(0, 34, 2)))
    for i, dom0 in enumerate(doms):
        r0, r1 = _join_pair(rng, 12, dom0)
        for level in (0, 1, 2):
            v0, v1 = vw.GENERATORS[level](Session(i, 1, 2), r0, r1)
            for aggs in ([(0, "v0", "sum"), (1, None, "count")],
                         [(1, "v1", "max"), (0, "v0", "min")]):
                q = JgaQuery("g0", "g1", aggs, dom0=dom0[::-1])
                expect = oracle.eval_jga(r0, r1, q)
                for proto in ("sorting", "osorting"):
                    got = ga.PROTOCOLS[proto](Session(3, 4, 5), v0, v1, q).rows
                    assert got == expect, (dom0, level, proto)


def test_osorting_sort_phase_rounds_follow_the_packed_width():
    # with dom0, e, g0's rank and the row index pack into one limb of W
    # bits; without, g0 keeps a 64-bit limb between e's and the index's.
    # Each of the L(L+1)/2 bitonic stages is one exchange for every limb's
    # generate AND, the limbs' prefix trees in lockstep (ceil(log2 w)
    # rounds for the widest limb w), ceil(log2 #limbs) rounds that fold
    # the limbs' (gt, eq) pairs and one exchange that muxes every limb
    rng = np.random.default_rng(32)
    for n, d0, with_dom0 in ((13, 3, True), (100, 16, True), (200, 5, True),
                             (100, 16, False)):
        r0, r1 = _join_pair(rng, n, list(range(d0)))
        v0, v1 = vw.gen_psiv(Session(1, 2, 3), r0, r1)
        sess = Session(4, 5, 6)
        ga.ga_osorting(sess, v0, v1, JgaQuery(
            "g0", "g1", [(0, "v0", "sum")],
            dom0=list(range(d0)) if with_dom0 else None))
        m = 1 << (n - 1).bit_length()
        levels = m.bit_length() - 1
        widths = [1 + (d0 - 1).bit_length() + m.bit_length()] if with_dom0 \
            else [1, 64, m.bit_length()]
        assert max(widths) <= 64
        stages = levels * (levels + 1) // 2
        per_stage = 1 + max((w - 1).bit_length() for w in widths) \
            + (len(widths) - 1).bit_length() + 1
        assert sess.transcript.rounds_for("sort") == stages * per_stage, \
            (n, d0, with_dom0)


def test_osorting_extremes_aggregate_in_one_scan():
    # max and min share one stacked scan: per level, one gt over both
    # blocks (1 + ceil(log2 64) rounds), one exchange for take and the
    # next run flags, and one for the mux, where two scans took twice that
    rng = np.random.default_rng(33)
    r0, r1 = _join_pair(rng, 100, list(range(5)))
    v0, v1 = vw.gen_psiv(Session(1, 2, 3), r0, r1)
    q = JgaQuery("g0", "g1", [(0, "v0", "max"), (1, "v1", "min")])
    sess = Session(4, 5, 6)
    rows = ga.ga_osorting(sess, v0, v1, q).rows
    assert rows == oracle.eval_jga(r0, r1, q)
    levels = (v0.n_e - 1).bit_length()
    assert v0.n_e == 100
    assert sess.transcript.rounds_for("aggregate") == levels * (1 + 6 + 2)


def test_oneside_sum_and_max_aggregate_in_one_scan():
    # the sum's products ride in the max scan's exchanges: after the null
    # fill (2 rounds), a level is one gt (1 + ceil(log2 64) rounds), one
    # b2a of the run flags, one exchange for take, the products and the
    # next run flags, and one for the mux and the validity's OR
    rng = np.random.default_rng(34)
    r0, r1 = _join_pair(rng, 100, list(range(5)))
    v0, v1 = vw.gen_psiv(Session(1, 2, 3), r0, r1)
    levels = (v0.n_e - 1).bit_length()
    assert v0.n_e == 100
    for groups in (("g0", None), (None, "g1")):
        q = JgaQuery(*groups, [(0, "v0", "sum"), (1, "v1", "max")])
        sess = Session(4, 5, 6)
        assert ga.ga_oneside(sess, v0, v1, q).rows == oracle.eval_jga(r0, r1, q)
        assert sess.transcript.rounds_for("aggregate") == \
            2 + levels * (1 + 6 + 1 + 1 + 1), groups


def _outside_domain_views(level):
    r0 = Relation("A", {"k": [1, 2, 3, 4], "g0": [0, 1, 5, 1],
                        "v0": [10, 20, 30, 40]}, "k")
    r1 = Relation("B", {"k": [1, 2, 3, 4], "g1": [0, 0, 1, 7],
                        "v1": [1, 2, 3, 4]}, "k")
    return vw.GENERATORS[level](Session(1, 2, 3), r0, r1)


@pytest.mark.parametrize("proto", ALL_PROTOCOLS + ("auto",))
def test_group_value_outside_its_domain_raises_before_any_message(proto):
    # g0 = 5 lies outside dom0: bsorting, mix and bitmap once gave wrong
    # rows silently, and sorting and osorting now rank g0 through dom0
    for level in (0, 1, 2):
        v0, v1 = _outside_domain_views(level)
        q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (0, None, "count")],
                     protocol=proto, dom0=[0, 1], dom1=[0, 1, 7])
        sess = Session(4, 5, 6)
        with pytest.raises(ValueOutsideDomain):
            ga.run_query(sess, v0, v1, q)
        assert sess.transcript.wire_bits == sess.transcript.hybrid_bits == 0


def test_bitmap_checks_g1_against_dom1():
    v0, v1 = _outside_domain_views(2)
    q = JgaQuery("g0", "g1", [(0, "v0", "sum")], protocol="bitmap",
                 dom0=[0, 1, 5], dom1=[0, 1])
    sess = Session(4, 5, 6)
    with pytest.raises(ValueOutsideDomain):
        ga.run_query(sess, v0, v1, q)
    assert sess.transcript.wire_bits == 0


def test_append_bitmap_columns_rejects_a_value_outside_the_domain():
    r0 = Relation("P", {"k": [1, 2, 3], "g0": [0, 1, 2], "v0": [5, 6, 7]},
                  "k", "pk")
    with pytest.raises(ValueOutsideDomain):
        vw.append_bitmap_columns(r0, "g0", [0, 1])


EXTREMES = (0, 1, (1 << 64) - 2, (1 << 64) - 1)
EXTREME_AGGS = [(side, f"v{side}", fn) for fn in ("min", "max", "sum", "xor")
                for side in (0, 1)]


def _extreme_relation(draw, name, keys):
    n = len(keys)
    return Relation(name, {"k": keys,
                           f"g{name == 'B':d}": draw(st.lists(
                               st.integers(0, 1), min_size=n, max_size=n)),
                           f"v{name == 'B':d}": draw(st.lists(
                               st.sampled_from(EXTREMES), min_size=n,
                               max_size=n))}, "k")


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_ring_extremes_give_the_oracles_rows_or_a_typed_error(data):
    # min's null replacement is 2^64 - 1, the largest value a row may hold:
    # every protocol must still give the oracle's rows at the ring's ends
    keys = st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True)
    r0 = _extreme_relation(data.draw, "A", data.draw(keys))
    r1 = _extreme_relation(data.draw, "B", data.draw(keys))
    groups = data.draw(st.sampled_from([("g0", "g1"), ("g0", None),
                                        (None, "g1")]))
    q = JgaQuery(*groups, EXTREME_AGGS)
    expect = oracle.eval_jga(r0, r1, q)
    for level in (0, 1, 2):
        v0, v1 = vw.GENERATORS[level](Session(1, 2, 3), r0, r1)
        for proto in (*ga.PROTOCOLS, "auto"):
            try:
                rows = ga.run_query(Session(4, 5, 6), v0, v1,
                                    dataclasses.replace(q, protocol=proto)).rows
            except SecJoinError:
                continue
            assert rows == expect, (level, proto)


# (PK keys, FK-side keys, FK side?) of each degenerate shape
DEGENERATE_SHAPES = {
    "n1-hit": ([5], [5], False),
    "n1-miss": ([5], [6], False),
    "empty-intersection": ([1, 2, 3], [4, 5], False),
    "pkfk-all-on-one-pk": ([1, 2, 3], [2, 2, 2, 2], True),
    "pkfk-no-match": ([1, 2], [7, 8, 7], True),
    "pkfk-n1": ([4], [4], True),
}
DEGENERATE_AGGS = (
    [(0, "v0", "sum"), (1, "v1", "sum"), (0, None, "count")],
    [(0, "v0", "max"), (1, "v1", "min"), (1, None, "count")],
    [(0, "v0", "xor"), (1, "v1", "xor")],
    [],
)


def _degenerate_relation(draw, name, keys, kind):
    n = len(keys)
    side = int(name == "F")
    ints = (lambda vals: draw(st.lists(st.sampled_from(vals), min_size=n,
                                       max_size=n)))
    return Relation(name, {"k": keys, f"g{side}": ints((0, 1)),
                           f"v{side}": ints((0, 1, 7, (1 << 64) - 1))},
                    "k", kind)


@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
@settings(max_examples=2, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_degenerate_shapes_give_the_oracles_rows_or_a_typed_error(shape, data):
    pk, fk, pkfk = DEGENERATE_SHAPES[shape]
    r0 = _degenerate_relation(data.draw, "P", pk, "pk")
    r1 = _degenerate_relation(data.draw, "F", fk, "fk" if pkfk else "pk")
    groups = data.draw(st.sampled_from([("g0", "g1"), ("g0", None),
                                        (None, "g1")]))
    doms = data.draw(st.sampled_from([{}, {"dom0": [0, 1], "dom1": [0, 1]}]))
    r0v = vw.append_bitmap_columns(r0, "g0", [0, 1]) if pkfk else r0
    for level in (0, 1, 2):
        if pkfk:
            v0, v1 = vw.gen_pkfk(Session(1, 2, 3), r0v, r1, level=level)
        else:
            v0, v1 = vw.GENERATORS[level](Session(1, 2, 3), r0, r1)
        for aggs in DEGENERATE_AGGS:
            q = JgaQuery(*groups, aggs, **doms)
            expect = oracle.eval_jga(r0, r1, q)
            for proto in (*ga.PROTOCOLS, "auto"):
                try:
                    rows = ga.run_query(Session(4, 5, 6), v0, v1,
                                        dataclasses.replace(q, protocol=proto)).rows
                except SecJoinError:
                    continue
                assert rows == expect, (level, aggs, proto)


def test_arith_to_bit_reads_the_low_bits_locally():
    # no carry reaches bit 0, so the halves' low bits XOR to a 0/1 value
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, 1000, dtype=np.uint64)
    a0 = rng.integers(0, 1 << 64, 1000, dtype=np.uint64)
    a0[:4] = [0, 1, (1 << 64) - 1, 1 << 63]
    bit = ga._arith_to_bit(SharedVector(ARITH, 64, a0, x - a0))
    assert (bit.flavor, bit.width) == (BINARY, 1)
    assert np.array_equal(bit.reconstruct(), x)


def test_pkfk_bitmap_keeps_p1s_bitmap_out_of_p0s_half(monkeypatch):
    # the witness once multiplied by SharedVector.public(P1's g1 bitmap),
    # which puts that private bitmap in party 0's half
    r0 = Relation("P", {"k": [1, 2, 3, 4], "g0": [0, 1, 0, 1],
                        "v0": [10, 20, 30, 40]}, "k")
    r1 = Relation("F", {"k": [3, 1, 1, 9, 2], "g1": [5, 6, 5, 6, 5],
                        "v1": [7, 8, 9, 1, 2]}, "k", "fk")
    dom0, dom1 = [0, 1], [5, 6]
    v0, v1 = vw.gen_pkfk(Session(1, 2, 3),
                         vw.append_bitmap_columns(r0, "g0", dom0), r1)
    q = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "max")],
                 dom0=dom0, dom1=dom1)
    seen, public = [], SharedVector.public.__func__

    def recording_public(cls, values, *args, **kwargs):
        seen.append(np.asarray(values, dtype=np.uint64))
        return public(cls, values, *args, **kwargs)

    monkeypatch.setattr(SharedVector, "public", classmethod(recording_public))
    assert ga.ga_bitmap(Session(4, 5, 6), v0, v1, q).rows == \
        oracle.eval_jga(r0, r1, q)
    b1 = np.tile(ga._Table(v0, v1).bitmap(1, "g1", dom1).values, len(dom0))
    assert not any(np.array_equal(a, b1) for a in seen)


@pytest.mark.parametrize("bitmaps", (False, True))
def test_pkfk_bitmap_gates_p0_values_without_a_dabit(bitmaps):
    # P1 once shared its g1 bitmap as bits and converted them by b2a, one
    # more round than sharing it arithmetically, which costs no wire
    r0 = Relation("P", {"k": [1, 2, 3, 4], "g0": [0, 1, 0, 1],
                        "v0": [10, 20, 30, 40]}, "k")
    r1 = Relation("F", {"k": [3, 1, 1, 9, 2], "g1": [5, 6, 5, 6, 5],
                        "v1": [7, 8, 9, 1, 2]}, "k", "fk")
    dom0, dom1 = [0, 1], [5, 6]
    if bitmaps:
        r0 = vw.append_bitmap_columns(r0, "g0", dom0)
    v0, v1 = vw.gen_pkfk(Session(1, 2, 3), r0, r1)
    q = JgaQuery("g0" if bitmaps else None, "g1", [(0, "v0", "sum")],
                 dom0=dom0, dom1=dom1)
    sess = Session(4, 5, 6)
    assert ga.ga_bitmap(sess, v0, v1, q).rows == oracle.eval_jga(r0, r1, q)
    # asym_mul's two rounds for the witness over a plain bitmap, or one for
    # the witness and one gating the value by a shared g0 bitmap; then one
    # for P1's gate
    assert sess.transcript.rounds_for("products") == 3
