"""Permutation, sorting and traversal primitives against plaintext oracles."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secjoin import dealer as dl
from secjoin import oblivious as ob
from secjoin import oracle
from secjoin import sharing as sh
from secjoin.benes import build_program, expected_switches
from secjoin.errors import NotAPermutation, PreconditionViolated, SizeMismatch
from secjoin.session import Session


def fresh(seed=3):
    return Session(seed, seed + 5, seed + 9)


def test_switch_program_reproduces_permutation():
    rng = np.random.default_rng(0)
    perms = [np.array(p) for m in (2, 4, 8)
             for p in itertools.permutations(range(m))]
    perms += [rng.permutation(m) for m in (16, 32, 1 << 10, 1 << 16)]
    for perm in perms:
        m = len(perm)
        prog = build_program(perm)
        assert prog.size == m
        assert prog.num_switches == expected_switches(m)
        assert prog.apply(list(range(m))) == perm.tolist()
    prog = build_program(np.zeros(1, dtype=np.int64))
    assert prog.layers == [] and prog.num_switches == 0
    assert prog.apply([7]) == [7]


def test_osn_plain_identity_and_padding():
    sess = fresh()
    out = ob.osn_plain(sess, 0, np.array([1, 2, 3]),
                       [ob.PlainColumn([1, 2, 3])])[0]
    assert list(out.reconstruct()) == [1, 2, 3]


@pytest.mark.parametrize("pi", [[2, 3, 4], [1, 1, 2], [0, 1, 2]])
def test_osn_rejects_non_permutation_before_any_draw(pi):
    sess = fresh()
    col = ob.PlainColumn([10, 11, 12])
    with pytest.raises(NotAPermutation):
        ob.osn_plain(sess, 0, np.array(pi), [col])
    with pytest.raises(NotAPermutation):
        ob.osn_shared(sess, 1, np.array(pi), [sh.share_vec(fresh(), 0, col.values)])
    assert sess.transcript.wire_bits_sent == [0, 0]
    assert sess.transcript.hybrid_bits == 0
    # a valid run afterwards draws and sends what it would on a fresh session
    other = fresh()
    runs = [ob.osn_plain(s, 0, np.array([3, 1, 2]), [col])[0] for s in (sess, other)]
    assert [h.tolist() for h in runs[0].shares] == [h.tolist() for h in runs[1].shares]
    assert sess.transcript.digest() == other.transcript.digest()


def test_osn_pads_are_sized_to_the_columns():
    # one OT per switch carries two translations per column, each at the
    # column's width, and only the receiver's pads q_c are delivered
    pi = np.array([3, 1, 2, 5, 4])
    vals = np.array([1, 0, 1, 1, 0], dtype=np.uint64)
    cols = [ob.PlainColumn(vals, sh.BINARY, 1),
            ob.PlainColumn(vals * np.uint64(100), sh.ARITH, 7),
            ob.PlainColumn(vals - np.uint64(3))]
    for receiver in (0, 1):
        sess = fresh()
        got = ob.osn_plain(sess, receiver, pi, cols)
        for g, c in zip(got, cols):
            assert np.array_equal(g.reconstruct(), c.values[pi - 1])
        switches = build_program(ob._extend_perm(pi, 8) - 1).num_switches
        assert sess.transcript.hybrid_by_kind == {
            dl.SEEDS: 2 * 128, dl.OT_PADS: 2 * (1 + 7 + 64) * switches}


def test_osn_plain_exhaustive_all_perms():
    rng = np.random.default_rng(1)
    for n in range(1, 6):
        for p in itertools.permutations(range(1, n + 1)):
            sess = fresh(int(rng.integers(1 << 30)))
            pi = np.array(p)
            x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
            out = ob.osn_plain(sess, int(rng.integers(2)), pi,
                               [ob.PlainColumn(x)])[0]
            assert np.array_equal(out.reconstruct(), x[pi - 1])
            assert out.reconstruct().tolist() == \
                oracle.oracle_primitive("osn", pi, x.tolist())


def test_osn_shared_random_and_composition():
    sess = fresh()
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        pi = rng.permutation(n).astype(np.int64) + 1
        sg = rng.permutation(n).astype(np.int64) + 1
        x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
        sv = sh.share_vec(sess, 0, x)
        mid = ob.osn_shared(sess, 1, pi, [sv])[0]
        assert np.array_equal(mid.reconstruct(), x[pi - 1])
        out = ob.osn_shared(sess, 0, sg, [mid])[0]
        assert np.array_equal(out.reconstruct(), x[pi[sg - 1] - 1])


def test_osn_size_mismatch():
    sess = fresh()
    with pytest.raises(SizeMismatch):
        ob.osn_plain(sess, 0, np.array([1, 2]), [ob.PlainColumn([1, 2, 3])])


def test_shuffle_singleton_multiset_and_pairing():
    sess = fresh()
    one = sh.share_vec(sess, 0, [99])
    assert ob.shuffle(sess, [one])[0].reconstruct()[0] == 99
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(1, 12))
        x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
        tags = np.arange(n, dtype=np.uint64)
        ox, ot = ob.shuffle(sess, [sh.share_vec(sess, 0, x),
                                   sh.share_vec(sess, 1, tags)])
        rx, rt = ox.reconstruct(), ot.reconstruct()
        assert sorted(rx.tolist()) == sorted(x.tolist())
        assert all(rx[i] == x[rt[i]] for i in range(n))


def test_shuffle_covers_all_permutations_n3():
    seen = set()
    tags = np.arange(3, dtype=np.uint64)
    for seed in range(600):
        sess = Session(seed, 1000 + seed, 2000 + seed)
        out = ob.shuffle(sess, [sh.share_vec(sess, 0, tags)])[0]
        seen.add(tuple(out.reconstruct().tolist()))
    assert len(seen) == 6


def test_perm_invp_shared_exhaustive():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for p in itertools.permutations(range(1, n + 1)):
            sess = fresh(int(rng.integers(1 << 30)))
            pi = np.array(p)
            x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
            piv = sh.share_vec(sess, 0, pi)
            xv = sh.share_vec(sess, 1, x)
            got = ob.perm_shared(sess, piv, [xv])[0].reconstruct()
            assert np.array_equal(got, x[pi - 1])
            got = ob.invp_shared(sess, piv, [xv])[0].reconstruct()
            assert got.tolist() == oracle.oracle_primitive("invp", pi, x.tolist())


def test_perm_then_invp_is_identity():
    sess = fresh()
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        pi = rng.permutation(n).astype(np.int64) + 1
        x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
        piv = sh.share_vec(sess, 0, pi)
        xv = sh.share_vec(sess, 1, x)
        mid = ob.perm_shared(sess, piv, [xv])
        back = ob.invp_shared(sess, piv, mid)[0]
        assert np.array_equal(back.reconstruct(), x)


def test_perm_shared_identity_permutation():
    sess = fresh()
    x = np.arange(10, dtype=np.uint64) * 7
    piv = sh.share_vec(sess, 0, np.arange(1, 11))
    xv = sh.share_vec(sess, 1, x)
    assert np.array_equal(ob.perm_shared(sess, piv, [xv])[0].reconstruct(), x)


@pytest.mark.parametrize("pi", [[1, 1, 3], [1, 2, 9], [0, 1, 2],
                                [(1 << 64) - 1, 1, 2]])
def test_every_opened_permutation_is_checked(pi):
    # unchecked, a repeated entry gives a wrong table (perm_shared: [10, 10,
    # 30]) and an entry outside [1..n] a bare IndexError
    x = np.array([10, 20, 30], dtype=np.uint64)
    runs = (lambda s, piv: ob.perm_shared(s, piv, [sh.share_vec(s, 1, x)]),
            lambda s, piv: ob.invp_shared(s, piv, [sh.share_vec(s, 1, x)]),
            lambda s, piv: ob.perm_plain(s, piv, 1, [ob.PlainColumn(x)]),
            lambda s, piv: ob.invp_plain(s, piv, 1, [ob.PlainColumn(x)]))
    for run in runs:
        sess = fresh()
        with pytest.raises(NotAPermutation):
            run(sess, sh.share_vec(sess, 0, pi))


def test_perm_invp_plain_exhaustive():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for p in itertools.permutations(range(1, n + 1)):
            sess = fresh(int(rng.integers(1 << 30)))
            pi = np.array(p)
            x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
            piv = sh.share_vec(sess, 0, pi)
            got = ob.perm_plain(sess, piv, 1, [ob.PlainColumn(x)])[0]
            assert np.array_equal(got.reconstruct(), x[pi - 1])
            got = ob.invp_plain(sess, piv, 1, [ob.PlainColumn(x)])[0]
            assert np.array_equal(got.reconstruct(),
                                  x[ob.invert_perm(pi) - 1])


def test_perm_plain_costs_about_half_of_perm_shared():
    n = 64
    rng = np.random.default_rng(8)
    pi = rng.permutation(n).astype(np.int64) + 1
    x = rng.integers(0, 1 << 64, n, dtype=np.uint64)

    sess = fresh(1)
    piv = sh.share_vec(sess, 0, pi)
    base = sess.transcript.wire_bits
    ob.perm_plain(sess, piv, 1, [ob.PlainColumn(x)])
    plain_bits = sess.transcript.wire_bits - base

    sess = fresh(1)
    piv = sh.share_vec(sess, 0, pi)
    xv = sh.share_vec(sess, 1, x)
    base = sess.transcript.wire_bits
    ob.perm_shared(sess, piv, [xv])
    shared_bits = sess.transcript.wire_bits - base
    assert 0.35 <= plain_bits / shared_bits <= 0.65


def test_per_gen_paper_example_and_zeros():
    sess = fresh()
    v = sh.share_vec(sess, 0, [1, 0, 1, 0], sh.BINARY, 1)
    assert list(ob.per_gen(sess, v).reconstruct()) == [3, 1, 4, 2]
    z = sh.share_vec(sess, 0, [0, 0, 0], sh.BINARY, 1)
    assert list(ob.per_gen(sess, z).reconstruct()) == [1, 2, 3]


def test_per_gen_stably_sorts_via_invp():
    sess = fresh()
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        v = rng.integers(0, 2, n, dtype=np.uint64)
        idx = np.arange(n, dtype=np.uint64)
        vv = sh.share_vec(sess, 0, v, sh.BINARY, 1)
        pg = ob.per_gen(sess, vv)
        sorted_pair = ob.invp_shared(sess, pg, [
            sh.share_vec(sess, 0, v), sh.share_vec(sess, 1, idx)])
        sv = sorted_pair[0].reconstruct()
        si = sorted_pair[1].reconstruct()
        expect = sorted(range(n), key=lambda i: (v[i], i))
        assert si.tolist() == expect
        assert sv.tolist() == sorted(v.tolist())


def test_bit_sort_paper_example_and_all_zero():
    sess = fresh()
    b = sh.share_vec(sess, 0, [1, 0, 1, 0], sh.BINARY, 1)
    assert list(ob.bit_sort(sess, [b]).reconstruct()) == [3, 1, 4, 2]
    z1 = sh.share_vec(sess, 0, [0, 0, 0], sh.BINARY, 1)
    z2 = sh.share_vec(sess, 1, [0, 0, 0], sh.BINARY, 1)
    assert list(ob.bit_sort(sess, [z1, z2]).reconstruct()) == [1, 2, 3]


def test_bit_sort_random_vs_bucket_oracle():
    sess = fresh()
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        chosen = rng.integers(0, d + 1, n)
        cols, plain = [], []
        for j in range(1, d + 1):
            bits = (chosen == j).astype(np.uint64)
            plain.append(bits.tolist())
            cols.append(sh.share_vec(sess, 0, bits, sh.BINARY, 1))
        got = ob.bit_sort(sess, cols, debug=True).reconstruct()
        assert got.tolist() == oracle.oracle_primitive("bit_sort", plain)
        assert sorted(got.tolist()) == list(range(1, n + 1))  # bijection


def test_bit_sort_rejects_two_set_bits_in_debug():
    sess = fresh()
    b1 = sh.share_vec(sess, 0, [1, 0], sh.BINARY, 1)
    b2 = sh.share_vec(sess, 1, [1, 0], sh.BINARY, 1)
    with pytest.raises(PreconditionViolated):
        ob.bit_sort(sess, [b1, b2], debug=True)


def test_stable_sort_identity_cases():
    sess = fresh()
    keys = sh.share_vec(sess, 0, [1, 2, 3, 4], sh.BINARY)
    pi, sk, _ = ob.stable_sort(sess, [keys])
    assert list(pi.reconstruct()) == [1, 2, 3, 4]
    same = sh.share_vec(sess, 0, [5, 5, 5], sh.BINARY)
    pi, _, _ = ob.stable_sort(sess, [same])
    assert list(pi.reconstruct()) == [1, 2, 3]  # stability


def test_stable_sort_random_vs_oracle():
    sess = fresh()
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 17))
        keys = rng.integers(0, 5, n, dtype=np.uint64)
        vals = rng.integers(0, 1 << 64, n, dtype=np.uint64)
        kv = sh.share_vec(sess, 0, keys, sh.BINARY)
        vv = sh.share_vec(sess, 1, vals)
        pi, sk, sc = ob.stable_sort(sess, [kv], [vv])
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(sk[0].reconstruct(), keys[order])
        assert np.array_equal(sc[0].reconstruct(), vals[order])
        # permutation-consistency: y_i = x_{pi(i)}
        assert np.array_equal(pi.reconstruct().astype(np.int64) - 1, order)


def test_trav_paper_example_and_single():
    sess = fresh()
    kv = sh.share_vec(sess, 0, [1, 1, 0, 0, 0, 1, 1], sh.BINARY)
    vv = sh.share_vec(sess, 1, [1] * 7, sh.ARITH)
    assert list(ob.trav(sess, [kv], vv, "sum").reconstruct()) == \
        [1, 2, 1, 2, 3, 1, 2]
    one = ob.trav(sess, [sh.share_vec(sess, 0, [9], sh.BINARY)],
                  sh.share_vec(sess, 1, [55], sh.ARITH), "sum")
    assert one.reconstruct()[0] == 55


def test_trav_random_all_aggs_vs_oracle():
    sess = fresh()
    rng = np.random.default_rng(12)
    for agg in ("sum", "xor", "max", "min"):
        for _ in range(25):
            n = int(rng.integers(1, 13))
            keys = rng.integers(0, 3, n, dtype=np.uint64)
            vals = rng.integers(0, 1 << 20, n, dtype=np.uint64)
            flavor = sh.ARITH if agg == "sum" else sh.BINARY
            got = ob.trav(sess, [sh.share_vec(sess, 0, keys, sh.BINARY)],
                          sh.share_vec(sess, 1, vals, flavor), agg)
            expect = oracle.oracle_primitive("trav", keys.tolist(),
                                             vals.tolist(), agg)
            assert [int(v) for v in got.reconstruct()] == expect


def test_osn_scaling_law_nlogn():
    from secjoin import bench
    b256 = bench.measure_osn(256)
    b1024 = bench.measure_osn(1024)
    ratio = b1024.wire_bits / b256.wire_bits
    assert 4 * (10 / 8) * 0.8 <= ratio <= 4 * (10 / 8) * 1.2


def _stable_order(keys):
    """numpy's stable argsort over most-significant-first key columns."""
    order = np.arange(len(keys[0]))
    for key in keys[::-1]:
        order = order[np.argsort(key[order], kind="stable")]
    return order


def _check_packed_sort(sess, rng, widths, n):
    keys = []
    for w in widths:  # few distinct values per field, so ties are common
        top = (1 << w) - 1
        mid = int(rng.integers(0, 1 << 64, dtype=np.uint64)) & top
        pool = np.array([0, top, mid], dtype=np.uint64)
        keys.append(pool[rng.integers(0, 3, n)])
    vals = rng.integers(0, 1 << 64, n, dtype=np.uint64)
    bits = rng.integers(0, 2, n, dtype=np.uint64)
    carries = [sh.share_vec(sess, 1, vals), sh.share_vec(sess, 0, vals, sh.BINARY),
               sh.share_vec(sess, 1, bits, sh.BINARY, 1),
               sh.share_vec(sess, 0, vals & np.uint64(127), sh.BINARY, 7)]
    key_svs = [sh.share_vec(sess, i % 2, k, sh.BINARY, w)
               for i, (k, w) in enumerate(zip(keys, widths))]
    pi, sk, sc = ob.stable_sort(sess, key_svs, carries)
    order = _stable_order(keys)
    assert np.array_equal(pi.reconstruct().astype(np.int64) - 1, order)
    for got, key, w in zip(sk, keys, widths):
        assert (got.flavor, got.width) == (sh.BINARY, w)
        assert np.array_equal(got.reconstruct(), key[order])
    for got, want in zip(sc, carries):
        assert (got.flavor, got.width) == (want.flavor, want.width)
        assert np.array_equal(got.reconstruct(), want.reconstruct()[order])


def test_stable_sort_packed_widths_vs_argsort():
    sess = fresh()
    rng = np.random.default_rng(17)
    # n = 13 pads to m = 16, so the row index takes 5 bits: 59 key bits
    # fill one limb exactly, 60 spill the index into a second limb
    exact = [1, 4, 12, 12, 12, 12, 4, 1, 1]
    for widths in (exact, exact + [1], [63, 1], [63, 1, 1], [1, 63], [64],
                   [64, 64], [4, 64, 12], [12, 63, 4, 1]):
        _check_packed_sort(sess, rng, widths, 13)
    for _ in range(12):
        widths = [int(w) for w in rng.choice([1, 4, 12, 63, 64],
                                             int(rng.integers(1, 4)))]
        _check_packed_sort(sess, rng, widths, int(rng.integers(1, 301)))
    for n in (1, 2, 3, 300):
        _check_packed_sort(sess, rng, [1, 4], n)


def test_pack_layout_fills_limbs_greedily():
    assert ob._pack_layout([1, 4, 12, 12, 12, 12, 4, 1, 1, 5]) == \
        ([64], [(0, 63), (0, 59), (0, 47), (0, 35), (0, 23), (0, 11),
                (0, 7), (0, 6), (0, 5), (0, 0)])
    assert ob._pack_layout([1, 4, 12, 12, 12, 12, 4, 1, 1, 1, 5]) == \
        ([60, 5], [(0, 59), (0, 55), (0, 43), (0, 31), (0, 19), (0, 7),
                   (0, 3), (0, 2), (0, 1), (0, 0), (1, 0)])
    assert ob._pack_layout([1, 64, 11]) == ([1, 64, 11],
                                            [(0, 0), (1, 0), (2, 0)])


FLAVOR = {"sum": sh.ARITH, "count": sh.ARITH, "xor": sh.BINARY,
          "max": sh.BINARY, "min": sh.BINARY}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(aggs=st.lists(st.sampled_from(sorted(FLAVOR)), max_size=5),
       n=st.integers(1, 19), with_validity=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_trav_flags_matches_one_scan_per_aggregate(
        aggs, n, with_validity, seed):
    # aggregates of mixed kinds, with repeats, scanned in one pass: each
    # must come out as its own scan would, and the validity too
    rng = np.random.default_rng(seed)
    flags = rng.integers(0, 2, n, dtype=np.uint64)
    flags[0] = 0  # row 0 starts a run, as every caller's flags say
    pool = np.array([0, 1, 7, (1 << 63) + 5, (1 << 64) - 1], dtype=np.uint64)
    values = [np.where(rng.integers(0, 2, n) == 1, pool[rng.integers(0, 5, n)],
                       rng.integers(0, 1 << 64, n, dtype=np.uint64))
              for _ in aggs]
    valid = rng.integers(0, 2, n, dtype=np.uint64)

    def scan(vals, fns):
        sess = fresh(seed % 1000)
        t = sh.share_vec(sess, 0, valid, sh.BINARY, 1) if with_validity else None
        return ob.trav_flags(sess, sh.share_vec(sess, 1, flags, sh.BINARY, 1),
                             [sh.share_vec(sess, 0, v, FLAVOR[fn])
                              for v, fn in zip(vals, fns)],
                             fns, validity=t)

    got, got_t = scan(values, aggs)
    assert len(got) == len(aggs)
    combine = {"sum": lambda a, b: (a + b) % (1 << 64), "xor": int.__xor__,
               "max": max, "min": min}
    combine["count"] = combine["sum"]
    for agg, v, out in zip(aggs, values, got):  # a plain running aggregate
        want, acc, t, ts = [], 0, 0, []
        for i in range(n):
            acc = combine[agg](acc, int(v[i])) if flags[i] else int(v[i])
            t = t | int(valid[i]) if flags[i] else int(valid[i])
            want.append(acc)
            ts.append(t)
        assert (out.flavor, out.width) == (FLAVOR[agg], 64)
        assert out.reconstruct().tolist() == want, agg
        if with_validity:
            assert got_t.reconstruct().tolist() == ts
    for agg, v, out in zip(aggs, values, got):
        [want], want_t = scan([v], [agg])
        assert np.array_equal(out.reconstruct(), want.reconstruct()), agg
        if with_validity:
            assert np.array_equal(got_t.reconstruct(), want_t.reconstruct())
        else:
            assert got_t is None and want_t is None
