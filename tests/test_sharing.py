"""Ring sharing and basic secure gates."""
import numpy as np
import pytest

from secjoin import dealer as dl
from secjoin import oblivious as ob
from secjoin import setops
from secjoin import sharing as sh
from secjoin.errors import FlavorMismatch, WidthMismatch
from secjoin.ring import width_mask
from secjoin.session import Session

MOD = 1 << 64


def fresh(seed=7):
    return Session(seed, seed + 1, seed + 2)


def test_share_zero_halves_cancel():
    sess = fresh()
    s0, s1 = sh.share_vec(sess, 0, [0]).shares
    assert (int(s0[0]) + int(s1[0])) % MOD == 0
    assert s0[0] != 0  # dealer mask is the party-0 half


def test_share_round_trip():
    sess = fresh()
    assert sh.share_vec(sess, 0, [42]).reconstruct().tolist() == [42]


def test_share_random_property_loop():
    sess = fresh()
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 1 << 64, 1000, dtype=np.uint64)
    vec = sh.share_vec(sess, 0, xs)
    assert np.array_equal(vec.reconstruct(), xs)
    vec_b = sh.share_vec(sess, 1, xs, sh.BINARY)
    assert np.array_equal(vec_b.reconstruct(), xs)


def _halves(flavor, s0, s1):
    return sh.SharedVector(flavor, 64, np.array(s0, dtype=np.uint64),
                           np.array(s1, dtype=np.uint64))


def test_reconstruct_small_addition():
    assert _halves(sh.ARITH, [5], [7]).reconstruct().tolist() == [12]


def test_reconstruct_binary_self_cancels():
    b = 0xDEAD
    assert _halves(sh.BINARY, [b], [b]).reconstruct().tolist() == [0]


def test_reconstruct_flavor_mismatch():
    with pytest.raises(FlavorMismatch):
        sh.add(_halves(sh.ARITH, [1], [0]), _halves(sh.BINARY, [1], [0]))


def test_reconstruct_vs_modular_add_oracle():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 64, 50, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, 50, dtype=np.uint64)
    got = _halves(sh.ARITH, a, b).reconstruct().tolist()
    assert got == [(int(x) + int(y)) % MOD for x, y in zip(a, b)]


def test_mul_small_and_absorbing():
    sess = fresh()
    x = sh.share_vec(sess, 0, [3, 77])
    y = sh.share_vec(sess, 1, [4, 0])
    z = sh.mul(sess, x, y)
    assert list(z.reconstruct()) == [12, 0]


def test_mul_random_vs_oracle():
    sess = fresh()
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 1 << 64, 1000, dtype=np.uint64)
    ys = rng.integers(0, 1 << 64, 1000, dtype=np.uint64)
    z = sh.mul(sess, sh.share_vec(sess, 0, xs), sh.share_vec(sess, 1, ys))
    assert np.array_equal(z.reconstruct(), xs * ys)


def test_mul_consumes_one_round_add_zero():
    sess = fresh()
    x = sh.share_vec(sess, 0, [3])
    y = sh.share_vec(sess, 1, [4])
    before = sess.transcript.wire_rounds
    sh.mul(sess, x, y)
    assert sess.transcript.wire_rounds == before + 1
    rounds = sess.transcript.wire_rounds
    sh.add(x, y)  # local
    assert sess.transcript.wire_rounds == rounds


def test_mux_trivials_and_random():
    sess = fresh()
    f = sh.share_vec(sess, 0, [1, 0], sh.BINARY, 1)
    x = sh.share_vec(sess, 0, [9, 9])
    y = sh.share_vec(sess, 1, [4, 4])
    assert list(sh.mux(sess, f, x, y).reconstruct()) == [9, 4]
    rng = np.random.default_rng(8)
    for flavor in (sh.ARITH, sh.BINARY):
        fs = rng.integers(0, 2, 200, dtype=np.uint64)
        xs = rng.integers(0, 1 << 64, 200, dtype=np.uint64)
        ys = rng.integers(0, 1 << 64, 200, dtype=np.uint64)
        got = sh.mux(sess, sh.share_vec(sess, 0, fs, sh.BINARY, 1),
                     sh.share_vec(sess, 0, xs, flavor),
                     sh.share_vec(sess, 1, ys, flavor)).reconstruct()
        assert np.array_equal(got, np.where(fs == 1, xs, ys))


def test_mux_width_mismatch():
    sess = fresh()
    f = sh.share_vec(sess, 0, [1], sh.BINARY, 64)
    x = sh.share_vec(sess, 0, [9])
    y = sh.share_vec(sess, 1, [4])
    with pytest.raises(WidthMismatch):
        sh.mux(sess, f, x, y)


def test_eq_trivials_and_exhaustive_4bit():
    sess = fresh()
    a = sh.share_vec(sess, 0, [7, 7], sh.BINARY)
    b = sh.share_vec(sess, 1, [7, 8], sh.BINARY)
    assert list(sh.eq(sess, a, b).reconstruct()) == [1, 0]
    xs, ys = np.meshgrid(np.arange(16, dtype=np.uint64),
                         np.arange(16, dtype=np.uint64))
    xs, ys = xs.ravel(), ys.ravel()
    got = sh.eq(sess, sh.share_vec(sess, 0, xs, sh.BINARY, 4),
                sh.share_vec(sess, 1, ys, sh.BINARY, 4)).reconstruct()
    assert np.array_equal(got, (xs == ys).astype(np.uint64))


def test_gt_exhaustive_4bit_and_random_64bit():
    sess = fresh()
    xs, ys = np.meshgrid(np.arange(16, dtype=np.uint64),
                         np.arange(16, dtype=np.uint64))
    xs, ys = xs.ravel(), ys.ravel()
    got = sh.gt(sess, sh.share_vec(sess, 0, xs, sh.BINARY, 4),
                sh.share_vec(sess, 1, ys, sh.BINARY, 4)).reconstruct()
    assert np.array_equal(got, (xs > ys).astype(np.uint64))
    rng = np.random.default_rng(11)
    xs = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    ys = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    got = sh.gt(sess, sh.share_vec(sess, 0, xs, sh.BINARY),
                sh.share_vec(sess, 1, ys, sh.BINARY)).reconstruct()
    assert np.array_equal(got, (xs > ys).astype(np.uint64))


def test_asym_mul_trivials_and_sweep():
    sess = fresh()
    got = sh.asym_mul(sess, 0, np.array([0, 1]), np.array([99, 99]))
    assert list(got.reconstruct()) == [0, 99]
    rng = np.random.default_rng(13)
    for holder in (0, 1):
        fs = rng.integers(0, 2, 300, dtype=np.uint64)
        xs = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
        got = sh.asym_mul(sess, holder, fs, xs).reconstruct()
        assert np.array_equal(got, fs * xs)
        gotb = sh.asym_mul(sess, holder, fs, xs, sh.BINARY, 64).reconstruct()
        assert np.array_equal(gotb, np.where(fs == 1, xs, 0))


def test_asym_mul_narrow_ledgers_its_width():
    # one flip bit and two 1-bit messages per element; pads at the width
    n = 40
    sess = fresh()
    rng = np.random.default_rng(14)
    fs = rng.integers(0, 2, n, dtype=np.uint64)
    xs = rng.integers(0, 2, n, dtype=np.uint64)
    got = sh.asym_mul(sess, 0, fs, xs, sh.BINARY, 1)
    assert np.array_equal(got.reconstruct(), fs & xs)
    t = sess.transcript
    assert t.wire_bits == 3 * n
    assert t.hybrid_by_kind[dl.OT_PADS] == n


def test_convert_round_trips():
    sess = fresh()
    one = sh.share_vec(sess, 0, [1], sh.BINARY, 1)
    assert sh.convert(sess, one, sh.ARITH).reconstruct()[0] == 1
    rng = np.random.default_rng(17)
    xs = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    a = sh.share_vec(sess, 0, xs)
    b = sh.convert(sess, a, sh.BINARY)
    assert np.array_equal(b.reconstruct(), xs)
    back = sh.convert(sess, b, sh.ARITH)
    assert np.array_equal(back.reconstruct(), xs)


def test_gate_outputs_rerandomized_across_dealer_seeds():
    # one party's share of a gate output must not be a fixed function of
    # the secret: over 10^3 re-seeded runs it takes many values
    seen = set()
    for seed in range(1000):
        sess = Session(seed, seed + 1, seed + 2)
        x = sh.share_vec(sess, 0, [123])
        y = sh.share_vec(sess, 1, [456])
        z = sh.mul(sess, x, y)
        seen.add(int(z.shares[0][0]))
    assert len(seen) >= 2
    assert len(seen) > 900  # far from any fixed value


def test_gates_exhaustive_width_4():
    sess = fresh()
    xs, ys = np.meshgrid(np.arange(16, dtype=np.uint64),
                         np.arange(16, dtype=np.uint64))
    xs, ys = xs.ravel(), ys.ravel()
    xb = sh.share_vec(sess, 0, xs, sh.BINARY, 4)
    yb = sh.share_vec(sess, 1, ys, sh.BINARY, 4)
    assert np.array_equal(sh.mul(sess, xb, yb).reconstruct(), xs & ys)
    fs = (xs ^ ys) & np.uint64(1)
    f = sh.share_vec(sess, 0, fs, sh.BINARY, 1)
    got = sh.mux(sess, f, xb, yb).reconstruct()
    assert np.array_equal(got, np.where(fs == 1, xs, ys))
    got = sh.asym_mul(sess, 0, fs, xs, sh.BINARY, 4).reconstruct()
    assert np.array_equal(got, np.where(fs == 1, xs, 0))
    back = sh.b2a_wide(sess, xb).reconstruct()
    assert np.array_equal(back, xs)


def test_dealer_triples_reconstruct_to_products():
    sess = fresh()
    (a0, a1), (b0, b1), (c0, c1) = sess.dealer.triples_arith(100)
    assert np.array_equal((a0 + a1) * (b0 + b1), c0 + c1)
    (a0, a1), (b0, b1), (c0, c1) = sess.dealer.triples_bin(100, 16)
    assert np.array_equal((a0 ^ a1) & (b0 ^ b1), c0 ^ c1)


def test_eq_width_mismatch():
    sess = fresh()
    a = sh.share_vec(sess, 0, [1], sh.BINARY, 4)
    b = sh.share_vec(sess, 1, [1], sh.BINARY, 8)
    with pytest.raises(WidthMismatch):
        sh.eq(sess, a, b)


def test_share_halves_not_constant():
    seen = set()
    for seed in range(50):
        sess = Session(1, 2, seed)
        seen.add(int(sh.share_vec(sess, 0, [999]).shares[0][0]))
    assert len(seen) >= 2


def test_gt_every_width_vs_numpy_and_rounds():
    # both ANDs of a prefix level share one exchange: 1 + ceil(log2 w) rounds
    rng = np.random.default_rng(21)
    for w in range(1, 65):
        sess = fresh(w)
        top = (1 << w) - 1
        xs = rng.integers(0, 1 << 63, 200, dtype=np.uint64) * np.uint64(2) \
            + rng.integers(0, 2, 200, dtype=np.uint64)
        xs &= np.uint64(top)
        ys = xs.copy()  # ties, then random values and the extremes
        ys[50:] = rng.integers(0, 1 << 63, 150, dtype=np.uint64) & np.uint64(top)
        xs[:4], ys[:4] = [0, top, 0, top], [top, 0, 0, top]
        x = sh.share_vec(sess, 0, xs, sh.BINARY, w)
        y = sh.share_vec(sess, 1, ys, sh.BINARY, w)
        before = sess.transcript.wire_rounds
        got = sh.gt(sess, x, y)
        assert sess.transcript.wire_rounds - before == 1 + (w - 1).bit_length()
        assert (got.flavor, got.width) == (sh.BINARY, 1)
        assert np.array_equal(got.reconstruct(), (xs > ys).astype(np.uint64)), w


def test_gt_at_24_bits_takes_six_rounds():
    sess = fresh()
    x = sh.share_vec(sess, 0, [5, 1 << 23], sh.BINARY, 24)
    y = sh.share_vec(sess, 1, [6, 3], sh.BINARY, 24)
    before = sess.transcript.wire_rounds
    assert sh.gt(sess, x, y).reconstruct().tolist() == [0, 1]
    assert sess.transcript.wire_rounds - before == 6


def test_eq_and_gt_eq_every_width_vs_numpy():
    # the propagate prefix's top bit must AND exactly w bits, so the
    # shifted bits read ones below bit 0 at widths that are not powers of 2
    rng = np.random.default_rng(23)
    for w in range(1, 65):
        sess = fresh(w)
        top = np.uint64((1 << w) - 1)
        xs = rng.integers(0, 1 << 64, 40, dtype=np.uint64) & top
        ys = np.concatenate([xs ^ np.uint64(1), xs ^ np.uint64(1 << (w - 1)), xs,
                             rng.integers(0, 1 << 64, 40, dtype=np.uint64) & top])
        xs = np.tile(xs, 4)
        x = sh.share_vec(sess, 0, xs, sh.BINARY, w)
        y = sh.share_vec(sess, 1, ys, sh.BINARY, w)
        want_gt = (xs > ys).astype(np.uint64)
        want_eq = (xs == ys).astype(np.uint64)
        rounds, bits = sess.transcript.wire_rounds, sess.transcript.wire_bits
        assert np.array_equal(sh.eq(sess, x, y).reconstruct(), want_eq), w
        # one w-bit AND exchange per level
        levels = (w - 1).bit_length()
        assert sess.transcript.wire_rounds - rounds == levels
        assert sess.transcript.wire_bits - bits == levels * 4 * w * len(xs)
        assert np.array_equal(sh.gt(sess, x, y).reconstruct(), want_gt), w


def test_a2b_edge_values_in_seven_rounds():
    # one exchange opens x - r, then each of the 6 carry levels is one
    xs = np.array([0, 1, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    for seed in range(20):
        sess = fresh(seed)
        x = sh.share_vec(sess, 0, xs)
        before = sess.transcript.wire_rounds
        bits = sess.transcript.wire_bits
        got = sh.a2b(sess, x)
        assert sess.transcript.wire_rounds - before == 7
        # the open, then 11 64-bit ANDs: the last level skips propagate
        assert sess.transcript.wire_bits - bits == (2 + 11 * 4) * 64 * len(xs)
        assert (got.flavor, got.width) == (sh.BINARY, 64)
        assert np.array_equal(got.reconstruct(), xs), seed


def test_gt_limbs_three_limbs_vs_lexicographic_order():
    # the bitonic sort's key limbs without dom0: e, g0 and the row index.
    # Blocks of 80 rows tie in both upper limbs, in the first only, in the
    # first and all but bit 0 of the second, in none, and in all three.
    rng = np.random.default_rng(29)
    widths = (1, 64, 10)
    a = [rng.integers(0, 1 << w, 400, dtype=np.uint64) for w in widths]
    b = [rng.integers(0, 1 << w, 400, dtype=np.uint64) for w in widths]
    for limb, rows in ((0, slice(0, 240)), (1, slice(0, 80)),
                       (0, slice(320, 400)), (1, slice(320, 400)),
                       (2, slice(320, 400))):
        b[limb][rows] = a[limb][rows]
    b[1][160:240] = a[1][160:240] ^ np.uint64(1)
    sess = fresh()
    xs = [sh.share_vec(sess, 0, v, sh.BINARY, w) for v, w in zip(a, widths)]
    ys = [sh.share_vec(sess, 1, v, sh.BINARY, w) for v, w in zip(b, widths)]
    before = sess.transcript.wire_rounds
    got = sh.compare(sess, xs, ys, True)
    # one exchange for every limb's generate AND, the limbs' trees in
    # lockstep for ceil(log2 64) rounds, then ceil(log2 3) to fold
    assert sess.transcript.wire_rounds - before == 1 + 6 + 2
    want = [tuple(int(v[i]) for v in a) > tuple(int(v[i]) for v in b)
            for i in range(400)]
    assert got.reconstruct().tolist() == [int(t) for t in want]


def test_eq_limbs_three_limbs_in_lockstep():
    # limbs of 1, 64 and 10 bits that tie in all, some or none of them:
    # the limbs' trees in lockstep for ceil(log2 64) rounds, then
    # ceil(log2 3) rounds AND the three equality bits
    rng = np.random.default_rng(43)
    widths = (1, 64, 10)
    a = [rng.integers(0, 1 << w, 400, dtype=np.uint64) for w in widths]
    b = [v.copy() for v in a]
    for limb, rows in ((0, slice(0, 80)), (1, slice(80, 160)),
                       (2, slice(160, 240)), (1, slice(200, 280))):
        b[limb][rows] ^= np.uint64(1 << (widths[limb] - 1))
    sess = fresh()
    xs = [sh.share_vec(sess, 0, v, sh.BINARY, w) for v, w in zip(a, widths)]
    ys = [sh.share_vec(sess, 1, v, sh.BINARY, w) for v, w in zip(b, widths)]
    before = sess.transcript.wire_rounds
    got = sh.compare(sess, xs, ys, False)
    assert sess.transcript.wire_rounds - before == 6 + 2
    want = [all(int(x[i]) == int(y[i]) for x, y in zip(a, b))
            for i in range(400)]
    assert got.reconstruct().tolist() == [int(t) for t in want]
    assert want == [i >= 280 for i in range(400)]


def test_comparisons_send_no_share_bit_above_the_width():
    # a shifted operand keeps its width: its bits pushed past the top
    # would otherwise go out unmasked by the width-w triple
    sess = fresh()
    sent = []
    exchange = sess.exchange

    def record(d0, d1, b0, b1):
        sent.extend([d0, d1])
        return exchange(d0, d1, b0, b1)

    sess.exchange = record
    rng = np.random.default_rng(31)
    x, y = (sh.share_vec(sess, i, rng.integers(0, 1 << 10, 50, dtype=np.uint64),
                         sh.BINARY, 10) for i in (0, 1))
    sh.compare(sess, [x], [y], True)
    sh.compare(sess, [x], [y], False)
    sh.compare(sess, [x, y], [y, x], True)
    assert sent and all(int(d.max()) < 1 << 10 for d in sent)


def test_osn_sends_no_bit_above_the_column_width():
    # masks, translations and OT pads keep each column's width: a word
    # carries no bit that its frame's ledger entry does not count
    rng = np.random.default_rng(37)
    pi = rng.permutation(50) + 1
    for flavor in (sh.ARITH, sh.BINARY):
        for w in (1, 7, 64):
            sess = fresh(w)
            sent = []
            send = sess.send

            def record(src, data, bits):
                sent.append((data, bits))
                return send(src, data, bits)

            sess.send = record
            vals = rng.integers(0, 1 << 64, 50, dtype=np.uint64)
            got = ob.osn_plain(sess, 0, pi, [ob.PlainColumn(vals, flavor, w)])
            assert np.array_equal(got[0].reconstruct(),
                                  vals[pi - 1] & width_mask(w))
            x = sh.share_vec(sess, 0, vals, flavor, w)
            ob.osn_shared(sess, 1, pi, [x])
            assert sent
            for data, bits in sent:
                assert bits % data.size == 0
                assert int(data.max()) < 1 << (bits // data.size), (flavor, w)


WIDTHS = (1, 7, 64)


def test_correlations_reconstruct_at_widths_1_7_and_64():
    sess = fresh()
    d, n = sess.dealer, 300
    (a0, a1), (b0, b1), (c0, c1) = d.triples_arith(n)
    assert np.array_equal((a0 + a1) * (b0 + b1), c0 + c1)
    (rb0, rb1), (ra0, ra1) = d.dabits(n)
    assert int(max(rb0.max(), rb1.max())) <= 1
    assert np.array_equal(ra0 + ra1, rb0 ^ rb1)
    for w in WIDTHS:
        top = int(width_mask(w))
        (a0, a1), (b0, b1), (c0, c1) = d.triples_bin(n, w)
        assert all(int(h.max()) <= top for h in (a0, a1, b0, b1, c0, c1))
        assert np.array_equal((a0 ^ a1) & (b0 ^ b1), c0 ^ c1)
        (rb0, rb1), (ra0, ra1) = d.dabits_packed(n, w)
        assert ra0.shape == (w, n) and int(max(rb0.max(), rb1.max())) <= top
        j = np.arange(w, dtype=np.uint64)[:, None]
        assert np.array_equal(ra0 + ra1, ((rb0 ^ rb1) >> j) & np.uint64(1))
        (ra0, ra1), (rb0, rb1) = d.edabits(n, w)
        assert np.array_equal(rb0 ^ rb1, (ra0 + ra1) & np.uint64(top))
        for receiver in (0, 1):
            (c, qc), (q0, q1) = d.random_ots(n, 2, receiver=receiver,
                                             widths=[w, 7])
            assert np.array_equal(qc, np.where((c == 1)[:, None], q1, q0))
            for word, ww in enumerate((w, 7)):
                assert int(max(q0[:, word].max(), q1[:, word].max())) \
                    < 1 << ww


def test_each_call_delivers_only_its_correction():
    sess = fresh()
    d, t, n = sess.dealer, sess.transcript, 30
    assert t.hybrid_bits == 0 and t.hybrid_by_kind == {}

    def delivered(call):
        before = dict(t.hybrid_by_kind)
        call()
        return {k: v - before.get(k, 0) for k, v in t.hybrid_by_kind.items()
                if v != before.get(k, 0)}

    # the two seeds go out once, with the session's first correlation
    assert delivered(lambda: d.triples_arith(n)) == \
        {dl.SEEDS: 2 * 128, dl.TRIPLES: 64 * n}
    assert delivered(lambda: d.dabits(n)) == {dl.DABITS: 64 * n}
    assert delivered(lambda: d.random_ots(n, receiver=0)) == \
        {dl.OT_PADS: 64 * n}
    assert delivered(lambda: d.random_ots(n, 3, receiver=1,
                                          widths=[1, 7, 64])) == \
        {dl.OT_PADS: 72 * n}
    for w in WIDTHS:
        assert delivered(lambda: d.triples_bin(n, w)) == \
            {dl.BIT_TRIPLES: w * n}
        assert delivered(lambda: d.dabits_packed(n, w)) == \
            {dl.DABITS: 64 * w * n}
        assert delivered(lambda: d.edabits(n, w)) == {dl.EDABITS: w * n}
        vals = np.arange(n, dtype=np.uint64)
        assert delivered(lambda: sh.share_vec(sess, 0, vals, sh.BINARY, w)) \
            == {}
        assert delivered(lambda: sh.share_vec(sess, 1, vals, sh.BINARY, w)) \
            == {dl.SHARE_MASKS: w * n}
    keys = np.arange(1, n + 1)
    assert delivered(lambda: setops.f_cpsi(sess, 0, keys, keys + 5)) == \
        {dl.OUTPUTS: n}
    assert delivered(lambda: setops.f_cpsi(sess, 1, keys, keys + 5,
                                           keys * 3)) == \
        {dl.OUTPUTS: n + 64 * n}
    assert t.hybrid_bits == sum(t.hybrid_by_kind.values())
    assert t.hybrid_by_kind[dl.SEEDS] == 2 * 128


def test_each_partys_halves_do_not_depend_on_the_other_stream():
    # with seedD fixed, the halves party p expands from its own seed come out
    # the same whatever the other party's stream drew before or in between
    for p in (0, 1):
        runs = []
        for extra in (0, 5, 1000):
            d = Session(1, 2 + extra, 3).dealer
            other = d.streams[1 - p]
            other.u64(extra)
            a, b, c = d.triples_arith(20)
            other.u64(extra)
            x, y, z = d.triples_bin(20, 7)
            rb, ra = d.dabits(20)
            ea, eb = d.edabits(20)
            (choice, _), _ = d.random_ots(20, receiver=p)
            _, pads = d.random_ots(20, 2, receiver=1 - p)
            own = [a[p], b[p], x[p], y[p], rb[p], ea[p], choice, *pads]
            if p == 0:  # Dealer.split draws party 0's half
                own += [c[0], z[0], ra[0], eb[0]]
            runs.append([h.tolist() for h in own])
        assert runs[0] == runs[1] == runs[2], p


def test_party_streams_repeat_neither_each_other_nor_the_dealer():
    # PCG64([s, 0]) is PCG64(s): a party stream seeded that way would hand
    # party 0 the dealer's own private-ID randomness
    d = Session(1, 2, 3).dealer
    draws = [pool.u64(8).tolist() for pool in (d.pool, *d.streams)]
    assert len({tuple(v) for v in draws}) == 3


def test_beaver_groups_match_separate_calls_in_one_round():
    # groups of both flavors and of widths 1, 11 and 64, with one and with
    # several ys, and an empty group: one exchange whose ledgered bits are
    # the sum of what the separate calls ledger, and the same products
    rng = np.random.default_rng(41)
    n = 37

    def operands(sess):
        groups = []
        for flavor, w, k in ((sh.BINARY, 1, 2), (sh.BINARY, 11, 1),
                             (sh.BINARY, 64, 3), (sh.ARITH, 64, 2),
                             (sh.BINARY, 5, 0)):
            top = (1 << 64) - 1 if w == 64 else (1 << w) - 1
            vals = [rng.integers(0, 1 << 64, n, dtype=np.uint64) & np.uint64(top)
                    for _ in range(k + 1)]
            svs = [sh.share_vec(sess, i % 2, v, flavor, w)
                   for i, v in enumerate(vals)]
            groups.append((svs[0], svs[1:]))
        return groups

    sep = fresh(3)
    want, want_bits, want_rounds, want_hybrid = [], 0, 0, 0
    for x, ys in operands(sep):
        t = sep.transcript
        bits, rounds, hybrid = t.wire_bits, t.wire_rounds, t.hybrid_bits
        want.append([p.reconstruct() for p in sh._beaver(sep, [(x, ys)])[0]])
        want_bits += t.wire_bits - bits
        want_rounds += t.wire_rounds - rounds
        want_hybrid += t.hybrid_bits - hybrid
        for y in ys:  # each product against plain arithmetic too
            if x.flavor == sh.ARITH:
                expect = x.reconstruct() * y.reconstruct()
            else:
                expect = x.reconstruct() & y.reconstruct()
            assert np.array_equal(want[-1][ys.index(y)], expect)
    assert want_rounds == 4  # the empty group sends nothing

    rng = np.random.default_rng(41)
    one = fresh(3)
    groups = operands(one)
    bits, rounds = one.transcript.wire_bits, one.transcript.wire_rounds
    hybrid = one.transcript.hybrid_bits
    got = sh._beaver(one, groups)
    assert one.transcript.wire_rounds - rounds == 1
    assert one.transcript.wire_bits - bits == want_bits
    assert want_bits == sum(2 * 2 * (x.width if x.flavor == sh.BINARY else 64)
                            * len(ys) * n for x, ys in groups)
    assert one.transcript.hybrid_bits - hybrid == want_hybrid == sum(
        (x.width if x.flavor == sh.BINARY else 64) * len(ys) * n
        for x, ys in groups)
    for (x, ys), outs, expect in zip(groups, got, want):
        assert len(outs) == len(ys)
        for out, e in zip(outs, expect):
            assert (out.flavor, out.width) == \
                (x.flavor, x.width if x.flavor == sh.BINARY else 64)
            assert np.array_equal(out.reconstruct(), e)
