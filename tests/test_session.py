"""Channel, transcript ledger, randomness, determinism and leakage shape."""
import re
from pathlib import Path

import numpy as np
import pytest

from secjoin import sharing as sh
from secjoin import views as vw
from secjoin.session import RandPool, Session
from secjoin.views import Relation


def _mul_program(sess):
    # inputs are pre-shared: the program is exactly one multiplication gate
    x = sh.SharedVector(sh.ARITH, 64, np.array([1], dtype=np.uint64),
                        np.array([2], dtype=np.uint64))
    y = sh.SharedVector(sh.ARITH, 64, np.array([3], dtype=np.uint64),
                        np.array([1], dtype=np.uint64))
    return sh.mul(sess, x, y)


def test_mul_program_single_round():
    sess = Session(1, 2, 3)
    out = _mul_program(sess)
    assert out.reconstruct()[0] == 12
    assert sess.transcript.wire_rounds == 1


def test_zero_message_program_zero_bits():
    sess = Session(1, 2, 3)

    def local_only(s):
        a = sh.SharedVector.public([1, 2, 3])
        return sh.add(a, a)

    local_only(sess)
    t = sess.transcript
    assert t.wire_bits == 0 and t.wire_rounds == 0


def _demo_relations(payloads=(1, 2, 3, 4), keys=(10, 20, 30, 40),
                    keys1=(30, 10, 60)):
    r0 = Relation("A", {"k": list(keys), "v": list(payloads)}, "k")
    r1 = Relation("B", {"k": list(keys1), "w": [7, 8, 9]}, "k")
    return r0, r1


def test_secv_determinism_replay():
    r0, r1 = _demo_relations()
    digests = []
    for _ in range(2):
        sess = Session(41, 42, 43)
        vw.gen_secv(sess, r0, r1)
        digests.append((sess.transcript.digest(),
                        sess.transcript.wire_bits,
                        sess.transcript.wire_rounds,
                        tuple(sess.transcript.phase_shapes())))
    assert digests[0] == digests[1]


def test_secv_different_seed_different_transcript():
    r0, r1 = _demo_relations()
    s1 = Session(41, 42, 43)
    vw.gen_secv(s1, r0, r1)
    s2 = Session(41, 42, 99)
    vw.gen_secv(s2, r0, r1)
    assert s1.transcript.digest() != s2.transcript.digest()


def test_phases_partition_total_bits():
    sess = Session(5, 6, 7)
    with sess.phase("a"):
        sh.share_vec(sess, 0, [1, 2, 3])
    with sess.phase("b"):
        x = sh.share_vec(sess, 0, [5])
        y = sh.share_vec(sess, 1, [6])
        sh.mul(sess, x, y)
    t = sess.transcript
    assert sum(sum(p.wire_bits) for p in t.phases) == t.wire_bits


def test_empty_phase_contributes_zero():
    sess = Session(5, 6, 7)
    with sess.phase("idle"):
        pass
    rec = sess.transcript.phases[-1]
    assert rec.wire_bits == (0, 0) and rec.wire_rounds == 0
    assert rec.hybrid_bits == 0


def test_nested_phase_paths():
    sess = Session(5, 6, 7)
    with sess.phase("outer"):
        with sess.phase("inner"):
            sh.share_vec(sess, 0, [1])
    labels = [p.label for p in sess.transcript.phases]
    assert "outer.inner" in labels and "outer" in labels
    inner = next(p for p in sess.transcript.phases if p.label == "outer.inner")
    outer = next(p for p in sess.transcript.phases if p.label == "outer")
    assert inner.wire_bits == outer.wire_bits  # all traffic inside the child


def test_secv_phase_labels():
    r0, r1 = _demo_relations()
    sess = Session(11, 12, 13)
    vw.gen_secv(sess, r0, r1)
    assert set(sess.transcript.phase_labels()) == {
        "cpsi-1", "osn", "cpsi-2", "shuffle", "sorting", "mux"}


def test_leakage_shape_same_sizes_different_contents():
    # level-2 pre-check: equal (n_x, n_y), different data => identical
    # per-phase (bits, rounds) sequences
    shapes = []
    for keys0, keys1 in (((10, 20, 30, 40), (30, 10, 60)),
                         ((1, 2, 3, 4), (5, 6, 7))):
        r0 = Relation("A", {"k": list(keys0), "v": [9, 9, 9, 9]}, "k")
        r1 = Relation("B", {"k": list(keys1), "w": [1, 2, 3]}, "k")
        sess = Session(21, 22, 23)
        vw.gen_secv(sess, r0, r1)
        shapes.append([(p.label, p.wire_bits, p.wire_rounds)
                       for p in sess.transcript.phases])
    assert shapes[0] == shapes[1]


def test_sent_array_is_frozen_for_its_sender():
    sess = Session(1, 2, 3)
    buf = np.arange(4, dtype=np.uint64)
    got = sess.send(0, buf, 256)
    with pytest.raises(ValueError):
        buf ^= np.uint64(1)
    assert got.tolist() == [0, 1, 2, 3]


def test_exchanged_arrays_are_frozen_for_their_senders():
    sess = Session(1, 2, 3)
    m0, m1 = np.zeros(3, dtype=np.uint64), np.ones(3, dtype=np.uint64)
    at0, at1 = sess.exchange(m0, m1, 192, 192)
    for sent in (m0, m1):
        with pytest.raises(ValueError):
            sent += np.uint64(5)
    assert at0.tolist() == [1, 1, 1] and at1.tolist() == [0, 0, 0]


def test_pool_is_one_stream_whatever_the_draw_sizes():
    pool = RandPool(2024)
    chunks = [pool.u64(5), pool.u64(70000), pool.u64(3)]
    perm = pool.perm(1000)
    whole = np.random.Generator(np.random.PCG64(2024)).integers(
        0, 1 << 64, 71008, dtype=np.uint64)
    # the full-range integers are the generator's raw outputs
    assert np.array_equal(whole, np.random.PCG64(2024).random_raw(71008))
    assert np.array_equal(np.concatenate(chunks), whole[:70008])
    assert np.array_equal(perm, np.argsort(whole[70008:], kind="stable"))


def test_dealer_party_streams_are_the_spawned_children_raw_outputs():
    sess = Session(1, 2, 77)
    children = np.random.SeedSequence(77).spawn(2)
    for p in (0, 1):
        got = [sess.dealer.streams[p].u64(n) for n in (3, 20000, 1)]
        raw = np.random.PCG64(children[p]).random_raw(20004)
        assert np.array_equal(np.concatenate(got), raw)


def test_only_the_session_makes_protocol_randomness():
    # bench.py seeds its own input tables, which are not protocol randomness
    src = Path(vw.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name not in ("session.py", "bench.py")
                 and re.search(r"np\.random|\.rng\b", p.read_text())]
    assert not offenders
