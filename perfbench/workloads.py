"""The four benchmark workloads.

Each workload makes its inputs, and every session seed triple, from the run
seed alone, runs one kind of operation again and again, and checks the
output of every operation. The engine is reached only through its public
functions, always looked up on the module (`views.gen_secv`,
`ga.run_query`, `cli.main`) so that a traced run sees every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from secjoin import cli, ga, views
from secjoin.ga import JgaQuery
from secjoin.session import Session
from secjoin.views import Relation

import reference

KEY_SPACE = 1 << 40      # below both the sentinel range and the PK-FK key limit
VALUE_SPACE = 1 << 32    # payloads; far from the 2^64 - 1 that `min` reserves
BIG_DOMAIN = list(range(4096))
SMALL_DOMAINS = {"t": list(range(4)), "s": list(range(16)), "u": list(range(32))}


@dataclass(frozen=True)
class Sizes:
    """Row counts. Every PK-PK pair pads to the same power of two.

    `view_gen` uses the secv_* pair; `jga_sort` and `jga_bitmap` the smaller
    big/small pair, since one jga_sort pass at 4096 rows took about 9.5 s on
    a 2-vCPU VM.
    """

    secv_big: int
    secv_small: int
    big: int
    small: int
    pk_rows: int
    fk_rows: int
    updates: int


FULL = Sizes(secv_big=4000, secv_small=3000, big=1000, small=750, pk_rows=500,
             fk_rows=1000, updates=16)
TINY = Sizes(secv_big=40, secv_small=30, big=40, small=30, pk_rows=20,
             fk_rows=40, updates=3)


@dataclass
class Op:
    seconds: float
    wire_bits: int
    rounds: int
    hybrid_bits: int
    problems: list[str] = field(default_factory=list)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _seed_triple(seed: int, *stream: int) -> tuple[int, int, int]:
    return tuple(int(s) for s in _rng(seed, 99, *stream).integers(1, 1 << 31, 3))


def _key_pair(rng, n0: int, n1: int, overlap: int):
    """Distinct keys for both sides sharing exactly `overlap` values."""
    keys = (rng.choice(KEY_SPACE - 1, n0 + n1 - overlap, replace=False)
            + 1).astype(np.uint64)
    k0 = keys[:n0]
    k1 = rng.permutation(np.concatenate([keys[:overlap], keys[n0:]]))
    return k0, k1


def _values(rng, n: int) -> np.ndarray:
    return rng.integers(0, VALUE_SPACE, n, dtype=np.uint64)


def _traffic(sess: Session) -> tuple[int, int, int]:
    t = sess.transcript
    return t.wire_bits, t.wire_rounds, t.hybrid_bits


class Workload:
    round_size = 1  # a run attempts whole rounds of this many operations

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self):
        """Make the inputs and anything the operations read."""

    def prepare(self):
        """Benchmark-side work after set-up, outside every timed region."""

    def run_op(self, i: int) -> Op:
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# view_gen
# ---------------------------------------------------------------------------

class ViewGen(Workload):
    """One level-2 PK-PK view generation (secV) on a fresh pair of tables.

    Sizes stay fixed; the larger table alternates between the parties, and
    the key overlap is drawn afresh for every operation. The two orientations
    differ by one round, so runs attempt whole pairs. Set-up generates the
    view of operation 0 once; operation 0 must repeat its transcript digest.
    """

    round_size = 2

    def setup(self):
        self._shapes: dict[int, list] = {}
        _, sess, _, _ = self._generate(0, *self._inputs(0))
        self._digest0 = sess.transcript.digest()

    def _inputs(self, i: int):
        rng = _rng(self.seed, 1, i)
        big, small = self.sizes.secv_big, self.sizes.secv_small
        n0, n1 = (big, small) if i % 2 == 0 else (small, big)
        overlap = int(rng.integers(0, small + 1))
        k0, k1 = _key_pair(rng, n0, n1, overlap)
        t0 = {"k": k0, "v0": _values(rng, n0)}
        t1 = {"k": k1, "v1": _values(rng, n1)}
        return t0, t1

    def _generate(self, i: int, t0: dict, t1: dict):
        r0 = Relation("R0", t0, "k")
        r1 = Relation("R1", t1, "k")
        sess = Session(*_seed_triple(self.seed, i))
        start = perf_counter()
        v0, v1 = views.gen_secv(sess, r0, r1)
        return perf_counter() - start, sess, v0, v1

    def run_op(self, i: int) -> Op:
        t0, t1 = self._inputs(i)
        seconds, sess, v0, v1 = self._generate(i, t0, t1)
        op = Op(seconds, *_traffic(sess))
        op.problems = reference.check_pkpk_view(t0, "k", t1, "k", v0, v1)
        shapes = sess.transcript.phase_shapes()
        first = self._shapes.setdefault(i % 2, shapes)
        if shapes != first:
            op.problems.append("per-phase traffic differs between two pairs of "
                               "the same sizes (secV should leak only sizes)")
        if i == 0 and sess.transcript.digest() != self._digest0:
            op.problems.append("the same seeds gave a different transcript "
                               "digest")
        return op


# ---------------------------------------------------------------------------
# jga_sort and jga_bitmap
# ---------------------------------------------------------------------------

def _q(g, aggs, protocol, one_side=False):
    """A query grouping on column family g ('g', 's', 't' or 'u') of both sides."""
    dom = BIG_DOMAIN if g == "g" else SMALL_DOMAINS[g]
    return JgaQuery(None if one_side else f"{g}0", f"{g}1", aggs,
                    protocol=protocol, dom0=dom, dom1=dom)


SUM_COUNT = [(0, "v0", "sum"), (0, None, "count")]
SORT_QUERIES = [
    _q("g", SUM_COUNT, "sorting"),
    _q("g", SUM_COUNT, "osorting"),
    _q("g", [(1, "v1", "max"), (0, "v0", "min")], "osorting"),
    _q("s", [(0, "v0", "max"), (1, "v1", "min")], "bsorting"),
    _q("s", [(1, "v1", "sum"), (0, None, "count")], "mix"),
    _q("g", [(0, "v0", "sum"), (1, "v1", "max")], "oneside", one_side=True),
]
BITMAP_QUERIES = [
    _q("t", SUM_COUNT, "bitmap"),
    _q("s", [(1, "v1", "sum"), (0, "v0", "max")], "bitmap"),
    _q("u", [(0, None, "count")], "bitmap"),
]


def _answer(q: JgaQuery):
    """What fixes a query's answer, whatever protocol runs it."""
    return (q.group0, q.group1, tuple(q.aggs))


class Jga(Workload):
    """One pass over a fixed query list on a level-2 view made in set-up."""

    queries: list[JgaQuery] = []
    check_selection = True

    def setup(self):
        rng = _rng(self.seed, 2)
        big, small = self.sizes.big, self.sizes.small
        overlap = int(rng.integers(small // 2, small + 1))
        k0, k1 = _key_pair(rng, big, small, overlap)
        self.t0, self.t1 = {"k": k0}, {"k": k1}
        for side, table, n in ((0, self.t0, big), (1, self.t1, small)):
            table[f"g{side}"] = rng.integers(0, len(BIG_DOMAIN), n, dtype=np.uint64)
            for g, dom in SMALL_DOMAINS.items():
                table[f"{g}{side}"] = rng.integers(0, len(dom), n, dtype=np.uint64)
            table[f"v{side}"] = _values(rng, n)
        sess = Session(*_seed_triple(self.seed, 0))
        self.v0, self.v1 = views.gen_secv(sess, Relation("R0", self.t0, "k"),
                                          Relation("R1", self.t1, "k"))

    def prepare(self):
        n = self.v0.n_e
        for q in self.queries:
            if self.check_selection and q.protocol != "sorting":
                picked = ga.select_protocol(n, len(q.dom0), len(q.dom1), q.aggs,
                                            one_side=q.one_side())
                if picked != q.protocol:
                    raise ValueError(f"select_protocol picks {picked} for the "
                                     f"{q.protocol} query")
        self.want = {}
        for q in self.queries:
            if _answer(q) not in self.want:
                self.want[_answer(q)] = reference.join_group_by(
                    self.t0, "k", self.t1, "k", q)

    def run_op(self, i: int) -> Op:
        results, sessions = [], []
        start = perf_counter()
        for qi, q in enumerate(self.queries):
            sess = Session(*_seed_triple(self.seed, i, qi))
            results.append(ga.run_query(sess, self.v0, self.v1, q))
            sessions.append(sess)
        seconds = perf_counter() - start
        traffic = [sum(x) for x in zip(*(_traffic(s) for s in sessions))]
        op = Op(seconds, *traffic)
        op.problems = self.check([r.rows for r in results])
        return op

    def check(self, rows_per_query: list[list[tuple]]) -> list[str]:
        """Every query's rows equal the reference, so protocols that run the
        same query also agree with each other."""
        problems = []
        for q, rows in zip(self.queries, rows_per_query):
            problems += reference.check_rows(f"{q.protocol} {q.agg_labels()}",
                                             rows, self.want[_answer(q)])
        return problems


class JgaSort(Jga):
    """sorting, osorting, bsorting, mix and oneside over sum/count/max/min.

    Group domains are sized so that select_protocol picks each query's
    protocol (the sorting baseline is never picked; it shares a query with
    osorting instead).
    """

    queries = SORT_QUERIES


class JgaBitmap(Jga):
    """The bitmap protocol at d0 x d1 = 4x4, 16x16 and 32x32 (the pair cap).

    select_protocol picks bitmap only for the sum/count query at 4x4; the
    larger domains and max are there to load the bitmap path.
    """

    queries = BITMAP_QUERIES
    check_selection = False


# ---------------------------------------------------------------------------
# pkfk_refresh
# ---------------------------------------------------------------------------

PKFK_QUERY = JgaQuery("g0", "g1", [(0, "v0", "sum"), (1, "v1", "max"),
                                   (0, None, "count")], protocol="osorting")
_REFRESH = re.compile(r"refresh done: wire_bits=(\d+) hybrid_bits=(\d+) "
                      r"rounds=(\d+)")
_TRANSCRIPT = re.compile(r"transcript: wire_bits=(\d+) .*wire_rounds=(\d+), "
                         r"hybrid_bits=(\d+)")


def _write_csv(path: str, table: dict):
    names = list(table)
    lines = [",".join(names)]
    lines += [",".join(str(int(v)) for v in row)
              for row in zip(*(table[c] for c in names))]
    with open(path, "w") as fh:  # no fsync: see the README
        fh.write("\n".join(lines) + "\n")


def _read_result(path: str) -> list[tuple]:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return [tuple(int(c) if c else None for c in line.split(","))
            for line in lines]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class PkfkRefresh(Workload):
    """update -> `secjoin refresh` -> `secjoin query --verify`, in process.

    Set-up writes the PK and FK tables as CSV and runs `genview` once at
    level 2. Each operation rewrites payload cells on both sides.
    """

    dir = None

    def setup(self):
        rng = _rng(self.seed, 3)
        n_pk, n_fk = self.sizes.pk_rows, self.sizes.fk_rows
        pk = (rng.choice(KEY_SPACE - 1, n_pk + n_fk, replace=False)
              + 1).astype(np.uint64)
        dangling = n_fk // 10
        fk = np.concatenate([rng.choice(pk[:n_pk], n_fk - dangling),
                             pk[n_pk:n_pk + dangling]])
        self.t0 = {"k": pk[:n_pk],
                   "g0": rng.integers(0, 16, n_pk, dtype=np.uint64),
                   "v0": _values(rng, n_pk)}
        self.t1 = {"k": rng.permutation(fk),
                   "g1": rng.integers(0, 16, n_fk, dtype=np.uint64),
                   "v1": _values(rng, n_fk)}
        os.makedirs(self.workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="pkfk-", dir=self.workdir)
        self.paths = {name: os.path.join(self.dir, name) for name in
                      ("t0.csv", "t1.csv", "spec.json", "up0.csv", "up1.csv",
                       "result.csv", "views")}
        _write_csv(self.paths["t0.csv"], self.t0)
        _write_csv(self.paths["t1.csv"], self.t1)
        spec = {"table0": self.paths["t0.csv"], "table1": self.paths["t1.csv"],
                "key0": "k", "key1": "k", "join": "pkfk",
                "group0": PKFK_QUERY.group0, "group1": PKFK_QUERY.group1,
                "aggs": [{"side": s, "col": c, "fn": f}
                         for s, c, f in PKFK_QUERY.aggs],
                "level": 2, "protocol": PKFK_QUERY.protocol,
                "seeds": list(_seed_triple(self.seed, 0))}
        with open(self.paths["spec.json"], "w") as fh:
            json.dump(spec, fh)
        rc, out, err = run_cli(["genview", self.paths["spec.json"], "--level",
                                "2", "--out", self.paths["views"]])
        match = _TRANSCRIPT.search(out)
        if rc != 0 or match is None:
            raise RuntimeError(f"genview exited {rc}: {err.strip()}")
        self.genview_wire = int(match.group(1))

    def _write_updates(self, i: int):
        rng = _rng(self.seed, 4, i)
        for side, table in ((0, self.t0), (1, self.t1)):
            n = len(table["k"])
            rows = rng.choice(n, self.sizes.updates, replace=False)
            vals = _values(rng, len(rows))
            table[f"v{side}"][rows] = vals
            _write_csv(self.paths[f"up{side}.csv"],
                       {"idx": rows + 1, f"v{side}": vals})

    def run_op(self, i: int) -> Op:
        self._write_updates(i)
        seeds = [a for flag, s in zip(("--seed0", "--seed1", "--seedD"),
                                      _seed_triple(self.seed, i))
                 for a in (flag, str(s))]
        start = perf_counter()
        rc_r, out_r, err_r = run_cli(
            ["refresh", self.paths["spec.json"], "--views", self.paths["views"],
             "--updates0", self.paths["up0.csv"],
             "--updates1", self.paths["up1.csv"], *seeds])
        rc_q, out_q, err_q = run_cli(
            ["query", self.paths["spec.json"], "--views", self.paths["views"],
             "--verify", "--protocol", PKFK_QUERY.protocol,
             "--out", self.paths["result.csv"], *seeds])
        seconds = perf_counter() - start
        return self.check(seconds, (rc_r, out_r, err_r), (rc_q, out_q, err_q))

    def check(self, seconds, refresh, query) -> Op:
        (rc_r, out_r, err_r), (rc_q, out_q, err_q) = refresh, query
        op = Op(seconds, 0, 0, 0)
        if rc_r != 0:
            op.problems.append(f"refresh exited {rc_r}: {err_r.strip()}")
        if rc_q != 0:
            op.problems.append(f"query exited {rc_q}: {err_q.strip()}")
        m_r, m_q = _REFRESH.search(out_r), _TRANSCRIPT.search(out_q)
        if m_r is None or m_q is None:
            op.problems.append("a transcript line is missing from the output")
            return op
        wire_r, hyb_r, rounds_r = (int(x) for x in m_r.groups())
        wire_q, rounds_q, hyb_q = (int(x) for x in m_q.groups())
        op.wire_bits, op.rounds = wire_r + wire_q, rounds_r + rounds_q
        op.hybrid_bits = hyb_r + hyb_q
        if not wire_r < self.genview_wire:
            op.problems.append(f"refresh sent {wire_r} wire bits, genview "
                               f"{self.genview_wire}")
        if rc_q == 0:
            op.problems += reference.check_rows(
                "pkfk osorting", _read_result(self.paths["result.csv"]),
                reference.join_group_by(self.t0, "k", self.t1, "k", PKFK_QUERY))
        return op

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"view_gen": ViewGen, "jga_sort": JgaSort,
             "jga_bitmap": JgaBitmap, "pkfk_refresh": PkfkRefresh}
