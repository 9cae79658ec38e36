"""Materialized join views: generation, refresh, PK-FK support, serialization.

A PK-PK view aligns two primary-key tables slot by slot: party u keeps an
index map pi_u, its half of the secret intersection flags E, and the
reordered plaintext transcript J^u. Payloads stay plaintext, so refreshing
after payload updates is pure memory IO. The PK-FK view additionally sorts
the FK side and obliviously duplicates the PK payloads, which leaves J^0
secret-shared; its refresh re-runs only the switch and duplicate steps.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import oblivious as ob
from . import setops
from . import sharing as sh
from .errors import (DuplicatePrimaryKey, KeyModified, KeyOutOfRange,
                     MissingColumn, SizeMismatch, ValueOutsideDomain, ViewStale)
from .ring import ARITH, BINARY, as_ring, bound_width
from .session import Session
from .sharing import SharedVector

_U64 = np.uint64

LEVEL_PSI = 0
LEVEL_PID = 1
LEVEL_SEC = 2

# Dummy rows carry per-party sentinel keys from disjoint high ranges so they
# can never collide with each other or with real keys, which view generation
# keeps below SENTINEL[0] = 2^62.
SENTINEL = (1 << 62, (1 << 62) + (1 << 61))

# PK-FK composite keys are (key << 16) | occurrence counter, so keys stay
# below 2^46 and counters below 2^16 to keep composites below SENTINEL[0].
FK_COUNTER_BITS = 16
PKFK_KEY_LIMIT = SENTINEL[0] >> FK_COUNTER_BITS


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

class Relation:
    """A named table of 64-bit columns with one join-key column."""

    def __init__(self, name: str, columns: dict[str, object], key: str,
                 key_kind: str = "pk"):
        self.name = name
        self.columns = {c: as_ring(v) for c, v in columns.items()}
        self.key = key
        self.key_kind = key_kind
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise SizeMismatch(f"ragged columns in relation {name}")
        if key_kind == "pk" and self.n != len(np.unique(self.keys)):
            raise DuplicatePrimaryKey(f"relation {name} key column repeats")

    @property
    def n(self) -> int:
        return len(self.columns[self.key])

    @property
    def keys(self) -> np.ndarray:
        return self.columns[self.key]

    def key_hash(self) -> str:
        return hashlib.sha256(self.keys.tobytes()).hexdigest()

    def apply_updates(self, updates: list[tuple[int, dict]]):
        """Apply payload updates {1-based row -> {col: value}} in place,
        once every update has passed its checks."""
        for idx, cols in updates:
            if not 1 <= idx <= self.n:
                raise SizeMismatch(f"update row {idx} out of range")
            for col, val in cols.items():
                if col not in self.columns:
                    raise MissingColumn(
                        f"update of column {col!r}, which table {self.name} lacks")
                if col == self.key and int(val) != int(self.keys[idx - 1]):
                    raise KeyModified(
                        f"update touches join key of row {idx}; rebuild the view")
        for idx, cols in updates:
            for col, val in cols.items():
                if col != self.key:
                    self.columns[col][idx - 1] = _U64(int(val) & 0xFFFFFFFFFFFFFFFF)

    def extended_column(self, col: str, codomain: int, party: int) -> np.ndarray:
        """Column padded with dummy rows up to `codomain` entries."""
        base = self.columns[col]
        if codomain <= self.n:
            return base.copy()
        extra = codomain - self.n
        if col == self.key:
            pad = SENTINEL[party] + np.arange(self.n + 1, codomain + 1,
                                              dtype=np.uint64)
        else:
            pad = np.zeros(extra, dtype=np.uint64)
        return np.concatenate([base, pad])


# ---------------------------------------------------------------------------
# view types
# ---------------------------------------------------------------------------

@dataclass
class PkPkView:
    party: int
    level: int
    key_col: str
    n_e: int
    codomain: int
    pi: np.ndarray            # 1-based IndexMap [n_e] -> [codomain]
    e_half: np.ndarray        # this party's half of the 1-bit flag vector
    j: dict[str, np.ndarray]  # reordered plaintext transcript (dummy rows incl.)
    base_key_hash: str

    kind = "pkpk"


@dataclass
class PkFkView:
    """Per-party PK-FK view.

    Both parties hold shares of the duplicated PK transcript J^0; only P1
    holds the sorted FK transcript J^1 in plaintext. The step-1 mapping
    artifacts are retained so a refresh can re-run steps 2-3 alone.
    """

    party: int
    level: int
    key_col0: str
    key_col1: str
    n: int
    pi: np.ndarray
    e_half: np.ndarray                # final duplicated flags
    j0_half: dict[str, np.ndarray]    # shares of duplicated J^0 columns
    j1: dict[str, np.ndarray] | None  # P1 only, sorted plaintext FK transcript
    map_e_half: np.ndarray            # step-1 flags (pre-switch), for refresh
    base_key_hash: str

    kind = "pkfk"


def shared_e(v0, v1) -> SharedVector:
    return SharedVector(BINARY, 1, v0.e_half.copy(), v1.e_half.copy())


def real_rows(view) -> np.ndarray:
    """Which rows of a view's plaintext columns hold base-table rows: the
    padding rows of view generation carry sentinel keys, which real keys
    never reach."""
    keys = view.j1[view.key_col1] if view.kind == "pkfk" \
        else view.j[view.key_col]
    return keys < _U64(SENTINEL[0])


def check_in_domain(values: np.ndarray, dom, what: str,
                    dom_name: str = "its domain") -> None:
    """Raise `ValueOutsideDomain` unless every value lies in `dom`."""
    if not np.isin(values, np.array(dom, dtype=np.uint64)).all():
        raise ValueOutsideDomain(f"{what} holds a value outside {dom_name}")


# ---------------------------------------------------------------------------
# PK-PK generation
# ---------------------------------------------------------------------------

def _materialize(rel: Relation, pi: np.ndarray, codomain: int,
                 party: int) -> dict[str, np.ndarray]:
    gather = np.asarray(pi, dtype=np.int64) - 1
    return {c: rel.extended_column(c, codomain, party)[gather]
            for c in rel.columns}


def _views_from(sess, r0, r1, level, pis, e_sv, n_e, codomains):
    views = []
    for u, rel in ((0, r0), (1, r1)):
        views.append(PkPkView(
            party=u, level=level, key_col=rel.key, n_e=n_e,
            codomain=codomains[u], pi=np.asarray(pis[u], dtype=np.int64),
            e_half=e_sv.shares[u].copy(),
            j=_materialize(rel, pis[u], codomains[u], u),
            base_key_hash=rel.key_hash()))
    return views[0], views[1]


def _check_keys(limit: int, *rels: Relation):
    for rel in rels:
        if rel.n and int(rel.keys.max()) >= limit:
            raise KeyOutOfRange(
                f"relation {rel.name} has join key {int(rel.keys.max())}; "
                f"keys must stay below 2^{limit.bit_length() - 1}")


def gen_psiv(sess: Session, r0: Relation, r1: Relation):
    """Level-0 view: PSI reveals the intersection, E is public all-ones."""
    _check_keys(SENTINEL[0], r0, r1)
    with sess.phase("psi"):
        inter = setops.f_psi(sess, r0.keys, r1.keys)
    n_e = len(inter)
    pos0 = {int(k): i + 1 for i, k in enumerate(r0.keys)}
    pos1 = {int(k): i + 1 for i, k in enumerate(r1.keys)}
    pi0 = np.array([pos0[int(k)] for k in inter], dtype=np.int64)
    pi1 = np.array([pos1[int(k)] for k in inter], dtype=np.int64)
    ones = np.ones(n_e, dtype=np.uint64)
    e_sv = SharedVector(BINARY, 1, ones, np.zeros(n_e, dtype=np.uint64))
    return _views_from(sess, r0, r1, LEVEL_PSI, (pi0, pi1), e_sv, n_e,
                       (max(n_e, r0.n), max(n_e, r1.n)))


def _pid_pi(out: setops.PidOutput, keys: np.ndarray, n_e: int) -> np.ndarray:
    by_id = {out.mapping[int(k)]: i + 1 for i, k in enumerate(keys)}
    pi = np.zeros(n_e, dtype=np.int64)
    spare = iter(range(len(keys) + 1, n_e + 1))
    for i, ident in enumerate(out.ri_star):
        hit = by_id.get(int(ident))
        pi[i] = hit if hit is not None else next(spare)
    return pi


def gen_pidv(sess: Session, r0: Relation, r1: Relation):
    """Level-1 view: union-sized, E secret-shared via batched equality."""
    _check_keys(SENTINEL[0], r0, r1)
    with sess.phase("pid"):
        out0, out1 = setops.f_pid(sess, r0.keys, r1.keys)
    n_e = len(out0.ri_star)
    pi0 = _pid_pi(out0, r0.keys, n_e)
    pi1 = _pid_pi(out1, r1.keys, n_e)
    with sess.phase("eq"):
        a_keys = r0.extended_column(r0.key, n_e, 0)[pi0 - 1]
        b_keys = r1.extended_column(r1.key, n_e, 1)[pi1 - 1]
        xa = sh.share_vec(sess, 0, a_keys, BINARY, 64)
        xb = sh.share_vec(sess, 1, b_keys, BINARY, 64)
        e_sv = sh.eq(sess, xa, xb)
    return _views_from(sess, r0, r1, LEVEL_PID, (pi0, pi1), e_sv, n_e,
                       (n_e, n_e))


def gen_secv(sess: Session, r0: Relation, r1: Relation,
             pi0: np.ndarray | None = None, probe: dict | None = None):
    """Level-2 view: leaks nothing beyond the input sizes.

    `pi0` optionally fixes the bigger side's private permutation (it is that
    party's own input); by default it is drawn fresh from the party's RNG.
    When the right side is larger the party roles are reversed internally and
    the returned views are relabeled. Z, O', the sort permutations and
    pi_b hold indices of at most n_a, so each travels as an arithmetic
    share of bound_width(n_a) bits.
    """
    _check_keys(SENTINEL[0], r0, r1)
    swap = r1.n > r0.n
    ra, rb = (r1, r0) if swap else (r0, r1)
    pa, pb = (1, 0) if swap else (0, 1)
    na, nb = ra.n, rb.n
    if pi0 is not None and len(pi0) != na:
        raise SizeMismatch("pi0 must be a permutation of the larger side")

    width = bound_width(na)  # of every index the protocol moves
    with sess.phase("cpsi-1"):
        e1, z1 = setops.f_cpsi(sess, pa, ra.keys, rb.keys,
                               np.arange(1, nb + 1, dtype=np.uint64), width)
    with sess.phase("osn"):
        pi_a = np.asarray(pi0, dtype=np.int64) if pi0 is not None \
            else sess.parties[pa].draw_perm(na)
        e_sv, z_sv = ob.osn_shared(sess, pa, pi_a, [e1, z1])
    if probe is not None:
        probe["E_step2"] = e_sv.reconstruct().copy()
    with sess.phase("cpsi-2"):
        f1, _ = setops.f_cpsi(sess, pb, rb.keys, ra.keys, None)
        if na > nb:  # pad with shared zeros so |F| = n_a
            f1 = SharedVector.concat([f1, SharedVector.zeros(na - nb, BINARY, 1)])
    with sess.phase("shuffle"):
        o_prime = SharedVector.public(np.arange(1, na + 1, dtype=np.uint64),
                                      ARITH, width)
        f_sv, l_sv = ob.shuffle(sess, [f1, o_prime])
    with sess.phase("sorting"):
        sigma1 = ob.per_gen(sess, f_sv)
        p1_sv = ob.invp_shared(sess, sigma1, [l_sv])[0]
        if probe is not None:
            probe["P1_step6"] = p1_sv.reconstruct().copy()
        sigma0 = ob.per_gen(sess, e_sv)
        p0_sv = ob.perm_shared(sess, sigma0, [p1_sv])[0]
    with sess.phase("mux"):
        pi_b_sv = sh.mux(sess, e_sv, z_sv, p0_sv)
        pi_b = sh.open_vec(sess, pi_b_sv, to=pb).astype(np.int64)
    ob.check_perm(pi_b, "secV's revealed permutation")

    pis = [None, None]
    pis[pa], pis[pb] = pi_a, pi_b
    return _views_from(sess, r0, r1, LEVEL_SEC, (pis[0], pis[1]), e_sv,
                       na, (na, na))


GENERATORS = {LEVEL_PSI: gen_psiv, LEVEL_PID: gen_pidv, LEVEL_SEC: gen_secv}


# ---------------------------------------------------------------------------
# PK-PK refresh
# ---------------------------------------------------------------------------

def refresh_pkpk(view: PkPkView, rel: Relation,
                 updates: list[tuple[int, dict]]) -> PkPkView:
    """Payload refresh: update the base table and rewrite the touched J rows.

    Purely local; consumes neither wire nor hybrid traffic.
    """
    rel.apply_updates(updates)
    slot_of = {int(t): i for i, t in enumerate(view.pi)}
    for idx, cols in updates:
        slot = slot_of.get(idx)
        if slot is None:
            continue
        for col, val in cols.items():
            if col == rel.key:
                continue
            view.j[col][slot] = _U64(int(val) & 0xFFFFFFFFFFFFFFFF)
    return view


# ---------------------------------------------------------------------------
# PK-FK view
# ---------------------------------------------------------------------------

def append_bitmap_columns(rel: Relation, col: str, domain) -> Relation:
    """Extend a relation with one-hot membership columns for `col`.

    Bitmap-family GA protocols over a PK-FK view need the g0 bitmap inside
    the shared transcript, so it must ride through view generation; columns
    are named __bm:<col>:<j> for the j-th domain value (sorted ascending).
    """
    dom = sorted(int(v) for v in set(domain))
    cols = dict(rel.columns)
    base = rel.columns[col]
    check_in_domain(base, dom, f"{rel.name}.{col}")
    for j, val in enumerate(dom):
        cols[f"__bm:{col}:{j}"] = (base == np.uint64(val)).astype(np.uint64)
    return Relation(rel.name, cols, rel.key, rel.key_kind)


def pkfk_key_hash(r0: Relation, r1: Relation) -> str:
    """The base-key hash a PK-FK view records: one hash over both tables'
    join keys (`check_base_keys` compares it with the tables)."""
    return hashlib.sha256((r0.key_hash() + r1.key_hash()).encode()).hexdigest()


def check_base_keys(view0, view1, r0: Relation, r1: Relation) -> None:
    """Raise `ViewStale` unless stored views were built from these tables'
    join keys and every index map entry points into its table, extended to
    the view's size as generation and refresh extend it."""
    if view0.kind == "pkfk":
        want = [pkfk_key_hash(r0, r1)] * 2
        sizes = (max(view0.n, r0.n), max(view1.n, r1.n))
    else:
        want = [r0.key_hash(), r1.key_hash()]
        sizes = (view0.codomain, view1.codomain)
    if [view0.base_key_hash, view1.base_key_hash] != want:
        raise ViewStale("stored view no longer matches the base tables")
    for view, size in zip((view0, view1), sizes):
        if len(view.pi) and (view.pi.min() < 1 or view.pi.max() > size):
            raise ViewStale(f"party {view.party}'s stored view maps a row "
                            f"outside its table of {size} rows")


def _fk_counters(keys: np.ndarray) -> np.ndarray:
    """Each row's 1-based occurrence number among the rows with its key."""
    order = np.argsort(keys, kind="stable")
    sk, idx = keys[order], np.arange(len(keys))
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = sk[1:] != sk[:-1]
    out = np.empty(len(keys), dtype=np.uint64)
    out[order] = idx - np.maximum.accumulate(np.where(starts, idx, 0)) + 1
    return out


def _composite(keys: np.ndarray, counters) -> np.ndarray:
    high = as_ring(keys) << _U64(FK_COUNTER_BITS)
    return high | as_ring(counters)


def _extend_injective(pi: np.ndarray, size: int, codomain: int,
                      pool) -> np.ndarray:
    """Append unused codomain targets until |pi| = size (random order)."""
    need = size - len(pi)
    if need <= 0:
        return pi
    free = np.setdiff1d(np.arange(1, codomain + 1, dtype=np.int64), pi)
    return np.concatenate([pi, free[pool.perm(len(free))[:need]]])


def gen_pkfk(sess: Session, r0: Relation, r1: Relation, level: int = LEVEL_SEC):
    """PK-FK view: composite-key mapping, sort-and-switch, oblivious
    duplication. The shared J^0 holds every PK column and, for each non-key
    column but the bitmap columns, P0's rank `__rk:<col>` (`_pkfk_steps23`)."""
    if r1.key_kind != "fk":
        raise SizeMismatch("gen_pkfk expects the right relation to be the FK side")
    _check_keys(PKFK_KEY_LIMIT, r0, r1)
    counters = _fk_counters(r1.keys)
    if r1.n and int(counters.max()) >= 1 << FK_COUNTER_BITS:
        raise KeyOutOfRange(f"an FK key of relation {r1.name} repeats "
                            f"{int(counters.max())} times; the fan-out must "
                            f"stay below 2^{FK_COUNTER_BITS}")
    m = r1.n
    with sess.phase("mapping"):
        comp0 = _composite(r0.keys, np.ones(r0.n, dtype=np.uint64))
        comp1 = _composite(r1.keys, counters)
        rel0c = Relation(r0.name + "+ck", {"__ck": comp0}, "__ck", "pk")
        rel1c = Relation(r1.name + "+ck", {"__ck": comp1}, "__ck", "pk")
        v0c, v1c = GENERATORS[level](sess, rel0c, rel1c)
        n_e = v0c.n_e
        pi0_m, pi1_m = v0c.pi, v1c.pi
        e_map = shared_e(v0c, v1c)
        if n_e < m:
            e_map = SharedVector.concat(
                [e_map, SharedVector.zeros(m - n_e, BINARY, 1)])
            pi1_m = _extend_injective(pi1_m, m, max(v1c.codomain, m),
                                      sess.parties[1])
            pi0_m = _extend_injective(pi0_m, m, max(v0c.codomain, m),
                                      sess.parties[0])
    n = len(pi1_m)
    view0, view1 = _pkfk_steps23(sess, r0, r1, pi0_m, pi1_m, e_map, n)
    view0.level = view1.level = level
    return view0, view1


def _pkfk_steps23(sess: Session, r0: Relation, r1: Relation,
                  pi0_m: np.ndarray, pi1_m: np.ndarray,
                  e_map: SharedVector, n: int):
    """Steps 2-3: local sort + oblivious switch, then duplicate the PK tuples.

    Beside each PK column, P0 feeds `__rk:<col>` for every non-key column
    but the bitmap columns (`append_bitmap_columns`): its dense rank of
    the column among the n rows it feeds, so below n. GA queries sort and
    flag on this rank in ceil(log2 n) bits, a width fixed by the public n,
    in place of the 64-bit values; P0's rank is never opened. It rides
    the switch and the duplication as an arithmetic column of
    bound_width(n - 1) bits, each payload column at 64 bits, and the view
    keeps every half cut to its column's width. A refresh recomputes the
    rank from the updated table.
    """
    counters = _fk_counters(r1.keys)
    comp1 = _composite(r1.keys, counters)
    comp1_ext = np.concatenate([
        comp1, SENTINEL[1] + np.arange(r1.n + 1, n + 1, dtype=np.uint64)])
    with sess.phase("switch"):
        d1_comp = comp1_ext[pi1_m - 1]
        sigma = np.argsort(d1_comp, kind="stable").astype(np.int64) + 1
        j1 = {c: r1.extended_column(c, n, 1)[pi1_m - 1][sigma - 1]
              for c in r1.columns}
        j1["__ck"] = d1_comp[sigma - 1]
        d0 = {c: r0.extended_column(c, n, 0)[pi0_m - 1] for c in r0.columns}
        d0.update({f"__rk:{c}": np.unique(d0[c], return_inverse=True)[1]
                   for c in r0.columns
                   if c != r0.key and not c.startswith("__bm:")})
        rank_width = bound_width(n - 1)
        moved = ob.osn_shared(sess, 1, sigma, [e_map] + [
            ob.PlainColumn(v, ARITH, rank_width if c.startswith("__rk:") else 64)
            for c, v in d0.items()])
        e_sw = moved[0]
        j0_shared = dict(zip(d0, moved[1:]))
    with sess.phase("duplicate"):
        masked = sh.mux_many(sess, e_sw, [
            (c, SharedVector.zeros(n, c.flavor, c.width))
            for c in j0_shared.values()])
        # FK-group flags from P1's plaintext sorted keys; one scan copies
        # each PK tuple down its group in every column and in e
        same = np.zeros(n, dtype=np.uint64)
        if n > 1:
            kk = j1[r1.key]
            same[1:] = (kk[1:] == kk[:-1]).astype(np.uint64)
        flags = sh.share_vec(sess, 1, same, BINARY, 1)
        (*dup, e_fin), _ = ob.trav_flags(
            sess, flags, masked + [e_sw], [ob.AGG_SUM] * len(masked) + [ob.AGG_XOR])
        j0_fin = {c: v.cut(v.width) for c, v in zip(j0_shared, dup)}

    base_hash = pkfk_key_hash(r0, r1)
    view0 = PkFkView(
        party=0, level=-1, key_col0=r0.key, key_col1=r1.key, n=n,
        pi=pi0_m, e_half=e_fin.shares[0].copy(),
        j0_half={c: v.shares[0] for c, v in j0_fin.items()},
        j1=None, map_e_half=e_map.shares[0].copy(), base_key_hash=base_hash)
    view1 = PkFkView(
        party=1, level=-1, key_col0=r0.key, key_col1=r1.key, n=n,
        pi=pi1_m, e_half=e_fin.shares[1].copy(),
        j0_half={c: v.shares[1] for c, v in j0_fin.items()},
        j1=j1, map_e_half=e_map.shares[1].copy(), base_key_hash=base_hash)
    return view0, view1


def refresh_pkfk(sess: Session, view0: PkFkView, view1: PkFkView,
                 r0: Relation, r1: Relation,
                 updates0: list[tuple[int, dict]] | None = None,
                 updates1: list[tuple[int, dict]] | None = None):
    """Payload refresh: apply updates, then re-run only steps 2-3."""
    r0.apply_updates(updates0 or [])
    r1.apply_updates(updates1 or [])
    e_map = SharedVector(BINARY, 1, view0.map_e_half.copy(),
                         view1.map_e_half.copy())
    new0, new1 = _pkfk_steps23(sess, r0, r1, view0.pi, view1.pi, e_map,
                               view0.n)
    new0.level, new1.level = view0.level, view1.level
    return new0, new1
