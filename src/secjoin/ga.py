"""Group-aggregation protocols over a materialized join view.

Five interchangeable protocols (sorting baseline, optimized sorting, the
bitmap-assisted sort, the mixed protocol and the pure-bitmap protocol) plus
the one-side shortcut. All reveal the canonicalized result table to party 1
and must agree exactly with the plaintext reference evaluation.

Each protocol composes shared stages. `_Table` reads the view, with P0's
columns shared in a PK-FK view and plain otherwise, and `_move` permutes
either kind. All but bitmap start from `_Table.local_order`, then:

  sorting   _own_values, _sort, perm_shared, _grouped_tail
  osorting  _sort, _carry by perm_plain, _grouped_tail
  bsorting  _p0_bitmap_bits, bit_sort, _carry by invp_plain, _grouped_tail
  mix       _runs sorted by P1, with P0's g0 bitmap blocks (_p0_bitmap_bits)
  oneside   _runs sorted by the party that groups
  bitmap    _Table.bitmap products per bucket pair, local sums and XORs or
            _tree_reduce (max, min), _rows; count reads the bucket counts

`_sort` is the osn, convert and sort phases; `_grouped_tail` is boundary
flags, suffix sums or one `trav_flags` scan, then `_reveal` (mask,
shuffle, open) and `_rows` (the canonical table). `_runs` is `_run_flags`
and `_own_values` in the sorter's local order, `_osn`, `_null_fill`, one
`trav_flags` scan with validity and the run-end flags; its rows are then
masked and opened in P1's order, or go through `_reveal` in P0's, before
`_rows`. One `trav_flags` call scans all of a query's aggregates, whatever
their kinds: a level costs a `gt` if any is max or min, a `b2a` if any is
a sum or count, and at most two exchanges for all of them. A
`_tree_reduce` level puts its two independent ANDs in one exchange. When
the query gives dom0 and P0 holds g0 in plain (PK-PK views), `_sort` sorts
on g0's rank in the sorted dom0, ceil(log2 d0) bits wide; the rank keeps
that width through the flags, the mask and the reveal, and P1 maps the
revealed ranks back through dom0. A plain group column with a value
outside the domain the query gives raises `ValueOutsideDomain` before any
message.

Null handling: masked rows carry a validity bit; 0 stands in for the dropped
value and canonicalization removes invalid rows. Inside running aggregates
the null replacement is the aggregate's identity (0 for sum/count/xor/max,
2^64-1 for min). A null changes no aggregate it meets and rows are kept by
validity, not by value, so a real row may hold either identity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import oblivious as ob
from . import sharing as sh
from .errors import DomainTooLarge, MissingColumn, ParseError, SizeMismatch
from .oblivious import AGG_IDENTITY, PlainColumn
from .ring import ARITH, BINARY
from .session import Session
from .sharing import SharedVector
from .views import check_in_domain, real_rows, shared_e

_U64 = np.uint64

BITMAP_SORT_CAP = 1 << 12
BITMAP_PAIR_CAP = 1 << 10


@dataclass
class JgaQuery:
    """One join-group-aggregate query over a view.

    aggs entries are (side, column, fn); count ignores the column (an
    implicit all-ones vector is aggregated). A malformed entry raises
    `ParseError` here, before any protocol sends a message.
    """

    group0: str | None
    group1: str | None
    aggs: list[tuple[int, str | None, str]]
    protocol: str = "auto"
    dom0: list[int] | None = None
    dom1: list[int] | None = None

    def __post_init__(self):
        for side, col, fn in self.aggs:
            # a tuple compares a JSON list as fn, where a dict would hash it
            if fn not in tuple(ob.AGG_KIND) or side not in (0, 1) \
                    or not (fn == "count" or isinstance(col, str)):
                raise ParseError(f"aggregate {(side, col, fn)} needs side 0 "
                                 f"or 1, a column unless it is a count, and "
                                 f"one of {', '.join(ob.AGG_KIND)}")

    def one_side(self) -> bool:
        return (self.group0 is None) != (self.group1 is None)

    def agg_labels(self) -> list[str]:
        return [f"{fn}_{col}" if col else fn for _, col, fn in self.aggs]


@dataclass
class GroupResult:
    rows: list[tuple]

    def to_csv(self, agg_labels: list[str]) -> str:
        header = ["g0", "g1"] + agg_labels
        lines = [",".join(header)]
        for row in self.rows:
            lines.append(",".join("" if v is None else str(v) for v in row))
        return "\n".join(lines) + "\n"


def _sum_like(aggs) -> bool:
    return all(fn in ("sum", "count") for _, _, fn in aggs)


def select_protocol(n: int, d0: int, d1: int, aggs, one_side: bool = False) -> str:
    """The four-rule decision list from the evaluation guidelines."""
    if one_side:
        return "oneside"
    sum_like = _sum_like(aggs)
    if d0 < 2 ** 3 and d1 < 2 ** 3 and sum_like:
        return "bitmap"
    if min(d0, d1) < 2 ** 7 and sum_like:
        return "mix"
    if min(d0, d1) < 2 ** 12:
        return "bsorting"
    return "osorting"


def _value_flavor(fn: str) -> str:
    return ARITH if fn in ("sum", "count") else BINARY


# ---------------------------------------------------------------------------
# view access: the one place that knows which columns are plain or shared
# ---------------------------------------------------------------------------

class _Table:
    def __init__(self, view0, view1):
        self.pkfk = view0.kind == "pkfk"
        self.v0, self.v1 = view0, view1
        self.n = view0.n if self.pkfk else view0.n_e
        self.j1 = view1.j1 if self.pkfk else view1.j
        self.e = shared_e(view0, view1)

    def col(self, side: int, name: str, flavor: str = BINARY,
            order: np.ndarray | None = None) -> PlainColumn | SharedVector:
        """One view column, gathered by the 1-based `order` when given:
        secret-shared for P0 in a PK-FK view, sender-held plain otherwise."""
        shared = side == 0 and self.pkfk
        cols = self.j1 if side == 1 else self.v0.j0_half if shared else self.v0.j
        if name not in cols:
            hint = " (add it with views.append_bitmap_columns before view " \
                "generation)" if name.startswith("__bm:") else ""
            raise MissingColumn(f"the view has no column {name!r}{hint}")
        idx = slice(None) if order is None else order - 1
        if shared:
            return SharedVector(ARITH, 64, self.v0.j0_half[name][idx].copy(),
                                self.v1.j0_half[name][idx].copy())
        return PlainColumn(cols[name][idx], flavor)

    def bitmap(self, side: int, name: str | None, dom: list):
        """One-hot bits of a group column (all ones without one), by value."""
        if name is None:
            return PlainColumn(np.ones(self.n, dtype=np.uint64), BINARY, 1)
        if side == 0 and self.pkfk:
            return SharedVector.concat([self.col(0, f"__bm:{name}:{j}")
                                        for j in range(len(dom))])
        hits = self.col(side, name).values == np.array(dom, np.uint64)[:, None]
        return PlainColumn(hits.astype(np.uint64).ravel(), BINARY, 1)

    def local_order(self, side: int, name: str | None):
        """(1-based local stable sort order, sorted column) of a plain column."""
        col = self.col(side, name) if name else \
            PlainColumn(np.zeros(self.n, np.uint64))
        if not isinstance(col, PlainColumn):
            raise SizeMismatch(f"group column {name!r} is secret-shared in a "
                               "PK-FK view, so no party can sort by it locally")
        order = np.argsort(col.values, kind="stable").astype(np.int64) + 1
        return order, col.values[order - 1]

    def domain(self, q: JgaQuery, side: int, cap: int | None = None,
               col=None) -> list:
        """The sorted public domain of a group column ([None] without one).

        A plain column must lie inside the domain the query gives: a value
        outside it raises `ValueOutsideDomain` before any message. `col` is
        the group column when the caller has already fetched it.
        """
        name, dom = (q.group0, q.dom0) if side == 0 else (q.group1, q.dom1)
        if name is None:
            return [None]
        col = self.col(side, name) if col is None else col
        plain = isinstance(col, PlainColumn)
        if dom is None and not plain:
            raise DomainTooLarge("a public domain is required for this "
                                 "protocol")
        given = dom is not None
        dom = sorted({int(v) for v in (dom if given else col.values)})
        if given and plain:
            real = real_rows(self.v1 if side else self.v0)
            check_in_domain(col.values[real], dom, repr(name), f"dom{side}")
        if cap is not None and len(dom) > cap:
            raise DomainTooLarge(f"d{side} = {len(dom)} exceeds {cap}")
        return dom

    def g0_key(self, q: JgaQuery):
        """P0's sort key column(s) and the public array that decodes it.

        With a public dom0 and g0 plain at P0 (PK-PK views), the key is g0's
        rank in the sorted dom0 in ceil(log2 d0) bits, decoded by dom0;
        otherwise it is g0 itself (or nothing) and needs no decoding.
        """
        if q.group0 is None:
            return [], None
        col = self.col(0, q.group0)
        if q.dom0 is None or not isinstance(col, PlainColumn):
            return [col], None
        dom = np.array(self.domain(q, 0, col=col), dtype=np.uint64)
        width = max(1, (len(dom) - 1).bit_length())
        return [PlainColumn(np.searchsorted(dom, col.values), BINARY, width)], dom


def _protocol(body):
    """A GA protocol over (view0, view1) from its body over a `_Table`."""
    @functools.wraps(body)
    def protocol(sess: Session, view0, view1, q: JgaQuery) -> GroupResult:
        t = _Table(view0, view1)
        return GroupResult([]) if t.n == 0 else body(sess, t, q)
    return protocol


def _move(sess: Session, rho: SharedVector, cols: list) -> list[SharedVector]:
    """A shared permutation on P0's columns, plain or shared alike."""
    if not cols:
        return []
    if isinstance(cols[0], PlainColumn):
        return ob.perm_plain(sess, rho, 0, cols)
    return ob.perm_shared(sess, rho, cols)


def _tile(sv: SharedVector, reps: int) -> SharedVector:
    return sv.map(lambda a: np.tile(a, reps))


def _arith_to_bit(sv: SharedVector) -> SharedVector:
    """0/1 arithmetic share -> 1-bit binary share, locally: no carry reaches
    bit 0, so the halves' low bits XOR to the value."""
    return SharedVector(BINARY, 1, sv.shares[0] & _U64(1), sv.shares[1] & _U64(1))


def _mask(sess, f, cols):
    """Zero the columns where the 1-bit flag f is off, in one exchange."""
    return sh.mux_many(sess, f, [(c, SharedVector.zeros(len(c), c.flavor, c.width))
                                 for c in cols])


def _null_fill(sess, valid, values, q):
    """Each value slot where valid, its aggregate's identity elsewhere."""
    return sh.mux_many(sess, valid, [
        (v, SharedVector.public(np.full(len(v), AGG_IDENTITY[fn], np.uint64),
                                v.flavor)) for (_side, _col, fn), v in zip(q.aggs, values)])


def _convert_values(sess, q, values: dict, n: int) -> list[SharedVector]:
    """Value slots in query order and flavor; count aggregates public ones."""
    return [SharedVector.public(np.ones(n, dtype=np.uint64)) if fn == "count"
            else sh.convert(sess, values[i], _value_flavor(fn))
            for i, (_side, _col, fn) in enumerate(q.aggs)]


def _run_flags(sess, owner: int, col: np.ndarray):
    """Shared flags of a sorted column: (same as previous row, last of run)."""
    same = np.zeros(len(col), dtype=np.uint64)
    same[1:] = col[1:] == col[:-1]
    return (sh.share_vec(sess, owner, same, BINARY, 1),
            sh.share_vec(sess, owner, _U64(1) - np.roll(same, -1), BINARY, 1))


def _take(t: _Table, q: JgaQuery, values: dict, side=None, order=None):
    """Open value slots (of one side, when given) and their view columns."""
    slots = [i for i, (s, _col, fn) in enumerate(q.aggs)
             if i not in values and fn != "count" and side in (None, s)]
    return slots, [t.col(q.aggs[i][0], q.aggs[i][1], _value_flavor(q.aggs[i][2]),
                         order) for i in slots]


def _own_values(sess, t, q, owner, order) -> dict:
    """Value slots with the owner's columns shared in its local order."""
    slots, cols = _take(t, q, {}, owner, order)
    return {i: sh.share_vec(sess, owner, c.values, c.flavor)
            for i, c in zip(slots, cols)}


def _osn(sess, t, q, values, receiver, order, head) -> list[SharedVector]:
    """OSN of the head columns and the open value slots; returns the head."""
    slots, cols = _take(t, q, values)
    moved = ob.osn_shared(sess, receiver, order, head + cols)
    values.update(zip(slots, moved[len(head):]))
    return moved[:len(head)]


def _sort(sess, t, q, order, g0, values=None):
    """osn, convert, sort: P1's order moves e, P0's key `g0` (`g0_key`) and
    any value slots, then (e, g0) is sorted. Returns (gather permutation, e,
    g0, values); g0 keeps its width, so a rank of dom0 stays narrow in the
    flags, the mask and the reveal."""
    head = [t.e] + g0
    with sess.phase("osn"):
        e, *g0 = ob.osn_shared(sess, 1, order, head) if values is None \
            else _osn(sess, t, q, values, 1, order, head)
    with sess.phase("convert"):
        g0 = [sh.convert(sess, g, BINARY) for g in g0]
        if values is not None:
            values = _convert_values(sess, q, values, t.n)
    with sess.phase("sort"):
        pi, (e, *g0), _ = ob.stable_sort(sess, [e] + g0)
    return pi, e, (g0 or [None])[0], values


def _carry(sess, t, q, apply, pi, order, g1, p0_head):
    """carry-p1, carry-p0: P1's columns move by `apply` under pi with P1's
    order riding along as rho, which moves P0's; (g1, head, values, rho)."""
    with sess.phase("carry-p1"):
        slots, cols = _take(t, q, {}, 1, order)
        head = [PlainColumn(g1, BINARY)] if q.group1 else []
        *out, rho = apply(sess, pi, 1, head + cols + [PlainColumn(order, ARITH)])
        values = dict(zip(slots, out[len(head):]))
    with sess.phase("carry-p0"):
        slots, cols = _take(t, q, values)
        moved = _move(sess, rho, p0_head + cols)
        values.update(zip(slots, moved[len(p0_head):]))
    return (out[0] if head else None), moved[:len(p0_head)], values, rho


def _reveal(sess, f, groups, results):
    """mask, shuffle, reveal: rows whose flag f is off are zeroed, all are
    shuffled by P0 and opened to P1 as (flags, [g0, g1], results)."""
    with sess.phase("mask"):
        masked = _mask(sess, f, [g for g in groups if g is not None] + results)
    with sess.phase("shuffle"):
        alpha = sess.parties[0].draw_perm(len(f))
        cols = ob.osn_shared(sess, 0, alpha, [f] + masked)
    with sess.phase("reveal"):
        keep, *opened = [sh.open_vec(sess, c, to=1) for c in cols]
    it = iter(opened)
    return keep, [None if g is None else next(it) for g in groups], list(it)


def _rows(keep, groups, aggs, suffix: bool = False) -> GroupResult:
    """The canonical result table from the revealed rows marked by `keep`;
    with `suffix`, adjacent kept rows difference suffix sums into sums."""
    idx = np.flatnonzero(keep)
    keys = [g[idx] for g in groups if g is not None]
    if keys:
        idx = idx[np.lexsort(keys[::-1])]
    aggs = [a[idx] for a in aggs]
    if suffix:
        for a in aggs:
            a[:-1] -= a[1:]
    cols = [[None] * len(idx) if g is None else g[idx].tolist() for g in groups]
    return GroupResult(list(zip(*cols, *(a.tolist() for a in aggs))))


def _grouped_tail(sess: Session, q: JgaQuery, e_s: SharedVector, groups: list,
                  values: list[SharedVector], dom0=None) -> GroupResult:
    """Common tail once rows sit in (e, g0, g1) order; all-sum/count queries
    take local suffix sums, which party 1 differences after the reveal.
    With `dom0`, g0 holds ranks, which party 1 maps back to values."""
    n = len(e_s)
    suffix = _sum_like(q.aggs)
    with sess.phase("flag"):
        c = ob.adjacent_same_flags(
            sess, [e_s] + [g for g in groups if g is not None])
        cont = c  # suffix sums keep each group's first row
        if not suffix:  # the others keep its last: the next row starts anew
            cont = c.gather(np.minimum(np.arange(1, n + 1), n - 1))
            for half in cont.shares:
                half[n - 1] &= ~_U64(1)
        f = sh.and_bits(sess, e_s, sh.not_bits(cont))
    with sess.phase("aggregate"):
        if suffix:
            results = [v.map(lambda a: np.cumsum(a[::-1])[::-1].copy())
                       for v in values]
        else:
            results, _ = ob.trav_flags(sess, c, values,
                                       [fn for _, _, fn in q.aggs])
    keep, groups, aggs = _reveal(sess, f, groups, results)
    if dom0 is not None:
        groups[0] = dom0[groups[0]]
    return _rows(keep, groups, aggs, suffix)


# ---------------------------------------------------------------------------
# sorting-based protocols
# ---------------------------------------------------------------------------

@_protocol
def ga_sorting(sess: Session, t: _Table, q: JgaQuery) -> GroupResult:
    """First-attempt baseline: full shared permutation after the stable sort."""
    order, g1 = t.local_order(1, q.group1)
    g0, dom0 = t.g0_key(q)
    with sess.phase("share"):
        g1_s = [sh.share_vec(sess, 1, g1, BINARY)] if q.group1 else []
        values = _own_values(sess, t, q, 1, order)
    pi, e_s, g0_s, values = _sort(sess, t, q, order, g0, values)
    with sess.phase("perm"):
        moved = ob.perm_shared(sess, pi, g1_s + values)
    return _grouped_tail(sess, q, e_s, [g0_s, moved[0] if g1_s else None],
                         moved[len(g1_s):], dom0)


@_protocol
def ga_osorting(sess: Session, t: _Table, q: JgaQuery) -> GroupResult:
    """Optimized sorting: plain-vector permutation application where possible."""
    order, g1 = t.local_order(1, q.group1)
    g0, dom0 = t.g0_key(q)
    pi, e_s, g0_s, _ = _sort(sess, t, q, order, g0)
    g1_s, _, values, _ = _carry(sess, t, q, ob.perm_plain, pi, order, g1, [])
    with sess.phase("convert"):
        values = _convert_values(sess, q, values, t.n)
    return _grouped_tail(sess, q, e_s, [g0_s, g1_s], values, dom0)


# ---------------------------------------------------------------------------
# bitmap-based protocols
# ---------------------------------------------------------------------------

def _p0_bitmap_bits(sess, t: _Table, q: JgaQuery, dom0: list,
                    mask_with_e: bool) -> list[SharedVector]:
    """Per-domain-value 1-bit membership vectors of g0, optionally e-masked."""
    n, d0 = t.n, len(dom0)
    bits = t.bitmap(0, q.group0, dom0)
    plain = isinstance(bits, PlainColumn)
    cat = SharedVector.public(bits.values, BINARY, 1) if plain \
        else _arith_to_bit(bits)
    e = _tile(t.e, d0)
    if mask_with_e and plain and q.group0 is not None:
        # e AND b = (e0 AND b, locally at P0) xor (e1 AND b, one transfer)
        term = sh.asym_mul(sess, 1, e.shares[1], bits.values, BINARY, 1)
        cat = SharedVector(BINARY, 1, (e.shares[0] & bits.values)
                           ^ term.shares[0], term.shares[1])
    elif mask_with_e:  # a shared bitmap, or all ones without g0
        cat = sh.and_bits(sess, e, cat)
    return [cat.slice(j * n, (j + 1) * n) for j in range(d0)]


@_protocol
def ga_bsorting(sess: Session, t: _Table, q: JgaQuery) -> GroupResult:
    """Bitmap-assisted sorting: bitSort replaces the comparison-based sort."""
    dom0 = t.domain(q, 0, BITMAP_SORT_CAP)
    order, g1 = t.local_order(1, q.group1)
    with sess.phase("bitmap-mask"):
        bits = _p0_bitmap_bits(sess, t, q, dom0, mask_with_e=True)
    with sess.phase("osn-bitmap"):
        bits = ob.osn_shared(sess, 1, order, bits)
    with sess.phase("bitsort"):
        pi = ob.bit_sort(sess, bits)
    g0 = [t.col(0, q.group0)] if q.group0 else []
    g1_s, g0_s, values, rho = _carry(sess, t, q, ob.invp_plain, pi, order, g1, g0)
    with sess.phase("perm-e"):
        e_s = ob.perm_shared(sess, rho, [t.e])[0]
    with sess.phase("convert"):
        g0_s = sh.convert(sess, g0_s[0], BINARY) if g0_s else None
        values = _convert_values(sess, q, values, t.n)
    return _grouped_tail(sess, q, e_s, [g0_s, g1_s], values)


def _runs(sess, t, q, sorter: int, dom0: list | None = None) -> GroupResult:
    """Group by the runs of the sorter's locally sorted plain column, and by
    g0's bitmap blocks when `dom0` is given (P1 sorts then): one OSN of e,
    the value slots and the blocks into the sorter's order, the null fill,
    the scan along runs with validity, and f = run end AND valid.

    Rows in P1's order are masked by f and opened as they are, which shows
    P1 only which of its own runs hold a group; rows in P0's order go
    through `_reveal`'s shuffle, since P1 would see the run lengths of P0's
    sorted column otherwise.
    """
    order, g = t.local_order(sorter, q.group1 if sorter else q.group0)
    d = 1 if dom0 is None else len(dom0)
    with sess.phase("share"):
        run, ends = _run_flags(sess, sorter, g)
        values = _own_values(sess, t, q, sorter, order)
        g_s = None if sorter else sh.share_vec(sess, 0, g, BINARY)
    with sess.phase("osn"):
        bits = [] if dom0 is None else \
            _p0_bitmap_bits(sess, t, q, dom0, mask_with_e=False)
        e, *bits = _osn(sess, t, q, values, sorter, order, [t.e] + bits)
    with sess.phase("convert"):
        values = _convert_values(sess, q, values, t.n)
    with sess.phase("aggregate"):
        valid = _tile(e, d)
        if bits:
            valid = sh.and_bits(sess, valid, SharedVector.concat(bits))
        values = _null_fill(sess, valid, [_tile(v, d) for v in values], q)
        outs, valid = ob.trav_flags(sess, _tile(run, d), values,
                                    [fn for _, _, fn in q.aggs], valid)
    with sess.phase("flag"):
        f = sh.and_bits(sess, _tile(ends, d), valid)
    if not sorter:
        return _rows(*_reveal(sess, f, [g_s, None], outs))
    with sess.phase("mask"):
        outs = _mask(sess, f, outs)
    with sess.phase("reveal"):
        keep, *aggs = [sh.open_vec(sess, c, to=1) for c in [f] + outs]
    groups = [None if dom0 is None else np.repeat(np.array(dom0, np.uint64), t.n),
              np.tile(g, d) if q.group1 else None]
    return _rows(keep, groups, aggs)


@_protocol
def ga_mix(sess: Session, t: _Table, q: JgaQuery) -> GroupResult:
    """Bitmap on g0 plus local sorting on g1; no oblivious sort at all."""
    return _runs(sess, t, q, 1,
                 t.domain(q, 0, BITMAP_SORT_CAP) if q.group0 else None)


@_protocol
def ga_oneside(sess: Session, t: _Table, q: JgaQuery) -> GroupResult:
    """Grouping entirely on one party: local sort plus one switching pass."""
    if not q.one_side():
        raise SizeMismatch("ga_oneside needs grouping columns on one side only")
    return _runs(sess, t, q, 1 if q.group1 else 0)


@_protocol
def ga_bitmap(sess: Session, t: _Table, q: JgaQuery) -> GroupResult:
    """Both group columns as bitmaps: one aggregation per domain-value pair."""
    n, dom0, dom1 = t.n, t.domain(q, 0), t.domain(q, 1)
    d0, d1 = len(dom0), len(dom1)
    pairs = d0 * d1
    if pairs > BITMAP_PAIR_CAP:
        raise DomainTooLarge(f"d0*d1 = {pairs} exceeds {BITMAP_PAIR_CAP}")

    # One batched gate call per product family: the rows of bucket pair
    # (j, p) form block j * d1 + p, so all pairs share their rounds.
    def cat0(a):  # d0 blocks, each repeated for every g1 value
        return np.repeat(a.reshape(d0, n), d1, axis=0).ravel()

    def cat1(a):  # d1 blocks, all of them repeated for every g0 value
        return np.tile(a, d0)

    b0, b1 = t.bitmap(0, q.group0, dom0), t.bitmap(1, q.group1, dom1).values
    plain = isinstance(b0, PlainColumn)  # else P0's bitmap is shared
    b0_cat = cat0(b0.values) if plain else b0.map(cat0)
    b1_cat = cat1(b1)
    with sess.phase("products"):
        if plain:
            witness = sh.asym_mul(sess, 0, b0_cat, b1_cat, ARITH, 64)
        else:
            witness = sh.mul(sess, b0_cat, sh.share_vec(sess, 1, b1_cat, ARITH))
        qvecs = []
        for side, col, fn in q.aggs:
            flavor = _value_flavor(fn)
            if fn == "count":  # reads the bucket counts
                qvecs.append(None)
            elif side == 1:
                x = cat1(b1 * np.tile(t.col(1, col).values, d1))
                if plain:
                    qvecs.append(sh.asym_mul(sess, 0, b0_cat, x, flavor, 64))
                else:
                    prod = sh.mul(sess, b0_cat, sh.share_vec(sess, 1, x, ARITH))
                    qvecs.append(sh.convert(sess, prod, flavor))
            elif isinstance(v0 := t.col(0, col), PlainColumn):
                x = cat0(b0.values * np.tile(v0.values, d0))
                qvecs.append(sh.asym_mul(sess, 1, b1_cat, x, flavor, 64))
            else:  # PK-FK: shared values, gated by the shared bitmap if any
                v0 = _tile(v0, pairs)
                if not plain:
                    v0 = sh.mul(sess, b0_cat, v0)
                gate = sh.share_vec(sess, 1, b1_cat, ARITH)
                qvecs.append(sh.convert(sess, sh.mul(sess, gate, v0), flavor))

    e_t = _tile(t.e, pairs)
    with sess.phase("aggregate"):
        ea = sh.b2a(sess, e_t)

        def bucket_sums(vec: SharedVector) -> SharedVector:
            return sh.mul(sess, ea, vec).map(
                lambda a: a.reshape(pairs, n).sum(axis=1, dtype=np.uint64))

        agg_out, tbits = [bucket_sums(witness)], None
        for (_side, _col, fn), qv in zip(q.aggs, qvecs):
            if fn == "sum":
                agg_out.append(bucket_sums(qv))
            elif fn == "xor":  # linear over binary shares: reduce locally
                x = sh.and_bits(sess, sh.replicate_bit(e_t, qv.width), qv)
                agg_out.append(x.map(lambda a: np.bitwise_xor.reduce(
                    a.reshape(pairs, n), axis=1)))
            elif fn != "count":
                if tbits is None:
                    tbits = sh.and_bits(sess, e_t, _arith_to_bit(witness))
                agg_out.append(_tree_reduce(sess, tbits, qv, pairs, fn))
    with sess.phase("reveal"):
        cnt_open, *opened = [sh.open_vec(sess, a, to=1) for a in agg_out]
    it = iter(opened)
    groups = [np.repeat(np.array(dom0, dtype=np.uint64), d1) if q.group0 else None,
              np.tile(np.array(dom1, dtype=np.uint64), d0) if q.group1 else None]
    return _rows(cnt_open, groups, [cnt_open if fn == "count" else next(it)
                                    for _, _, fn in q.aggs])


def _tree_reduce(sess: Session, validity: SharedVector, values: SharedVector,
                 buckets: int, fn: str) -> SharedVector:
    """Per-bucket max/min over (validity, value) rows, log-depth: buckets
    are contiguous segments, padded to even length with invalid rows."""
    def pad(x):  # one more row per bucket
        return x.map(lambda a: np.pad(a.reshape(buckets, -1),
                                      ((0, 0), (0, 1))).ravel())

    def halves(x):  # every bucket's first and second half of rows
        return [x.map(lambda a: a.reshape(buckets, 2, -1)[:, k].ravel())
                for k in (0, 1)]

    length = len(values) // buckets
    t, v = validity, values
    while length > 1:
        if length % 2 == 1:
            t, v, length = pad(t), pad(v), length + 1
        (ta, tb), (va, vb) = halves(t), halves(v)
        g = sh.gt(sess, vb, va) if fn == "max" else sh.gt(sess, va, vb)
        # ta AND NOT g and the OR's ta AND tb share one exchange
        [[blocked, both]] = sh._beaver(sess, [(ta, [sh.not_bits(g), tb])])
        pick_b = sh.and_bits(sess, tb, sh.not_bits(blocked))
        v = sh.mux(sess, pick_b, vb, va)
        t = sh.xor(sh.xor(ta, tb), both)
        length //= 2
    return v


PROTOCOLS = {
    "sorting": ga_sorting,
    "osorting": ga_osorting,
    "bsorting": ga_bsorting,
    "mix": ga_mix,
    "bitmap": ga_bitmap,
    "oneside": ga_oneside,
}


def _auto(t: _Table, q: JgaQuery) -> str:
    """`select_protocol`'s pick among the protocols the view can run.

    In a PK-FK view P0's group column is secret-shared: no party can sort
    by it locally (oneside), and the bitmap family reads it only from the
    view's `__bm:<g0>:<j>` columns over a public domain. Such queries fall
    back to osorting.
    """
    try:
        d0 = len(t.domain(q, 0))
    except DomainTooLarge:
        d0 = 1 << 32
    name = select_protocol(t.n, d0, len(t.domain(q, 1)), q.aggs,
                           one_side=q.one_side())
    if not (t.pkfk and q.group0) or name == "osorting":
        return name
    bitmaps = q.dom0 is not None and all(
        f"__bm:{q.group0}:{j}" in t.v0.j0_half for j in range(d0))
    return name if bitmaps and name != "oneside" else "osorting"


def run_query(sess: Session, view0, view1, q: JgaQuery) -> GroupResult:
    name = _auto(_Table(view0, view1), q) if q.protocol == "auto" \
        else q.protocol
    return PROTOCOLS[name](sess, view0, view1, q)
