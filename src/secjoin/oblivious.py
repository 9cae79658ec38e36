"""Oblivious primitives over shared vectors.

Switching (OSN) over a Beneš network, random shuffle, shared-permutation
application (shared and plain-vector variants), one-bit sort-permutation
generation, bitmap stable sort, a bitonic stable sort, and the segmented
running aggregate used by the group-aggregation protocols.

Permutation conventions follow the apply-notation Y = pi . X with
y_i = x_{pi(i)} (1-based IndexMap targets). bit_sort/per_gen return the
scatter-style permutation whose inverse application stably sorts, matching
how the sorting primitives are composed downstream.
"""
from __future__ import annotations

import numpy as np

from . import sharing as sh
from .benes import build_program
from .errors import (FlavorMismatch, NotAPermutation, PreconditionViolated,
                     SizeMismatch, WidthMismatch)
from .ring import (ARITH, BINARY, as_ring, bound_width, combine, mask_words,
                   uncombine, width_mask)
from .session import Session
from .sharing import SharedVector

_U64 = np.uint64

AGG_SUM = "sum"
AGG_COUNT = "count"
AGG_MAX = "max"
AGG_MIN = "min"
AGG_XOR = "xor"

AGG_IDENTITY = {AGG_SUM: 0, AGG_COUNT: 0, AGG_XOR: 0,
                AGG_MAX: 0, AGG_MIN: (1 << 64) - 1}

# the stack each aggregate joins in a `trav_flags` scan
AGG_KIND = {AGG_SUM: AGG_SUM, AGG_COUNT: AGG_SUM, AGG_XOR: AGG_XOR,
            AGG_MAX: AGG_MAX, AGG_MIN: AGG_MAX}


def _pad_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def _extend_perm(pi: np.ndarray, m: int) -> np.ndarray:
    """Extend a 1-based permutation of [n] to [m] with fixed points."""
    out = np.arange(1, m + 1, dtype=np.int64)
    out[:len(pi)] = pi
    return out


def invert_perm(pi: np.ndarray) -> np.ndarray:
    """Inverse of a 1-based permutation."""
    inv = np.empty(len(pi), dtype=np.int64)
    inv[np.asarray(pi, dtype=np.int64) - 1] = np.arange(1, len(pi) + 1)
    return inv


class PlainColumn:
    """A sender-held plaintext column fed into an OSN."""

    __slots__ = ("values", "flavor", "width")

    def __init__(self, values, flavor=ARITH, width=64):
        self.values = as_ring(values) & width_mask(width)
        self.flavor = flavor
        self.width = width

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# oblivious switching network
# ---------------------------------------------------------------------------

def check_perm(pi: np.ndarray, what: str) -> None:
    """Raise `NotAPermutation` unless the int64 vector pi is a permutation
    of [1..n]: one range check and one count, O(n)."""
    n = len(pi)
    if n and (pi.min() < 1 or pi.max() > n
              or np.count_nonzero(np.bincount(pi, minlength=n + 1)) != n):
        raise NotAPermutation(f"{what} is not a permutation of [1..{n}]")


def _osn_network(sess: Session, receiver: int, pi: np.ndarray,
                 cols: list[PlainColumn]) -> list[SharedVector]:
    """Core OSN: the receiver knows pi, the sender holds plain columns.

    The sender masks every network wire; one OT per switch carries the
    per-column translation pair matching the receiver's control bit. The
    receiver evaluates the masked network locally and ends holding y + mask,
    the sender keeps the negated final masks as its share.
    """
    pi = np.asarray(pi, dtype=np.int64)
    n = len(pi)
    sender = 1 - receiver
    for col in cols:
        if len(col) != n:
            raise SizeMismatch(f"column length {len(col)} != |pi| = {n}")
    if n == 0:
        return [SharedVector.zeros(0, c.flavor, c.width) for c in cols]
    check_perm(pi, "pi")

    m = _pad_pow2(n)
    prog = build_program(_extend_perm(pi, m) - 1)
    s_count = prog.num_switches
    ctrl = prog.controls()
    spool = sess.parties[sender]
    ncols = len(cols)

    data = []
    for col in cols:
        d = np.zeros(m, dtype=np.uint64)
        d[:n] = col.values
        data.append(d)
    # Every mask in one draw: each column's input masks, then per layer and
    # per column the fresh masks of the switches' top and bottom outputs.
    masks = spool.u64(ncols * (m + 2 * s_count))
    init = masks[:ncols * m].reshape(ncols, m)
    cur = init.copy()

    # Translations for both switch settings, all layers precomputed.
    t_straight = np.zeros((s_count, 2 * ncols), dtype=np.uint64)
    t_cross = np.zeros((s_count, 2 * ncols), dtype=np.uint64)
    pos = 0
    for a_idx, b_idx, _ in prog.layers:
        k = len(a_idx)
        base = ncols * (m + 2 * pos)
        fresh = masks[base:base + 2 * ncols * k].reshape(ncols, 2, k)
        for ci, col in enumerate(cols):
            fresh_a, fresh_b = fresh[ci]
            ma, mb = cur[ci][a_idx], cur[ci][b_idx]
            f = col.flavor
            t_straight[pos:pos + k, 2 * ci] = uncombine(f, fresh_a, ma)
            t_straight[pos:pos + k, 2 * ci + 1] = uncombine(f, fresh_b, mb)
            t_cross[pos:pos + k, 2 * ci] = uncombine(f, fresh_a, mb)
            t_cross[pos:pos + k, 2 * ci + 1] = uncombine(f, fresh_b, ma)
            cur[ci][a_idx] = fresh_a
            cur[ci][b_idx] = fresh_b
        pos += k

    # Only a column's low `width` bits matter (neither XOR nor a carry moves
    # a bit downward), so every frame is cut to its columns' widths, and the
    # OT pads are drawn at those widths: no word sent has a bit above what
    # its ledger entry counts.
    widths = [col.width for col in cols]
    word_widths = [w for w in widths for _ in (0, 1)]
    width_sum = sum(widths)
    if s_count:
        (c_bits, qc), (q0, q1) = sess.dealer.random_ots(
            s_count, 2 * ncols, receiver=receiver, widths=word_widths)
        d = sess.send(receiver, ctrl ^ c_bits, s_count)
        y0 = t_straight ^ np.where((d == 1)[:, None], q1, q0)
        y1 = t_cross ^ np.where((d == 1)[:, None], q0, q1)
        mask_words(y0, word_widths)
        mask_words(y1, word_widths)
        y0 = sess.send(sender, y0, 2 * width_sum * s_count)
        y1 = sess.send(sender, y1, 2 * width_sum * s_count)
        t_sel = (np.where((ctrl == 1)[:, None], y1, y0) ^ qc)
    # the receiver evaluates its own copy: what was sent stays read-only
    masked = [sess.send(sender, combine(col.flavor, dcol, mk)
                        & width_mask(col.width), col.width * m).copy()
              for col, dcol, mk in zip(cols, data, init)]

    # Receiver-side evaluation, layer by layer.
    pos = 0
    for a_idx, b_idx, _ in prog.layers:
        k = len(a_idx)
        lc = ctrl[pos:pos + k] == 1
        for ci, col in enumerate(cols):
            v = masked[ci]
            va, vb = v[a_idx], v[b_idx]
            v[a_idx] = combine(col.flavor, np.where(lc, vb, va),
                               t_sel[pos:pos + k, 2 * ci])
            v[b_idx] = combine(col.flavor, np.where(lc, va, vb),
                               t_sel[pos:pos + k, 2 * ci + 1])
        pos += k

    # the receiver holds y + mask, the sender the half that joins it to y
    out = []
    for col, v, mk in zip(cols, masked, cur):
        halves = [None, None]
        halves[receiver] = v[:n]
        halves[sender] = uncombine(col.flavor, _U64(0), mk[:n])
        wm = width_mask(col.width)
        out.append(SharedVector(col.flavor, col.width, *(h & wm for h in halves)))
    return out


def osn_plain(sess: Session, receiver: int, pi: np.ndarray,
              cols: list[PlainColumn]) -> list[SharedVector]:
    """y_i = x_{pi(i)}: permutation at the receiver, plain vectors at the sender."""
    return _osn_network(sess, receiver, pi, cols)


def osn_shared(sess: Session, receiver: int, pi: np.ndarray,
               cols: list[SharedVector | PlainColumn]) -> list[SharedVector]:
    """OSN over shared (or sender-plain) columns under the receiver's pi.

    Shared columns: the sender feeds its half through the plain network and
    the receiver adds its own permuted half locally.
    """
    sender = 1 - receiver
    n = len(pi)
    plain_cols = []
    for col in cols:
        if isinstance(col, PlainColumn):
            plain_cols.append(col)
        else:
            plain_cols.append(PlainColumn(col.shares[sender], col.flavor, col.width))
    outs = _osn_network(sess, receiver, pi, plain_cols)
    gather = np.asarray(pi, dtype=np.int64) - 1
    for col, out in zip(cols, outs):
        if not isinstance(col, PlainColumn):
            rsh = out.shares[receiver]
            rsh[:] = combine(col.flavor, rsh, col.shares[receiver][gather])
    return outs


# ---------------------------------------------------------------------------
# shuffle and shared permutations
# ---------------------------------------------------------------------------

def shuffle(sess: Session, cols: list[SharedVector]) -> list[SharedVector]:
    """Co-shuffle all columns under one hidden random permutation."""
    out, _ = _shuffle_keep(sess, cols)
    return out


def _shuffle_keep(sess: Session, cols):
    n = len(cols[0]) if cols else 0
    for col in cols:
        if len(col) != n:
            raise SizeMismatch("shuffle columns differ in length")
    phi_a = sess.parties[0].draw_perm(n)
    phi_b = sess.parties[1].draw_perm(n)
    step1 = osn_shared(sess, 0, phi_a, cols)
    step2 = osn_shared(sess, 1, phi_b, step1)
    return step2, (phi_a, phi_b)


def _unshuffle(sess: Session, cols, perms):
    phi_a, phi_b = perms
    step1 = osn_shared(sess, 1, invert_perm(phi_b), cols)
    return osn_shared(sess, 0, invert_perm(phi_a), step1)


def _open_perm(sess: Session, sv: SharedVector, to) -> np.ndarray:
    """Open a shared permutation, which must be one of [1..n]: a shared pi
    that is not gives an opened vector that is not either."""
    out = sh.open_vec(sess, sv, to).astype(np.int64)
    check_perm(out, "the opened permutation")
    return out


def invp_shared(sess: Session, pi: SharedVector,
                cols: list[SharedVector]) -> list[SharedVector]:
    """Apply pi^-1 to shared columns: shuffle (pi, X) jointly, open the
    shuffled permutation, finish locally."""
    shuffled, _ = _shuffle_keep(sess, [pi] + list(cols))
    sigma = _open_perm(sess, shuffled[0], "both")
    gather = invert_perm(sigma) - 1
    return [c.gather(gather) for c in shuffled[1:]]


def perm_shared(sess: Session, pi: SharedVector,
                cols: list[SharedVector]) -> list[SharedVector]:
    """Apply pi to shared columns (dual of invp_shared).

    Shuffle pi alone, open sigma = pi . phi, gather by sigma, then undo the
    hidden phi by running the switching passes backwards.
    """
    shuffled, perms = _shuffle_keep(sess, [pi])
    sigma = _open_perm(sess, shuffled[0], "both")
    gathered = [c.gather(sigma - 1) for c in cols]
    return _unshuffle(sess, gathered, perms)


def perm_plain(sess: Session, pi: SharedVector, sender: int,
               cols: list[PlainColumn]) -> list[SharedVector]:
    """Apply a shared permutation to sender-held plain vectors (2 OSN passes)."""
    receiver = 1 - sender
    n = len(pi)
    sigma = sess.parties[receiver].draw_perm(n)
    rho_sv = osn_shared(sess, receiver, sigma, [pi])[0]
    rho = _open_perm(sess, rho_sv, sender)
    moved = [PlainColumn(c.values[rho - 1], c.flavor, c.width) for c in cols]
    return osn_plain(sess, receiver, invert_perm(sigma), moved)


def invp_plain(sess: Session, pi: SharedVector, sender: int,
               cols: list[PlainColumn]) -> list[SharedVector]:
    """Apply the inverse of a shared permutation to sender-held plain vectors."""
    receiver = 1 - sender
    n = len(pi)
    sigma = sess.parties[sender].draw_perm(n)
    rho_sv = osn_shared(sess, sender, sigma, [pi])[0]
    rho = _open_perm(sess, rho_sv, receiver)
    moved = [PlainColumn(c.values[sigma - 1], c.flavor, c.width) for c in cols]
    return osn_plain(sess, receiver, invert_perm(rho), moved)


# ---------------------------------------------------------------------------
# sort-permutation generation
# ---------------------------------------------------------------------------

def bit_sort(sess: Session, bvecs: list[SharedVector],
             debug: bool = False) -> SharedVector:
    """Stable sort permutation for a one-hot bitmap (at most one set bit per row).

    Rows with no set bit rank first, then buckets 1..d in ascending order;
    original order is kept inside every bucket. Output is an arithmetic shared
    permutation pi: row i belongs at position pi(i) in the sorted order. Its
    b2a, its product and pi itself run at `bound_width(n)` bits, as every
    running count is at most n.
    """
    n = len(bvecs[0])
    for b in bvecs:
        if b.width != 1 or b.flavor != BINARY:
            raise PreconditionViolated("bit_sort expects 1-bit binary vectors")
        if len(b) != n:
            raise SizeMismatch("bitmap vectors differ in length")
    if debug:
        total = sum(b.reconstruct().astype(np.int64) for b in bvecs)
        if np.any(total > 1):
            raise PreconditionViolated("some row has more than one set bit")
    comp = bvecs[0]
    for b in bvecs[1:]:
        comp = sh.xor(comp, b)
    comp = sh.not_bits(comp)
    flat_a = sh.b2a(sess, SharedVector.concat([comp] + list(bvecs)),
                    bound_width(n))
    prod = sh.mul(sess, flat_a, flat_a.map(np.cumsum))
    return prod.map(lambda a: a.reshape(-1, n).sum(axis=0, dtype=np.uint64))


def per_gen(sess: Session, v: SharedVector) -> SharedVector:
    """Stable-sort permutation of a one-bit vector (zeros first)."""
    return bit_sort(sess, [v])


# ---------------------------------------------------------------------------
# stable sort (bitonic network)
# ---------------------------------------------------------------------------

def stable_sort(sess: Session, key_cols: list[SharedVector],
                carry_cols: list[SharedVector] | None = None):
    """Ascending stable sort of binary-shared keys via a bitonic network.

    Ties keep input order: the 1-based row index, in m.bit_length() bits,
    is the least significant key field, which also makes every comparator
    key distinct. The fields go into as few binary limbs as they fit in
    (`sh.pack`). A stage costs one `sh.compare` over the limbs, for one
    w-bit limb 1 + ceil(log2 w) rounds and 4(w + 2W - 3) wire bits per
    comparator with W the power of two at or above w, and one `mux_many`
    exchange for every column (an arithmetic carry column adds a `b2a` of
    the swap bit before it).
    Returns (pi, sorted key columns,
    sorted carry columns) where pi is the gather permutation
    (sorted_i = input_{pi(i)}) as a binary shared vector of m.bit_length()
    bits.
    """
    carry_cols = carry_cols or []
    n = len(key_cols[0])
    if n == 0:
        return (SharedVector.zeros(0, BINARY), [k.copy() for k in key_cols],
                [c.copy() for c in carry_cols])
    if any(k.flavor != BINARY for k in key_cols):
        raise FlavorMismatch("stable_sort needs binary-shared keys")
    m = _pad_pow2(n)

    def pad(sv: SharedVector, fill: int) -> SharedVector:
        extra = np.full(m - n, fill, dtype=np.uint64)
        return SharedVector.concat(
            [sv, SharedVector.public(extra, sv.flavor, sv.width)])

    # keys pad with all ones (masked to each field's width), so pads sort last
    fields = [pad(k, (1 << 64) - 1) for k in key_cols]
    fields.append(SharedVector.public(np.arange(1, m + 1, dtype=np.uint64),
                                      BINARY, bound_width(m)))
    limbs, layout = sh.pack(fields)

    cols = limbs + [pad(c, 0) for c in carry_cols]
    rows = np.arange(m)
    k = 2
    while k <= m:
        j = k // 2
        while j >= 1:
            left = rows[(rows & j) == 0]  # each comparator's lower row
            right = left | j
            desc = ((left & k) != 0).astype(np.uint64)
            pairs = [(c.gather(left), c.gather(right)) for c in cols]
            swap = sh.xor_public(
                sh.compare(sess, *zip(*pairs[:len(limbs)]), True), desc)
            lower = sh.mux_many(sess, swap, [(vb, va) for va, vb in pairs])
            for c, (va, vb), new_a in zip(cols, pairs, lower):
                new_b = sh.sub(sh.add(va, vb), new_a)  # the pair keeps its sum
                for half, a, b in zip(c.shares, new_a.shares, new_b.shares):
                    half[left], half[right] = a, b
            j //= 2
        k *= 2

    out = [c.slice(0, n) for c in cols]
    unpacked = [out[li].map(lambda a, s=_U64(shift), w=width_mask(f.width):
                            (a >> s) & w, f.width)
                for f, (li, shift) in zip(fields, layout)]
    return unpacked[-1], unpacked[:-1], out[len(limbs):]


# ---------------------------------------------------------------------------
# oblivious traversal (segmented running aggregate)
# ---------------------------------------------------------------------------

def adjacent_same_flags(sess: Session, fields: list[SharedVector]) -> SharedVector:
    """1-bit flags c with c_i = 1 iff row i has the same binary key fields
    as row i-1: the fields packed into limbs (`sh.pack`), then one
    `sh.compare` for equality over all of them."""
    n = len(fields[0])
    prev = np.maximum(np.arange(n) - 1, 0)
    limbs, _ = sh.pack(fields)
    acc = sh.compare(sess, limbs, [limb.gather(prev) for limb in limbs], False)
    # first row starts its own group
    first = np.zeros(n, dtype=np.uint64)
    first[0] = 1
    return acc.map(lambda a: a & ~first)


def trav_flags(sess: Session, flags: SharedVector, values: list[SharedVector],
               aggs: list[str], validity: SharedVector | None = None):
    """Segmented running aggregates with precomputed same-group flags.

    Scans `values` under `aggs`, any mix of sum, count, xor, max and min, in
    one pass. The vectors of one kind (`AGG_KIND`) and width share a flavor
    and form one stack of blocks over the flags: each level's shift stays
    inside a block, so no run crosses one, and the run flags are ANDed once
    per level for every stack. Max and min values must share one width. A
    level runs one `gt(prev, cur)` over the max/min stack (1 + ceil(log2 w)
    rounds and 4(w + 2W - 3) wire bits per w-bit value, W the power of two
    at or above w), then one `b2a` of the run flags at the widest sum
    stack's width, cut down for each narrower sum stack; one exchange then
    carries the next run flags and every product with them:
      - sum, count: run * prev;
      - xor: run AND prev;
      - max, min: take = run AND (gt XOR dir), where the public dir is 1 on
        min blocks.
    A second exchange muxes the max/min stack's prev over cur by take.
    With `validity`, the validity is ORed along each run (used for the
    null-absorbing encoding): run AND its shifted self joins the first
    exchange and the OR's AND the second. Returns (aggregated values in the
    given order, aggregated validity).
    """
    n = len(flags)
    if any(len(v) != n for v in values):
        raise SizeMismatch("flags and values differ in length")
    stacks = {}  # each (kind, width)'s indices into values, in the given order
    for i, agg in enumerate(aggs):
        stacks.setdefault((AGG_KIND[agg], values[i].width), []).append(i)
    vals = {key: SharedVector.concat([values[i] for i in idx])
            for key, idx in stacks.items()}
    linear = sorted((key for key in vals if key[0] != AGG_MAX),
                    key=lambda key: key[0] != AGG_SUM)  # sums first
    sum_width = max((w for kind, w in linear if kind == AGG_SUM), default=0)
    tops = [key for key in vals if key[0] == AGG_MAX]
    if len(tops) > 1:
        raise WidthMismatch("max and min values of one scan differ in width")
    top = tops[0] if tops else None  # the max/min stack
    dirs = np.repeat(np.array([aggs[i] == AGG_MIN for i in stacks.get(top, [])],
                              np.uint64), n)

    def split(key, sv):
        return [sv.slice(b * n, (b + 1) * n) for b in range(len(stacks[key]))]

    run = flags
    s = 1
    while s < n:
        shift_idx = np.maximum(np.arange(n) - s, 0)
        prev = {key: v.map(lambda a, b=len(stacks[key]):
                           a.reshape(b, n)[:, shift_idx].ravel())
                for key, v in vals.items()}
        ys = []  # every AND with the run flags
        if 2 * s < n:  # the last level needs no further run flags
            zero_head = np.ones(n, dtype=np.uint64)
            zero_head[:s] = 0
            ys.append(run.map(lambda a: a[shift_idx] * zero_head))
        if validity is not None:
            ys.append(validity.gather(shift_idx))
        head = len(ys)
        if top:  # take joins them
            ys += split(top, sh.xor_public(sh.gt(sess, prev[top], vals[top]),
                                           dirs))
        run_a = sh.b2a(sess, run, sum_width) if sum_width else None
        groups = [(run, ys)] + [
            (sh.replicate_bit(run, w) if kind == AGG_XOR
             else run_a if w == sum_width else run_a.cut(w),
             split((kind, w), prev[kind, w])) for kind, w in linear]
        ands, *prods = sh._beaver(sess, groups)
        second = []  # the ANDs that read this level's products
        if top:
            take = SharedVector.concat(ands[head:])
            second.append((sh.replicate_bit(take, top[1]),
                           [sh.xor(prev[top], vals[top])]))
        if validity is not None:
            second.append((validity, [ands[head - 1]]))
        done = sh._beaver(sess, second)
        if top:
            vals[top] = sh.xor(vals[top], done[0][0])
        for key, prod in zip(linear, prods):
            vals[key] = sh.add(vals[key], SharedVector.concat(prod))
        if validity is not None:  # v OR t = v ^ t ^ (v AND t)
            validity = sh.xor(sh.xor(validity, ands[head - 1]), done[-1][0])
        if 2 * s < n:
            run = ands[0]
        s *= 2
    outs = {key: iter(split(key, v)) for key, v in vals.items()}
    return [next(outs[AGG_KIND[agg], v.width])
            for agg, v in zip(aggs, values)], validity


def trav(sess: Session, keys: list[SharedVector], values: SharedVector,
         agg: str) -> SharedVector:
    """y_i = agg over the maximal run of equal adjacent keys ending at i."""
    flags = adjacent_same_flags(sess, keys)
    [out], _ = trav_flags(sess, flags, [values], [agg])
    return out
