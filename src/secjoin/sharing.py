"""Additive secret shares over Z_2^w and the basic secure gates.

Values are shared either arithmetically (x = x0 + x1 mod 2^w) or binary
(x = x0 XOR x1, bits packed into one uint64 per element), at a width w of
at most 64 bits. A value known to stay at or below a public bound is
shared at that bound's width (`ring.bound_width`): cutting to w bits
commutes with +, * and XOR, so bits of a half above w are junk that every
gate ignores, no frame carries and every reconstruct masks. A SharedVector
keeps both halves side by side; party isolation is a discipline of the
protocol code: everything that logically crosses between parties goes
through the session so the transcript stays faithful.

Gate costs: mul/AND burn one Beaver triple per element (per bit for packed
binary) and one exchange round, in one gate for both flavors (`_beaver`).
The gate takes a list of (x, ys) groups of any flavors and widths and sends
all their openings in one frame, so the independent ANDs and products of
one circuit level share one exchange. add/XOR are local; conversions use
dealer daBits/edaBits. Two log-depth circuits run over (generate,
propagate) bit pairs, one exchange per level. `_prefix`, a Kogge-Stone
prefix at the full width on every level, gives a2b every carry. `compare`
needs only the top pair, so it reduces by a tree (`_reduce`) whose frames
halve each level: x > y or x == y over keys of most-significant-first
limbs, one tree per limb run in lockstep, and eq and gt are its one-limb
calls. At 64 bits gt sends 756 wire bits per element in 7 rounds, where
the prefix sent 3072. `pack` puts binary fields into such limbs.
"""
from __future__ import annotations

import numpy as np

from .dealer import SHARE_MASKS
from .errors import FlavorMismatch, SizeMismatch, WidthMismatch
from .ring import ARITH, BINARY, as_ring, combine, uncombine, width_mask
from .session import Session

_U64 = np.uint64


# ---------------------------------------------------------------------------
# shared vectors
# ---------------------------------------------------------------------------

class SharedVector:
    """One logical vector, both additive halves, uniform flavor and width."""

    __slots__ = ("flavor", "width", "shares")

    def __init__(self, flavor: str, width: int, share0: np.ndarray,
                 share1: np.ndarray):
        if len(share0) != len(share1):
            raise SizeMismatch("share halves differ in length")
        self.flavor = flavor
        self.width = width
        self.shares = (share0, share1)

    def __len__(self):
        return len(self.shares[0])

    @classmethod
    def zeros(cls, n: int, flavor: str = ARITH, width: int = 64):
        z = np.zeros(n, dtype=np.uint64)
        return cls(flavor, width, z, z.copy())

    @classmethod
    def public(cls, values, flavor: str = ARITH, width: int = 64):
        """A publicly known vector in shared form (party 0 holds it plain)."""
        v = as_ring(values) & width_mask(width)
        return cls(flavor, width, v, np.zeros(len(v), dtype=np.uint64))

    def reconstruct(self) -> np.ndarray:
        return combine(self.flavor, *self.shares) & width_mask(self.width)

    def map(self, fn, width: int | None = None) -> "SharedVector":
        """The same local function on both halves, optionally to a new width."""
        return SharedVector(self.flavor, self.width if width is None else width,
                            fn(self.shares[0]), fn(self.shares[1]))

    @staticmethod
    def concat(parts: list["SharedVector"]) -> "SharedVector":
        """The parts end to end; all must share flavor and width."""
        for part in parts[1:]:
            parts[0]._check_kind(part)
        return SharedVector(parts[0].flavor, parts[0].width,
                            *(np.concatenate([p.shares[k] for p in parts])
                              for k in (0, 1)))

    def gather(self, idx) -> "SharedVector":
        """Apply a public index map to both halves (local)."""
        idx = np.asarray(idx)
        return self.map(lambda a: a[idx])

    def slice(self, lo, hi) -> "SharedVector":
        return self.map(lambda a: a[lo:hi])

    def copy(self) -> "SharedVector":
        return self.map(np.copy)

    def cut(self, width: int) -> "SharedVector":
        """The same value's low `width` bits, at that width (local)."""
        return self.map(lambda a: a & width_mask(width), width)

    def _check_kind(self, other: "SharedVector"):
        if self.flavor != other.flavor:
            raise FlavorMismatch(f"{self.flavor} vs {other.flavor}")
        if self.width != other.width:
            raise WidthMismatch(f"{self.width} vs {other.width}")

    def _check_like(self, other: "SharedVector"):
        self._check_kind(other)
        if len(self) != len(other):
            raise SizeMismatch(f"{len(self)} vs {len(other)}")


def share_vec(sess: Session, owner: int, values, flavor: str = ARITH,
              width: int = 64) -> SharedVector:
    """Share a plaintext vector held by `owner`.

    The party-0 half is a mask party 0 expands from its dealer seed; when
    party 0 owns the input it wires the masked vector to party 1, otherwise
    the dealer hands the mask to party 1, which finishes locally.
    """
    v = as_ring(values) & width_mask(width)
    n = len(v)
    r, other = sess.dealer.split(v, flavor, width)
    if owner == 0:
        if n:
            other = sess.send(0, other, width * n)
    else:
        sess.dealer.deliver(width * n, SHARE_MASKS)  # party 0's mask to the owner
    return SharedVector(flavor, width, r, other)


def open_vec(sess: Session, x: SharedVector, to: int | str = "both") -> np.ndarray:
    """Reveal a shared vector to one party or both; returns the plaintext
    as the receiving party sees it (party 0's view when revealed to both)."""
    n = len(x)
    bits = x.width * n
    if n == 0:
        return x.reconstruct()
    if x.width < 64:  # a half's bits above the width never go out
        x = x.cut(x.width)
    if to == "both":
        at0, _ = sess.exchange(x.shares[0], x.shares[1], bits, bits)
        other = at0
        own = x.shares[0]
    else:
        src = 1 - int(to)
        other = sess.send(src, x.shares[src], bits)
        own = x.shares[int(to)]
    return combine(x.flavor, own, other) & width_mask(x.width)


# ---------------------------------------------------------------------------
# local ring/bit operations
# ---------------------------------------------------------------------------

def add(x: SharedVector, y: SharedVector) -> SharedVector:
    x._check_like(y)
    (x0, x1), (y0, y1), f = x.shares, y.shares, x.flavor
    return SharedVector(f, x.width, combine(f, x0, y0), combine(f, x1, y1))


def sub(x: SharedVector, y: SharedVector) -> SharedVector:
    x._check_like(y)
    (x0, x1), (y0, y1), f = x.shares, y.shares, x.flavor
    return SharedVector(f, x.width, uncombine(f, x0, y0), uncombine(f, x1, y1))


def xor(x: SharedVector, y: SharedVector) -> SharedVector:
    if x.flavor != BINARY or y.flavor != BINARY:
        raise FlavorMismatch("xor needs binary shares")
    return add(x, y)


def not_bits(x: SharedVector) -> SharedVector:
    if x.flavor != BINARY:
        raise FlavorMismatch("not needs binary shares")
    return SharedVector(BINARY, x.width,
                        x.shares[0] ^ width_mask(x.width), x.shares[1].copy())


def xor_public(x: SharedVector, pub) -> SharedVector:
    pub = as_ring(pub) & width_mask(x.width)
    return SharedVector(BINARY, x.width, x.shares[0] ^ pub, x.shares[1].copy())


def replicate_bit(f: SharedVector, width: int) -> SharedVector:
    """Spread a 1-bit binary share across `width` bit positions (local)."""
    if f.flavor != BINARY or f.width != 1:
        raise WidthMismatch("replicate_bit needs a 1-bit binary share")
    m = width_mask(width)
    return f.map(lambda a: (_U64(0) - (a & _U64(1))) & m, width)


def _shl(x: SharedVector, s: int) -> SharedVector:
    s = _U64(s)
    return x.map(lambda a: a << s)


# ---------------------------------------------------------------------------
# interactive gates
# ---------------------------------------------------------------------------

def mul(sess: Session, x: SharedVector, y: SharedVector) -> SharedVector:
    """Beaver multiplication: x*y for arithmetic shares, AND for binary."""
    x._check_like(y)
    return _beaver(sess, [(x, [y])])[0][0]


def _beaver(sess: Session, groups: list[tuple[SharedVector, list[SharedVector]]]
            ) -> list[list[SharedVector]]:
    """x*y (arithmetic) or x AND y (binary) for every y of every (x, ys)
    group: one exchange for all. Groups may differ in flavor, width and
    length; each draws its own triples and does its arithmetic on its own
    slice of one preallocated frame per party, which carries every group's
    (d, e) words. A group runs at its x's width w, the ys' too: an
    arithmetic one modulo 2^w, on triples of that width."""
    plan, size, bits = [], 0, 0
    for x, ys in groups:
        n, k, w = len(x), len(ys), x.width
        draw = sess.dealer.triples_bin if x.flavor == BINARY \
            else sess.dealer.triples_arith
        trip = draw(k * n, w) if k * n else None
        plan.append((x, ys, n, k, w, trip, size))
        size += 2 * k * n
        bits += 2 * w * k * n
    if not size:
        return [[x.copy() for _ in ys] for x, ys in groups]
    frames = (np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64))
    for x, ys, n, k, w, trip, lo in plan:
        if trip is None:
            continue
        minus = np.bitwise_xor if x.flavor == BINARY else np.subtract
        (a0, a1), (b0, b1), _ = trip
        for half, (a, b) in enumerate(((a0, b0), (a1, b1))):
            # this party's (d, e) half: x - a per y, then every y - b
            buf = frames[half][lo:lo + 2 * k * n]
            minus(x.shares[half], a.reshape(k, n), out=buf[:k * n].reshape(k, n))
            for i, y in enumerate(ys):
                hi = (k + i) * n
                minus(y.shares[half], b[i * n:(i + 1) * n], out=buf[hi:hi + n])
            if w < 64:  # a shifted operand's bits above the width never go out
                buf &= width_mask(w)
    at0, at1 = sess.exchange(frames[0], frames[1], bits, bits)
    out = []
    for x, ys, n, k, w, trip, lo in plan:
        if trip is None:
            out.append([x.copy() for _ in ys])
            continue
        f = x.flavor
        times = np.bitwise_and if f == BINARY else np.multiply
        (a0, a1), (b0, b1), (c0, c1) = trip
        sl = slice(lo, lo + 2 * k * n)
        # the opened (d, e) as each party sees it
        de_0 = combine(f, frames[0][sl], at0[sl])
        de_1 = combine(f, frames[1][sl], at1[sl])
        d_0, e_0, d_1, e_1 = de_0[:k * n], de_0[k * n:], de_1[:k * n], de_1[k * n:]
        z0 = combine(f, combine(f, c0, times(d_0, b0)),
                     combine(f, times(e_0, a0), times(d_0, e_0)))
        z1 = combine(f, combine(f, c1, times(d_1, b1)), times(e_1, a1))
        out.append([SharedVector(f, w, z0[i * n:(i + 1) * n], z1[i * n:(i + 1) * n])
                    for i in range(k)])
    return out


def and_bits(sess: Session, x: SharedVector, y: SharedVector) -> SharedVector:
    if x.flavor != BINARY:
        raise FlavorMismatch("and_bits needs binary shares")
    return mul(sess, x, y)


def b2a(sess: Session, f: SharedVector, width: int = 64) -> SharedVector:
    """One-bit binary share -> arithmetic share of the same 0/1 value,
    modulo 2^width."""
    if f.flavor != BINARY or f.width != 1:
        raise WidthMismatch("b2a expects 1-bit binary shares")
    n = len(f)
    if n == 0:
        return SharedVector.zeros(0, ARITH, width)
    (rb0, rb1), (ra0, ra1) = sess.dealer.dabits(n, width)
    m0, m1 = (f.shares[0] ^ rb0) & _U64(1), (f.shares[1] ^ rb1) & _U64(1)
    at0, at1 = sess.exchange(m0, m1, n, n)
    v0, v1 = (m0 ^ at0) & _U64(1), (m1 ^ at1) & _U64(1)  # public f xor r
    sgn0 = _U64(1) - _U64(2) * v0  # 1-2v, wraps to -1 for v=1
    sgn1 = _U64(1) - _U64(2) * v1
    z0 = ra0 * sgn0 + v0
    z1 = ra1 * sgn1
    return SharedVector(ARITH, width, z0, z1)


def b2a_wide(sess: Session, x: SharedVector) -> SharedVector:
    """Binary share of any width -> arithmetic share of the same value (B2A)."""
    if x.flavor != BINARY:
        raise FlavorMismatch("b2a_wide expects binary shares")
    n, w = len(x), x.width
    if n == 0:
        return SharedVector.zeros(0)
    (rb0, rb1), (ra0, ra1) = sess.dealer.dabits_packed(n, w)
    m0, m1 = x.shares[0] ^ rb0, x.shares[1] ^ rb1
    at0, at1 = sess.exchange(m0, m1, w * n, w * n)
    # bit j of both parties' opened masks as row j of a (w, n) array
    j = np.arange(w, dtype=np.uint64)[:, None]
    vj0, vj1 = ((m0 ^ at0) >> j) & _U64(1), ((m1 ^ at1) >> j) & _U64(1)
    z0 = ((ra0 * (_U64(1) - _U64(2) * vj0) + vj0) << j).sum(0, dtype=np.uint64)
    z1 = ((ra1 * (_U64(1) - _U64(2) * vj1)) << j).sum(0, dtype=np.uint64)
    return SharedVector(ARITH, 64, z0, z1)


def a2b(sess: Session, x: SharedVector) -> SharedVector:
    """Arithmetic share -> packed binary share of its low w = x.width bits
    (A2B): 1 + ceil(log2 w) rounds, 7 at 64 bits. No carry moves a bit
    downward, so the halves' low w bits alone give a value below 2^w."""
    if x.flavor != ARITH:
        raise FlavorMismatch("a2b expects arithmetic shares")
    n, w = len(x), x.width
    if n == 0:
        return SharedVector.zeros(0, BINARY, w)
    wm = width_mask(w)
    (ra0, ra1), (rb0, rb1) = sess.dealer.edabits(n, w)
    m0, m1 = (x.shares[0] - ra0) & wm, (x.shares[1] - ra1) & wm
    at0, at1 = sess.exchange(m0, m1, w * n, w * n)
    c0, c1 = m0 + at0, m1 + at1  # public x - r per party view, in its low w bits
    # Result = binary share of c + r for a public addend c: generate =
    # c AND r and propagate = c XOR r are local, and the prefix's generate
    # bits are the carries out of each bit.
    p = SharedVector(BINARY, w, c0 ^ rb0, rb1.copy())
    g = _prefix(sess, SharedVector(BINARY, w, c0 & rb0, c1 & rb1), p)
    return xor(p, _shl(g, 1)).map(lambda a: a & wm)


def _prefix(sess: Session, g: SharedVector, p: SharedVector) -> SharedVector:
    """The carries of an addition: a log-depth prefix over its (generate,
    propagate) bit pairs, ceil(log2 w) levels of one exchange each for
    w = p.width; afterwards bit i of the returned g is the carry out of bits
    i down to 0.

    Level s joins each bit's pair with the pair s bits below it by
    (g, p) o (g', p') = (g ^ p & g', p & p'), and both ANDs read the same p.
    The shifted g reads zeros in its vacated low bits and the shifted p reads
    ones (party 0 ORs them into its half). The last level skips p, which no
    later level reads.
    """
    s = 1
    while s < p.width:
        ys = [_shl(g, s)]
        if 2 * s < p.width:
            ys.append(_shl(p, s))
            ys[-1].shares[0][:] |= width_mask(s)
        ands = _beaver(sess, [(p, ys)])[0]
        g = xor(g, ands[0])
        if len(ands) > 1:
            p = ands[1]
        s *= 2
    return g


def _bitrev_swaps(width: int) -> list[tuple[np.uint64, np.uint64]]:
    """The delta swaps (shift, mask) that move bit i of a `width`-bit word,
    a power of two, to bit bitrev(i) over its log2(width) index bits: one
    swap of index bits t and k - 1 - t for each t < k / 2, k = log2(width)."""
    k = width.bit_length() - 1
    swaps = []
    for t in range(k // 2):
        low, high = 1 << t, 1 << (k - 1 - t)
        mask = sum(1 << b for b in range(width) if b & low and not b & high)
        swaps.append((_U64(high - low), _U64(mask)))
    return swaps


_BITREV = {1 << k: _bitrev_swaps(1 << k) for k in range(7)}


def _reduce(sess: Session, trees: list[tuple[np.ndarray, int, bool]]
            ) -> list[np.ndarray]:
    """Reduction trees over (generate, propagate) bit pairs, run in lockstep.

    A tree is (rows, w, keep_p): rows stacks the share halves (g0, g1, p0, p1),
    or (p0, p1) for an equality, of w-bit words. Party 0 pads p with ones
    from bit w up to the next power of two W, above the top bit, where they
    change neither > nor ==. One local bit permutation then moves every bit
    i to bit bitrev(i), after which the top and bottom halves of a word,
    a >> h and a & mask(h), are adjacent in significance. Each level merges
    them by g' = g_hi ^ (p_hi & g_lo) and p' = p_hi & p_lo, so frames halve
    each level: one exchange of W/2-bit words, then W/4 and on to 1 bit, for
    every tree still wider than 1. Without keep_p a tree's last level skips
    p, whose bit is then stale. Returns each tree's rows at width 1.
    """
    state = []
    for rows, w, keep_p in trees:
        wide = 1 << (w - 1).bit_length()
        if w < wide:
            rows[-2:] &= width_mask(w)
            rows[-2] |= width_mask(wide) ^ width_mask(w)
        for d, m in _BITREV[wide]:
            swap = rows >> d
            swap ^= rows
            swap &= m
            rows ^= swap
            swap <<= d
            rows ^= swap
        state.append([rows, wide, keep_p])
    while live := [t for t in state if t[1] > 1]:
        groups, halves = [], []
        for rows, wide, keep_p in live:
            h = wide // 2
            hi, lo = rows >> _U64(h), rows & width_mask(h)
            ys = [SharedVector(BINARY, h, lo[0], lo[1])] if len(rows) == 4 else []
            if keep_p or h > 1:
                ys.append(SharedVector(BINARY, h, lo[-2], lo[-1]))
            groups.append((SharedVector(BINARY, h, hi[-2], hi[-1]), ys))
            halves.append(hi)
        for t, hi, ands in zip(live, halves, _beaver(sess, groups)):
            if len(hi) == 4:
                hi[0] ^= ands[0].shares[0]
                hi[1] ^= ands[0].shares[1]
            if t[2] or t[1] > 2:
                hi[-2], hi[-1] = ands[-1].shares
            t[0], t[1] = hi, t[1] // 2
    return [rows for rows, _, _ in state]


def pack(fields: list[SharedVector]
         ) -> tuple[list[SharedVector], list[tuple[int, int]]]:
    """Binary fields packed most significant first, greedily, into as few
    binary limbs of at most 64 bits as they fit in, each field cut to its
    width (local shifts and XORs). Returns the limbs and each field's
    (limb, shift)."""
    widths, ends = [], []
    for f in fields:
        if not widths or widths[-1] + f.width > 64:
            widths.append(0)
        widths[-1] += f.width
        ends.append((len(widths) - 1, widths[-1]))
    layout = [(li, widths[li] - end) for li, end in ends]
    n = len(fields[0])
    limbs = [SharedVector(BINARY, w, np.zeros(n, np.uint64), np.zeros(n, np.uint64))
             for w in widths]
    for f, (li, shift) in zip(fields, layout):
        for half, src in zip(limbs[li].shares, f.shares):
            half ^= (src & width_mask(f.width)) << _U64(shift)
    return limbs, layout


def compare(sess: Session, xs: list[SharedVector], ys: list[SharedVector],
            greater: bool) -> SharedVector:
    """xs > ys (`greater`) or xs == ys as a 1-bit binary share, for keys
    given as most-significant-first limbs and ordered lexicographically;
    arithmetic limbs go through `a2b` first.

    A limb's propagate bits are NOT(x ^ y) and, for `greater`, its generate
    bits are x AND NOT y at the limb's width w, all limbs' in one exchange.
    Every limb's `_reduce` tree then runs in lockstep, log2 W rounds for the
    widest limb padded to a power of two W, and leaves the limb's x > y in
    g and its x == y in p. Per element of one w-bit limb, `gt` sends
    4(w + 2W - 3) wire bits (4 at w = 1) and `eq` 4(W - 1). With
    1 < k <= 64 limbs, limb i's two bits go to bit k - 1 - i of a k-bit g
    and a k-bit p, and one more tree folds the limbs by the same rule in
    ceil(log2 k) rounds. A `greater` key of limbs 1, 64 and 11 bits wide
    thus takes 1 + 6 + 2 rounds. The last limb's equality lands at bit 0,
    where it only ever meets p, never g, so for `greater` its tree skips
    the last propagate level.
    """
    xs = [a2b(sess, x) if x.flavor == ARITH else x for x in xs]
    ys = [a2b(sess, y) if y.flavor == ARITH else y for y in ys]
    for x, y in zip(xs, ys):
        if x.width != y.width:
            raise WidthMismatch(f"{x.width} vs {y.width}")
    k = len(xs)
    gens = [()] * k
    if greater:
        gens = [g.shares for [g] in _beaver(
            sess, [(x, [not_bits(y)]) for x, y in zip(xs, ys)])]
    trees = []
    for i, (g, x, y) in enumerate(zip(gens, xs, ys)):
        rows = np.empty((len(g) + 2, len(x)), np.uint64)  # (g0, g1,) p0, p1
        if g:
            rows[:2] = g
        np.bitwise_xor(x.shares[0], y.shares[0], out=rows[-2])
        np.bitwise_xor(x.shares[1], y.shares[1], out=rows[-1])
        rows[-2] ^= width_mask(x.width)
        trees.append((rows, x.width, not greater or i < k - 1))
    trees = _reduce(sess, trees)
    if k > 1:
        fold = np.zeros_like(trees[0])
        for i, rows in enumerate(trees):
            fold |= rows << _U64(k - 1 - i)
        trees = _reduce(sess, [(fold, k, not greater)])
    rows = trees[0]
    return SharedVector(BINARY, 1, *(rows[:2] if greater else rows[-2:]))


def eq(sess: Session, x: SharedVector, y: SharedVector) -> SharedVector:
    """x == y as a 1-bit binary share (`compare`): ceil(log2 w) rounds and
    4(W - 1) wire bits per element, for w padded to a power of two W."""
    return compare(sess, [x], [y], False)


def gt(sess: Session, x: SharedVector, y: SharedVector) -> SharedVector:
    """Unsigned x > y as a 1-bit binary share (`compare`): 1 + ceil(log2 w)
    rounds and 4(w + 2W - 3) wire bits per element (4 at w = 1), for w
    padded to a power of two W."""
    return compare(sess, [x], [y], True)


def mux(sess: Session, f: SharedVector, x: SharedVector, y: SharedVector) -> SharedVector:
    """f ? x : y with a 1-bit binary selector."""
    return mux_many(sess, f, [(x, y)])[0]


def mux_many(sess: Session, f: SharedVector,
             pairs: list[tuple[SharedVector, SharedVector]]) -> list[SharedVector]:
    """f ? x : y = y + f * (x - y) for every (x, y) pair under one 1-bit
    binary selector, in one exchange: one Beaver group per flavor and
    width, after one b2a of f at the widest arithmetic width when a pair
    is arithmetic, cut down for each narrower arithmetic group."""
    if f.flavor != BINARY or f.width != 1:
        raise WidthMismatch("mux selector must be a 1-bit binary share")
    for x, y in pairs:
        x._check_like(y)
        if len(f) != len(x):
            raise SizeMismatch("selector length differs from data length")
    if len(f) == 0:
        return [x.copy() for x, _ in pairs]
    kinds = {}
    for i, (x, _) in enumerate(pairs):
        kinds.setdefault((x.flavor, x.width), []).append(i)
    wide = max((w for flavor, w in kinds if flavor == ARITH), default=0)
    fa = b2a(sess, f, wide) if wide else None
    prods = _beaver(sess, [
        (replicate_bit(f, width) if flavor == BINARY
         else fa if width == wide else fa.cut(width),
         [sub(*pairs[i]) for i in idx]) for (flavor, width), idx in kinds.items()])
    out = [None] * len(pairs)
    for idx, ps in zip(kinds.values(), prods):
        for i, p in zip(idx, ps):
            out[i] = add(pairs[i][1], p)
    return out


def asym_mul(sess: Session, f_holder: int, f_bits: np.ndarray, x_vals: np.ndarray,
             flavor: str = ARITH, width: int = 64) -> SharedVector:
    """f ? x : 0 where one party holds the bit f, the other holds x.

    Realized through the dealer as one correlated transfer per element, its
    pads and frames at the result's width; the bit holder acts as OT
    receiver.
    """
    n = len(f_bits)
    if len(x_vals) != n:
        raise SizeMismatch("bit vector and value vector differ in length")
    if n == 0:
        return SharedVector.zeros(0, flavor, width)
    x_holder = 1 - f_holder
    f_bits = as_ring(f_bits) & _U64(1)
    x_vals = as_ring(x_vals) & width_mask(width)
    (c, qc), (q0, q1) = sess.dealer.random_ots(n, receiver=f_holder,
                                               widths=[width])
    qc, q0, q1 = qc[:, 0], q0[:, 0], q1[:, 0]
    d = sess.send(f_holder, f_bits ^ c, n)
    r = sess.parties[x_holder].u64(n) & width_mask(width)
    # the bit holder ends with the half that joins r to f ? x : 0
    m0, m1 = uncombine(flavor, _U64(0), r), uncombine(flavor, x_vals, r)
    y = np.concatenate([m0 ^ np.where(d == 1, q1, q0), m1 ^ np.where(d == 1, q0, q1)])
    if width < 64:  # no frame bit above the width
        y &= width_mask(width)
    y0, y1 = np.split(sess.send(x_holder, y, 2 * width * n), 2)
    halves = [r, r]
    halves[f_holder] = np.where(f_bits == 1, y1, y0) ^ qc
    return SharedVector(flavor, width, *halves)


def convert(sess: Session, x: SharedVector, target: str) -> SharedVector:
    """Flavor conversion preserving the reconstructed value (B2A/b2A/A2B)."""
    if x.flavor == target:
        return x
    if target == ARITH:
        return b2a(sess, x) if x.width == 1 else b2a_wide(sess, x)
    return a2b(sess, x)
