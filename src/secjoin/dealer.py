"""Trusted dealer: seeded correlated randomness for the two parties.

The dealer realizes the hybrid model: Beaver triples, daBits/edaBits for share
conversions, random-OT pads (used by the switching network and asymmetric
multiplication), plus the set-operation ideal functionalities built on top of
it in ``setops``.

The dealer owns a stream of its own for functionality randomness (the
private-ID identifiers) and one child stream per party spawned from it.
Party p holds the 128-bit seed of stream p, so every half that p can expand
from that seed costs no delivery: the dealer delivers only the correction
that makes the halves a correlation, such as c1 of a triple, ra1 of a daBit,
rb1 of an edaBit or the receiver's pad q_c of a random OT. The hybrid ledger
counts exactly what is delivered, by kind: the two seeds once per session at
the first draw from a party stream, the corrections, the masks a party
cannot expand itself and the functionality outputs. None of it is wire
traffic.
"""
from __future__ import annotations

import numpy as np

from .ring import ARITH, BINARY, mask_words, uncombine, width_mask

_U64 = np.uint64

SEED_BITS = 128

# the kinds of delivery the hybrid ledger keeps apart
SEEDS = "seeds"
TRIPLES = "triples"
BIT_TRIPLES = "bit_triples"
DABITS = "dabits"
EDABITS = "edabits"
OT_PADS = "ot_pads"
SHARE_MASKS = "share_masks"
OUTPUTS = "outputs"


class Dealer:
    def __init__(self, pool, transcript):
        self.pool = pool
        self.streams = tuple(pool.spawn(2))
        self.transcript = transcript
        self._seeded = False

    # -- internals ----------------------------------------------------------

    def _draw(self, party: int, n: int, width: int = 64) -> np.ndarray:
        """n values of `width` bits from party's stream: values that party
        expands from its own seed. The first draw delivers both seeds."""
        if not self._seeded:
            self._seeded = True
            self.deliver(2 * SEED_BITS, SEEDS)
        out = self.streams[party].u64(n)
        if width < 64:
            out &= width_mask(width)
        return out

    def deliver(self, bits: int, kind: str):
        """Ledger `bits` of dealer-to-party traffic of one kind."""
        self.transcript.note_hybrid(bits, kind)

    def split(self, values: np.ndarray, flavor: str, width: int = 64):
        """Share `values` (already within `width` bits): the party-0 half from
        stream 0, and the half that joins with it to give `values`."""
        r = self._draw(0, len(values), width)
        other = uncombine(flavor, values, r)
        if flavor == ARITH and width < 64:  # a difference wraps above it
            other &= width_mask(width)
        return r, other

    # -- correlations ---------------------------------------------------------

    def triples_arith(self, n: int, width: int = 64):
        """n multiplication triples over Z_2^width; both halves of (a, b, c),
        each below 2^width. Only c1 is delivered, `width` bits each."""
        a0, b0 = self._draw(0, 2 * n, width).reshape(2, n)
        a1, b1 = self._draw(1, 2 * n, width).reshape(2, n)
        c = (a0 + a1) * (b0 + b1)
        if width < 64:
            c &= width_mask(width)
        c0, c1 = self.split(c, ARITH, width)
        self.deliver(width * n, TRIPLES)
        return (a0, a1), (b0, b1), (c0, c1)

    def triples_bin(self, n: int, width: int):
        """n packed AND triples, `width` independent bit-triples per element.
        Only c1 is delivered."""
        a0, b0 = self._draw(0, 2 * n, width).reshape(2, n)
        a1, b1 = self._draw(1, 2 * n, width).reshape(2, n)
        c0, c1 = self.split((a0 ^ a1) & (b0 ^ b1), BINARY, width)
        self.deliver(width * n, BIT_TRIPLES)
        return (a0, a1), (b0, b1), (c0, c1)

    def dabits(self, n: int, width: int = 64):
        """Random bits shared both binary (1-bit) and arithmetically over
        Z_2^width. Only ra1 is delivered, `width` bits each."""
        rb0, rb1 = self._draw(0, n, 1), self._draw(1, n, 1)
        ra0, ra1 = self.split(rb0 ^ rb1, ARITH, width)
        self.deliver(width * n, DABITS)
        return (rb0, rb1), (ra0, ra1)

    def dabits_packed(self, n: int, width: int):
        """`width` daBits per element: packed binary halves + per-bit arithmetic halves.

        Arithmetic halves come back as (width, n) arrays, bit j in row j.
        Only the arithmetic ra1 is delivered.
        """
        rb0, rb1 = self._draw(0, n, width), self._draw(1, n, width)
        bits = ((rb0 ^ rb1) >> np.arange(width, dtype=np.uint64)[:, None]) \
            & _U64(1)
        ra0, ra1 = (h.reshape(width, n)
                    for h in self.split(bits.ravel(), ARITH))
        self.deliver(64 * width * n, DABITS)
        return (rb0, rb1), (ra0, ra1)

    def edabits(self, n: int, width: int = 64):
        """Random ring values shared arithmetically, with their low `width`
        bits shared binary (packed). Only the binary rb1 is delivered."""
        ra0, ra1 = self._draw(0, n), self._draw(1, n)
        r = ra0 + ra1
        if width < 64:
            r &= width_mask(width)
        rb0, rb1 = self.split(r, BINARY, width)
        self.deliver(width * n, EDABITS)
        return (ra0, ra1), (rb0, rb1)

    def random_ots(self, n: int, words: int = 1, *, receiver: int,
                   widths: list[int] | None = None):
        """Random OT pads: receiver side (choice c, pad q_c), sender side (q0, q1).

        Each of the two transferable messages is `words` uint64s wide; word j
        holds widths[j] bits (64 when `widths` is None). The receiver expands
        c and the sender q0 and q1 from their own seeds; only q_c is delivered.
        """
        c = self._draw(receiver, n, 1)
        q = self._draw(1 - receiver, 2 * n * words).reshape(2, n, words)
        if widths is not None:
            mask_words(q, widths)
        q0, q1 = q
        qc = np.where((c == 1)[:, None], q1, q0)
        self.deliver(n * (64 * words if widths is None else sum(widths)),
                     OT_PADS)
        return (c, qc), (q0, q1)
