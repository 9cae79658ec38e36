"""Trusted dealer: seeded correlated randomness for the two parties.

The dealer realizes the hybrid model: Beaver triples, daBits/edaBits for share
conversions, random-OT pads (used by the switching network and asymmetric
multiplication), plus the set-operation ideal functionalities built on top of
it in ``setops``. Everything the dealer hands a party is ledgered as hybrid
bits, never as wire traffic.
"""
from __future__ import annotations

import numpy as np

from .errors import DealerExhausted
from .ring import ARITH, BINARY, uncombine, width_mask

_U64 = np.uint64


class Dealer:
    def __init__(self, pool, transcript, triple_budget=None):
        self.pool = pool
        self.transcript = transcript
        self.triple_budget = triple_budget

    # -- internals ----------------------------------------------------------

    def _spend(self, units: int):
        if self.triple_budget is not None:
            if self.triple_budget < units:
                raise DealerExhausted(
                    f"dealer asked for {units} triples, "
                    f"{self.triple_budget} remain")
            self.triple_budget -= units

    def deliver(self, bits: int):
        """Ledger `bits` of dealer-to-party traffic."""
        self.transcript.note_hybrid(bits)

    def split(self, values: np.ndarray, flavor: str, width: int = 64):
        """Share `values` (already within `width` bits): a random half and
        the half that joins with it to give `values`."""
        r = self.pool.u64(len(values))
        if width < 64:
            r &= _U64((1 << width) - 1)
        return r, uncombine(flavor, values, r)

    # -- correlations ---------------------------------------------------------

    def triples_arith(self, n: int):
        """n multiplication triples over Z_2^64; both halves of (a, b, c)."""
        self._spend(n)
        a, b = self.pool.u64(2 * n).reshape(2, n)
        c = a * b
        a0, a1 = self.split(a, ARITH)
        b0, b1 = self.split(b, ARITH)
        c0, c1 = self.split(c, ARITH)
        self.deliver(2 * 3 * 64 * n)
        return (a0, a1), (b0, b1), (c0, c1)

    def triples_bin(self, n: int, width: int):
        """n packed AND triples, `width` independent bit-triples per element."""
        self._spend(n * width)
        a, b = self.pool.u64(2 * n).reshape(2, n) & width_mask(width)
        c = a & b
        a0, a1 = self.split(a, BINARY, width)
        b0, b1 = self.split(b, BINARY, width)
        c0, c1 = self.split(c, BINARY, width)
        self.deliver(2 * 3 * width * n)
        return (a0, a1), (b0, b1), (c0, c1)

    def dabits(self, n: int):
        """Random bits shared both binary (1-bit) and arithmetically."""
        r = self.pool.bits(n)
        rb0, rb1 = self.split(r, BINARY, 1)
        ra0, ra1 = self.split(r, ARITH)
        self.deliver(2 * (1 + 64) * n)
        return (rb0, rb1), (ra0, ra1)

    def dabits_packed(self, n: int, width: int):
        """`width` daBits per element: packed binary halves + per-bit arithmetic halves.

        Arithmetic halves come back as (width, n) arrays, bit j in row j.
        """
        r = self.pool.u64(n) & width_mask(width)
        rb0, rb1 = self.split(r, BINARY, width)
        bits = (r >> np.arange(width, dtype=np.uint64)[:, None]) & _U64(1)
        ra0, ra1 = (h.reshape(width, n)
                    for h in self.split(bits.ravel(), ARITH))
        self.deliver(2 * (width + 64 * width) * n)
        return (rb0, rb1), (ra0, ra1)

    def edabits(self, n: int, width: int = 64):
        """Random ring values shared both arithmetically and binary (packed)."""
        r = self.pool.u64(n)
        ra0, ra1 = self.split(r, ARITH)
        rb0, rb1 = self.split(r, BINARY)
        self.deliver(2 * 2 * width * n)
        return (ra0, ra1), (rb0, rb1)

    def random_ots(self, n: int, words: int = 1):
        """Random OT pads: receiver side (choice c, pad q_c), sender side (q0, q1).

        Each of the two transferable messages is `words` uint64s wide.
        """
        c = self.pool.bits(n)
        q0, q1 = self.pool.u64(2 * n * words).reshape(2, n, words)
        qc = np.where((c == 1)[:, None], q1, q0)
        self.deliver((1 + 64 * words) * n + 2 * 64 * words * n)
        return (c, qc), (q0, q1)
