"""Two-party execution substrate: transcript ledger, random streams, session.

Protocol code is written as one choreography that says which party computes
what. Every value that crosses between parties goes through `Session.send`
or `Session.exchange` as an array frame, which the transcript notes as
sent and received at once. The transcript keeps wire traffic and dealer
(hybrid) traffic in strictly separate ledgers, the hybrid one also by kind
of delivery; all acceptance checks read this ledger.

A "round" increments whenever the direction of dependency flips; batched
parallel messages in one flow count as one round, and a simultaneous exchange
(both directions, as in a Beaver multiplication opening) also counts as one.
"""
from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dealer import Dealer

_EXCHANGE = -1


@dataclass
class PhaseRecord:
    label: str
    wire_bits: tuple[int, int]
    wire_rounds: int
    hybrid_bits: int

    def shape(self) -> tuple:
        return (self.label, self.wire_bits, self.wire_rounds, self.hybrid_bits)


class Transcript:
    """Ledger of a session's communication, split into wire and hybrid parts."""

    def __init__(self):
        self.wire_bits_sent = [0, 0]
        self.wire_rounds = 0
        self.hybrid_bits = 0
        self.hybrid_by_kind: dict[str, int] = {}
        self.phases: list[PhaseRecord] = []
        self._digest = hashlib.sha256()
        self._last_flow = None
        self._phase_stack: list[tuple[str, int, int, int, int]] = []

    # -- counters ---------------------------------------------------------

    def note_send(self, src: int, bits: int, payload: memoryview):
        if self._last_flow != src:
            self.wire_rounds += 1
            self._last_flow = src
        self.wire_bits_sent[src] += bits
        self._digest.update(b"s%d:%d:" % (src, bits))
        self._digest.update(payload)

    def note_exchange(self, bits0: int, bits1: int, pay0: memoryview,
                      pay1: memoryview):
        self.wire_rounds += 1
        self._last_flow = _EXCHANGE
        self.wire_bits_sent[0] += bits0
        self.wire_bits_sent[1] += bits1
        self._digest.update(b"x:%d:%d:" % (bits0, bits1))
        self._digest.update(pay0)
        self._digest.update(pay1)

    def note_hybrid(self, bits: int, kind: str):
        self.hybrid_bits += bits
        self.hybrid_by_kind[kind] = self.hybrid_by_kind.get(kind, 0) + bits

    # -- phases -----------------------------------------------------------

    def push_phase(self, label: str):
        path = label if not self._phase_stack else self._phase_stack[-1][0] + "." + label
        self._phase_stack.append(
            (path, self.wire_bits_sent[0], self.wire_bits_sent[1],
             self.wire_rounds, self.hybrid_bits)
        )

    def pop_phase(self):
        path, b0, b1, r, h = self._phase_stack.pop()
        self.phases.append(PhaseRecord(
            path,
            (self.wire_bits_sent[0] - b0, self.wire_bits_sent[1] - b1),
            self.wire_rounds - r,
            self.hybrid_bits - h,
        ))

    # -- views ------------------------------------------------------------

    @property
    def wire_bits(self) -> int:
        return sum(self.wire_bits_sent)

    def digest(self) -> str:
        return self._digest.hexdigest()

    def phase_shapes(self) -> list[tuple]:
        return [p.shape() for p in self.phases]

    def phase_labels(self) -> list[str]:
        """The top-level phases' labels, in order."""
        return [p.label for p in self.phases if "." not in p.label]

    def bits_for(self, label_part: str) -> int:
        """Total wire bits over leaf phases whose path contains label_part."""
        total = 0
        for p in self.phases:
            if label_part in p.label.split("."):
                total += sum(p.wire_bits)
        return total

    def rounds_for(self, label_part: str) -> int:
        return sum(
            p.wire_rounds for p in self.phases if label_part in p.label.split(".")
        )

    def summary(self) -> str:
        return (
            f"wire_bits={self.wire_bits} (P0 {self.wire_bits_sent[0]}, "
            f"P1 {self.wire_bits_sent[1]}), wire_rounds={self.wire_rounds}, "
            f"hybrid_bits={self.hybrid_bits}"
        )


class RandPool:
    """One owner's uniform uint64 stream: the raw outputs of its own PCG64
    generator, so each value depends only on how many values the owner drew
    before it, not on how those draws were grouped into calls."""

    def __init__(self, seed: int | np.random.SeedSequence):
        self._bitgen = np.random.PCG64(seed)

    def u64(self, n: int) -> np.ndarray:
        return self._bitgen.random_raw(n)

    def spawn(self, n: int) -> list["RandPool"]:
        """n child streams seeded by children of this stream's seed sequence,
        so no child repeats this stream or another child (a seed of [s, 0]
        would: PCG64([s, 0]) is PCG64(s))."""
        return [RandPool(child) for child in self._bitgen.seed_seq.spawn(n)]

    def perm(self, n: int) -> np.ndarray:
        """A uniform permutation of [0, n): the stable argsort of n fresh
        values (two of them tie with probability about n^2 / 2^65)."""
        return np.argsort(self.u64(n), kind="stable")

    def draw_perm(self, n: int) -> np.ndarray:
        """A uniform permutation of [n] (1-based targets)."""
        return self.perm(n) + 1


def _payload_bytes(data: np.ndarray) -> memoryview:
    """A frame's bytes, read in place: a byte view of the frozen array's
    buffer, so hashing copies nothing and `len` counts bytes. A sent array
    is frozen, so that a later in-place write by its sender raises instead
    of changing what was received."""
    data.flags.writeable = False
    return memoryview(np.ascontiguousarray(data)).cast("B")


class Session:
    """One two-party protocol execution context.

    A fixed seed triple (seed0, seed1, seedD) makes every run bit-reproducible:
    each party owns one `RandPool`, the dealer owns one seeded by seedD and
    one child of it per party, and all protocol randomness is drawn from
    exactly one of them.
    """

    def __init__(self, seed0: int = 11, seed1: int = 22, seedD: int = 33):
        self.seeds = (seed0, seed1, seedD)
        self.parties = (RandPool(seed0), RandPool(seed1))
        self.transcript = Transcript()
        self.dealer = Dealer(RandPool(seedD), self.transcript)

    def send(self, src: int, data: np.ndarray, bits: int) -> np.ndarray:
        """One-way message; returns the payload as the receiver sees it."""
        self.transcript.note_send(src, bits, _payload_bytes(data))
        return data

    def exchange(self, data0, data1, bits0: int, bits1: int):
        """Simultaneous both-direction flow; one round total.

        Returns (what P0 receives, what P1 receives).
        """
        pay0, pay1 = _payload_bytes(data0), _payload_bytes(data1)
        self.transcript.note_exchange(bits0, bits1, pay0, pay1)
        return data1, data0

    @contextmanager
    def phase(self, label: str):
        self.transcript.push_phase(label)
        try:
            yield
        finally:
            self.transcript.pop_phase()
