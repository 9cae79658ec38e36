"""Beneš switching network: routing a permutation into switch control bits.

Networks are built for power-of-two sizes only; callers pad. A program is a
list of layers, each layer a batch of 2x2 switches given as (top positions,
bottom positions, control bits). Applying a switch with control 1 swaps its
two slots; applying the whole program to the identity sequence reproduces the
permutation it was routed for (0-based gather convention: out[i] = in[perm[i]]).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SwitchProgram:
    size: int
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def num_switches(self) -> int:
        return sum(len(a) for a, _, _ in self.layers)

    def controls(self) -> np.ndarray:
        if not self.layers:
            return np.zeros(0, dtype=np.uint64)
        return np.concatenate([c for _, _, c in self.layers]).astype(np.uint64)

    def apply(self, values: list) -> list:
        """Route a plaintext list through the network (reference semantics)."""
        v = list(values)
        for a_idx, b_idx, ctrl in self.layers:
            for a, b, c in zip(a_idx, b_idx, ctrl):
                if c:
                    v[a], v[b] = v[b], v[a]
        return v


def expected_switches(m: int) -> int:
    if m < 2:
        return 0
    k = m.bit_length() - 1
    return m * k - m // 2


def build_program(perm: np.ndarray) -> SwitchProgram:
    """Route `perm` (0-based, out[i] = in[perm[i]]) through a Beneš network.

    All 2^l sub-networks of level l are routed together on flat arrays (the
    parallel set-up of Nassimi & Sahni, IEEE ToC 1982). At level l, `src`
    and `pos` hold the sub-networks one after another, each as a block of
    s = m / 2^l entries, in depth-first order (top of block 0, bottom of
    block 0, top of block 1, ...), so each layer lists its switches in that
    order. `src` holds each block's permutation offset by the block's start.
    """
    m = len(perm)
    assert m & (m - 1) == 0, "network size must be a power of two"
    if m < 2:
        return SwitchProgram(m, [])
    k = m.bit_length() - 1
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * (2 * k - 1)
    idx = np.arange(m, dtype=np.int64)
    src, pos = np.asarray(perm, dtype=np.int64), idx
    for lvl in range(k - 1):
        s = m >> lvl
        color = _colors(src, idx, s)
        a, b = pos[0::2], pos[1::2]
        cross = color[src[0::2]]
        layers[lvl] = (a, b, color[0::2].astype(np.uint64))
        layers[-1 - lvl] = (a, b, cross.astype(np.uint64))
        # Output pair t takes its colour-0 source from the top sub-network.
        # Input g of the block that starts at j feeds slot (g - j) // 2 of
        # that block's top and bottom sub-networks, which start at j, j + s/2.
        half = (src + (src & -s)) >> 1
        top = np.where(cross, half[1::2], half[0::2]).reshape(-1, s // 2)
        bot = np.where(cross, half[0::2], half[1::2]).reshape(-1, s // 2)
        src = np.stack([top, bot + s // 2], axis=1).ravel()
        pos = np.stack([a.reshape(-1, s // 2), b.reshape(-1, s // 2)], axis=1).ravel()
    layers[k - 1] = (pos[0::2], pos[1::2], (src[0::2] & 1).astype(np.uint64))
    return SwitchProgram(m, layers)


def _colors(src: np.ndarray, idx: np.ndarray, s: int) -> np.ndarray:
    """Top/bottom colour of every input, for blocks of `s` inputs.

    Siblings (i, i^1) take opposite colours and so do the two sources of each
    output pair, so f(i) = src[opos[i^1]^1] keeps i's colour: the inputs of
    one colour cycle split into an orbit of f and its partner orbit through
    i^1. The orbit holding the cycle's smallest input gets colour 0. An orbit
    has at most s/2 inputs, so log2(s) - 1 pointer-jumping steps give every
    input its orbit's minimum.
    """
    sib = idx ^ 1
    opos = np.empty_like(idx)
    opos[src] = idx
    f = src[opos[sib] ^ 1]
    mn = idx
    for _ in range(s.bit_length() - 2):
        mn = np.minimum(mn, mn[f])
        f = f[f]
    return mn > mn[sib]
