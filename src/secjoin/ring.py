"""Arithmetic over the fixed 64-bit ring.

Every secret, join key and aggregation value lives in Z_{2^64}; a value
up to a public bound may live in Z_{2^w} for w = `bound_width(bound)`,
since cutting to w bits commutes with + and *. Vectors are numpy uint64
arrays so that whole-vector gates are single numpy operations; overflow
wraps exactly as the ring requires, and bits above w are ignored.

A shared value has a flavor: arithmetic (halves add up to it) or binary
(halves XOR to it). `combine` and `uncombine` are the one place that rule is
written; everything that splits, joins, adds or masks shares goes through
them.
"""
from __future__ import annotations

import numpy as np

K = 64
MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

ARITH = "arith"
BINARY = "bin"


def as_ring(values) -> np.ndarray:
    """Coerce a scalar/list/array of ints into a uint64 ring vector (mod 2^64).

    Goes through Python ints for plain sequences so values above 2^63 never
    round-trip through float64.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.uint64:
            return values
        if values.dtype.kind in "iu":
            return values.astype(np.uint64, casting="unsafe")
        values = values.tolist()
    if isinstance(values, (int, np.integer)):
        return np.array([int(values) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    flat = [int(v) & 0xFFFFFFFFFFFFFFFF for v in values]
    return np.array(flat, dtype=np.uint64)


def width_mask(width: int) -> np.uint64:
    if width >= K:
        return MASK
    return np.uint64((1 << width) - 1)


def bound_width(top: int) -> int:
    """Bits that hold every value from 0 up to the public bound `top`: its
    bit length, at least 1. A 1-based permutation or index of [n] takes
    bound_width(n) bits, a rank below n bound_width(n - 1)."""
    return max(1, int(top).bit_length())


def mask_words(a: np.ndarray, widths: list[int]) -> None:
    """Cut word j of every row of `a` (its last axis) to widths[j] bits, in
    place: one pass when the widths agree, else one per narrow word."""
    if len(set(widths)) == 1:
        if widths[0] < K:
            a &= width_mask(widths[0])
        return
    for j, w in enumerate(widths):
        if w < K:
            a[..., j] &= width_mask(w)


def combine(flavor: str, a, b):
    """Join two share halves: a + b (arithmetic) or a ^ b (binary)."""
    return a ^ b if flavor == BINARY else a + b


def uncombine(flavor: str, a, b):
    """The half that joins with b to give a: a - b (arithmetic) or a ^ b."""
    return a ^ b if flavor == BINARY else a - b
