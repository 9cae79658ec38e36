"""Dealer-emulated ideal functionalities for private set operations.

PSI, private-ID and circuit-PSI are consumed by the view generators exactly
through these interfaces; the dealer computes the plaintext functionality and
hands each party its prescribed output (plaintext or share half). Nothing
crosses the wire here: all delivered volume lands on the hybrid ledger.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dealer import OUTPUTS
from .errors import SizeMismatch, WidthMismatch
from .ring import BINARY, ARITH, as_ring
from .session import Session
from .sharing import SharedVector

_U64 = np.uint64


@dataclass
class PidOutput:
    """One party's private-ID output: own-key mapping plus the union's ids."""

    mapping: dict[int, int]
    ri_star: np.ndarray


def _check_distinct(keys: np.ndarray, who: str):
    if len(np.unique(keys)) != len(keys):
        raise SizeMismatch(f"{who} key set contains duplicates")


def f_psi(sess: Session, x_keys, y_keys) -> np.ndarray:
    """Both parties learn the (sorted) intersection, nothing else."""
    x = as_ring(x_keys)
    y = as_ring(y_keys)
    _check_distinct(x, "P0")
    _check_distinct(y, "P1")
    inter = np.intersect1d(x, y)
    sess.dealer.deliver(2 * 64 * len(inter), OUTPUTS)
    return inter


def f_pid(sess: Session, x_keys, y_keys) -> tuple[PidOutput, PidOutput]:
    """Random identifiers for the union; each party learns only its own mapping."""
    x = as_ring(x_keys)
    y = as_ring(y_keys)
    _check_distinct(x, "P0")
    _check_distinct(y, "P1")
    union = np.union1d(x, y)
    m = len(union)
    pool = sess.dealer.pool
    ri_star = np.unique(pool.u64(m))
    while len(ri_star) < m:  # two equal draws: top up the missing ids
        ri_star = np.unique(np.concatenate([ri_star,
                                            pool.u64(m - len(ri_star))]))
    full_map = dict(zip(union.tolist(), ri_star[pool.perm(m)].tolist()))
    out0 = PidOutput({k: full_map[k] for k in x.tolist()}, ri_star.copy())
    out1 = PidOutput({k: full_map[k] for k in y.tolist()}, ri_star.copy())
    sess.dealer.deliver(2 * 64 * m + 128 * (len(x) + len(y)), OUTPUTS)
    return out0, out1


def f_cpsi(sess: Session, receiver: int, recv_keys, send_keys,
           payload=None, width: int = 64
           ) -> tuple[SharedVector, SharedVector | None]:
    """Circuit PSI with payload.

    Per receiver index i: e_i = 1 and z_i = payload_j if some sender key j
    equals recv key i, else e_i = 0, z_i = 0 (the reserved null). Outputs are
    share pairs whose party-0 half party 0 expands from its dealer seed, so
    only party 1's half is delivered; with payload absent only E is produced.
    Z is an arithmetic share modulo 2^width, for payloads below 2^width
    (secV's indices take the bit length of their public bound), and its
    delivery costs `width` bits per index.
    """
    xs = as_ring(recv_keys)
    ys = as_ring(send_keys)
    _check_distinct(xs, "receiver")
    _check_distinct(ys, "sender")
    if payload is not None and len(payload) != len(ys):
        raise SizeMismatch("payload length differs from sender key count")
    n = len(xs)
    _, hit, src = np.intersect1d(xs, ys, assume_unique=True,
                                 return_indices=True)
    e = np.zeros(n, dtype=np.uint64)
    e[hit] = 1
    e_sv = SharedVector(BINARY, 1, *sess.dealer.split(e, BINARY, 1))
    sess.dealer.deliver(n, OUTPUTS)  # e1; party 0 expands e0
    if payload is None:
        return e_sv, None
    payload = as_ring(payload)
    if width < 64 and len(payload) and int(payload.max()) >> width:
        raise WidthMismatch(f"a payload does not fit {width} bits")
    z = np.zeros(n, dtype=np.uint64)
    z[hit] = payload[src]
    z_sv = SharedVector(ARITH, width, *sess.dealer.split(z, ARITH, width))
    sess.dealer.deliver(width * n, OUTPUTS)  # z1
    return e_sv, z_sv
