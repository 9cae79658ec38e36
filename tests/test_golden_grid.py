"""Golden transcript grid: every GA protocol's rows and transcript, pinned.

Each cell runs one protocol over one fixed view and stores a short hash of
(rows, Transcript.digest(), Transcript.phase_shapes()), or the class name of
the error the cell raises. The grid spans every `ga.PROTOCOLS` entry, PK-PK
and PK-FK views (the PK-FK one with `views.append_bitmap_columns` on g0),
levels 0-2, the group sets (g0, g1), (g0, -) and (-, g1), and two aggregate
lists: all sum/count (the suffix-sum path) and max/min/count (`trav_flags`).
Each view generation has its own cell too, and PK-PK sorting and osorting
queries that pass dom0 have cells of their own. A second table pins the
oblivious primitives and gates one by one, at n = 13 (not a power of two),
by (outputs with both share halves, digest, phase shapes). A third table
pins Beneš routing itself: every layer's top positions, bottom positions
and control bits of `build_program` on seeded random permutations at
m = 2 .. 2^14, and on the identity and the reversal at m = 2^10. A change
that keeps behaviour keeps every hash; `PYTHONPATH=src python
tests/test_golden_grid.py` prints the tables afresh for a deliberate change.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from secjoin import ga
from secjoin import oblivious as ob
from secjoin import sharing as sh
from secjoin import views as vw
from secjoin.benes import build_program
from secjoin.ga import JgaQuery
from secjoin.oblivious import PlainColumn
from secjoin.ring import ARITH, BINARY
from secjoin.session import Session
from secjoin.views import Relation

DOM0 = [0, 1, 2]
GROUPS = {"g0g1": ("g0", "g1"), "g0": ("g0", None), "g1": (None, "g1")}
AGGS = {
    "sums": [(0, "v0", "sum"), (1, "v1", "sum"), (0, None, "count")],
    "extremes": [(0, "v0", "max"), (1, "v1", "min"), (1, None, "count")],
}
VIEWS = [(join, level) for join in ("pkpk", "pkfk") for level in (0, 1, 2)]
DOM0_PROTOCOLS = ("sorting", "osorting")


def _tables(join):
    rng = np.random.default_rng(2024)
    pk = rng.choice(np.arange(1, 15), 10, replace=False)
    r0 = Relation("A", {"k": pk, "g0": rng.integers(0, 3, 10),
                        "v0": rng.integers(0, 1 << 40, 10)}, "k")
    if join == "pkpk":
        k1, kind = rng.choice(np.arange(1, 15), 9, replace=False), "pk"
    else:
        k1 = rng.choice(np.concatenate([pk[:6], [90, 91]]), 11, replace=True)
        kind = "fk"
        r0 = vw.append_bitmap_columns(r0, "g0", DOM0)
    r1 = Relation("B", {"k": k1, "g1": rng.integers(0, 3, len(k1)),
                        "v1": rng.integers(0, 1 << 40, len(k1))}, "k", kind)
    return r0, r1


def _hash(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _view(join, level):
    """One fixed view and the transcript of its generation."""
    r0, r1 = _tables(join)
    sess = Session(1, 2, 3)
    if join == "pkpk":
        v0, v1 = vw.GENERATORS[level](sess, r0, r1)
    else:
        v0, v1 = vw.gen_pkfk(sess, r0, r1, level=level)
    return v0, v1, sess.transcript


def _query_cell(v0, v1, q) -> str:
    run = Session(4, 5, 6)
    try:
        rows = ga.PROTOCOLS[q.protocol](run, v0, v1, q).rows
    except Exception as exc:  # the error class is the record
        return type(exc).__name__
    t = run.transcript
    return _hash(rows, t.digest(), t.phase_shapes())


def grid_cells(join, level) -> dict[str, str]:
    """Every cell of one view: the view generation itself, then the queries."""
    v0, v1, t = _view(join, level)
    prefix = f"{join}-l{level}"
    cells = {f"{prefix}-view": _hash(t.digest(), t.phase_shapes())}
    for proto in ga.PROTOCOLS:
        for gname, (g0, g1) in GROUPS.items():
            for aname, aggs in AGGS.items():
                q = JgaQuery(g0, g1, aggs, protocol=proto,
                             dom0=DOM0 if join == "pkfk" else None)
                cells[f"{prefix}-{proto}-{gname}-{aname}"] = \
                    _query_cell(v0, v1, q)
    return cells


def dom0_cells(level) -> dict[str, str]:
    """PK-PK sorting and osorting queries on g0 that pass the public dom0."""
    v0, v1, _ = _view("pkpk", level)
    cells = {}
    for proto in DOM0_PROTOCOLS:
        for gname in ("g0g1", "g0"):
            for aname, aggs in AGGS.items():
                q = JgaQuery(*GROUPS[gname], aggs, protocol=proto, dom0=DOM0)
                cells[f"pkpk-l{level}-{proto}-dom0-{gname}-{aname}"] = \
                    _query_cell(v0, v1, q)
    return cells


GOLDEN = {
    "pkpk-l0-view": "6a0997a0cb14d258",
    "pkpk-l0-sorting-g0g1-sums": "ab242218bb59660e",
    "pkpk-l0-sorting-g0g1-extremes": "d2501be1cf8120ec",
    "pkpk-l0-sorting-g0-sums": "afa66b87f251e5df",
    "pkpk-l0-sorting-g0-extremes": "d96c3842825d65c9",
    "pkpk-l0-sorting-g1-sums": "382e13c630b71bf1",
    "pkpk-l0-sorting-g1-extremes": "9c1a0ad72349d0e1",
    "pkpk-l0-osorting-g0g1-sums": "6392783176f9ebb6",
    "pkpk-l0-osorting-g0g1-extremes": "fed4457263438ff8",
    "pkpk-l0-osorting-g0-sums": "f8988f897e9ed90f",
    "pkpk-l0-osorting-g0-extremes": "eddbf04535f95ba1",
    "pkpk-l0-osorting-g1-sums": "4eb7006844cb7cef",
    "pkpk-l0-osorting-g1-extremes": "ee0c735fc7d81c5c",
    "pkpk-l0-bsorting-g0g1-sums": "e0741151cf354617",
    "pkpk-l0-bsorting-g0g1-extremes": "3ea348c6c9a665fd",
    "pkpk-l0-bsorting-g0-sums": "ab23b9630841d8ec",
    "pkpk-l0-bsorting-g0-extremes": "34b13772d2e95bb5",
    "pkpk-l0-bsorting-g1-sums": "348271a55230d0bc",
    "pkpk-l0-bsorting-g1-extremes": "80717100545e8831",
    "pkpk-l0-mix-g0g1-sums": "27e716ea3a593c1f",
    "pkpk-l0-mix-g0g1-extremes": "c2f2fbb2c554943c",
    "pkpk-l0-mix-g0-sums": "e6e4ff918dd60cbc",
    "pkpk-l0-mix-g0-extremes": "57f3fd5c9b9336b9",
    "pkpk-l0-mix-g1-sums": "9f125a56d8fee3f8",
    "pkpk-l0-mix-g1-extremes": "9047560338bcbc8f",
    "pkpk-l0-bitmap-g0g1-sums": "2c458255175dda0e",
    "pkpk-l0-bitmap-g0g1-extremes": "e3e7efef73c28dd0",
    "pkpk-l0-bitmap-g0-sums": "5da063a5be8eb914",
    "pkpk-l0-bitmap-g0-extremes": "7a35a00033908a8a",
    "pkpk-l0-bitmap-g1-sums": "25da8044ad337382",
    "pkpk-l0-bitmap-g1-extremes": "d541284dea9b7131",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "b10715b850812f12",
    "pkpk-l0-oneside-g0-extremes": "9ebfeef8ef5f67f2",
    "pkpk-l0-oneside-g1-sums": "2c1c8bc5f0da6f12",
    "pkpk-l0-oneside-g1-extremes": "8d348425a4fb2fc3",
    "pkpk-l1-view": "92ff09382cbf5f1b",
    "pkpk-l1-sorting-g0g1-sums": "55624122a506765d",
    "pkpk-l1-sorting-g0g1-extremes": "faaee1afe23849c2",
    "pkpk-l1-sorting-g0-sums": "53d0223085d4b57b",
    "pkpk-l1-sorting-g0-extremes": "e04743a6fdbdfc4d",
    "pkpk-l1-sorting-g1-sums": "9a00445f2f2f1839",
    "pkpk-l1-sorting-g1-extremes": "c3e02024fbb9ea8d",
    "pkpk-l1-osorting-g0g1-sums": "02e41b037c2684b1",
    "pkpk-l1-osorting-g0g1-extremes": "88502ff2f7ed54f6",
    "pkpk-l1-osorting-g0-sums": "f12d802dc7d9a69b",
    "pkpk-l1-osorting-g0-extremes": "d61241d6192e3307",
    "pkpk-l1-osorting-g1-sums": "1c3dad71a21dc377",
    "pkpk-l1-osorting-g1-extremes": "bb33c92eb50c169c",
    "pkpk-l1-bsorting-g0g1-sums": "1983318ef42a040d",
    "pkpk-l1-bsorting-g0g1-extremes": "fb20c7b02469ca7a",
    "pkpk-l1-bsorting-g0-sums": "0266b43027c46e4c",
    "pkpk-l1-bsorting-g0-extremes": "bf00db30aa914234",
    "pkpk-l1-bsorting-g1-sums": "b2e01b56909f1c3e",
    "pkpk-l1-bsorting-g1-extremes": "7fb047e5e433ea4f",
    "pkpk-l1-mix-g0g1-sums": "7c7cf9475472ce29",
    "pkpk-l1-mix-g0g1-extremes": "4113ddfe1b11f390",
    "pkpk-l1-mix-g0-sums": "c6eaed7de5647bf7",
    "pkpk-l1-mix-g0-extremes": "c0f13b4c6ca265ee",
    "pkpk-l1-mix-g1-sums": "a700d4552d65ea39",
    "pkpk-l1-mix-g1-extremes": "e485730ea5dab218",
    "pkpk-l1-bitmap-g0g1-sums": "1bd159cbc8492cd7",
    "pkpk-l1-bitmap-g0g1-extremes": "3db9866885b6a3c3",
    "pkpk-l1-bitmap-g0-sums": "be52e04bc833fdd4",
    "pkpk-l1-bitmap-g0-extremes": "d5a392a1dde43d39",
    "pkpk-l1-bitmap-g1-sums": "202269a3923ae791",
    "pkpk-l1-bitmap-g1-extremes": "d174db993033224f",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "1a18d1d00194a311",
    "pkpk-l1-oneside-g0-extremes": "40f9073acb21ade6",
    "pkpk-l1-oneside-g1-sums": "66fe69174b8947c6",
    "pkpk-l1-oneside-g1-extremes": "fa59540eafa3a94d",
    "pkpk-l2-view": "9af3687269ebea0c",
    "pkpk-l2-sorting-g0g1-sums": "8de81fb19a88b554",
    "pkpk-l2-sorting-g0g1-extremes": "4fd59966025aa68d",
    "pkpk-l2-sorting-g0-sums": "6be9f3195a85c63e",
    "pkpk-l2-sorting-g0-extremes": "5fc4a305fcc10e2f",
    "pkpk-l2-sorting-g1-sums": "c38588d1e96ead32",
    "pkpk-l2-sorting-g1-extremes": "593154354ac58df4",
    "pkpk-l2-osorting-g0g1-sums": "8aa3ed7ef0a0fbec",
    "pkpk-l2-osorting-g0g1-extremes": "3d8ddb7455072950",
    "pkpk-l2-osorting-g0-sums": "c0748bcb98e4f329",
    "pkpk-l2-osorting-g0-extremes": "a95a43c5f7defe6a",
    "pkpk-l2-osorting-g1-sums": "4c0b5a9e1a27be68",
    "pkpk-l2-osorting-g1-extremes": "a19d011fa825a674",
    "pkpk-l2-bsorting-g0g1-sums": "90d7bb56214c81b9",
    "pkpk-l2-bsorting-g0g1-extremes": "2a3f7b82bfcf7272",
    "pkpk-l2-bsorting-g0-sums": "49ed2627ab0fc8e3",
    "pkpk-l2-bsorting-g0-extremes": "7e3b08853db42f33",
    "pkpk-l2-bsorting-g1-sums": "b18e92b6b46cd962",
    "pkpk-l2-bsorting-g1-extremes": "d480077f8073f0d0",
    "pkpk-l2-mix-g0g1-sums": "a5deeb4135c29618",
    "pkpk-l2-mix-g0g1-extremes": "de6b94f9ffc725fe",
    "pkpk-l2-mix-g0-sums": "8e9f0ed819431163",
    "pkpk-l2-mix-g0-extremes": "3fa3c5123ad4201f",
    "pkpk-l2-mix-g1-sums": "0cd27a05aea75062",
    "pkpk-l2-mix-g1-extremes": "49b5032a3ec088e5",
    "pkpk-l2-bitmap-g0g1-sums": "4f36bde88daebc6e",
    "pkpk-l2-bitmap-g0g1-extremes": "8db6318c78d43a17",
    "pkpk-l2-bitmap-g0-sums": "c42582fccb5cb0d1",
    "pkpk-l2-bitmap-g0-extremes": "b30f2b7cc748e528",
    "pkpk-l2-bitmap-g1-sums": "22970b5f3734d0d2",
    "pkpk-l2-bitmap-g1-extremes": "d9c6cad64a17eb95",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "80e5c7d6484a7f23",
    "pkpk-l2-oneside-g0-extremes": "061348b73d9c9e90",
    "pkpk-l2-oneside-g1-sums": "8168202e678455fb",
    "pkpk-l2-oneside-g1-extremes": "ce97d4759fcfd4ae",
    "pkfk-l0-view": "162aa1009ae9b3d3",
    "pkfk-l0-sorting-g0g1-sums": "5519bcf3fb62c8d5",
    "pkfk-l0-sorting-g0g1-extremes": "ba5eb92ea81ef303",
    "pkfk-l0-sorting-g0-sums": "1834d863b4b5eae0",
    "pkfk-l0-sorting-g0-extremes": "a274206a513b8afd",
    "pkfk-l0-sorting-g1-sums": "da6fa4bfeac62af5",
    "pkfk-l0-sorting-g1-extremes": "cb408ec86af05ee8",
    "pkfk-l0-osorting-g0g1-sums": "b7fccda86ed79ea8",
    "pkfk-l0-osorting-g0g1-extremes": "6fa5b82033f82a76",
    "pkfk-l0-osorting-g0-sums": "8a9ea6e064e9e1de",
    "pkfk-l0-osorting-g0-extremes": "2531818b40c4a48b",
    "pkfk-l0-osorting-g1-sums": "bca8add6620297de",
    "pkfk-l0-osorting-g1-extremes": "2743f06577c31583",
    "pkfk-l0-bsorting-g0g1-sums": "c97271d516f875af",
    "pkfk-l0-bsorting-g0g1-extremes": "f6dd5272bd9eb222",
    "pkfk-l0-bsorting-g0-sums": "97165af6c26f82c9",
    "pkfk-l0-bsorting-g0-extremes": "46da6b86a03d897c",
    "pkfk-l0-bsorting-g1-sums": "ab4c02e46ce587a3",
    "pkfk-l0-bsorting-g1-extremes": "cf7410d0c9e9acb1",
    "pkfk-l0-mix-g0g1-sums": "9e740cdf017aab51",
    "pkfk-l0-mix-g0g1-extremes": "d2dad1ae5e3a2950",
    "pkfk-l0-mix-g0-sums": "5036ad1df4ffad90",
    "pkfk-l0-mix-g0-extremes": "2843f280d8616f6b",
    "pkfk-l0-mix-g1-sums": "6fd0a837b7bbdaf1",
    "pkfk-l0-mix-g1-extremes": "1e0135fbf337b3fb",
    "pkfk-l0-bitmap-g0g1-sums": "7419600e47545855",
    "pkfk-l0-bitmap-g0g1-extremes": "4418b5b88afe5285",
    "pkfk-l0-bitmap-g0-sums": "a31aac9a874c0284",
    "pkfk-l0-bitmap-g0-extremes": "bfe7a73c1749e054",
    "pkfk-l0-bitmap-g1-sums": "dea0f74c4c11fe60",
    "pkfk-l0-bitmap-g1-extremes": "2978a245e262ec78",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "fd0738f5e48bb42a",
    "pkfk-l0-oneside-g1-extremes": "a9bcde8dde1a6437",
    "pkfk-l1-view": "d60f485446a2919b",
    "pkfk-l1-sorting-g0g1-sums": "8c754e22681f7a78",
    "pkfk-l1-sorting-g0g1-extremes": "515b903a6d65163f",
    "pkfk-l1-sorting-g0-sums": "c9d39d93ae685bbc",
    "pkfk-l1-sorting-g0-extremes": "ef217fffa708c4ed",
    "pkfk-l1-sorting-g1-sums": "3a65f0a89cd157e7",
    "pkfk-l1-sorting-g1-extremes": "d9dacf1ee781ac0e",
    "pkfk-l1-osorting-g0g1-sums": "b748b541bea47178",
    "pkfk-l1-osorting-g0g1-extremes": "ea385bdaf04af8c3",
    "pkfk-l1-osorting-g0-sums": "eaac8c98b47f1494",
    "pkfk-l1-osorting-g0-extremes": "e2b9e3f60e8eb289",
    "pkfk-l1-osorting-g1-sums": "fb93c0d8e00094b7",
    "pkfk-l1-osorting-g1-extremes": "569247de3633d1bb",
    "pkfk-l1-bsorting-g0g1-sums": "35a6e1bd0e160acc",
    "pkfk-l1-bsorting-g0g1-extremes": "a598893e111682db",
    "pkfk-l1-bsorting-g0-sums": "45283cf6a657cb7b",
    "pkfk-l1-bsorting-g0-extremes": "621e3040eed96512",
    "pkfk-l1-bsorting-g1-sums": "dd847a152c74482c",
    "pkfk-l1-bsorting-g1-extremes": "bfc1347553d5d432",
    "pkfk-l1-mix-g0g1-sums": "57fac117247d6ef8",
    "pkfk-l1-mix-g0g1-extremes": "3bc959c48a008f43",
    "pkfk-l1-mix-g0-sums": "ae93c3d640a78efc",
    "pkfk-l1-mix-g0-extremes": "161a463d0ac6cacd",
    "pkfk-l1-mix-g1-sums": "23864aea699190fd",
    "pkfk-l1-mix-g1-extremes": "ba47249def248ca4",
    "pkfk-l1-bitmap-g0g1-sums": "0da2a9d312e91be5",
    "pkfk-l1-bitmap-g0g1-extremes": "fd1923031231b03d",
    "pkfk-l1-bitmap-g0-sums": "2b52c6e463b26e6f",
    "pkfk-l1-bitmap-g0-extremes": "990d6fb5fb15870b",
    "pkfk-l1-bitmap-g1-sums": "ff5cd9b7d12629d7",
    "pkfk-l1-bitmap-g1-extremes": "5ff25bffac5a8d1a",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "c99e008b32d50b33",
    "pkfk-l1-oneside-g1-extremes": "e9f6b40d1d690b63",
    "pkfk-l2-view": "7656852fae86848b",
    "pkfk-l2-sorting-g0g1-sums": "8376d557c30d1845",
    "pkfk-l2-sorting-g0g1-extremes": "4958219bc8a8c9a8",
    "pkfk-l2-sorting-g0-sums": "67da4d71b8b8e990",
    "pkfk-l2-sorting-g0-extremes": "b15db49166cda1f8",
    "pkfk-l2-sorting-g1-sums": "9d53350324b42991",
    "pkfk-l2-sorting-g1-extremes": "2e6c38c9ef5ec71e",
    "pkfk-l2-osorting-g0g1-sums": "46781869b34904a7",
    "pkfk-l2-osorting-g0g1-extremes": "aa4f49392d1b7af0",
    "pkfk-l2-osorting-g0-sums": "951af48556000346",
    "pkfk-l2-osorting-g0-extremes": "61c0bfe68db76a36",
    "pkfk-l2-osorting-g1-sums": "c4af074b70b395f6",
    "pkfk-l2-osorting-g1-extremes": "5f783ae3ad09916f",
    "pkfk-l2-bsorting-g0g1-sums": "8cc97d534f8372ea",
    "pkfk-l2-bsorting-g0g1-extremes": "f225a390f4087ce7",
    "pkfk-l2-bsorting-g0-sums": "2851f291ec73bd57",
    "pkfk-l2-bsorting-g0-extremes": "89c56ce2e4df25c3",
    "pkfk-l2-bsorting-g1-sums": "4add4b5aa5d776d0",
    "pkfk-l2-bsorting-g1-extremes": "fc1b06ef92480ac7",
    "pkfk-l2-mix-g0g1-sums": "4f9c4e3d8cfbaf0f",
    "pkfk-l2-mix-g0g1-extremes": "767b6be7e27e48c2",
    "pkfk-l2-mix-g0-sums": "efe7dbc49a8af3bc",
    "pkfk-l2-mix-g0-extremes": "2960a337f9446eb9",
    "pkfk-l2-mix-g1-sums": "8d45fb62f3ee55f7",
    "pkfk-l2-mix-g1-extremes": "4a75d69a1a2b75b1",
    "pkfk-l2-bitmap-g0g1-sums": "7cf5334e900f065f",
    "pkfk-l2-bitmap-g0g1-extremes": "eca81f45ea535a54",
    "pkfk-l2-bitmap-g0-sums": "e0ce287bc509443c",
    "pkfk-l2-bitmap-g0-extremes": "e6db1fc9ad71e6a8",
    "pkfk-l2-bitmap-g1-sums": "bcf3c933b16460d3",
    "pkfk-l2-bitmap-g1-extremes": "0ef2bf1d099f24cd",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "08dd314e40a9f8e0",
    "pkfk-l2-oneside-g1-extremes": "9d0cb9ae6c2781ef",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "b778fee6f253c0e6",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "5eb9eba050428191",
    "pkpk-l0-sorting-dom0-g0-sums": "735bdbf61291e710",
    "pkpk-l0-sorting-dom0-g0-extremes": "38b31c57939b0706",
    "pkpk-l0-osorting-dom0-g0g1-sums": "114b451972731926",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "16876a617627b88b",
    "pkpk-l0-osorting-dom0-g0-sums": "75e6d33541521022",
    "pkpk-l0-osorting-dom0-g0-extremes": "a241a583e3509c46",
    "pkpk-l1-sorting-dom0-g0g1-sums": "bfdf70fc9240dc61",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "f424c21948833ebe",
    "pkpk-l1-sorting-dom0-g0-sums": "80b70e50327ac2f3",
    "pkpk-l1-sorting-dom0-g0-extremes": "617565389cf95914",
    "pkpk-l1-osorting-dom0-g0g1-sums": "1462b7a28cb5e97b",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "a839eab7fdf99683",
    "pkpk-l1-osorting-dom0-g0-sums": "057637eba22714a1",
    "pkpk-l1-osorting-dom0-g0-extremes": "d30e463c022a0c84",
    "pkpk-l2-sorting-dom0-g0g1-sums": "7a7d1c99a3f847e7",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "5b1e504455504793",
    "pkpk-l2-sorting-dom0-g0-sums": "efdf291e4b35b339",
    "pkpk-l2-sorting-dom0-g0-extremes": "f1cb20bbe10133c1",
    "pkpk-l2-osorting-dom0-g0g1-sums": "e461890c3af6305f",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "7a0827536c7dbcb3",
    "pkpk-l2-osorting-dom0-g0-sums": "8511e1b02c1574e0",
    "pkpk-l2-osorting-dom0-g0-extremes": "b37e74c873ca96e5",
}


PRIM_N = 13


def _plain(x):
    """Outputs as plain Python values: shared vectors keep both halves."""
    if isinstance(x, sh.SharedVector):
        return ("sv", x.flavor, x.width, _plain(x.shares))
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return tuple((k, _plain(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_plain(v) for v in x)
    if dataclasses.is_dataclass(x):
        return _plain(vars(x))
    return x


def _inputs():
    """Fixed plaintext inputs: a permutation, 64-bit values, bits, nibbles."""
    rng = np.random.default_rng(13)
    return (rng.permutation(PRIM_N).astype(np.int64) + 1,
            rng.integers(0, 1 << 64, PRIM_N, dtype=np.uint64),
            rng.integers(0, 2, PRIM_N).astype(np.uint64),
            rng.integers(0, 16, PRIM_N).astype(np.uint64))


def _plain_cols():
    _pi, x, bits, _nib = _inputs()
    return [PlainColumn(x, ARITH), PlainColumn(bits, BINARY, 1),
            PlainColumn(x[::-1].copy(), BINARY, 64)]


def _shared_cols(sess):
    """An arithmetic, a 1-bit binary and a 64-bit binary shared column."""
    return [sh.share_vec(sess, u, c.values, c.flavor, c.width)
            for u, c in zip((0, 1, 0), _plain_cols())]


def _shared_perm(sess):
    return sh.share_vec(sess, 0, _inputs()[0])


def _osn_shared(sess):
    pi = _inputs()[0]
    return ob.osn_shared(sess, 0, pi, _shared_cols(sess) + _plain_cols()[:1])


def _stable_sort(sess):
    _pi, x, bits, nib = _inputs()
    keys = [sh.share_vec(sess, 0, bits, BINARY, 1),
            sh.share_vec(sess, 1, nib, BINARY, 4)]
    return ob.stable_sort(sess, keys, [sh.share_vec(sess, 1, x)])


def _trav_flags(fn):
    def run(sess):
        _pi, x, bits, nib = _inputs()
        flavor = ARITH if fn in ("sum", "count") else BINARY
        flags = sh.share_vec(sess, 1, nib & np.uint64(1), BINARY, 1)
        values = sh.share_vec(sess, 0, x, flavor)
        valid = sh.share_vec(sess, 0, bits, BINARY, 1)
        return ob.trav_flags(sess, flags, values, fn, validity=valid)
    return run


def _asym_mul(flavor, width, holder):
    def run(sess):
        _pi, x, bits, _nib = _inputs()
        return sh.asym_mul(sess, holder, bits, x, flavor, width)
    return run


def _share_open(sess):
    _pi, x, bits, _nib = _inputs()
    svs = [sh.share_vec(sess, 0, x), sh.share_vec(sess, 1, x, BINARY, 64),
           sh.share_vec(sess, 1, bits, BINARY, 1)]
    return svs, [sh.open_vec(sess, sv, to) for sv, to in zip(svs, ("both", 0, 1))]


def _gates(sess):
    _pi, x, bits, nib = _inputs()
    a, b = sh.share_vec(sess, 0, x), sh.share_vec(sess, 1, x[::-1].copy())
    w = sh.share_vec(sess, 1, nib, BINARY, 4)
    return (sh.a2b(sess, a), sh.b2a_wide(sess, w), sh.eq(sess, a, b),
            sh.eq(sess, a, a), sh.gt(sess, a, b),
            sh.gt(sess, w, sh.share_vec(sess, 0, nib[::-1].copy(), BINARY, 4)))


def _refresh_pkfk(sess):
    r0, r1 = _tables("pkfk")
    v0, v1 = vw.gen_pkfk(Session(1, 2, 3), r0, r1, level=2)
    return vw.refresh_pkfk(sess, v0, v1, r0, r1, updates0=[(2, {"v0": 77})],
                           updates1=[(3, {"v1": 5})])


PRIMITIVES = {
    "osn_plain": lambda s: ob.osn_plain(s, 1, _inputs()[0], _plain_cols()),
    "osn_shared": _osn_shared,
    "shuffle": lambda s: ob.shuffle(s, _shared_cols(s)),
    "perm_shared": lambda s: ob.perm_shared(s, _shared_perm(s), _shared_cols(s)),
    "invp_shared": lambda s: ob.invp_shared(s, _shared_perm(s), _shared_cols(s)),
    "perm_plain": lambda s: ob.perm_plain(s, _shared_perm(s), 0, _plain_cols()),
    "invp_plain": lambda s: ob.invp_plain(s, _shared_perm(s), 1, _plain_cols()),
    "stable_sort": _stable_sort,
    **{f"trav_flags-{fn}": _trav_flags(fn)
       for fn in ("sum", "count", "max", "min", "xor")},
    "asym_mul-arith": _asym_mul(ARITH, 64, 0),
    "asym_mul-bin64": _asym_mul(BINARY, 64, 1),
    "asym_mul-bin1": _asym_mul(BINARY, 1, 0),
    "share_open": _share_open,
    "gates": _gates,
    "refresh_pkfk": _refresh_pkfk,
}


def primitive_cell(name) -> str:
    sess = Session(7, 8, 9)
    out = PRIMITIVES[name](sess)
    t = sess.transcript
    return _hash(_plain(out), t.digest(), t.phase_shapes())


GOLDEN_PRIMITIVES = {
    "osn_plain": "81fbea3a0c7f0204",
    "osn_shared": "0deb35cf6cfb8825",
    "shuffle": "0ed3c8c81222831a",
    "perm_shared": "6b87f195a641e8c1",
    "invp_shared": "786dfb4b7988603b",
    "perm_plain": "79d22bccc19c2747",
    "invp_plain": "9c775f8223533b4e",
    "stable_sort": "7f754d01f70128fe",
    "trav_flags-sum": "b6052fb894f775a6",
    "trav_flags-count": "b6052fb894f775a6",
    "trav_flags-max": "bcf4b3ba99dad499",
    "trav_flags-min": "ce7fd8fb30d2d391",
    "trav_flags-xor": "393e3ec8f1e77a44",
    "asym_mul-arith": "8dce452513397df5",
    "asym_mul-bin64": "fe232085952c8e4f",
    "asym_mul-bin1": "8539ba3c0a073a79",
    "share_open": "1958faf848c0ed3d",
    "gates": "27072eb56d5ebf60",
    "refresh_pkfk": "1439f9a2a778cda2",
}


def _routing_perm(name) -> np.ndarray:
    kind, m = name.rsplit("-", 1)
    m = int(m)
    if kind == "identity":
        return np.arange(m)
    if kind == "reversal":
        return np.arange(m)[::-1].copy()
    return np.random.default_rng(m).permutation(m)


ROUTING = ([f"random-{1 << k}" for k in range(1, 15)]
           + ["identity-1024", "reversal-1024"])


def routing_cell(name) -> str:
    prog = build_program(_routing_perm(name))
    return _hash(prog.size, [(a.tolist(), b.tolist(), c.tolist())
                             for a, b, c in prog.layers])


GOLDEN_ROUTING = {
    "random-2": "057bf939c19e5379",
    "random-4": "d486090f9659b928",
    "random-8": "d1a2f1ce95719a3f",
    "random-16": "e380ce2a4c7336f7",
    "random-32": "22b9af7c2276fef0",
    "random-64": "7bab50e207324de4",
    "random-128": "d1101989fe456872",
    "random-256": "7806b90b8d28f5ae",
    "random-512": "74ed5cdf1af632ff",
    "random-1024": "543f6ba45390fff4",
    "random-2048": "4ba701211573f78a",
    "random-4096": "d46bc7a565f71c63",
    "random-8192": "0488b9947630494c",
    "random-16384": "b65267f15a12f98c",
    "identity-1024": "cee85dc1c0007172",
    "reversal-1024": "9b527ba95b398b1f",
}


@pytest.mark.parametrize("name", ROUTING)
def test_golden_routing(name):
    assert routing_cell(name) == GOLDEN_ROUTING.get(name)


@pytest.mark.parametrize("name", PRIMITIVES)
def test_golden_primitive(name):
    assert primitive_cell(name) == GOLDEN_PRIMITIVES.get(name)


@pytest.mark.parametrize("join,level", VIEWS)
def test_golden_grid(join, level):
    got = grid_cells(join, level)
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{join}-l{level}-")}
    assert len(got) == 1 + len(ga.PROTOCOLS) * len(GROUPS) * len(AGGS)
    changed = [f"{k}: {want.get(k)} -> {v}" for k, v in got.items()
               if want.get(k) != v]
    assert not changed, "\n".join(changed)


@pytest.mark.parametrize("level", (0, 1, 2))
def test_golden_dom0(level):
    got = dom0_cells(level)
    want = {k: v for k, v in GOLDEN_DOM0.items()
            if k.startswith(f"pkpk-l{level}-")}
    changed = [f"{k}: {want.get(k)} -> {v}" for k, v in got.items()
               if want.get(k) != v]
    assert len(got) == len(want) and not changed, "\n".join(changed)


if __name__ == "__main__":
    print("GOLDEN = {")
    for join, level in VIEWS:
        for key, value in grid_cells(join, level).items():
            print(f'    "{key}": "{value}",')
    print("}")
    print("GOLDEN_DOM0 = {")
    for level in (0, 1, 2):
        for key, value in dom0_cells(level).items():
            print(f'    "{key}": "{value}",')
    print("}")
    print("GOLDEN_PRIMITIVES = {")
    for name in PRIMITIVES:
        print(f'    "{name}": "{primitive_cell(name)}",')
    print("}")
    print("GOLDEN_ROUTING = {")
    for name in ROUTING:
        print(f'    "{name}": "{routing_cell(name)}",')
    print("}")
