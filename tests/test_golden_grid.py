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
    "pkpk-l0-sorting-g0g1-sums": "faeac6ec5841be8e",
    "pkpk-l0-sorting-g0g1-extremes": "416cec42fb2d866d",
    "pkpk-l0-sorting-g0-sums": "37d2084d225283d4",
    "pkpk-l0-sorting-g0-extremes": "6ceeecaa30ebcfbd",
    "pkpk-l0-sorting-g1-sums": "d29ef200fd3c7054",
    "pkpk-l0-sorting-g1-extremes": "61d305a6066496d5",
    "pkpk-l0-osorting-g0g1-sums": "e2efe85c2871eb25",
    "pkpk-l0-osorting-g0g1-extremes": "fae4c35999f5b28f",
    "pkpk-l0-osorting-g0-sums": "51b1cad69849a7fb",
    "pkpk-l0-osorting-g0-extremes": "acaaf295c91b75b6",
    "pkpk-l0-osorting-g1-sums": "55e200420b555f9e",
    "pkpk-l0-osorting-g1-extremes": "6993da57bf3d2ac9",
    "pkpk-l0-bsorting-g0g1-sums": "fa225aedd0ac107b",
    "pkpk-l0-bsorting-g0g1-extremes": "ec75f45dae3b6d79",
    "pkpk-l0-bsorting-g0-sums": "a9df23151ed004bc",
    "pkpk-l0-bsorting-g0-extremes": "92517488b2835304",
    "pkpk-l0-bsorting-g1-sums": "3559ea01918e8169",
    "pkpk-l0-bsorting-g1-extremes": "72488754e4a3018e",
    "pkpk-l0-mix-g0g1-sums": "27e716ea3a593c1f",
    "pkpk-l0-mix-g0g1-extremes": "23dc3d19d26ac83d",
    "pkpk-l0-mix-g0-sums": "e6e4ff918dd60cbc",
    "pkpk-l0-mix-g0-extremes": "179d18df01ad00c5",
    "pkpk-l0-mix-g1-sums": "9f125a56d8fee3f8",
    "pkpk-l0-mix-g1-extremes": "e69ad7ad5e58e470",
    "pkpk-l0-bitmap-g0g1-sums": "2c458255175dda0e",
    "pkpk-l0-bitmap-g0g1-extremes": "2938faa087b7c7fe",
    "pkpk-l0-bitmap-g0-sums": "5da063a5be8eb914",
    "pkpk-l0-bitmap-g0-extremes": "922d1714ebc0d125",
    "pkpk-l0-bitmap-g1-sums": "25da8044ad337382",
    "pkpk-l0-bitmap-g1-extremes": "2fd33a4828b40f48",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "b10715b850812f12",
    "pkpk-l0-oneside-g0-extremes": "c9de4b17f922abf9",
    "pkpk-l0-oneside-g1-sums": "2c1c8bc5f0da6f12",
    "pkpk-l0-oneside-g1-extremes": "7a952006ac4d60b0",
    "pkpk-l1-view": "9db97b1f326b284b",
    "pkpk-l1-sorting-g0g1-sums": "edc97e7c5bb5a4cc",
    "pkpk-l1-sorting-g0g1-extremes": "066046ce8866aa5c",
    "pkpk-l1-sorting-g0-sums": "5cd2116e4a275f0f",
    "pkpk-l1-sorting-g0-extremes": "b4af7df0348afaeb",
    "pkpk-l1-sorting-g1-sums": "58d982710d94fabf",
    "pkpk-l1-sorting-g1-extremes": "2806e65f2dd9f6db",
    "pkpk-l1-osorting-g0g1-sums": "698cefa1b018daa4",
    "pkpk-l1-osorting-g0g1-extremes": "8cc4746252bc0692",
    "pkpk-l1-osorting-g0-sums": "6f152479ed058d46",
    "pkpk-l1-osorting-g0-extremes": "16159d795d9903bc",
    "pkpk-l1-osorting-g1-sums": "60f4b92e716b0b5f",
    "pkpk-l1-osorting-g1-extremes": "97c1f815cd42ea18",
    "pkpk-l1-bsorting-g0g1-sums": "d520f6db261fc4d8",
    "pkpk-l1-bsorting-g0g1-extremes": "cd9eb951659142db",
    "pkpk-l1-bsorting-g0-sums": "e4513accbafe4bd8",
    "pkpk-l1-bsorting-g0-extremes": "1408a17e365a041a",
    "pkpk-l1-bsorting-g1-sums": "454dfadedd2d29e3",
    "pkpk-l1-bsorting-g1-extremes": "8207758902acb455",
    "pkpk-l1-mix-g0g1-sums": "fe78612fac7f9234",
    "pkpk-l1-mix-g0g1-extremes": "b63756f672021af0",
    "pkpk-l1-mix-g0-sums": "b21b7acbb67def61",
    "pkpk-l1-mix-g0-extremes": "bf24c943700103f0",
    "pkpk-l1-mix-g1-sums": "2f8c719fe0f6e30a",
    "pkpk-l1-mix-g1-extremes": "e494d9a3234df19a",
    "pkpk-l1-bitmap-g0g1-sums": "c87c3c95045e94b9",
    "pkpk-l1-bitmap-g0g1-extremes": "14f47690635beec4",
    "pkpk-l1-bitmap-g0-sums": "2c6ecebd9cf457cc",
    "pkpk-l1-bitmap-g0-extremes": "10e7e7f54117f928",
    "pkpk-l1-bitmap-g1-sums": "a86c3ddd068cd1ca",
    "pkpk-l1-bitmap-g1-extremes": "94c8e370d0283754",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "b6cd4143458b0231",
    "pkpk-l1-oneside-g0-extremes": "f60010f1e6457331",
    "pkpk-l1-oneside-g1-sums": "0766b89da3ac36fa",
    "pkpk-l1-oneside-g1-extremes": "8e7a77b18016324d",
    "pkpk-l2-view": "9af3687269ebea0c",
    "pkpk-l2-sorting-g0g1-sums": "049c2dc9eb230f3b",
    "pkpk-l2-sorting-g0g1-extremes": "16deebf55347599e",
    "pkpk-l2-sorting-g0-sums": "83cd58594613b572",
    "pkpk-l2-sorting-g0-extremes": "4bdd16dbfecb6bd7",
    "pkpk-l2-sorting-g1-sums": "00cbcc400d14bbce",
    "pkpk-l2-sorting-g1-extremes": "d2c65df5e8e86a71",
    "pkpk-l2-osorting-g0g1-sums": "c25e98df2774399d",
    "pkpk-l2-osorting-g0g1-extremes": "2a714e95260ef1a4",
    "pkpk-l2-osorting-g0-sums": "bbcb7ef67a77c942",
    "pkpk-l2-osorting-g0-extremes": "c79dddb305fd93d7",
    "pkpk-l2-osorting-g1-sums": "29f5c517ed4e9152",
    "pkpk-l2-osorting-g1-extremes": "4272abf45b26ac53",
    "pkpk-l2-bsorting-g0g1-sums": "64958c5372b900b7",
    "pkpk-l2-bsorting-g0g1-extremes": "4b8939a83465c801",
    "pkpk-l2-bsorting-g0-sums": "2631a34c7f13a76c",
    "pkpk-l2-bsorting-g0-extremes": "094adcf07578b575",
    "pkpk-l2-bsorting-g1-sums": "92b585754935e767",
    "pkpk-l2-bsorting-g1-extremes": "92ae2fbd80d73685",
    "pkpk-l2-mix-g0g1-sums": "a5deeb4135c29618",
    "pkpk-l2-mix-g0g1-extremes": "b73604d4b503cebd",
    "pkpk-l2-mix-g0-sums": "8e9f0ed819431163",
    "pkpk-l2-mix-g0-extremes": "6b9061f2e3627fa3",
    "pkpk-l2-mix-g1-sums": "0cd27a05aea75062",
    "pkpk-l2-mix-g1-extremes": "47a2e0ecb6f7c7bf",
    "pkpk-l2-bitmap-g0g1-sums": "4f36bde88daebc6e",
    "pkpk-l2-bitmap-g0g1-extremes": "5dd09a872e83414b",
    "pkpk-l2-bitmap-g0-sums": "c42582fccb5cb0d1",
    "pkpk-l2-bitmap-g0-extremes": "ff1838ae4eedf423",
    "pkpk-l2-bitmap-g1-sums": "22970b5f3734d0d2",
    "pkpk-l2-bitmap-g1-extremes": "af9160df16d24a2c",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "80e5c7d6484a7f23",
    "pkpk-l2-oneside-g0-extremes": "85f52296bbe037f6",
    "pkpk-l2-oneside-g1-sums": "8168202e678455fb",
    "pkpk-l2-oneside-g1-extremes": "794566615cf4d1e9",
    "pkfk-l0-view": "162aa1009ae9b3d3",
    "pkfk-l0-sorting-g0g1-sums": "27d6462e8a11b9a5",
    "pkfk-l0-sorting-g0g1-extremes": "84515a456842a2a2",
    "pkfk-l0-sorting-g0-sums": "64e75001887a25a1",
    "pkfk-l0-sorting-g0-extremes": "b11d99034c615976",
    "pkfk-l0-sorting-g1-sums": "20a018a5fa08ceee",
    "pkfk-l0-sorting-g1-extremes": "6dc23609cb7fe18a",
    "pkfk-l0-osorting-g0g1-sums": "1cb9dc74d3978b6d",
    "pkfk-l0-osorting-g0g1-extremes": "7f0159d8e3354b20",
    "pkfk-l0-osorting-g0-sums": "5319e97863b253a9",
    "pkfk-l0-osorting-g0-extremes": "4604385abf0a1690",
    "pkfk-l0-osorting-g1-sums": "884908b81d4d46bf",
    "pkfk-l0-osorting-g1-extremes": "d80ccbeec8309919",
    "pkfk-l0-bsorting-g0g1-sums": "cb922ab64c58d52e",
    "pkfk-l0-bsorting-g0g1-extremes": "00c5da24192c7436",
    "pkfk-l0-bsorting-g0-sums": "eaf040ac7bf6d476",
    "pkfk-l0-bsorting-g0-extremes": "f3d493a631c4336e",
    "pkfk-l0-bsorting-g1-sums": "1d41c5a7bf174733",
    "pkfk-l0-bsorting-g1-extremes": "4d4891317396e356",
    "pkfk-l0-mix-g0g1-sums": "f3b23e0f8688e85d",
    "pkfk-l0-mix-g0g1-extremes": "ecaa5319bc081e65",
    "pkfk-l0-mix-g0-sums": "c6cb84f16a1aba94",
    "pkfk-l0-mix-g0-extremes": "0916b6d3d2293097",
    "pkfk-l0-mix-g1-sums": "6fd0a837b7bbdaf1",
    "pkfk-l0-mix-g1-extremes": "a6c73187f991ec5e",
    "pkfk-l0-bitmap-g0g1-sums": "7419600e47545855",
    "pkfk-l0-bitmap-g0g1-extremes": "f7c28609d893b84a",
    "pkfk-l0-bitmap-g0-sums": "a31aac9a874c0284",
    "pkfk-l0-bitmap-g0-extremes": "cfd6df2d434ca7d0",
    "pkfk-l0-bitmap-g1-sums": "dea0f74c4c11fe60",
    "pkfk-l0-bitmap-g1-extremes": "ff3cce8c21d7677a",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "fd0738f5e48bb42a",
    "pkfk-l0-oneside-g1-extremes": "113c61c9126fc37d",
    "pkfk-l1-view": "844fe1cf00ea86e8",
    "pkfk-l1-sorting-g0g1-sums": "25a9ff8c44b894d0",
    "pkfk-l1-sorting-g0g1-extremes": "2aa217c86638f44a",
    "pkfk-l1-sorting-g0-sums": "d574250a5e4e5632",
    "pkfk-l1-sorting-g0-extremes": "780130462cb91b66",
    "pkfk-l1-sorting-g1-sums": "8637818aacda5533",
    "pkfk-l1-sorting-g1-extremes": "cfe2d94ffaf101bf",
    "pkfk-l1-osorting-g0g1-sums": "71baa413f022df7d",
    "pkfk-l1-osorting-g0g1-extremes": "30ca78b6253953dd",
    "pkfk-l1-osorting-g0-sums": "25cb1766bf96344f",
    "pkfk-l1-osorting-g0-extremes": "ce86fd85bb66086f",
    "pkfk-l1-osorting-g1-sums": "46c9c6f128b2e7b1",
    "pkfk-l1-osorting-g1-extremes": "6d6bfc7135ddff8c",
    "pkfk-l1-bsorting-g0g1-sums": "94a2911427be303d",
    "pkfk-l1-bsorting-g0g1-extremes": "44953bf5df188d00",
    "pkfk-l1-bsorting-g0-sums": "5d6016ca15c82bbc",
    "pkfk-l1-bsorting-g0-extremes": "8e1f518fabcb38a8",
    "pkfk-l1-bsorting-g1-sums": "066c5b3161bd9420",
    "pkfk-l1-bsorting-g1-extremes": "29d535d50ff4eb07",
    "pkfk-l1-mix-g0g1-sums": "4af1d94a9f83ae39",
    "pkfk-l1-mix-g0g1-extremes": "6643c967b3e56074",
    "pkfk-l1-mix-g0-sums": "de8ecad75d48f926",
    "pkfk-l1-mix-g0-extremes": "fac1065685783fd1",
    "pkfk-l1-mix-g1-sums": "23864aea699190fd",
    "pkfk-l1-mix-g1-extremes": "e3c61d6d3f9b6679",
    "pkfk-l1-bitmap-g0g1-sums": "0da2a9d312e91be5",
    "pkfk-l1-bitmap-g0g1-extremes": "4afff4fbd092da4e",
    "pkfk-l1-bitmap-g0-sums": "2b52c6e463b26e6f",
    "pkfk-l1-bitmap-g0-extremes": "72cd06c5d1ecf46e",
    "pkfk-l1-bitmap-g1-sums": "ff5cd9b7d12629d7",
    "pkfk-l1-bitmap-g1-extremes": "321402c55142f6db",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "c99e008b32d50b33",
    "pkfk-l1-oneside-g1-extremes": "51896cc6d0acb948",
    "pkfk-l2-view": "7656852fae86848b",
    "pkfk-l2-sorting-g0g1-sums": "22c004c671c9a676",
    "pkfk-l2-sorting-g0g1-extremes": "947e6ccaec06e4a2",
    "pkfk-l2-sorting-g0-sums": "94f76e146676a6af",
    "pkfk-l2-sorting-g0-extremes": "759f98e82bd9ad15",
    "pkfk-l2-sorting-g1-sums": "e40765845038231e",
    "pkfk-l2-sorting-g1-extremes": "56bc69538df987e4",
    "pkfk-l2-osorting-g0g1-sums": "b201a6b29a52b6d9",
    "pkfk-l2-osorting-g0g1-extremes": "87c5117aa26380de",
    "pkfk-l2-osorting-g0-sums": "40e22af6c6b23300",
    "pkfk-l2-osorting-g0-extremes": "53acd87b885b7045",
    "pkfk-l2-osorting-g1-sums": "d19717e48e71e5f9",
    "pkfk-l2-osorting-g1-extremes": "89e356695e851863",
    "pkfk-l2-bsorting-g0g1-sums": "5ad2a1454e440d0a",
    "pkfk-l2-bsorting-g0g1-extremes": "437acdac185cde51",
    "pkfk-l2-bsorting-g0-sums": "a349d5e64221676c",
    "pkfk-l2-bsorting-g0-extremes": "957104c115ebcfc0",
    "pkfk-l2-bsorting-g1-sums": "96db9319e0352be9",
    "pkfk-l2-bsorting-g1-extremes": "723208f3be61cc52",
    "pkfk-l2-mix-g0g1-sums": "2e2b77f222772a56",
    "pkfk-l2-mix-g0g1-extremes": "bbb37addb12e4d0e",
    "pkfk-l2-mix-g0-sums": "5806b5b5a0af5f68",
    "pkfk-l2-mix-g0-extremes": "3a0a257ec27858d5",
    "pkfk-l2-mix-g1-sums": "8d45fb62f3ee55f7",
    "pkfk-l2-mix-g1-extremes": "f3aa98e3e311787d",
    "pkfk-l2-bitmap-g0g1-sums": "7cf5334e900f065f",
    "pkfk-l2-bitmap-g0g1-extremes": "5a5a2743e7dbb627",
    "pkfk-l2-bitmap-g0-sums": "e0ce287bc509443c",
    "pkfk-l2-bitmap-g0-extremes": "8631fb0d6464f80b",
    "pkfk-l2-bitmap-g1-sums": "bcf3c933b16460d3",
    "pkfk-l2-bitmap-g1-extremes": "23e7e96fa493f818",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "08dd314e40a9f8e0",
    "pkfk-l2-oneside-g1-extremes": "48ef7d6a8f6ecdca",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "7491428901c34106",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "9be5600eb537f4e0",
    "pkpk-l0-sorting-dom0-g0-sums": "400e4d392b29a5bc",
    "pkpk-l0-sorting-dom0-g0-extremes": "b5bbdcd55d8ed823",
    "pkpk-l0-osorting-dom0-g0g1-sums": "7ba11d24fa770b34",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "a9cc315c5b6e80d5",
    "pkpk-l0-osorting-dom0-g0-sums": "2a3e51b7fd4b387c",
    "pkpk-l0-osorting-dom0-g0-extremes": "89aa7391f4b84594",
    "pkpk-l1-sorting-dom0-g0g1-sums": "f0c9c0cf79fd6d3b",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "a6543fe71d09863b",
    "pkpk-l1-sorting-dom0-g0-sums": "c4152281c2ec5410",
    "pkpk-l1-sorting-dom0-g0-extremes": "55efc0833b9526b4",
    "pkpk-l1-osorting-dom0-g0g1-sums": "0f02732fc22819c8",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "9a1270248f02988b",
    "pkpk-l1-osorting-dom0-g0-sums": "37142bdf91f8ba0b",
    "pkpk-l1-osorting-dom0-g0-extremes": "af0c945983e9ed88",
    "pkpk-l2-sorting-dom0-g0g1-sums": "105b037dd2214680",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "cb3816a5a017a32f",
    "pkpk-l2-sorting-dom0-g0-sums": "5489ecabfdb73c7b",
    "pkpk-l2-sorting-dom0-g0-extremes": "f08fd0299b4319c1",
    "pkpk-l2-osorting-dom0-g0g1-sums": "ec3f404bf05455d7",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "3277d3fc35635b8a",
    "pkpk-l2-osorting-dom0-g0-sums": "698c55c550e315d7",
    "pkpk-l2-osorting-dom0-g0-extremes": "691c862d7296768b",
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
    "stable_sort": "1d44d72101f369e3",
    "trav_flags-sum": "b6052fb894f775a6",
    "trav_flags-count": "b6052fb894f775a6",
    "trav_flags-max": "9d308e17ac67c595",
    "trav_flags-min": "b09c126bf4fd8e9b",
    "trav_flags-xor": "393e3ec8f1e77a44",
    "asym_mul-arith": "8dce452513397df5",
    "asym_mul-bin64": "fe232085952c8e4f",
    "asym_mul-bin1": "8539ba3c0a073a79",
    "share_open": "1958faf848c0ed3d",
    "gates": "0dac941163b1425a",
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
