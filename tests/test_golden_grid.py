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
    "pkpk-l0-sorting-g0g1-sums": "195f14e1a3ac99bd",
    "pkpk-l0-sorting-g0g1-extremes": "7ed468b5d04235fe",
    "pkpk-l0-sorting-g0-sums": "3b9dc2b6e3f9107b",
    "pkpk-l0-sorting-g0-extremes": "1333ca41daba63cc",
    "pkpk-l0-sorting-g1-sums": "35f290c3f3d9a7fa",
    "pkpk-l0-sorting-g1-extremes": "c8239da1e5b0165d",
    "pkpk-l0-osorting-g0g1-sums": "96e1c1ba06f2bf19",
    "pkpk-l0-osorting-g0g1-extremes": "d2c3d164ea7e8df8",
    "pkpk-l0-osorting-g0-sums": "13017ab9557c0327",
    "pkpk-l0-osorting-g0-extremes": "d74516eb54042e2f",
    "pkpk-l0-osorting-g1-sums": "0d03060764be0e9b",
    "pkpk-l0-osorting-g1-extremes": "9852e40864b8c6c2",
    "pkpk-l0-bsorting-g0g1-sums": "4c6e423f71bfad9d",
    "pkpk-l0-bsorting-g0g1-extremes": "909e1e24548489e9",
    "pkpk-l0-bsorting-g0-sums": "5b4aabff12b4d940",
    "pkpk-l0-bsorting-g0-extremes": "0c1313f4fe674efa",
    "pkpk-l0-bsorting-g1-sums": "1aab3283dc1d214c",
    "pkpk-l0-bsorting-g1-extremes": "a8a78b732f5aa6c7",
    "pkpk-l0-mix-g0g1-sums": "f4b4f188c2fbcfbd",
    "pkpk-l0-mix-g0g1-extremes": "ca621d0bfb24f2cc",
    "pkpk-l0-mix-g0-sums": "caccd1a2aeb3f79e",
    "pkpk-l0-mix-g0-extremes": "fe356f44f7531496",
    "pkpk-l0-mix-g1-sums": "d92b57f236e08153",
    "pkpk-l0-mix-g1-extremes": "9a57d8906900d6dd",
    "pkpk-l0-bitmap-g0g1-sums": "afa58bc2f07edac1",
    "pkpk-l0-bitmap-g0g1-extremes": "3f6418248f469b12",
    "pkpk-l0-bitmap-g0-sums": "7eba2b55bc14d0a4",
    "pkpk-l0-bitmap-g0-extremes": "ccc8bfc433dd16b9",
    "pkpk-l0-bitmap-g1-sums": "9d724e68e852ecc1",
    "pkpk-l0-bitmap-g1-extremes": "f4c0ed6a46a95a4b",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "954184d82d22cccb",
    "pkpk-l0-oneside-g0-extremes": "8c38f3d12ae690de",
    "pkpk-l0-oneside-g1-sums": "f1ca6075d055ad91",
    "pkpk-l0-oneside-g1-extremes": "5845b99e764bf9cf",
    "pkpk-l1-view": "4635a51cabc0d3e0",
    "pkpk-l1-sorting-g0g1-sums": "554d73187f685a84",
    "pkpk-l1-sorting-g0g1-extremes": "7c2f487d9f5052b3",
    "pkpk-l1-sorting-g0-sums": "3ddef608e320e6e0",
    "pkpk-l1-sorting-g0-extremes": "3d01cac4e29586c5",
    "pkpk-l1-sorting-g1-sums": "ef099017f9103655",
    "pkpk-l1-sorting-g1-extremes": "d3a1c5725f0aa0ae",
    "pkpk-l1-osorting-g0g1-sums": "cde0c1f24fd69d71",
    "pkpk-l1-osorting-g0g1-extremes": "a930748561fa31f3",
    "pkpk-l1-osorting-g0-sums": "1c9b029e4d934da9",
    "pkpk-l1-osorting-g0-extremes": "2c49eb7ebcc04c5f",
    "pkpk-l1-osorting-g1-sums": "d917e2688524adf1",
    "pkpk-l1-osorting-g1-extremes": "c41e923267549c8b",
    "pkpk-l1-bsorting-g0g1-sums": "bff28acc2ad79114",
    "pkpk-l1-bsorting-g0g1-extremes": "7f344b75fb7884ab",
    "pkpk-l1-bsorting-g0-sums": "623fdc8302b56a99",
    "pkpk-l1-bsorting-g0-extremes": "11ed31f471c54138",
    "pkpk-l1-bsorting-g1-sums": "44d79747ef052ccd",
    "pkpk-l1-bsorting-g1-extremes": "15b3fe407cec4a39",
    "pkpk-l1-mix-g0g1-sums": "fcbbb68f09fba26e",
    "pkpk-l1-mix-g0g1-extremes": "59ad5831e613789a",
    "pkpk-l1-mix-g0-sums": "8956d4c28fb7b428",
    "pkpk-l1-mix-g0-extremes": "b7a541448ff39ed2",
    "pkpk-l1-mix-g1-sums": "1363e317d11420fb",
    "pkpk-l1-mix-g1-extremes": "3525d8e5290eb627",
    "pkpk-l1-bitmap-g0g1-sums": "3667520d1463b32d",
    "pkpk-l1-bitmap-g0g1-extremes": "1cd079d9af334862",
    "pkpk-l1-bitmap-g0-sums": "5057e605e950509a",
    "pkpk-l1-bitmap-g0-extremes": "20c59ddb402a6d0e",
    "pkpk-l1-bitmap-g1-sums": "ce95acffe9892e26",
    "pkpk-l1-bitmap-g1-extremes": "61715e138533ff1d",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "b44edb43139616f3",
    "pkpk-l1-oneside-g0-extremes": "423e7b91ac83b224",
    "pkpk-l1-oneside-g1-sums": "f140af6e98e1b03a",
    "pkpk-l1-oneside-g1-extremes": "e2c4e6da2b172017",
    "pkpk-l2-view": "a7d548c2320a314f",
    "pkpk-l2-sorting-g0g1-sums": "adb23b0e9c808f25",
    "pkpk-l2-sorting-g0g1-extremes": "1fb4beabc8625951",
    "pkpk-l2-sorting-g0-sums": "fd4f6eba28d4ca88",
    "pkpk-l2-sorting-g0-extremes": "9bd6f08c927de0b3",
    "pkpk-l2-sorting-g1-sums": "0c774285da857c3b",
    "pkpk-l2-sorting-g1-extremes": "7d66982cef51aebc",
    "pkpk-l2-osorting-g0g1-sums": "408fc8fe5f5f1f24",
    "pkpk-l2-osorting-g0g1-extremes": "f385b0183a1f6adf",
    "pkpk-l2-osorting-g0-sums": "e3451adf27fc5dd0",
    "pkpk-l2-osorting-g0-extremes": "c281e1e0510ec795",
    "pkpk-l2-osorting-g1-sums": "8892973d2d73e0d3",
    "pkpk-l2-osorting-g1-extremes": "2212547bf88288ae",
    "pkpk-l2-bsorting-g0g1-sums": "f24f0239da2a6288",
    "pkpk-l2-bsorting-g0g1-extremes": "e8e769d1378e7f2f",
    "pkpk-l2-bsorting-g0-sums": "73378e056826b5ae",
    "pkpk-l2-bsorting-g0-extremes": "94da7ad1c7b65a01",
    "pkpk-l2-bsorting-g1-sums": "39bba5a50d185ea1",
    "pkpk-l2-bsorting-g1-extremes": "40e27912769b971b",
    "pkpk-l2-mix-g0g1-sums": "238dda526a643ce4",
    "pkpk-l2-mix-g0g1-extremes": "e09ef65d1183ffad",
    "pkpk-l2-mix-g0-sums": "fa2e8bf9188e3dfb",
    "pkpk-l2-mix-g0-extremes": "fda90f4c64a76229",
    "pkpk-l2-mix-g1-sums": "f19dd9c45d281b77",
    "pkpk-l2-mix-g1-extremes": "b52e532c089cc26e",
    "pkpk-l2-bitmap-g0g1-sums": "c8f55b4896ff43ac",
    "pkpk-l2-bitmap-g0g1-extremes": "c8f9aa9a67d26fea",
    "pkpk-l2-bitmap-g0-sums": "b87b3fde0d12eb9d",
    "pkpk-l2-bitmap-g0-extremes": "2e469d5c83b0d910",
    "pkpk-l2-bitmap-g1-sums": "88966011e911488c",
    "pkpk-l2-bitmap-g1-extremes": "164d16941fc327a8",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "19e3e4a4ee866652",
    "pkpk-l2-oneside-g0-extremes": "201d61c2fc7981fb",
    "pkpk-l2-oneside-g1-sums": "58b5332214835601",
    "pkpk-l2-oneside-g1-extremes": "b6ba91d476e4d353",
    "pkfk-l0-view": "cf83e12e81efbcb6",
    "pkfk-l0-sorting-g0g1-sums": "fd1f3b3699c0113b",
    "pkfk-l0-sorting-g0g1-extremes": "ffd66b512dd60b7a",
    "pkfk-l0-sorting-g0-sums": "d9429c8f5317aa57",
    "pkfk-l0-sorting-g0-extremes": "a4a187d240205b82",
    "pkfk-l0-sorting-g1-sums": "e1888d84ca295bce",
    "pkfk-l0-sorting-g1-extremes": "b8efed2e398a9a18",
    "pkfk-l0-osorting-g0g1-sums": "ae6b8cc807f40554",
    "pkfk-l0-osorting-g0g1-extremes": "f13e88fa71c372f8",
    "pkfk-l0-osorting-g0-sums": "aef7694eb467737b",
    "pkfk-l0-osorting-g0-extremes": "55abd74f75f06820",
    "pkfk-l0-osorting-g1-sums": "313cd5bfdfd3adcf",
    "pkfk-l0-osorting-g1-extremes": "175d88feb6c0154f",
    "pkfk-l0-bsorting-g0g1-sums": "70f13389520c97af",
    "pkfk-l0-bsorting-g0g1-extremes": "c4a3d0362a000cde",
    "pkfk-l0-bsorting-g0-sums": "dc87a4c1cfcf50f8",
    "pkfk-l0-bsorting-g0-extremes": "01ba8fc3f33dccfe",
    "pkfk-l0-bsorting-g1-sums": "5618f515e832aa5a",
    "pkfk-l0-bsorting-g1-extremes": "34f645505296d144",
    "pkfk-l0-mix-g0g1-sums": "6f24d54aac1712e7",
    "pkfk-l0-mix-g0g1-extremes": "d1f442f99e09a11d",
    "pkfk-l0-mix-g0-sums": "9383d68c6c75fc0c",
    "pkfk-l0-mix-g0-extremes": "4bdc99961fb6a181",
    "pkfk-l0-mix-g1-sums": "42c490054775f6ec",
    "pkfk-l0-mix-g1-extremes": "c660239351ce95b3",
    "pkfk-l0-bitmap-g0g1-sums": "29a738d46fcc0e27",
    "pkfk-l0-bitmap-g0g1-extremes": "024b9922b7728ae0",
    "pkfk-l0-bitmap-g0-sums": "530587f763ce9561",
    "pkfk-l0-bitmap-g0-extremes": "7538247cfb78c633",
    "pkfk-l0-bitmap-g1-sums": "17ddcd964fc34c7f",
    "pkfk-l0-bitmap-g1-extremes": "584a937b1da83444",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "6468c5af94c501b1",
    "pkfk-l0-oneside-g1-extremes": "eb7e9adfd59974c7",
    "pkfk-l1-view": "e537b17759b5d64f",
    "pkfk-l1-sorting-g0g1-sums": "d84e2256039e3337",
    "pkfk-l1-sorting-g0g1-extremes": "abd9c12720c55289",
    "pkfk-l1-sorting-g0-sums": "f53a1b29872f39bc",
    "pkfk-l1-sorting-g0-extremes": "123a23f9196766ff",
    "pkfk-l1-sorting-g1-sums": "c3c7c4e847ed932f",
    "pkfk-l1-sorting-g1-extremes": "3c05c3f2fe0642ad",
    "pkfk-l1-osorting-g0g1-sums": "019f5cece00b4556",
    "pkfk-l1-osorting-g0g1-extremes": "22c9cee04ff764bf",
    "pkfk-l1-osorting-g0-sums": "7e92ccb596b709eb",
    "pkfk-l1-osorting-g0-extremes": "42cfb91bd38c9acd",
    "pkfk-l1-osorting-g1-sums": "a762ee920bb3af5a",
    "pkfk-l1-osorting-g1-extremes": "442b164c32e877f1",
    "pkfk-l1-bsorting-g0g1-sums": "bd4baf26afbbaaca",
    "pkfk-l1-bsorting-g0g1-extremes": "6e1190529181a32d",
    "pkfk-l1-bsorting-g0-sums": "ca4a39be06155f25",
    "pkfk-l1-bsorting-g0-extremes": "8bfb06ed0303d32f",
    "pkfk-l1-bsorting-g1-sums": "5e12349e429839dc",
    "pkfk-l1-bsorting-g1-extremes": "e567f355732aa788",
    "pkfk-l1-mix-g0g1-sums": "969c74fadf75d52e",
    "pkfk-l1-mix-g0g1-extremes": "28bb78309d0daec5",
    "pkfk-l1-mix-g0-sums": "5abb876cd8007932",
    "pkfk-l1-mix-g0-extremes": "f72fa0f40b55e106",
    "pkfk-l1-mix-g1-sums": "e2394163fb78d035",
    "pkfk-l1-mix-g1-extremes": "076079454c8d40a8",
    "pkfk-l1-bitmap-g0g1-sums": "ca68c31a324e21d3",
    "pkfk-l1-bitmap-g0g1-extremes": "44912af483da232f",
    "pkfk-l1-bitmap-g0-sums": "24e0a93cfbcbde58",
    "pkfk-l1-bitmap-g0-extremes": "4b8d7d8afc1d99c6",
    "pkfk-l1-bitmap-g1-sums": "2e03f8529996a078",
    "pkfk-l1-bitmap-g1-extremes": "bdeb17e96c17d2b2",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "2796ec7bea715b11",
    "pkfk-l1-oneside-g1-extremes": "534a05a62e656358",
    "pkfk-l2-view": "e75c54e19311354a",
    "pkfk-l2-sorting-g0g1-sums": "442d6d4c8d2fb321",
    "pkfk-l2-sorting-g0g1-extremes": "7dd8404f4fb15684",
    "pkfk-l2-sorting-g0-sums": "4bee10495bef3984",
    "pkfk-l2-sorting-g0-extremes": "3b4d8cabf496a2f0",
    "pkfk-l2-sorting-g1-sums": "6642d35f939e03de",
    "pkfk-l2-sorting-g1-extremes": "ca5f1ae5b0e5d870",
    "pkfk-l2-osorting-g0g1-sums": "5688fb47b5644f3a",
    "pkfk-l2-osorting-g0g1-extremes": "75b7ed9c845ec1fd",
    "pkfk-l2-osorting-g0-sums": "c95d20e85fa9305d",
    "pkfk-l2-osorting-g0-extremes": "781ec36957e4a37d",
    "pkfk-l2-osorting-g1-sums": "d47a46c743706433",
    "pkfk-l2-osorting-g1-extremes": "05b22a6a29109f08",
    "pkfk-l2-bsorting-g0g1-sums": "4de4f6f82f6e1ad8",
    "pkfk-l2-bsorting-g0g1-extremes": "3f37077931e025e2",
    "pkfk-l2-bsorting-g0-sums": "029ea7d0f5eb5f4f",
    "pkfk-l2-bsorting-g0-extremes": "958732981ea5c4b6",
    "pkfk-l2-bsorting-g1-sums": "3a2c69ac703f0635",
    "pkfk-l2-bsorting-g1-extremes": "abb4ce4ef2d13629",
    "pkfk-l2-mix-g0g1-sums": "b4702c603aff3357",
    "pkfk-l2-mix-g0g1-extremes": "f0929884f9677022",
    "pkfk-l2-mix-g0-sums": "433cdb832a8d4f90",
    "pkfk-l2-mix-g0-extremes": "68c693bc58f25ab5",
    "pkfk-l2-mix-g1-sums": "aae00c5c75d7985c",
    "pkfk-l2-mix-g1-extremes": "46a771cf23096c86",
    "pkfk-l2-bitmap-g0g1-sums": "c39fac9f8ee3a013",
    "pkfk-l2-bitmap-g0g1-extremes": "8fee9d13b901aa53",
    "pkfk-l2-bitmap-g0-sums": "d79809f20fb3efe1",
    "pkfk-l2-bitmap-g0-extremes": "a44120d15ff18d89",
    "pkfk-l2-bitmap-g1-sums": "969e71df1ab538c1",
    "pkfk-l2-bitmap-g1-extremes": "bc52ef18ca641e6a",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "6310555ea5078cf8",
    "pkfk-l2-oneside-g1-extremes": "d4714e80b983d1cf",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "48cb3e761e2dcc98",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "433d46e999c6e1c1",
    "pkpk-l0-sorting-dom0-g0-sums": "0ff298fffe589d2f",
    "pkpk-l0-sorting-dom0-g0-extremes": "8e3efe6b24d39ff8",
    "pkpk-l0-osorting-dom0-g0g1-sums": "d8f8bb3d369a1d65",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "dfad476b82d359ec",
    "pkpk-l0-osorting-dom0-g0-sums": "68fde9e161ae4b37",
    "pkpk-l0-osorting-dom0-g0-extremes": "a37b6661945979f1",
    "pkpk-l1-sorting-dom0-g0g1-sums": "8776e1d992122c37",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "d9e19f049c68f266",
    "pkpk-l1-sorting-dom0-g0-sums": "398f711848a48555",
    "pkpk-l1-sorting-dom0-g0-extremes": "a67a307c0479eda4",
    "pkpk-l1-osorting-dom0-g0g1-sums": "c96276c5d62fd37b",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "ab1139c4db8e26a5",
    "pkpk-l1-osorting-dom0-g0-sums": "105f21dd163a758e",
    "pkpk-l1-osorting-dom0-g0-extremes": "d5ccb792e9f67dc0",
    "pkpk-l2-sorting-dom0-g0g1-sums": "e5d022afe47ae1d4",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "6004e89efc06b325",
    "pkpk-l2-sorting-dom0-g0-sums": "cc7cb8b1f7518f42",
    "pkpk-l2-sorting-dom0-g0-extremes": "2e26a6be09f47f3a",
    "pkpk-l2-osorting-dom0-g0g1-sums": "97fae21e476f1f3a",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "2fc88ff9aae606ad",
    "pkpk-l2-osorting-dom0-g0-sums": "5ab8426541529dcf",
    "pkpk-l2-osorting-dom0-g0-extremes": "8f833ee01b7168b1",
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
    "osn_plain": "8f775677e4ce5316",
    "osn_shared": "0722e9543830d9cb",
    "shuffle": "0f5f79ee5f743aa5",
    "perm_shared": "948fd1aa3debb101",
    "invp_shared": "40f2b52bae8a23aa",
    "perm_plain": "8553ccd7a4907ad8",
    "invp_plain": "e74f1914390c10f1",
    "stable_sort": "cbb323df636a0c8a",
    "trav_flags-sum": "c189ed2ed1bffb48",
    "trav_flags-count": "c189ed2ed1bffb48",
    "trav_flags-max": "25a26b5d9134eb35",
    "trav_flags-min": "6c7b75c57aa212ee",
    "trav_flags-xor": "950fa05b47c3bc27",
    "asym_mul-arith": "564339563277dce7",
    "asym_mul-bin64": "e5f9be87296a4565",
    "asym_mul-bin1": "db34f5360e8e8207",
    "share_open": "f35f8cf7626fa1d1",
    "gates": "6f2b9a0a69f51be4",
    "refresh_pkfk": "6ee53a90e7050c1f",
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
