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
tests/test_golden_grid.py` prints the tables afresh for a deliberate change,
headed by one rows-only digest of the GA and dom0 cells: running the script
at two commits shows whether any query's rows or error class changed.
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


def _query_cell(v0, v1, q, rows_only=False) -> str:
    run = Session(4, 5, 6)
    try:
        rows = ga.PROTOCOLS[q.protocol](run, v0, v1, q).rows
    except Exception as exc:  # the error class is the record
        return type(exc).__name__
    t = run.transcript
    return _hash(rows) if rows_only else \
        _hash(rows, t.digest(), t.phase_shapes())


def grid_cells(join, level, rows_only=False) -> dict[str, str]:
    """Every cell of one view: the view generation itself, then the queries;
    with `rows_only`, the queries alone, their transcripts left out."""
    v0, v1, t = _view(join, level)
    prefix = f"{join}-l{level}"
    cells = {} if rows_only else \
        {f"{prefix}-view": _hash(t.digest(), t.phase_shapes())}
    for proto in ga.PROTOCOLS:
        for gname, (g0, g1) in GROUPS.items():
            for aname, aggs in AGGS.items():
                q = JgaQuery(g0, g1, aggs, protocol=proto,
                             dom0=DOM0 if join == "pkfk" else None)
                cells[f"{prefix}-{proto}-{gname}-{aname}"] = \
                    _query_cell(v0, v1, q, rows_only)
    return cells


def dom0_cells(level, rows_only=False) -> dict[str, str]:
    """PK-PK sorting and osorting queries on g0 that pass the public dom0."""
    v0, v1, _ = _view("pkpk", level)
    cells = {}
    for proto in DOM0_PROTOCOLS:
        for gname in ("g0g1", "g0"):
            for aname, aggs in AGGS.items():
                q = JgaQuery(*GROUPS[gname], aggs, protocol=proto, dom0=DOM0)
                cells[f"pkpk-l{level}-{proto}-dom0-{gname}-{aname}"] = \
                    _query_cell(v0, v1, q, rows_only)
    return cells


def rows_digest() -> str:
    """One hash of every GA and dom0 query cell's rows or error class, with
    the transcripts left out: equal at two commits when no query changed
    its answer."""
    cells = {}
    for join, level in VIEWS:
        cells.update(grid_cells(join, level, rows_only=True))
    for level in (0, 1, 2):
        cells.update(dom0_cells(level, rows_only=True))
    return _hash(sorted(cells.items()))


GOLDEN = {
    "pkpk-l0-view": "6a0997a0cb14d258",
    "pkpk-l0-sorting-g0g1-sums": "f9918df348771571",
    "pkpk-l0-sorting-g0g1-extremes": "0a704e3ee0302c9d",
    "pkpk-l0-sorting-g0-sums": "b44bad5bc9b714d1",
    "pkpk-l0-sorting-g0-extremes": "5e9ec13c5aaa1270",
    "pkpk-l0-sorting-g1-sums": "e276deefa07f669d",
    "pkpk-l0-sorting-g1-extremes": "500c1f1a491377d7",
    "pkpk-l0-osorting-g0g1-sums": "804d9643a5fd45d6",
    "pkpk-l0-osorting-g0g1-extremes": "9920375ce3ec218d",
    "pkpk-l0-osorting-g0-sums": "8e89e9cf0e5fc682",
    "pkpk-l0-osorting-g0-extremes": "908cc5e536d2cbaf",
    "pkpk-l0-osorting-g1-sums": "1f15fe7ac35a0ffb",
    "pkpk-l0-osorting-g1-extremes": "25f738b249078ec0",
    "pkpk-l0-bsorting-g0g1-sums": "223f56fdd0bd0be2",
    "pkpk-l0-bsorting-g0g1-extremes": "bea4d89a5a5fc432",
    "pkpk-l0-bsorting-g0-sums": "22159b094e8f011a",
    "pkpk-l0-bsorting-g0-extremes": "ed478c1ef0f21a79",
    "pkpk-l0-bsorting-g1-sums": "9d416ec411a56969",
    "pkpk-l0-bsorting-g1-extremes": "4ff569b6b45cfc3e",
    "pkpk-l0-mix-g0g1-sums": "b0ca6741d37f73b7",
    "pkpk-l0-mix-g0g1-extremes": "bd032108afc8f4d1",
    "pkpk-l0-mix-g0-sums": "4035196eac1207f3",
    "pkpk-l0-mix-g0-extremes": "8a063fcba5478f86",
    "pkpk-l0-mix-g1-sums": "8d96f6ab5bcaa38f",
    "pkpk-l0-mix-g1-extremes": "d8811e99de52e395",
    "pkpk-l0-bitmap-g0g1-sums": "9a0d18a91298129d",
    "pkpk-l0-bitmap-g0g1-extremes": "95882dbe91d2764c",
    "pkpk-l0-bitmap-g0-sums": "76f6708906e26b3e",
    "pkpk-l0-bitmap-g0-extremes": "a136296f0ea031f3",
    "pkpk-l0-bitmap-g1-sums": "84acecd194822661",
    "pkpk-l0-bitmap-g1-extremes": "61f43b42757d2cfe",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "acd8ef12db736e0c",
    "pkpk-l0-oneside-g0-extremes": "8de7d2c8d84ea595",
    "pkpk-l0-oneside-g1-sums": "8d96f6ab5bcaa38f",
    "pkpk-l0-oneside-g1-extremes": "d8811e99de52e395",
    "pkpk-l1-view": "4635a51cabc0d3e0",
    "pkpk-l1-sorting-g0g1-sums": "5b04297712d5d03b",
    "pkpk-l1-sorting-g0g1-extremes": "224902f33dad347d",
    "pkpk-l1-sorting-g0-sums": "03cdb713d41c7ddd",
    "pkpk-l1-sorting-g0-extremes": "801f79dc1e3afd96",
    "pkpk-l1-sorting-g1-sums": "7ea650231fe2a90f",
    "pkpk-l1-sorting-g1-extremes": "d7b674d356d4edc0",
    "pkpk-l1-osorting-g0g1-sums": "1ff6d70ea763d83f",
    "pkpk-l1-osorting-g0g1-extremes": "6f21cbdf31cf3b78",
    "pkpk-l1-osorting-g0-sums": "362519f115b3d5e0",
    "pkpk-l1-osorting-g0-extremes": "f77f04b7c327d35d",
    "pkpk-l1-osorting-g1-sums": "431821647cc77006",
    "pkpk-l1-osorting-g1-extremes": "caa4618051642f8a",
    "pkpk-l1-bsorting-g0g1-sums": "61c99bdb1ebbb11e",
    "pkpk-l1-bsorting-g0g1-extremes": "e645190789288dcf",
    "pkpk-l1-bsorting-g0-sums": "ae92d40f0ad23427",
    "pkpk-l1-bsorting-g0-extremes": "f3b8b8dcc8c134c0",
    "pkpk-l1-bsorting-g1-sums": "4512be0f96207fb8",
    "pkpk-l1-bsorting-g1-extremes": "b2be2d2315782b9b",
    "pkpk-l1-mix-g0g1-sums": "b10897a159d8379c",
    "pkpk-l1-mix-g0g1-extremes": "1fdeb9ea8ac11bfe",
    "pkpk-l1-mix-g0-sums": "2622c16f1871767a",
    "pkpk-l1-mix-g0-extremes": "543a4169c36682ca",
    "pkpk-l1-mix-g1-sums": "bb1e0c01f6735bc8",
    "pkpk-l1-mix-g1-extremes": "9dd3772264ec1daa",
    "pkpk-l1-bitmap-g0g1-sums": "54941534d087fdfa",
    "pkpk-l1-bitmap-g0g1-extremes": "a79a12e0d31915dc",
    "pkpk-l1-bitmap-g0-sums": "b5c9ce730cfb978c",
    "pkpk-l1-bitmap-g0-extremes": "114665e28d900d18",
    "pkpk-l1-bitmap-g1-sums": "fea6ed772fd35d8b",
    "pkpk-l1-bitmap-g1-extremes": "bb9ffdca2c26fbb7",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "2b120eadc642e7ca",
    "pkpk-l1-oneside-g0-extremes": "0595f58ec025e39f",
    "pkpk-l1-oneside-g1-sums": "bb1e0c01f6735bc8",
    "pkpk-l1-oneside-g1-extremes": "9dd3772264ec1daa",
    "pkpk-l2-view": "a7d548c2320a314f",
    "pkpk-l2-sorting-g0g1-sums": "f07fb7bb59531369",
    "pkpk-l2-sorting-g0g1-extremes": "1f9b193a1d1ec9e4",
    "pkpk-l2-sorting-g0-sums": "bf25b371a6dfb57f",
    "pkpk-l2-sorting-g0-extremes": "833c977fce1a7a96",
    "pkpk-l2-sorting-g1-sums": "848bc01b4e284776",
    "pkpk-l2-sorting-g1-extremes": "b8dbe141be48ec5e",
    "pkpk-l2-osorting-g0g1-sums": "f89650803fc6fa7f",
    "pkpk-l2-osorting-g0g1-extremes": "a8da3fb13c29922b",
    "pkpk-l2-osorting-g0-sums": "727a7194e6c82056",
    "pkpk-l2-osorting-g0-extremes": "0158f7f9e025b4b7",
    "pkpk-l2-osorting-g1-sums": "a29475841db14063",
    "pkpk-l2-osorting-g1-extremes": "4ef35ce95f5d0e2a",
    "pkpk-l2-bsorting-g0g1-sums": "7971f3483387e626",
    "pkpk-l2-bsorting-g0g1-extremes": "8dc5372696b53efb",
    "pkpk-l2-bsorting-g0-sums": "3fefb315d4dca7ec",
    "pkpk-l2-bsorting-g0-extremes": "9cc457f5c297544e",
    "pkpk-l2-bsorting-g1-sums": "de364c253547d63e",
    "pkpk-l2-bsorting-g1-extremes": "6dbf201ebc2d96e2",
    "pkpk-l2-mix-g0g1-sums": "8d39daeef7b31705",
    "pkpk-l2-mix-g0g1-extremes": "bab2f2aacb370d9f",
    "pkpk-l2-mix-g0-sums": "80c215150a53ff4b",
    "pkpk-l2-mix-g0-extremes": "2890dfdf1db8911f",
    "pkpk-l2-mix-g1-sums": "067f2a8815cd6a7b",
    "pkpk-l2-mix-g1-extremes": "720ba4249e0adfc1",
    "pkpk-l2-bitmap-g0g1-sums": "41ea3e4051673027",
    "pkpk-l2-bitmap-g0g1-extremes": "81d21856aff3b22b",
    "pkpk-l2-bitmap-g0-sums": "f3e6cae3b26b33d2",
    "pkpk-l2-bitmap-g0-extremes": "3793df216d3562e3",
    "pkpk-l2-bitmap-g1-sums": "cdc7c7fde856ec23",
    "pkpk-l2-bitmap-g1-extremes": "4eec3de76fc47a71",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "4fb318810f8bf016",
    "pkpk-l2-oneside-g0-extremes": "32b8839fa1c30bcc",
    "pkpk-l2-oneside-g1-sums": "067f2a8815cd6a7b",
    "pkpk-l2-oneside-g1-extremes": "720ba4249e0adfc1",
    "pkfk-l0-view": "2e8e35fb9f0335d5",
    "pkfk-l0-sorting-g0g1-sums": "e0786a5ddb91f7c9",
    "pkfk-l0-sorting-g0g1-extremes": "75cd2c654b5c3f48",
    "pkfk-l0-sorting-g0-sums": "a254351d7256f4e6",
    "pkfk-l0-sorting-g0-extremes": "f2adfa0c30d7125b",
    "pkfk-l0-sorting-g1-sums": "1d2d6ea979a900ff",
    "pkfk-l0-sorting-g1-extremes": "0e88e474ebda025c",
    "pkfk-l0-osorting-g0g1-sums": "3bc9966a8b07ea24",
    "pkfk-l0-osorting-g0g1-extremes": "f81f09a59837d057",
    "pkfk-l0-osorting-g0-sums": "5f2492d86aa286a8",
    "pkfk-l0-osorting-g0-extremes": "74a80677fe764e00",
    "pkfk-l0-osorting-g1-sums": "7f3c10a958337911",
    "pkfk-l0-osorting-g1-extremes": "adc6c3fc4acf1dad",
    "pkfk-l0-bsorting-g0g1-sums": "ef38cccadb21569a",
    "pkfk-l0-bsorting-g0g1-extremes": "d6066d3192592c4e",
    "pkfk-l0-bsorting-g0-sums": "e52c104ad67d7acb",
    "pkfk-l0-bsorting-g0-extremes": "5876207fe80024d2",
    "pkfk-l0-bsorting-g1-sums": "3e78763933ab5206",
    "pkfk-l0-bsorting-g1-extremes": "4419772dfa35eb88",
    "pkfk-l0-mix-g0g1-sums": "23c47ccad2b91a25",
    "pkfk-l0-mix-g0g1-extremes": "4311fda3c1112edc",
    "pkfk-l0-mix-g0-sums": "5ba1a0d80c0e9646",
    "pkfk-l0-mix-g0-extremes": "b6403124aa0b90dd",
    "pkfk-l0-mix-g1-sums": "635589de83628f1a",
    "pkfk-l0-mix-g1-extremes": "3486a5145c2d4de3",
    "pkfk-l0-bitmap-g0g1-sums": "d3433ad560f4730e",
    "pkfk-l0-bitmap-g0g1-extremes": "2d64e6854a5284da",
    "pkfk-l0-bitmap-g0-sums": "e69efb400acd1350",
    "pkfk-l0-bitmap-g0-extremes": "092345bfbeb3bbc9",
    "pkfk-l0-bitmap-g1-sums": "f824e8c719145f8b",
    "pkfk-l0-bitmap-g1-extremes": "884ab4662734cce4",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "635589de83628f1a",
    "pkfk-l0-oneside-g1-extremes": "3486a5145c2d4de3",
    "pkfk-l1-view": "7011a7810885cbe0",
    "pkfk-l1-sorting-g0g1-sums": "15f966ca8af4ab92",
    "pkfk-l1-sorting-g0g1-extremes": "021b9dbe20be8c7f",
    "pkfk-l1-sorting-g0-sums": "201723df362a0fa3",
    "pkfk-l1-sorting-g0-extremes": "e4f867213ef52d69",
    "pkfk-l1-sorting-g1-sums": "4193461a86352805",
    "pkfk-l1-sorting-g1-extremes": "9c23ab18d379e340",
    "pkfk-l1-osorting-g0g1-sums": "e49aa1296dcca258",
    "pkfk-l1-osorting-g0g1-extremes": "8405138452afbd09",
    "pkfk-l1-osorting-g0-sums": "3e18c613ef0fcec9",
    "pkfk-l1-osorting-g0-extremes": "bdf69f95f184924c",
    "pkfk-l1-osorting-g1-sums": "918958e77ad1083e",
    "pkfk-l1-osorting-g1-extremes": "62dc5b0a71bf6e6e",
    "pkfk-l1-bsorting-g0g1-sums": "cc2ba909c165f427",
    "pkfk-l1-bsorting-g0g1-extremes": "e9a29f2712236deb",
    "pkfk-l1-bsorting-g0-sums": "16ceb6e65f3445c7",
    "pkfk-l1-bsorting-g0-extremes": "bac39d66eac2afc1",
    "pkfk-l1-bsorting-g1-sums": "7e396de5b1ca3544",
    "pkfk-l1-bsorting-g1-extremes": "5ca56d897c98a262",
    "pkfk-l1-mix-g0g1-sums": "bad34eb2fa215805",
    "pkfk-l1-mix-g0g1-extremes": "4c8203e52f7539b3",
    "pkfk-l1-mix-g0-sums": "6f41216ef6e753e0",
    "pkfk-l1-mix-g0-extremes": "77e94e51b48218f7",
    "pkfk-l1-mix-g1-sums": "f2c46ae938c4ae2d",
    "pkfk-l1-mix-g1-extremes": "9b0201fb1a98003f",
    "pkfk-l1-bitmap-g0g1-sums": "c54e7876ccbafcd9",
    "pkfk-l1-bitmap-g0g1-extremes": "53d4d65f3da57b4f",
    "pkfk-l1-bitmap-g0-sums": "bbd06e58eb888bb4",
    "pkfk-l1-bitmap-g0-extremes": "406a4a01eb547683",
    "pkfk-l1-bitmap-g1-sums": "c39f1980835056ac",
    "pkfk-l1-bitmap-g1-extremes": "c0ad6df57f6293b7",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "f2c46ae938c4ae2d",
    "pkfk-l1-oneside-g1-extremes": "9b0201fb1a98003f",
    "pkfk-l2-view": "09286b281ac6eabc",
    "pkfk-l2-sorting-g0g1-sums": "34575364717a1415",
    "pkfk-l2-sorting-g0g1-extremes": "842d1f21f19691d5",
    "pkfk-l2-sorting-g0-sums": "d36b51c6a1062f91",
    "pkfk-l2-sorting-g0-extremes": "787b3f7d2aecb6ee",
    "pkfk-l2-sorting-g1-sums": "76cf9e5537c50bfc",
    "pkfk-l2-sorting-g1-extremes": "ff61627f50ef4f8b",
    "pkfk-l2-osorting-g0g1-sums": "67dea0037663397e",
    "pkfk-l2-osorting-g0g1-extremes": "5f72b6cd8ff534a3",
    "pkfk-l2-osorting-g0-sums": "e650ee19f6cdfe41",
    "pkfk-l2-osorting-g0-extremes": "02222d96fb2cddf0",
    "pkfk-l2-osorting-g1-sums": "cd5cb50690acab09",
    "pkfk-l2-osorting-g1-extremes": "08524380cec9f4ac",
    "pkfk-l2-bsorting-g0g1-sums": "9653f04329523d41",
    "pkfk-l2-bsorting-g0g1-extremes": "e09d8b160d941003",
    "pkfk-l2-bsorting-g0-sums": "a901eec18de8438f",
    "pkfk-l2-bsorting-g0-extremes": "dec92a3f7f1eb2d9",
    "pkfk-l2-bsorting-g1-sums": "b82d45bc41992965",
    "pkfk-l2-bsorting-g1-extremes": "93671e3107526dc4",
    "pkfk-l2-mix-g0g1-sums": "acb2c7e1c15bfc7a",
    "pkfk-l2-mix-g0g1-extremes": "8cdc878527ee71df",
    "pkfk-l2-mix-g0-sums": "2f3552e77b60fd3b",
    "pkfk-l2-mix-g0-extremes": "b48d74d8c48c875d",
    "pkfk-l2-mix-g1-sums": "68955672df241528",
    "pkfk-l2-mix-g1-extremes": "f185e87d872d706d",
    "pkfk-l2-bitmap-g0g1-sums": "6173070a7472be4e",
    "pkfk-l2-bitmap-g0g1-extremes": "32fd654d9a5d4774",
    "pkfk-l2-bitmap-g0-sums": "9bb5fbeba3a84d77",
    "pkfk-l2-bitmap-g0-extremes": "f73dd4d95bebb646",
    "pkfk-l2-bitmap-g1-sums": "e93b17ed50f6d305",
    "pkfk-l2-bitmap-g1-extremes": "581fd22a3b36dd29",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "68955672df241528",
    "pkfk-l2-oneside-g1-extremes": "f185e87d872d706d",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "7c73770d35e7081c",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "4a7137c9f7cd5a57",
    "pkpk-l0-sorting-dom0-g0-sums": "5c63be6bf461afeb",
    "pkpk-l0-sorting-dom0-g0-extremes": "c411cb604307f2fa",
    "pkpk-l0-osorting-dom0-g0g1-sums": "b9632cfc7d094531",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "f28c7a8c24452f22",
    "pkpk-l0-osorting-dom0-g0-sums": "8c84fe7baf303241",
    "pkpk-l0-osorting-dom0-g0-extremes": "a0c2b292e2b9aefe",
    "pkpk-l1-sorting-dom0-g0g1-sums": "44b94e1aacd5e8f1",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "6f2fdfd1edbe14b2",
    "pkpk-l1-sorting-dom0-g0-sums": "d3dfdbb6f3fe54de",
    "pkpk-l1-sorting-dom0-g0-extremes": "de0b912f2d3edf74",
    "pkpk-l1-osorting-dom0-g0g1-sums": "2b9240fccc1cf9ff",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "7345466e0ebbd749",
    "pkpk-l1-osorting-dom0-g0-sums": "62b7d3f114e92daf",
    "pkpk-l1-osorting-dom0-g0-extremes": "2dbaef5b18538c15",
    "pkpk-l2-sorting-dom0-g0g1-sums": "cfe8d2fed9066db8",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "0d5e4014aca0e0aa",
    "pkpk-l2-sorting-dom0-g0-sums": "80c2f7d51eb5a14a",
    "pkpk-l2-sorting-dom0-g0-extremes": "985c8bd2de9d6839",
    "pkpk-l2-osorting-dom0-g0g1-sums": "b999c40268ad3fbb",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "1db2dccc612d8ddb",
    "pkpk-l2-osorting-dom0-g0-sums": "d43b53187e7e6979",
    "pkpk-l2-osorting-dom0-g0-extremes": "b263ff297c6bc6c3",
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
    "stable_sort": "f38da57a07ea2c46",
    "trav_flags-sum": "f3d2145ea0a25dd0",
    "trav_flags-count": "f3d2145ea0a25dd0",
    "trav_flags-max": "07300b9ed47141a0",
    "trav_flags-min": "35b67335005fe48e",
    "trav_flags-xor": "d3a9740c96667cd8",
    "asym_mul-arith": "564339563277dce7",
    "asym_mul-bin64": "e5f9be87296a4565",
    "asym_mul-bin1": "c2baef9a3590a85f",
    "share_open": "f35f8cf7626fa1d1",
    "gates": "6f2b9a0a69f51be4",
    "refresh_pkfk": "a4411ddbc9b045bb",
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
    print(f"# rows-only digest of the GA and dom0 cells: {rows_digest()}")
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
