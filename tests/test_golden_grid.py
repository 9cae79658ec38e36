"""Golden transcript grid: every GA protocol's rows and transcript, pinned.

Each cell runs one protocol over one fixed view and stores a short hash of
(rows, Transcript.digest(), Transcript.phase_shapes()), or the class name of
the error the cell raises. The grid spans every `ga.PROTOCOLS` entry, PK-PK
and PK-FK views (the PK-FK one with `views.append_bitmap_columns` on g0),
levels 0-2, the group sets (g0, g1), (g0, -) and (-, g1), and two aggregate
lists: all sum/count (local suffix sums only) and max/min/count (suffix
sums for the count, one `trav_flags` scan for max and min).
Each view generation has its own cell too, and PK-PK sorting and osorting
queries that pass dom0 have cells of their own. A second table pins the
oblivious primitives and gates one by one, at n = 13 (not a power of two),
by (outputs with both share halves, digest, phase shapes). A third table
pins Beneš routing itself: every layer's top positions, bottom positions
and control bits of `build_program` on seeded random permutations at
m = 2 .. 2^14, and on the identity and the reversal at m = 2^10. A change
that keeps behaviour keeps every hash; `PYTHONPATH=src python
tests/test_golden_grid.py` prints the tables afresh for a deliberate change,
headed by one rows-only digest of the GA and dom0 cells and by the names
of the cells whose hash differs from the tables committed here.
`ROWS_DIGEST` pins that digest, so a change that alters any query's rows or
error class fails here even after the tables are regenerated.
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


# `rows_digest()`: a regeneration may change transcripts, never this
ROWS_DIGEST = "e6d42043ec6dab35"


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
    "pkpk-l0-sorting-g0g1-sums": "e88f8d923cfedf27",
    "pkpk-l0-sorting-g0g1-extremes": "296d5bf540b2fa03",
    "pkpk-l0-sorting-g0-sums": "e8b5ce4d7f05776c",
    "pkpk-l0-sorting-g0-extremes": "b894adbc996cba6e",
    "pkpk-l0-sorting-g1-sums": "c2a2c93e64c8e7d3",
    "pkpk-l0-sorting-g1-extremes": "267e12626f2b7922",
    "pkpk-l0-osorting-g0g1-sums": "60be44e1d204eaaf",
    "pkpk-l0-osorting-g0g1-extremes": "d344343a37cf8142",
    "pkpk-l0-osorting-g0-sums": "3041ab0949c7fce7",
    "pkpk-l0-osorting-g0-extremes": "d8f0c9f559aa40e4",
    "pkpk-l0-osorting-g1-sums": "3ad5e833eb1750d4",
    "pkpk-l0-osorting-g1-extremes": "893707ea45491dcd",
    "pkpk-l0-bsorting-g0g1-sums": "e4c4e92989e480c3",
    "pkpk-l0-bsorting-g0g1-extremes": "de97562aa462872a",
    "pkpk-l0-bsorting-g0-sums": "111edf5a8c34cee7",
    "pkpk-l0-bsorting-g0-extremes": "177e67fa40131c5a",
    "pkpk-l0-bsorting-g1-sums": "b7f050a9f9dc43ce",
    "pkpk-l0-bsorting-g1-extremes": "5440ffe6f3c6e5c8",
    "pkpk-l0-mix-g0g1-sums": "5269d56f55d720da",
    "pkpk-l0-mix-g0g1-extremes": "ec2c4b638e7f56c1",
    "pkpk-l0-mix-g0-sums": "b892f92a86625dd3",
    "pkpk-l0-mix-g0-extremes": "1b5529795e707194",
    "pkpk-l0-mix-g1-sums": "2ad03e40ca94ffd8",
    "pkpk-l0-mix-g1-extremes": "0a325aeba59c5b51",
    "pkpk-l0-bitmap-g0g1-sums": "9a0d18a91298129d",
    "pkpk-l0-bitmap-g0g1-extremes": "5992932ffd4ca9f6",
    "pkpk-l0-bitmap-g0-sums": "76f6708906e26b3e",
    "pkpk-l0-bitmap-g0-extremes": "f780436d9e2b4d48",
    "pkpk-l0-bitmap-g1-sums": "84acecd194822661",
    "pkpk-l0-bitmap-g1-extremes": "0d9ad82ed5c95ab2",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "46bb303812123d84",
    "pkpk-l0-oneside-g0-extremes": "e3a3ae71cabb1387",
    "pkpk-l0-oneside-g1-sums": "2ad03e40ca94ffd8",
    "pkpk-l0-oneside-g1-extremes": "0a325aeba59c5b51",
    "pkpk-l1-view": "4635a51cabc0d3e0",
    "pkpk-l1-sorting-g0g1-sums": "4dd20376dba88feb",
    "pkpk-l1-sorting-g0g1-extremes": "9ace029df8e9f52d",
    "pkpk-l1-sorting-g0-sums": "a948aa53d13ebf8b",
    "pkpk-l1-sorting-g0-extremes": "6041fef39ae26634",
    "pkpk-l1-sorting-g1-sums": "f6d040ec1c45a118",
    "pkpk-l1-sorting-g1-extremes": "f582d58b39d2fe77",
    "pkpk-l1-osorting-g0g1-sums": "3cc2327e9995d2ad",
    "pkpk-l1-osorting-g0g1-extremes": "ccac41a4369854c9",
    "pkpk-l1-osorting-g0-sums": "b56ecc637861ad4e",
    "pkpk-l1-osorting-g0-extremes": "5aa93972e7ec1377",
    "pkpk-l1-osorting-g1-sums": "01256df6854d709b",
    "pkpk-l1-osorting-g1-extremes": "a8aaa05e905bf3c3",
    "pkpk-l1-bsorting-g0g1-sums": "814c3ce11f090fe3",
    "pkpk-l1-bsorting-g0g1-extremes": "7db1c9080b155edf",
    "pkpk-l1-bsorting-g0-sums": "276a1fee9231dfc2",
    "pkpk-l1-bsorting-g0-extremes": "cbecc81518a28b75",
    "pkpk-l1-bsorting-g1-sums": "0090d6d587729070",
    "pkpk-l1-bsorting-g1-extremes": "3325cceebb6acaf5",
    "pkpk-l1-mix-g0g1-sums": "f14fd717d7f4c4e6",
    "pkpk-l1-mix-g0g1-extremes": "af6096ac57ef0d3a",
    "pkpk-l1-mix-g0-sums": "c004e9499bc5a413",
    "pkpk-l1-mix-g0-extremes": "2ba1d4e84674a76f",
    "pkpk-l1-mix-g1-sums": "0aef3845c8b2b78b",
    "pkpk-l1-mix-g1-extremes": "d7f487bc135a0fd7",
    "pkpk-l1-bitmap-g0g1-sums": "54941534d087fdfa",
    "pkpk-l1-bitmap-g0g1-extremes": "a8be4970adc5fe04",
    "pkpk-l1-bitmap-g0-sums": "b5c9ce730cfb978c",
    "pkpk-l1-bitmap-g0-extremes": "ca079e1142cc6c69",
    "pkpk-l1-bitmap-g1-sums": "fea6ed772fd35d8b",
    "pkpk-l1-bitmap-g1-extremes": "fedfd8fe881ba595",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "51a1c4ef7c6aba4f",
    "pkpk-l1-oneside-g0-extremes": "f9573e9da37e04bf",
    "pkpk-l1-oneside-g1-sums": "0aef3845c8b2b78b",
    "pkpk-l1-oneside-g1-extremes": "d7f487bc135a0fd7",
    "pkpk-l2-view": "a7d548c2320a314f",
    "pkpk-l2-sorting-g0g1-sums": "358d2e820ee9efc7",
    "pkpk-l2-sorting-g0g1-extremes": "d6b76d2dbc2c6478",
    "pkpk-l2-sorting-g0-sums": "faad0206c33bc824",
    "pkpk-l2-sorting-g0-extremes": "c12fe56428e7a2f6",
    "pkpk-l2-sorting-g1-sums": "53cea108abe19998",
    "pkpk-l2-sorting-g1-extremes": "ffecb886ca9324b0",
    "pkpk-l2-osorting-g0g1-sums": "46a389afc5a56df9",
    "pkpk-l2-osorting-g0g1-extremes": "dd06e2e4486c9da9",
    "pkpk-l2-osorting-g0-sums": "04819bb0cf0b468c",
    "pkpk-l2-osorting-g0-extremes": "85a883a431300229",
    "pkpk-l2-osorting-g1-sums": "c803a0cbe963856c",
    "pkpk-l2-osorting-g1-extremes": "d185ffadb1274323",
    "pkpk-l2-bsorting-g0g1-sums": "3d5515d6f155da51",
    "pkpk-l2-bsorting-g0g1-extremes": "ef4566379566b01d",
    "pkpk-l2-bsorting-g0-sums": "3b45295dc89cca86",
    "pkpk-l2-bsorting-g0-extremes": "0976f98bb10b594e",
    "pkpk-l2-bsorting-g1-sums": "b6b28a6b1cce037e",
    "pkpk-l2-bsorting-g1-extremes": "f5fe1969abe4d271",
    "pkpk-l2-mix-g0g1-sums": "ff1226fcb915fbb7",
    "pkpk-l2-mix-g0g1-extremes": "2f503c0cac71904c",
    "pkpk-l2-mix-g0-sums": "b1c2d2924e4dcb72",
    "pkpk-l2-mix-g0-extremes": "31360f98e0d4f1b8",
    "pkpk-l2-mix-g1-sums": "7f29a9d0bcf612c3",
    "pkpk-l2-mix-g1-extremes": "9c35c65ec0ee7611",
    "pkpk-l2-bitmap-g0g1-sums": "41ea3e4051673027",
    "pkpk-l2-bitmap-g0g1-extremes": "90c96eef9d187bbe",
    "pkpk-l2-bitmap-g0-sums": "f3e6cae3b26b33d2",
    "pkpk-l2-bitmap-g0-extremes": "39643fb70c78561f",
    "pkpk-l2-bitmap-g1-sums": "cdc7c7fde856ec23",
    "pkpk-l2-bitmap-g1-extremes": "6a6c2a055a9036aa",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "0d495fb8305eb195",
    "pkpk-l2-oneside-g0-extremes": "ce3236dc18991e42",
    "pkpk-l2-oneside-g1-sums": "7f29a9d0bcf612c3",
    "pkpk-l2-oneside-g1-extremes": "9c35c65ec0ee7611",
    "pkfk-l0-view": "32589aa3a857da40",
    "pkfk-l0-sorting-g0g1-sums": "ebd187a13bfe9d92",
    "pkfk-l0-sorting-g0g1-extremes": "3404fc43704dc466",
    "pkfk-l0-sorting-g0-sums": "95b046f8f4d8c8de",
    "pkfk-l0-sorting-g0-extremes": "53d4d00e312a464a",
    "pkfk-l0-sorting-g1-sums": "d6dfec6086f7aa90",
    "pkfk-l0-sorting-g1-extremes": "904295e2ecd914bd",
    "pkfk-l0-osorting-g0g1-sums": "77a7ae4f436547f9",
    "pkfk-l0-osorting-g0g1-extremes": "d3677e605ccc384f",
    "pkfk-l0-osorting-g0-sums": "88f95c1747c0f1ee",
    "pkfk-l0-osorting-g0-extremes": "673dbf7503d1a351",
    "pkfk-l0-osorting-g1-sums": "5d1934b4c4f3697f",
    "pkfk-l0-osorting-g1-extremes": "cec08e3f5b65981b",
    "pkfk-l0-bsorting-g0g1-sums": "8c9163f8cfa67e43",
    "pkfk-l0-bsorting-g0g1-extremes": "4827cb529d36adad",
    "pkfk-l0-bsorting-g0-sums": "2e6f7217bda817f9",
    "pkfk-l0-bsorting-g0-extremes": "fd4d70cecfca6614",
    "pkfk-l0-bsorting-g1-sums": "21013293a0904753",
    "pkfk-l0-bsorting-g1-extremes": "0beae8bf83e60c9e",
    "pkfk-l0-mix-g0g1-sums": "e6e3051d5d84c97a",
    "pkfk-l0-mix-g0g1-extremes": "b88a9e9c37480be6",
    "pkfk-l0-mix-g0-sums": "8647cfd90ba254f8",
    "pkfk-l0-mix-g0-extremes": "a93d027154238120",
    "pkfk-l0-mix-g1-sums": "45cd5f2fb2fe9a6a",
    "pkfk-l0-mix-g1-extremes": "a3163ad6d2436a73",
    "pkfk-l0-bitmap-g0g1-sums": "2bf8a797fdc14436",
    "pkfk-l0-bitmap-g0g1-extremes": "216d8529c88a69d0",
    "pkfk-l0-bitmap-g0-sums": "b43c9c761bcfb4a8",
    "pkfk-l0-bitmap-g0-extremes": "65659e8a9b983c9c",
    "pkfk-l0-bitmap-g1-sums": "6e7df9bcedec55c3",
    "pkfk-l0-bitmap-g1-extremes": "8d393a22064bd7bc",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "45cd5f2fb2fe9a6a",
    "pkfk-l0-oneside-g1-extremes": "a3163ad6d2436a73",
    "pkfk-l1-view": "607b78855fae9eef",
    "pkfk-l1-sorting-g0g1-sums": "6f94c8346698ff9f",
    "pkfk-l1-sorting-g0g1-extremes": "d40369be9f02d4f6",
    "pkfk-l1-sorting-g0-sums": "5ca4002fffdbb1aa",
    "pkfk-l1-sorting-g0-extremes": "e8ca4f5fe7fe7b63",
    "pkfk-l1-sorting-g1-sums": "52c70612e22091bb",
    "pkfk-l1-sorting-g1-extremes": "0708550e3e8179bb",
    "pkfk-l1-osorting-g0g1-sums": "a701704e2d8f2a92",
    "pkfk-l1-osorting-g0g1-extremes": "41c24cfcb52dc8ad",
    "pkfk-l1-osorting-g0-sums": "864c7c4456de0faa",
    "pkfk-l1-osorting-g0-extremes": "f5f2a8de997bf559",
    "pkfk-l1-osorting-g1-sums": "efcfa6f75ce6e44d",
    "pkfk-l1-osorting-g1-extremes": "a72e242e4c0a9b34",
    "pkfk-l1-bsorting-g0g1-sums": "0a2995c6bd052055",
    "pkfk-l1-bsorting-g0g1-extremes": "1309e581f050ab30",
    "pkfk-l1-bsorting-g0-sums": "3d146ed13f11b0ee",
    "pkfk-l1-bsorting-g0-extremes": "8d7b2a21916371cc",
    "pkfk-l1-bsorting-g1-sums": "c073deab4b4ec52d",
    "pkfk-l1-bsorting-g1-extremes": "476e228b097c6dbb",
    "pkfk-l1-mix-g0g1-sums": "3b85e720b363f0c5",
    "pkfk-l1-mix-g0g1-extremes": "a90bba91bc067a60",
    "pkfk-l1-mix-g0-sums": "9a5d51984484665e",
    "pkfk-l1-mix-g0-extremes": "1ab9a47eef74962f",
    "pkfk-l1-mix-g1-sums": "f8fbf9fa34113508",
    "pkfk-l1-mix-g1-extremes": "e5d8ba248464d699",
    "pkfk-l1-bitmap-g0g1-sums": "2985ce9bc6ab4f07",
    "pkfk-l1-bitmap-g0g1-extremes": "9c946abe8803abf5",
    "pkfk-l1-bitmap-g0-sums": "6820b7c319d3ba47",
    "pkfk-l1-bitmap-g0-extremes": "bf68f9dec95dfe2e",
    "pkfk-l1-bitmap-g1-sums": "4362aedde3694c45",
    "pkfk-l1-bitmap-g1-extremes": "c8dc0c7f45ace6a9",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "f8fbf9fa34113508",
    "pkfk-l1-oneside-g1-extremes": "e5d8ba248464d699",
    "pkfk-l2-view": "8dee838fcd71b50f",
    "pkfk-l2-sorting-g0g1-sums": "8f3d208a04845666",
    "pkfk-l2-sorting-g0g1-extremes": "6718a5fd8b9db742",
    "pkfk-l2-sorting-g0-sums": "95690b611490e0e5",
    "pkfk-l2-sorting-g0-extremes": "a02620e13671af44",
    "pkfk-l2-sorting-g1-sums": "9d7ce38996cd539e",
    "pkfk-l2-sorting-g1-extremes": "4272253d77c935e6",
    "pkfk-l2-osorting-g0g1-sums": "7eb0ca97a4c7ab01",
    "pkfk-l2-osorting-g0g1-extremes": "a774fc752e24c950",
    "pkfk-l2-osorting-g0-sums": "fa85ed3101f81ba9",
    "pkfk-l2-osorting-g0-extremes": "d82e1166e640dfa4",
    "pkfk-l2-osorting-g1-sums": "c5589cb8980a20cd",
    "pkfk-l2-osorting-g1-extremes": "8348e82eeb886b73",
    "pkfk-l2-bsorting-g0g1-sums": "9a0b45f2f015c6cd",
    "pkfk-l2-bsorting-g0g1-extremes": "0384fede67524904",
    "pkfk-l2-bsorting-g0-sums": "c241f385b024b889",
    "pkfk-l2-bsorting-g0-extremes": "f5ba7bc28bc19b1b",
    "pkfk-l2-bsorting-g1-sums": "be4b9c9f9c9e920f",
    "pkfk-l2-bsorting-g1-extremes": "32b40b67a2925713",
    "pkfk-l2-mix-g0g1-sums": "367bc2a35de64fab",
    "pkfk-l2-mix-g0g1-extremes": "c64cf18fc17a3aff",
    "pkfk-l2-mix-g0-sums": "9376bf5fe2d269c1",
    "pkfk-l2-mix-g0-extremes": "380d484651b8c5a9",
    "pkfk-l2-mix-g1-sums": "74989610f0ebc314",
    "pkfk-l2-mix-g1-extremes": "c17b57caceb30a1c",
    "pkfk-l2-bitmap-g0g1-sums": "46bc7c96a4977c16",
    "pkfk-l2-bitmap-g0g1-extremes": "b42d46ef11277af7",
    "pkfk-l2-bitmap-g0-sums": "988473875df2a4d8",
    "pkfk-l2-bitmap-g0-extremes": "98a670cab9bd5530",
    "pkfk-l2-bitmap-g1-sums": "6a85be12128a5168",
    "pkfk-l2-bitmap-g1-extremes": "e0fe0912bf65069f",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "74989610f0ebc314",
    "pkfk-l2-oneside-g1-extremes": "c17b57caceb30a1c",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "613cb06c31f9ae85",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "912b1f649b9d064c",
    "pkpk-l0-sorting-dom0-g0-sums": "8930d538ff556b4b",
    "pkpk-l0-sorting-dom0-g0-extremes": "ed16f67f898a5a0f",
    "pkpk-l0-osorting-dom0-g0g1-sums": "d14eb035043bdd27",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "3d466651105c6cf3",
    "pkpk-l0-osorting-dom0-g0-sums": "712dc7467c7099fd",
    "pkpk-l0-osorting-dom0-g0-extremes": "a22d46b2cb3138fc",
    "pkpk-l1-sorting-dom0-g0g1-sums": "73551ff75c35a1da",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "9b0d503de2c29c0a",
    "pkpk-l1-sorting-dom0-g0-sums": "b5cb99495a7086e1",
    "pkpk-l1-sorting-dom0-g0-extremes": "129f5243634115d9",
    "pkpk-l1-osorting-dom0-g0g1-sums": "d3ddddb495e5760a",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "eb1b82ba61fc3c0f",
    "pkpk-l1-osorting-dom0-g0-sums": "9462201991035926",
    "pkpk-l1-osorting-dom0-g0-extremes": "0e7d0fbe63130329",
    "pkpk-l2-sorting-dom0-g0g1-sums": "db08b9f12f176dfb",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "15c582c0c47f24f1",
    "pkpk-l2-sorting-dom0-g0-sums": "1e09f843586dad55",
    "pkpk-l2-sorting-dom0-g0-extremes": "aee6e4e510e986e7",
    "pkpk-l2-osorting-dom0-g0g1-sums": "2e74daa6d66f039a",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "a38f4696c7e47c81",
    "pkpk-l2-osorting-dom0-g0-sums": "ceda85a8b218aaf2",
    "pkpk-l2-osorting-dom0-g0-extremes": "36403424fa52eb00",
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
        [out], valid = ob.trav_flags(sess, flags, [values], [fn], validity=valid)
        return out, valid
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
    "refresh_pkfk": "f34d7777cc48e3fb",
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


def test_rows_digest():
    # a deliberate regeneration may move transcripts, never rows
    assert rows_digest() == ROWS_DIGEST


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
    tables = {
        "GOLDEN": {k: v for join, level in VIEWS
                   for k, v in grid_cells(join, level).items()},
        "GOLDEN_DOM0": {k: v for level in (0, 1, 2)
                        for k, v in dom0_cells(level).items()},
        "GOLDEN_PRIMITIVES": {name: primitive_cell(name) for name in PRIMITIVES},
        "GOLDEN_ROUTING": {name: routing_cell(name) for name in ROUTING},
    }
    print(f"# rows-only digest of the GA and dom0 cells: {rows_digest()}")
    for table, cells in tables.items():
        committed = globals()[table]
        changed = [k for k in {**committed, **cells}
                   if committed.get(k) != cells.get(k)]
        print(f"# {table}: {len(changed)} cells differ from the committed "
              f"table", *changed, sep="\n#   ")
    for table, cells in tables.items():
        print(f"{table} = {{")
        for key, value in cells.items():
            print(f'    "{key}": "{value}",')
        print("}")
