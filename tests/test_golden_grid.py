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
    "pkpk-l0-sorting-g0g1-sums": "f9918df348771571",
    "pkpk-l0-sorting-g0g1-extremes": "1d92a6414411b250",
    "pkpk-l0-sorting-g0-sums": "b44bad5bc9b714d1",
    "pkpk-l0-sorting-g0-extremes": "0c97724ba1bcb95d",
    "pkpk-l0-sorting-g1-sums": "e276deefa07f669d",
    "pkpk-l0-sorting-g1-extremes": "91d6f8151b2d3973",
    "pkpk-l0-osorting-g0g1-sums": "804d9643a5fd45d6",
    "pkpk-l0-osorting-g0g1-extremes": "86b1be387b58f293",
    "pkpk-l0-osorting-g0-sums": "8e89e9cf0e5fc682",
    "pkpk-l0-osorting-g0-extremes": "9f444d57914d326e",
    "pkpk-l0-osorting-g1-sums": "1f15fe7ac35a0ffb",
    "pkpk-l0-osorting-g1-extremes": "ede776ac3171753d",
    "pkpk-l0-bsorting-g0g1-sums": "223f56fdd0bd0be2",
    "pkpk-l0-bsorting-g0g1-extremes": "cf752b61cc39f997",
    "pkpk-l0-bsorting-g0-sums": "22159b094e8f011a",
    "pkpk-l0-bsorting-g0-extremes": "b26787053957de8c",
    "pkpk-l0-bsorting-g1-sums": "9d416ec411a56969",
    "pkpk-l0-bsorting-g1-extremes": "7d5bda3dee7d221b",
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
    "pkpk-l1-sorting-g0g1-sums": "5b04297712d5d03b",
    "pkpk-l1-sorting-g0g1-extremes": "d8495b9562d7b098",
    "pkpk-l1-sorting-g0-sums": "03cdb713d41c7ddd",
    "pkpk-l1-sorting-g0-extremes": "132d92b9b8e5057b",
    "pkpk-l1-sorting-g1-sums": "7ea650231fe2a90f",
    "pkpk-l1-sorting-g1-extremes": "bd565975906cc4f5",
    "pkpk-l1-osorting-g0g1-sums": "1ff6d70ea763d83f",
    "pkpk-l1-osorting-g0g1-extremes": "82119c7cadf3d634",
    "pkpk-l1-osorting-g0-sums": "362519f115b3d5e0",
    "pkpk-l1-osorting-g0-extremes": "badd8052c9e45af3",
    "pkpk-l1-osorting-g1-sums": "431821647cc77006",
    "pkpk-l1-osorting-g1-extremes": "1a99e4cac0b3d2a6",
    "pkpk-l1-bsorting-g0g1-sums": "61c99bdb1ebbb11e",
    "pkpk-l1-bsorting-g0g1-extremes": "8096ad4beb52cd49",
    "pkpk-l1-bsorting-g0-sums": "ae92d40f0ad23427",
    "pkpk-l1-bsorting-g0-extremes": "b4db1c21adfe1e01",
    "pkpk-l1-bsorting-g1-sums": "4512be0f96207fb8",
    "pkpk-l1-bsorting-g1-extremes": "fb888356977d5ef3",
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
    "pkpk-l2-sorting-g0g1-sums": "f07fb7bb59531369",
    "pkpk-l2-sorting-g0g1-extremes": "4531c10282ca4360",
    "pkpk-l2-sorting-g0-sums": "bf25b371a6dfb57f",
    "pkpk-l2-sorting-g0-extremes": "c6a979869065efcc",
    "pkpk-l2-sorting-g1-sums": "848bc01b4e284776",
    "pkpk-l2-sorting-g1-extremes": "56fb35d9e139f573",
    "pkpk-l2-osorting-g0g1-sums": "f89650803fc6fa7f",
    "pkpk-l2-osorting-g0g1-extremes": "e741e30be609a879",
    "pkpk-l2-osorting-g0-sums": "727a7194e6c82056",
    "pkpk-l2-osorting-g0-extremes": "6d05bf8591b591ba",
    "pkpk-l2-osorting-g1-sums": "a29475841db14063",
    "pkpk-l2-osorting-g1-extremes": "323c377d8c5e873d",
    "pkpk-l2-bsorting-g0g1-sums": "7971f3483387e626",
    "pkpk-l2-bsorting-g0g1-extremes": "322e575ee7b9f77b",
    "pkpk-l2-bsorting-g0-sums": "3fefb315d4dca7ec",
    "pkpk-l2-bsorting-g0-extremes": "a4bf7a700343b2b5",
    "pkpk-l2-bsorting-g1-sums": "de364c253547d63e",
    "pkpk-l2-bsorting-g1-extremes": "3091080d986b0818",
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
    "pkfk-l0-view": "7f2e3d95631ad1b2",
    "pkfk-l0-sorting-g0g1-sums": "4609befce49afb81",
    "pkfk-l0-sorting-g0g1-extremes": "1a6f9951d984c3a1",
    "pkfk-l0-sorting-g0-sums": "ab881ce74dbe39fc",
    "pkfk-l0-sorting-g0-extremes": "85de4659fa346e98",
    "pkfk-l0-sorting-g1-sums": "3500a679f0808f5f",
    "pkfk-l0-sorting-g1-extremes": "67cf0891d4d2e654",
    "pkfk-l0-osorting-g0g1-sums": "0a66b6c6561d274d",
    "pkfk-l0-osorting-g0g1-extremes": "e8874509a81e1c7d",
    "pkfk-l0-osorting-g0-sums": "3332f20c5f9260b3",
    "pkfk-l0-osorting-g0-extremes": "a6ce1b4a17535b27",
    "pkfk-l0-osorting-g1-sums": "7d9ed8900eb9ff63",
    "pkfk-l0-osorting-g1-extremes": "a4866eeca5d196d3",
    "pkfk-l0-bsorting-g0g1-sums": "4196c83cd582c23b",
    "pkfk-l0-bsorting-g0g1-extremes": "d36c939d7029e22d",
    "pkfk-l0-bsorting-g0-sums": "51da38e7a7182314",
    "pkfk-l0-bsorting-g0-extremes": "b7b57fbdf7fa4948",
    "pkfk-l0-bsorting-g1-sums": "0c70cbef3e0f30b4",
    "pkfk-l0-bsorting-g1-extremes": "51ec8f69b35fcbfe",
    "pkfk-l0-mix-g0g1-sums": "6c7a4d2d771b4a50",
    "pkfk-l0-mix-g0g1-extremes": "297e54053b7afa98",
    "pkfk-l0-mix-g0-sums": "1e0335d700f2d469",
    "pkfk-l0-mix-g0-extremes": "a583ca2f079223bf",
    "pkfk-l0-mix-g1-sums": "c9978246240b4a3a",
    "pkfk-l0-mix-g1-extremes": "31a05708f451911c",
    "pkfk-l0-bitmap-g0g1-sums": "2317863db110a9a3",
    "pkfk-l0-bitmap-g0g1-extremes": "fb8295047bfa374d",
    "pkfk-l0-bitmap-g0-sums": "87b9cd70cbf04a59",
    "pkfk-l0-bitmap-g0-extremes": "99c8872354451b94",
    "pkfk-l0-bitmap-g1-sums": "8bbb497a93cb7562",
    "pkfk-l0-bitmap-g1-extremes": "59823306de81208c",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "c9978246240b4a3a",
    "pkfk-l0-oneside-g1-extremes": "31a05708f451911c",
    "pkfk-l1-view": "82c5113011491e6b",
    "pkfk-l1-sorting-g0g1-sums": "ea17e28dcd3090e2",
    "pkfk-l1-sorting-g0g1-extremes": "e4cad4cb049a75fd",
    "pkfk-l1-sorting-g0-sums": "b518db8b35087236",
    "pkfk-l1-sorting-g0-extremes": "d13c4ac69664d57a",
    "pkfk-l1-sorting-g1-sums": "e09b886045d61c64",
    "pkfk-l1-sorting-g1-extremes": "5ed6e82ea8129c05",
    "pkfk-l1-osorting-g0g1-sums": "23e39c19a02eb204",
    "pkfk-l1-osorting-g0g1-extremes": "7ab75fc7d0e1d3b4",
    "pkfk-l1-osorting-g0-sums": "24b40a0697a9ffd5",
    "pkfk-l1-osorting-g0-extremes": "c0d09eae7d9053a8",
    "pkfk-l1-osorting-g1-sums": "a463dd3e505f5132",
    "pkfk-l1-osorting-g1-extremes": "40248918625f01e9",
    "pkfk-l1-bsorting-g0g1-sums": "a2753dbb8b408e38",
    "pkfk-l1-bsorting-g0g1-extremes": "55a0434eb09a8428",
    "pkfk-l1-bsorting-g0-sums": "08bddde6674ac4ef",
    "pkfk-l1-bsorting-g0-extremes": "c83fff51fdf432db",
    "pkfk-l1-bsorting-g1-sums": "b831c5ade006f9ef",
    "pkfk-l1-bsorting-g1-extremes": "50b4e25751d90bed",
    "pkfk-l1-mix-g0g1-sums": "604cc199e28ac22f",
    "pkfk-l1-mix-g0g1-extremes": "dd5e5eadc19bcd69",
    "pkfk-l1-mix-g0-sums": "fd8e59e926782014",
    "pkfk-l1-mix-g0-extremes": "e44b1da83fa8102b",
    "pkfk-l1-mix-g1-sums": "9c97e4305d3b1be9",
    "pkfk-l1-mix-g1-extremes": "633dedcec1d6552e",
    "pkfk-l1-bitmap-g0g1-sums": "a303a4fe76d7ae6e",
    "pkfk-l1-bitmap-g0g1-extremes": "a14745e34fb93b03",
    "pkfk-l1-bitmap-g0-sums": "c773876d839654b1",
    "pkfk-l1-bitmap-g0-extremes": "17ef91d82bc5da45",
    "pkfk-l1-bitmap-g1-sums": "ab834a2881495663",
    "pkfk-l1-bitmap-g1-extremes": "b3384791d3d4963c",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "9c97e4305d3b1be9",
    "pkfk-l1-oneside-g1-extremes": "633dedcec1d6552e",
    "pkfk-l2-view": "857f0a83525dc86d",
    "pkfk-l2-sorting-g0g1-sums": "7a6b0cd8c8543b54",
    "pkfk-l2-sorting-g0g1-extremes": "1f2b21a484c0e7f7",
    "pkfk-l2-sorting-g0-sums": "e8477663eb2df9a4",
    "pkfk-l2-sorting-g0-extremes": "551f3020862d57b4",
    "pkfk-l2-sorting-g1-sums": "de148a922280113b",
    "pkfk-l2-sorting-g1-extremes": "06ea9f1a04c7bb8b",
    "pkfk-l2-osorting-g0g1-sums": "aec90e0a2e678a58",
    "pkfk-l2-osorting-g0g1-extremes": "b88d365993481091",
    "pkfk-l2-osorting-g0-sums": "59b5b491285d8ded",
    "pkfk-l2-osorting-g0-extremes": "d0b857c7ee8f7c49",
    "pkfk-l2-osorting-g1-sums": "81d5fd3455247883",
    "pkfk-l2-osorting-g1-extremes": "7b028865f77a9670",
    "pkfk-l2-bsorting-g0g1-sums": "74a88279f3ecffc9",
    "pkfk-l2-bsorting-g0g1-extremes": "342c69202f71165c",
    "pkfk-l2-bsorting-g0-sums": "7c70f54911d88496",
    "pkfk-l2-bsorting-g0-extremes": "130f531eb6680a36",
    "pkfk-l2-bsorting-g1-sums": "f084b0d312c6824d",
    "pkfk-l2-bsorting-g1-extremes": "ca7d10c23541541c",
    "pkfk-l2-mix-g0g1-sums": "46b5fc9a041e965b",
    "pkfk-l2-mix-g0g1-extremes": "948dc3f5519879f8",
    "pkfk-l2-mix-g0-sums": "22ce373ac1b15089",
    "pkfk-l2-mix-g0-extremes": "e06a9312bc0ee903",
    "pkfk-l2-mix-g1-sums": "03dfd1efb8104b5c",
    "pkfk-l2-mix-g1-extremes": "29435fe86610ac24",
    "pkfk-l2-bitmap-g0g1-sums": "611ea59010e1bbec",
    "pkfk-l2-bitmap-g0g1-extremes": "1a841816f8b5514a",
    "pkfk-l2-bitmap-g0-sums": "1979b768a596ff1f",
    "pkfk-l2-bitmap-g0-extremes": "2fa69d36892111a3",
    "pkfk-l2-bitmap-g1-sums": "618c1601230d2e41",
    "pkfk-l2-bitmap-g1-extremes": "83076e79bce7bfe7",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "03dfd1efb8104b5c",
    "pkfk-l2-oneside-g1-extremes": "29435fe86610ac24",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "224d117c4e1efeb7",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "f7d4202cc522c756",
    "pkpk-l0-sorting-dom0-g0-sums": "8930d538ff556b4b",
    "pkpk-l0-sorting-dom0-g0-extremes": "ed16f67f898a5a0f",
    "pkpk-l0-osorting-dom0-g0g1-sums": "088d7ac1bf38d505",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "f445ea60d3677d28",
    "pkpk-l0-osorting-dom0-g0-sums": "712dc7467c7099fd",
    "pkpk-l0-osorting-dom0-g0-extremes": "a22d46b2cb3138fc",
    "pkpk-l1-sorting-dom0-g0g1-sums": "6f8070183c740b06",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "b5745b4e22d4ae6d",
    "pkpk-l1-sorting-dom0-g0-sums": "b5cb99495a7086e1",
    "pkpk-l1-sorting-dom0-g0-extremes": "129f5243634115d9",
    "pkpk-l1-osorting-dom0-g0g1-sums": "c9405aa2e6379e71",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "d9cd8b072e6fb2d9",
    "pkpk-l1-osorting-dom0-g0-sums": "9462201991035926",
    "pkpk-l1-osorting-dom0-g0-extremes": "0e7d0fbe63130329",
    "pkpk-l2-sorting-dom0-g0g1-sums": "272d7d26f3988c59",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "42cd4d447135855e",
    "pkpk-l2-sorting-dom0-g0-sums": "1e09f843586dad55",
    "pkpk-l2-sorting-dom0-g0-extremes": "aee6e4e510e986e7",
    "pkpk-l2-osorting-dom0-g0g1-sums": "cbcf849399214ce0",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "3f99cc4e0b419cf8",
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
    "refresh_pkfk": "1c84024d3e15df2b",
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
