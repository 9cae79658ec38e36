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
    "pkpk-l0-sorting-g0g1-extremes": "7cd42bfa7ad7e08f",
    "pkpk-l0-sorting-g0-sums": "b44bad5bc9b714d1",
    "pkpk-l0-sorting-g0-extremes": "23447b05f38dc8bd",
    "pkpk-l0-sorting-g1-sums": "e276deefa07f669d",
    "pkpk-l0-sorting-g1-extremes": "a95fd89fa223a927",
    "pkpk-l0-osorting-g0g1-sums": "804d9643a5fd45d6",
    "pkpk-l0-osorting-g0g1-extremes": "f4f3a46a4588a269",
    "pkpk-l0-osorting-g0-sums": "8e89e9cf0e5fc682",
    "pkpk-l0-osorting-g0-extremes": "f69f42790095a69c",
    "pkpk-l0-osorting-g1-sums": "1f15fe7ac35a0ffb",
    "pkpk-l0-osorting-g1-extremes": "a64caf9c8f2a67b9",
    "pkpk-l0-bsorting-g0g1-sums": "223f56fdd0bd0be2",
    "pkpk-l0-bsorting-g0g1-extremes": "59ee3969a7458df7",
    "pkpk-l0-bsorting-g0-sums": "22159b094e8f011a",
    "pkpk-l0-bsorting-g0-extremes": "84af3bd92e67fd3f",
    "pkpk-l0-bsorting-g1-sums": "9d416ec411a56969",
    "pkpk-l0-bsorting-g1-extremes": "58a5be08280b524c",
    "pkpk-l0-mix-g0g1-sums": "b0ca6741d37f73b7",
    "pkpk-l0-mix-g0g1-extremes": "6ff40e86ef0b17a7",
    "pkpk-l0-mix-g0-sums": "4035196eac1207f3",
    "pkpk-l0-mix-g0-extremes": "85fb4994b66e8f2b",
    "pkpk-l0-mix-g1-sums": "8d96f6ab5bcaa38f",
    "pkpk-l0-mix-g1-extremes": "c5dd4ee6194da80d",
    "pkpk-l0-bitmap-g0g1-sums": "9a0d18a91298129d",
    "pkpk-l0-bitmap-g0g1-extremes": "5992932ffd4ca9f6",
    "pkpk-l0-bitmap-g0-sums": "76f6708906e26b3e",
    "pkpk-l0-bitmap-g0-extremes": "f780436d9e2b4d48",
    "pkpk-l0-bitmap-g1-sums": "84acecd194822661",
    "pkpk-l0-bitmap-g1-extremes": "0d9ad82ed5c95ab2",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "acd8ef12db736e0c",
    "pkpk-l0-oneside-g0-extremes": "1b2d2daf8ebf6e3f",
    "pkpk-l0-oneside-g1-sums": "8d96f6ab5bcaa38f",
    "pkpk-l0-oneside-g1-extremes": "c5dd4ee6194da80d",
    "pkpk-l1-view": "4635a51cabc0d3e0",
    "pkpk-l1-sorting-g0g1-sums": "5b04297712d5d03b",
    "pkpk-l1-sorting-g0g1-extremes": "ddba5f37eba6c436",
    "pkpk-l1-sorting-g0-sums": "03cdb713d41c7ddd",
    "pkpk-l1-sorting-g0-extremes": "e346102b209edbc9",
    "pkpk-l1-sorting-g1-sums": "7ea650231fe2a90f",
    "pkpk-l1-sorting-g1-extremes": "d572871e423f9240",
    "pkpk-l1-osorting-g0g1-sums": "1ff6d70ea763d83f",
    "pkpk-l1-osorting-g0g1-extremes": "b134ef19f8fdce87",
    "pkpk-l1-osorting-g0-sums": "362519f115b3d5e0",
    "pkpk-l1-osorting-g0-extremes": "d5edf09348f92bd2",
    "pkpk-l1-osorting-g1-sums": "431821647cc77006",
    "pkpk-l1-osorting-g1-extremes": "49c647f677dd104e",
    "pkpk-l1-bsorting-g0g1-sums": "61c99bdb1ebbb11e",
    "pkpk-l1-bsorting-g0g1-extremes": "4b269089b18abf85",
    "pkpk-l1-bsorting-g0-sums": "ae92d40f0ad23427",
    "pkpk-l1-bsorting-g0-extremes": "0a592fd521bf4927",
    "pkpk-l1-bsorting-g1-sums": "4512be0f96207fb8",
    "pkpk-l1-bsorting-g1-extremes": "1114d591907beba0",
    "pkpk-l1-mix-g0g1-sums": "b10897a159d8379c",
    "pkpk-l1-mix-g0g1-extremes": "9fb0883860204e77",
    "pkpk-l1-mix-g0-sums": "2622c16f1871767a",
    "pkpk-l1-mix-g0-extremes": "349cd35ab98052e7",
    "pkpk-l1-mix-g1-sums": "bb1e0c01f6735bc8",
    "pkpk-l1-mix-g1-extremes": "449bc9b3a5a25ffb",
    "pkpk-l1-bitmap-g0g1-sums": "54941534d087fdfa",
    "pkpk-l1-bitmap-g0g1-extremes": "a8be4970adc5fe04",
    "pkpk-l1-bitmap-g0-sums": "b5c9ce730cfb978c",
    "pkpk-l1-bitmap-g0-extremes": "ca079e1142cc6c69",
    "pkpk-l1-bitmap-g1-sums": "fea6ed772fd35d8b",
    "pkpk-l1-bitmap-g1-extremes": "fedfd8fe881ba595",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "2b120eadc642e7ca",
    "pkpk-l1-oneside-g0-extremes": "8be93c3492cbfb68",
    "pkpk-l1-oneside-g1-sums": "bb1e0c01f6735bc8",
    "pkpk-l1-oneside-g1-extremes": "449bc9b3a5a25ffb",
    "pkpk-l2-view": "a7d548c2320a314f",
    "pkpk-l2-sorting-g0g1-sums": "f07fb7bb59531369",
    "pkpk-l2-sorting-g0g1-extremes": "fdec57f5845a882f",
    "pkpk-l2-sorting-g0-sums": "bf25b371a6dfb57f",
    "pkpk-l2-sorting-g0-extremes": "38bcc06a9807fe15",
    "pkpk-l2-sorting-g1-sums": "848bc01b4e284776",
    "pkpk-l2-sorting-g1-extremes": "178277dfbef9bb70",
    "pkpk-l2-osorting-g0g1-sums": "f89650803fc6fa7f",
    "pkpk-l2-osorting-g0g1-extremes": "739c7d198b4aa704",
    "pkpk-l2-osorting-g0-sums": "727a7194e6c82056",
    "pkpk-l2-osorting-g0-extremes": "21187195862f45a9",
    "pkpk-l2-osorting-g1-sums": "a29475841db14063",
    "pkpk-l2-osorting-g1-extremes": "664ad11064572db5",
    "pkpk-l2-bsorting-g0g1-sums": "7971f3483387e626",
    "pkpk-l2-bsorting-g0g1-extremes": "ffeb85b23da529e0",
    "pkpk-l2-bsorting-g0-sums": "3fefb315d4dca7ec",
    "pkpk-l2-bsorting-g0-extremes": "5ab39b09a1b5cfae",
    "pkpk-l2-bsorting-g1-sums": "de364c253547d63e",
    "pkpk-l2-bsorting-g1-extremes": "d47b8fc970291ab0",
    "pkpk-l2-mix-g0g1-sums": "8d39daeef7b31705",
    "pkpk-l2-mix-g0g1-extremes": "72315f086d2d77f0",
    "pkpk-l2-mix-g0-sums": "80c215150a53ff4b",
    "pkpk-l2-mix-g0-extremes": "dcf6560e3644d454",
    "pkpk-l2-mix-g1-sums": "067f2a8815cd6a7b",
    "pkpk-l2-mix-g1-extremes": "25884fa0fd8b202f",
    "pkpk-l2-bitmap-g0g1-sums": "41ea3e4051673027",
    "pkpk-l2-bitmap-g0g1-extremes": "90c96eef9d187bbe",
    "pkpk-l2-bitmap-g0-sums": "f3e6cae3b26b33d2",
    "pkpk-l2-bitmap-g0-extremes": "39643fb70c78561f",
    "pkpk-l2-bitmap-g1-sums": "cdc7c7fde856ec23",
    "pkpk-l2-bitmap-g1-extremes": "6a6c2a055a9036aa",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "4fb318810f8bf016",
    "pkpk-l2-oneside-g0-extremes": "3e99ba1638645eba",
    "pkpk-l2-oneside-g1-sums": "067f2a8815cd6a7b",
    "pkpk-l2-oneside-g1-extremes": "25884fa0fd8b202f",
    "pkfk-l0-view": "7f2e3d95631ad1b2",
    "pkfk-l0-sorting-g0g1-sums": "4609befce49afb81",
    "pkfk-l0-sorting-g0g1-extremes": "fa4f58b181277bbe",
    "pkfk-l0-sorting-g0-sums": "ab881ce74dbe39fc",
    "pkfk-l0-sorting-g0-extremes": "f44ebfbbe25b1628",
    "pkfk-l0-sorting-g1-sums": "3500a679f0808f5f",
    "pkfk-l0-sorting-g1-extremes": "597f184ffe45f4d2",
    "pkfk-l0-osorting-g0g1-sums": "0a66b6c6561d274d",
    "pkfk-l0-osorting-g0g1-extremes": "8a5bd5b3011929e9",
    "pkfk-l0-osorting-g0-sums": "3332f20c5f9260b3",
    "pkfk-l0-osorting-g0-extremes": "4f82be400b9bec79",
    "pkfk-l0-osorting-g1-sums": "7d9ed8900eb9ff63",
    "pkfk-l0-osorting-g1-extremes": "464e67bf6229ccf7",
    "pkfk-l0-bsorting-g0g1-sums": "4196c83cd582c23b",
    "pkfk-l0-bsorting-g0g1-extremes": "e7830b14eef0fd3e",
    "pkfk-l0-bsorting-g0-sums": "51da38e7a7182314",
    "pkfk-l0-bsorting-g0-extremes": "c99261293816231f",
    "pkfk-l0-bsorting-g1-sums": "0c70cbef3e0f30b4",
    "pkfk-l0-bsorting-g1-extremes": "f11ed43123d51be6",
    "pkfk-l0-mix-g0g1-sums": "bfef1778f199b44f",
    "pkfk-l0-mix-g0g1-extremes": "343cc45c335adf6f",
    "pkfk-l0-mix-g0-sums": "e49fc97f7227d9dd",
    "pkfk-l0-mix-g0-extremes": "779a969d727d8d95",
    "pkfk-l0-mix-g1-sums": "e07abb696629f2ab",
    "pkfk-l0-mix-g1-extremes": "3ef0b6670d32f242",
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
    "pkfk-l0-oneside-g1-sums": "e07abb696629f2ab",
    "pkfk-l0-oneside-g1-extremes": "3ef0b6670d32f242",
    "pkfk-l1-view": "82c5113011491e6b",
    "pkfk-l1-sorting-g0g1-sums": "ea17e28dcd3090e2",
    "pkfk-l1-sorting-g0g1-extremes": "839d46455262d449",
    "pkfk-l1-sorting-g0-sums": "b518db8b35087236",
    "pkfk-l1-sorting-g0-extremes": "aae1d1fb36c127fc",
    "pkfk-l1-sorting-g1-sums": "e09b886045d61c64",
    "pkfk-l1-sorting-g1-extremes": "0ae3ce65926b9f32",
    "pkfk-l1-osorting-g0g1-sums": "23e39c19a02eb204",
    "pkfk-l1-osorting-g0g1-extremes": "631de2b4572d77ea",
    "pkfk-l1-osorting-g0-sums": "24b40a0697a9ffd5",
    "pkfk-l1-osorting-g0-extremes": "5421165bda8b51b1",
    "pkfk-l1-osorting-g1-sums": "a463dd3e505f5132",
    "pkfk-l1-osorting-g1-extremes": "f9a91ea35c2fdeca",
    "pkfk-l1-bsorting-g0g1-sums": "a2753dbb8b408e38",
    "pkfk-l1-bsorting-g0g1-extremes": "19994530e7aa43da",
    "pkfk-l1-bsorting-g0-sums": "08bddde6674ac4ef",
    "pkfk-l1-bsorting-g0-extremes": "ef8cbbefd77aeeb4",
    "pkfk-l1-bsorting-g1-sums": "b831c5ade006f9ef",
    "pkfk-l1-bsorting-g1-extremes": "9adce27a843299de",
    "pkfk-l1-mix-g0g1-sums": "2cd72e3b6fa2b2d9",
    "pkfk-l1-mix-g0g1-extremes": "e5200b3bfe18d820",
    "pkfk-l1-mix-g0-sums": "6a0eff253e1c332c",
    "pkfk-l1-mix-g0-extremes": "31353672790db094",
    "pkfk-l1-mix-g1-sums": "0db704a81f21c71d",
    "pkfk-l1-mix-g1-extremes": "20685f982278da08",
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
    "pkfk-l1-oneside-g1-sums": "0db704a81f21c71d",
    "pkfk-l1-oneside-g1-extremes": "20685f982278da08",
    "pkfk-l2-view": "857f0a83525dc86d",
    "pkfk-l2-sorting-g0g1-sums": "7a6b0cd8c8543b54",
    "pkfk-l2-sorting-g0g1-extremes": "fefb99194eb88f09",
    "pkfk-l2-sorting-g0-sums": "e8477663eb2df9a4",
    "pkfk-l2-sorting-g0-extremes": "a2db83ebe25f022d",
    "pkfk-l2-sorting-g1-sums": "de148a922280113b",
    "pkfk-l2-sorting-g1-extremes": "5dd7a604abfd58f4",
    "pkfk-l2-osorting-g0g1-sums": "aec90e0a2e678a58",
    "pkfk-l2-osorting-g0g1-extremes": "0d99594efa65795a",
    "pkfk-l2-osorting-g0-sums": "59b5b491285d8ded",
    "pkfk-l2-osorting-g0-extremes": "b750bac2b9a49c8b",
    "pkfk-l2-osorting-g1-sums": "81d5fd3455247883",
    "pkfk-l2-osorting-g1-extremes": "a002fc5680b73b92",
    "pkfk-l2-bsorting-g0g1-sums": "74a88279f3ecffc9",
    "pkfk-l2-bsorting-g0g1-extremes": "65c756bf669ee5f6",
    "pkfk-l2-bsorting-g0-sums": "7c70f54911d88496",
    "pkfk-l2-bsorting-g0-extremes": "50414027df91679e",
    "pkfk-l2-bsorting-g1-sums": "f084b0d312c6824d",
    "pkfk-l2-bsorting-g1-extremes": "973996d12ef5ca06",
    "pkfk-l2-mix-g0g1-sums": "7097fa5c8326f7f3",
    "pkfk-l2-mix-g0g1-extremes": "9d16b3b4937547c4",
    "pkfk-l2-mix-g0-sums": "3fd276fa8fadfe9a",
    "pkfk-l2-mix-g0-extremes": "7a6da2020201c5ed",
    "pkfk-l2-mix-g1-sums": "836681013cd94688",
    "pkfk-l2-mix-g1-extremes": "4dd1fce469bc2a87",
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
    "pkfk-l2-oneside-g1-sums": "836681013cd94688",
    "pkfk-l2-oneside-g1-extremes": "4dd1fce469bc2a87",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "224d117c4e1efeb7",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "2187e5bd30724162",
    "pkpk-l0-sorting-dom0-g0-sums": "8930d538ff556b4b",
    "pkpk-l0-sorting-dom0-g0-extremes": "82a16905933806ba",
    "pkpk-l0-osorting-dom0-g0g1-sums": "088d7ac1bf38d505",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "149b87d3ad54ef69",
    "pkpk-l0-osorting-dom0-g0-sums": "712dc7467c7099fd",
    "pkpk-l0-osorting-dom0-g0-extremes": "731a8182e1ed2085",
    "pkpk-l1-sorting-dom0-g0g1-sums": "6f8070183c740b06",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "a260fdcc9da14b42",
    "pkpk-l1-sorting-dom0-g0-sums": "b5cb99495a7086e1",
    "pkpk-l1-sorting-dom0-g0-extremes": "d25bed0cfd66e915",
    "pkpk-l1-osorting-dom0-g0g1-sums": "c9405aa2e6379e71",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "d4f7ae50672db87c",
    "pkpk-l1-osorting-dom0-g0-sums": "9462201991035926",
    "pkpk-l1-osorting-dom0-g0-extremes": "2b27c08dba7d35ed",
    "pkpk-l2-sorting-dom0-g0g1-sums": "272d7d26f3988c59",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "8641706d3be7d5d8",
    "pkpk-l2-sorting-dom0-g0-sums": "1e09f843586dad55",
    "pkpk-l2-sorting-dom0-g0-extremes": "8842d83b52ca343c",
    "pkpk-l2-osorting-dom0-g0g1-sums": "cbcf849399214ce0",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "585608db0bb4a8e7",
    "pkpk-l2-osorting-dom0-g0-sums": "ceda85a8b218aaf2",
    "pkpk-l2-osorting-dom0-g0-extremes": "1e1219342b6804c8",
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
