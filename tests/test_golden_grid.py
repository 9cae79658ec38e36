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
    "pkpk-l0-sorting-g0g1-sums": "29167f5ecc0553e5",
    "pkpk-l0-sorting-g0g1-extremes": "7a9011d595e2aa6e",
    "pkpk-l0-sorting-g0-sums": "31b2c6c6ef064632",
    "pkpk-l0-sorting-g0-extremes": "d082e5f52ea659cb",
    "pkpk-l0-sorting-g1-sums": "a7fb9b477953b71b",
    "pkpk-l0-sorting-g1-extremes": "e2d6916fe52c817a",
    "pkpk-l0-osorting-g0g1-sums": "63791a3ec964cb1c",
    "pkpk-l0-osorting-g0g1-extremes": "8c424e408a3b640d",
    "pkpk-l0-osorting-g0-sums": "282709ffe66f7c3f",
    "pkpk-l0-osorting-g0-extremes": "57a580f6cff492f6",
    "pkpk-l0-osorting-g1-sums": "58b4216f41ebdd37",
    "pkpk-l0-osorting-g1-extremes": "edb1d2e371cb9a25",
    "pkpk-l0-bsorting-g0g1-sums": "e17ed4b717ecb4e2",
    "pkpk-l0-bsorting-g0g1-extremes": "b8800b2626fc96c5",
    "pkpk-l0-bsorting-g0-sums": "ea66689e927f0cce",
    "pkpk-l0-bsorting-g0-extremes": "55d298b0142c14a0",
    "pkpk-l0-bsorting-g1-sums": "eac9b25b698c40b9",
    "pkpk-l0-bsorting-g1-extremes": "d9cfa8ef8535c8ed",
    "pkpk-l0-mix-g0g1-sums": "5269d56f55d720da",
    "pkpk-l0-mix-g0g1-extremes": "a1e018de26ec8bce",
    "pkpk-l0-mix-g0-sums": "b892f92a86625dd3",
    "pkpk-l0-mix-g0-extremes": "48b205365f0d1bac",
    "pkpk-l0-mix-g1-sums": "2ad03e40ca94ffd8",
    "pkpk-l0-mix-g1-extremes": "9008cdceaa1e9095",
    "pkpk-l0-bitmap-g0g1-sums": "9a0d18a91298129d",
    "pkpk-l0-bitmap-g0g1-extremes": "0ab97ceb8499f91f",
    "pkpk-l0-bitmap-g0-sums": "76f6708906e26b3e",
    "pkpk-l0-bitmap-g0-extremes": "3c1052361d0fb555",
    "pkpk-l0-bitmap-g1-sums": "84acecd194822661",
    "pkpk-l0-bitmap-g1-extremes": "6e047d91a9220146",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "46bb303812123d84",
    "pkpk-l0-oneside-g0-extremes": "3a143ebc7af57f2f",
    "pkpk-l0-oneside-g1-sums": "2ad03e40ca94ffd8",
    "pkpk-l0-oneside-g1-extremes": "9008cdceaa1e9095",
    "pkpk-l1-view": "ace4674eb81e019e",
    "pkpk-l1-sorting-g0g1-sums": "961b798cb741aa8c",
    "pkpk-l1-sorting-g0g1-extremes": "5a3e81a063047591",
    "pkpk-l1-sorting-g0-sums": "ed5bfa6d93e03c18",
    "pkpk-l1-sorting-g0-extremes": "4075a5d167c23149",
    "pkpk-l1-sorting-g1-sums": "5af0439509552afc",
    "pkpk-l1-sorting-g1-extremes": "ccbad194841729be",
    "pkpk-l1-osorting-g0g1-sums": "032e441214f37725",
    "pkpk-l1-osorting-g0g1-extremes": "591a986c448f0309",
    "pkpk-l1-osorting-g0-sums": "8d53769aeead2631",
    "pkpk-l1-osorting-g0-extremes": "f01e39ccc6d079c7",
    "pkpk-l1-osorting-g1-sums": "864860fa85c2d015",
    "pkpk-l1-osorting-g1-extremes": "e2ca6b94f9da6067",
    "pkpk-l1-bsorting-g0g1-sums": "dd6746100960c3fa",
    "pkpk-l1-bsorting-g0g1-extremes": "3cf780079fc09f7d",
    "pkpk-l1-bsorting-g0-sums": "7a31207e5f7e87d2",
    "pkpk-l1-bsorting-g0-extremes": "90adb2feba8e1840",
    "pkpk-l1-bsorting-g1-sums": "99eb34998ecaee1e",
    "pkpk-l1-bsorting-g1-extremes": "2380a33210ebb7da",
    "pkpk-l1-mix-g0g1-sums": "016ae5c49553d992",
    "pkpk-l1-mix-g0g1-extremes": "76c0f312011980aa",
    "pkpk-l1-mix-g0-sums": "bea0c082f79cc783",
    "pkpk-l1-mix-g0-extremes": "9360049a7fee2566",
    "pkpk-l1-mix-g1-sums": "22f297b1eaefa639",
    "pkpk-l1-mix-g1-extremes": "6e789700a772677e",
    "pkpk-l1-bitmap-g0g1-sums": "5fe3ab3f3dbd9fd1",
    "pkpk-l1-bitmap-g0g1-extremes": "9da5aec938c97c50",
    "pkpk-l1-bitmap-g0-sums": "9e94b1674ba0b997",
    "pkpk-l1-bitmap-g0-extremes": "9655845b2e75414e",
    "pkpk-l1-bitmap-g1-sums": "1cb7628b7e91f8fc",
    "pkpk-l1-bitmap-g1-extremes": "77c127f9d63a60bd",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "2d2f7b5aae9f7e73",
    "pkpk-l1-oneside-g0-extremes": "bd643caa7478df78",
    "pkpk-l1-oneside-g1-sums": "22f297b1eaefa639",
    "pkpk-l1-oneside-g1-extremes": "6e789700a772677e",
    "pkpk-l2-view": "2096b514eb2c61c5",
    "pkpk-l2-sorting-g0g1-sums": "543e9f7ebf25eb96",
    "pkpk-l2-sorting-g0g1-extremes": "62d5a503c95f1169",
    "pkpk-l2-sorting-g0-sums": "a18930193a116a36",
    "pkpk-l2-sorting-g0-extremes": "88be931a9f2a1852",
    "pkpk-l2-sorting-g1-sums": "52001f0009d00718",
    "pkpk-l2-sorting-g1-extremes": "dcadb0ae0473a797",
    "pkpk-l2-osorting-g0g1-sums": "9b6fbd854cc51e75",
    "pkpk-l2-osorting-g0g1-extremes": "435c033d66ee16d8",
    "pkpk-l2-osorting-g0-sums": "25447455d26c49a7",
    "pkpk-l2-osorting-g0-extremes": "426f29c2c4bffaee",
    "pkpk-l2-osorting-g1-sums": "cbbb93bb82367297",
    "pkpk-l2-osorting-g1-extremes": "aaf90733ebca3da7",
    "pkpk-l2-bsorting-g0g1-sums": "98b6d309ef0ac2be",
    "pkpk-l2-bsorting-g0g1-extremes": "8559767c5ccad92c",
    "pkpk-l2-bsorting-g0-sums": "65853f1be41b5a55",
    "pkpk-l2-bsorting-g0-extremes": "a6accf858ec781d5",
    "pkpk-l2-bsorting-g1-sums": "acedad4668e8091d",
    "pkpk-l2-bsorting-g1-extremes": "f58ab5beeff27093",
    "pkpk-l2-mix-g0g1-sums": "ff1226fcb915fbb7",
    "pkpk-l2-mix-g0g1-extremes": "c74bf56af4ebbedf",
    "pkpk-l2-mix-g0-sums": "b1c2d2924e4dcb72",
    "pkpk-l2-mix-g0-extremes": "a08f0a1d49effa12",
    "pkpk-l2-mix-g1-sums": "7f29a9d0bcf612c3",
    "pkpk-l2-mix-g1-extremes": "cf0cec137e5b6577",
    "pkpk-l2-bitmap-g0g1-sums": "41ea3e4051673027",
    "pkpk-l2-bitmap-g0g1-extremes": "dea8e9b25f42c643",
    "pkpk-l2-bitmap-g0-sums": "f3e6cae3b26b33d2",
    "pkpk-l2-bitmap-g0-extremes": "9f83b87d46727db0",
    "pkpk-l2-bitmap-g1-sums": "cdc7c7fde856ec23",
    "pkpk-l2-bitmap-g1-extremes": "2ef2e6f6d58ed80e",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "0d495fb8305eb195",
    "pkpk-l2-oneside-g0-extremes": "01a33c3778913546",
    "pkpk-l2-oneside-g1-sums": "7f29a9d0bcf612c3",
    "pkpk-l2-oneside-g1-extremes": "cf0cec137e5b6577",
    "pkfk-l0-view": "3a775ca6e95548a4",
    "pkfk-l0-sorting-g0g1-sums": "09f6e99ba54d3a8c",
    "pkfk-l0-sorting-g0g1-extremes": "1424687e35f6596a",
    "pkfk-l0-sorting-g0-sums": "0d7173f30a9603db",
    "pkfk-l0-sorting-g0-extremes": "6070d958c94e9429",
    "pkfk-l0-sorting-g1-sums": "624fb23cbddd1ee3",
    "pkfk-l0-sorting-g1-extremes": "a7767fc4a92b692a",
    "pkfk-l0-osorting-g0g1-sums": "44f6b11746303357",
    "pkfk-l0-osorting-g0g1-extremes": "555c30cc7b313a20",
    "pkfk-l0-osorting-g0-sums": "80cd8014638caad3",
    "pkfk-l0-osorting-g0-extremes": "56ca7c2aefefbabb",
    "pkfk-l0-osorting-g1-sums": "819f9bc78e9bc6ed",
    "pkfk-l0-osorting-g1-extremes": "53cfdf6fd49fec75",
    "pkfk-l0-bsorting-g0g1-sums": "b4049cb3f05353f3",
    "pkfk-l0-bsorting-g0g1-extremes": "9e88fe7c0856d656",
    "pkfk-l0-bsorting-g0-sums": "d102723700bae66e",
    "pkfk-l0-bsorting-g0-extremes": "1ffcd292a9d6bedc",
    "pkfk-l0-bsorting-g1-sums": "6285f6e2b6e7722c",
    "pkfk-l0-bsorting-g1-extremes": "1f00862b1c6d31f2",
    "pkfk-l0-mix-g0g1-sums": "d4c9542df194b684",
    "pkfk-l0-mix-g0g1-extremes": "3cac1140077c251e",
    "pkfk-l0-mix-g0-sums": "8f3e8a7191e935cc",
    "pkfk-l0-mix-g0-extremes": "2a031e5197d630c2",
    "pkfk-l0-mix-g1-sums": "999211fed25b2279",
    "pkfk-l0-mix-g1-extremes": "69b016218c4828a4",
    "pkfk-l0-bitmap-g0g1-sums": "11263ec79566b309",
    "pkfk-l0-bitmap-g0g1-extremes": "cef7ba4fafb292e9",
    "pkfk-l0-bitmap-g0-sums": "ee6ac3bc361e4d39",
    "pkfk-l0-bitmap-g0-extremes": "56b6a353ca12c1c2",
    "pkfk-l0-bitmap-g1-sums": "d2db770a43924810",
    "pkfk-l0-bitmap-g1-extremes": "106adcfe075d4e55",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "999211fed25b2279",
    "pkfk-l0-oneside-g1-extremes": "69b016218c4828a4",
    "pkfk-l1-view": "8b4ec9e3bc5c4ef7",
    "pkfk-l1-sorting-g0g1-sums": "5ab3e00ee88496de",
    "pkfk-l1-sorting-g0g1-extremes": "a8a53ae68cfb45f3",
    "pkfk-l1-sorting-g0-sums": "7993215e528a9f13",
    "pkfk-l1-sorting-g0-extremes": "3c3ff05d20ca2531",
    "pkfk-l1-sorting-g1-sums": "b1aba8d09a8506d3",
    "pkfk-l1-sorting-g1-extremes": "b27b736fcd974cde",
    "pkfk-l1-osorting-g0g1-sums": "36a273dab0b6b51d",
    "pkfk-l1-osorting-g0g1-extremes": "282605e9a55afe03",
    "pkfk-l1-osorting-g0-sums": "99c44b4051fa698c",
    "pkfk-l1-osorting-g0-extremes": "33fc24a820dd8ccb",
    "pkfk-l1-osorting-g1-sums": "e3224214c98be76b",
    "pkfk-l1-osorting-g1-extremes": "87a956788ed352e8",
    "pkfk-l1-bsorting-g0g1-sums": "abc154ec2ebeea02",
    "pkfk-l1-bsorting-g0g1-extremes": "d0b9dc21e191c7dc",
    "pkfk-l1-bsorting-g0-sums": "960861c6a1411ed6",
    "pkfk-l1-bsorting-g0-extremes": "b7e136afd615f4fc",
    "pkfk-l1-bsorting-g1-sums": "892173b7371ea963",
    "pkfk-l1-bsorting-g1-extremes": "2789656801fd98d4",
    "pkfk-l1-mix-g0g1-sums": "c9a3fb0fea920f13",
    "pkfk-l1-mix-g0g1-extremes": "9d89966b01d835ae",
    "pkfk-l1-mix-g0-sums": "f440b0f66b4ad5e4",
    "pkfk-l1-mix-g0-extremes": "48bf762939238122",
    "pkfk-l1-mix-g1-sums": "73112a6e3d1d297d",
    "pkfk-l1-mix-g1-extremes": "e4b115d0f8b5c9a9",
    "pkfk-l1-bitmap-g0g1-sums": "3c9d4be047214ce5",
    "pkfk-l1-bitmap-g0g1-extremes": "be14be876aee6514",
    "pkfk-l1-bitmap-g0-sums": "386f6458042bff53",
    "pkfk-l1-bitmap-g0-extremes": "21c2671caa3c2a79",
    "pkfk-l1-bitmap-g1-sums": "f3041f664aeb0d3b",
    "pkfk-l1-bitmap-g1-extremes": "3fa91f479a9c6404",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "73112a6e3d1d297d",
    "pkfk-l1-oneside-g1-extremes": "e4b115d0f8b5c9a9",
    "pkfk-l2-view": "5ae661c7c3cf1845",
    "pkfk-l2-sorting-g0g1-sums": "c3bf617089fa6657",
    "pkfk-l2-sorting-g0g1-extremes": "1b698f44cd356e2d",
    "pkfk-l2-sorting-g0-sums": "1dfac0b9afe8e50a",
    "pkfk-l2-sorting-g0-extremes": "35bedcce2cc8c76f",
    "pkfk-l2-sorting-g1-sums": "f6b5900c6a15db6a",
    "pkfk-l2-sorting-g1-extremes": "6296d5280d3da216",
    "pkfk-l2-osorting-g0g1-sums": "e6957cdacfbfd8c6",
    "pkfk-l2-osorting-g0g1-extremes": "2e1b734a56d9399d",
    "pkfk-l2-osorting-g0-sums": "39ad367a30abaa97",
    "pkfk-l2-osorting-g0-extremes": "9a97d590a04e08fd",
    "pkfk-l2-osorting-g1-sums": "9ba7e3a7ea9cf919",
    "pkfk-l2-osorting-g1-extremes": "a0ea7459fb256436",
    "pkfk-l2-bsorting-g0g1-sums": "8df3ffaf29485290",
    "pkfk-l2-bsorting-g0g1-extremes": "894782868a04b3eb",
    "pkfk-l2-bsorting-g0-sums": "e406b18f00e723e3",
    "pkfk-l2-bsorting-g0-extremes": "69f76b68797558e4",
    "pkfk-l2-bsorting-g1-sums": "929653fd0eb3cb3a",
    "pkfk-l2-bsorting-g1-extremes": "22f1b2e0a99deb32",
    "pkfk-l2-mix-g0g1-sums": "3aed0c15fd44864f",
    "pkfk-l2-mix-g0g1-extremes": "324f9e81b4b432fc",
    "pkfk-l2-mix-g0-sums": "856e49416718b846",
    "pkfk-l2-mix-g0-extremes": "7443ce8f0e23e925",
    "pkfk-l2-mix-g1-sums": "54982a056fc08e51",
    "pkfk-l2-mix-g1-extremes": "6027d1c53ef57632",
    "pkfk-l2-bitmap-g0g1-sums": "5e7465b0eb5e93e7",
    "pkfk-l2-bitmap-g0g1-extremes": "3f5890336f13eba8",
    "pkfk-l2-bitmap-g0-sums": "1ac6ae55666b2868",
    "pkfk-l2-bitmap-g0-extremes": "a80d59335e1faf16",
    "pkfk-l2-bitmap-g1-sums": "9330d796c5777a91",
    "pkfk-l2-bitmap-g1-extremes": "cfb0415cdbd5b051",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "54982a056fc08e51",
    "pkfk-l2-oneside-g1-extremes": "6027d1c53ef57632",
}


GOLDEN_DOM0 = {
    "pkpk-l0-sorting-dom0-g0g1-sums": "dbf374b51ce5a1f2",
    "pkpk-l0-sorting-dom0-g0g1-extremes": "c71a2b91bb508792",
    "pkpk-l0-sorting-dom0-g0-sums": "b825e8695a294ac6",
    "pkpk-l0-sorting-dom0-g0-extremes": "b7de5c71195b5c8c",
    "pkpk-l0-osorting-dom0-g0g1-sums": "5c736592dba374f1",
    "pkpk-l0-osorting-dom0-g0g1-extremes": "5e62e38ec88ac684",
    "pkpk-l0-osorting-dom0-g0-sums": "fe84cb5b199bdea7",
    "pkpk-l0-osorting-dom0-g0-extremes": "35f0bd72d68d593d",
    "pkpk-l1-sorting-dom0-g0g1-sums": "3a49137e3bc38a81",
    "pkpk-l1-sorting-dom0-g0g1-extremes": "e444e0ba0dce60f8",
    "pkpk-l1-sorting-dom0-g0-sums": "b474183f9c8e0066",
    "pkpk-l1-sorting-dom0-g0-extremes": "aae1254f4c93fb88",
    "pkpk-l1-osorting-dom0-g0g1-sums": "1f13e374d6603cdf",
    "pkpk-l1-osorting-dom0-g0g1-extremes": "63e256ad6e46bce8",
    "pkpk-l1-osorting-dom0-g0-sums": "3e9fb0daa0af78b5",
    "pkpk-l1-osorting-dom0-g0-extremes": "3ab0e04a75806288",
    "pkpk-l2-sorting-dom0-g0g1-sums": "95bdcda5dc614b59",
    "pkpk-l2-sorting-dom0-g0g1-extremes": "81bc32d020274947",
    "pkpk-l2-sorting-dom0-g0-sums": "25ca85b5286fc939",
    "pkpk-l2-sorting-dom0-g0-extremes": "2f66220639ec98d9",
    "pkpk-l2-osorting-dom0-g0g1-sums": "194a74abd965a8ca",
    "pkpk-l2-osorting-dom0-g0g1-extremes": "b18f18d58778e2df",
    "pkpk-l2-osorting-dom0-g0-sums": "66618d86ef2505d2",
    "pkpk-l2-osorting-dom0-g0-extremes": "d722f13d56af83e8",
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
    "stable_sort": "5045f4c0caafbff0",
    "trav_flags-sum": "f3d2145ea0a25dd0",
    "trav_flags-count": "f3d2145ea0a25dd0",
    "trav_flags-max": "ede64b20f822e669",
    "trav_flags-min": "5edb19eb07f1a234",
    "trav_flags-xor": "d3a9740c96667cd8",
    "asym_mul-arith": "564339563277dce7",
    "asym_mul-bin64": "e5f9be87296a4565",
    "asym_mul-bin1": "c2baef9a3590a85f",
    "share_open": "f35f8cf7626fa1d1",
    "gates": "c35b63a07f81e62d",
    "refresh_pkfk": "15145741ec0ab600",
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
