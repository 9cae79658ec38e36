"""Golden transcript grid: every GA protocol's rows and transcript, pinned.

Each cell runs one protocol over one fixed view and stores a short hash of
(rows, Transcript.digest(), Transcript.phase_shapes()), or the class name of
the error the cell raises. The grid spans every `ga.PROTOCOLS` entry, PK-PK
and PK-FK views (the PK-FK one with `views.append_bitmap_columns` on g0),
levels 0-2, the group sets (g0, g1), (g0, -) and (-, g1), and two aggregate
lists: all sum/count (the suffix-sum path) and max/min/count (`trav_flags`).
Each view generation has its own cell too. A second table pins the
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


def grid_cells(join, level) -> dict[str, str]:
    """Every cell of one view: the view generation itself, then the queries."""
    r0, r1 = _tables(join)
    sess = Session(1, 2, 3)
    if join == "pkpk":
        v0, v1 = vw.GENERATORS[level](sess, r0, r1)
    else:
        v0, v1 = vw.gen_pkfk(sess, r0, r1, level=level)
    t = sess.transcript
    prefix = f"{join}-l{level}"
    cells = {f"{prefix}-view": _hash(t.digest(), t.phase_shapes())}
    for proto, fn in ga.PROTOCOLS.items():
        for gname, (g0, g1) in GROUPS.items():
            for aname, aggs in AGGS.items():
                q = JgaQuery(g0, g1, aggs, protocol=proto,
                             dom0=DOM0 if join == "pkfk" else None)
                run = Session(4, 5, 6)
                try:
                    rows = fn(run, v0, v1, q).rows
                except Exception as exc:  # the error class is the record
                    out = type(exc).__name__
                else:
                    t = run.transcript
                    out = _hash(rows, t.digest(), t.phase_shapes())
                cells[f"{prefix}-{proto}-{gname}-{aname}"] = out
    return cells


GOLDEN = {
    "pkpk-l0-view": "6a0997a0cb14d258",
    "pkpk-l0-sorting-g0g1-sums": "b7ff6f06d45f0024",
    "pkpk-l0-sorting-g0g1-extremes": "879bfb365c693fb2",
    "pkpk-l0-sorting-g0-sums": "6bd16b3f503b886d",
    "pkpk-l0-sorting-g0-extremes": "b410d97930d94e10",
    "pkpk-l0-sorting-g1-sums": "3741efed9d2c72ca",
    "pkpk-l0-sorting-g1-extremes": "21d4117c84525e0f",
    "pkpk-l0-osorting-g0g1-sums": "7ba94689e916bab8",
    "pkpk-l0-osorting-g0g1-extremes": "93234ca6d1820b8a",
    "pkpk-l0-osorting-g0-sums": "800c393c7a210f4b",
    "pkpk-l0-osorting-g0-extremes": "2bb24c2819d27f38",
    "pkpk-l0-osorting-g1-sums": "8baa79a2ac356702",
    "pkpk-l0-osorting-g1-extremes": "1aa44411fdbf6652",
    "pkpk-l0-bsorting-g0g1-sums": "c94350caaecb6366",
    "pkpk-l0-bsorting-g0g1-extremes": "4eebe8070f6d4299",
    "pkpk-l0-bsorting-g0-sums": "0d041e4e7a99ab30",
    "pkpk-l0-bsorting-g0-extremes": "f73430b8ff03d956",
    "pkpk-l0-bsorting-g1-sums": "1dc3ecf9359cebed",
    "pkpk-l0-bsorting-g1-extremes": "2c290702613bdc8a",
    "pkpk-l0-mix-g0g1-sums": "27e716ea3a593c1f",
    "pkpk-l0-mix-g0g1-extremes": "662dc2f85ed9d15e",
    "pkpk-l0-mix-g0-sums": "e6e4ff918dd60cbc",
    "pkpk-l0-mix-g0-extremes": "9b4b9b2ed3dff5d0",
    "pkpk-l0-mix-g1-sums": "9f125a56d8fee3f8",
    "pkpk-l0-mix-g1-extremes": "85f14ef0daf93fae",
    "pkpk-l0-bitmap-g0g1-sums": "2c458255175dda0e",
    "pkpk-l0-bitmap-g0g1-extremes": "23347755053c9b97",
    "pkpk-l0-bitmap-g0-sums": "5da063a5be8eb914",
    "pkpk-l0-bitmap-g0-extremes": "343972cec6d584b8",
    "pkpk-l0-bitmap-g1-sums": "25da8044ad337382",
    "pkpk-l0-bitmap-g1-extremes": "4d2f131c1c5f401e",
    "pkpk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l0-oneside-g0-sums": "8803819b14c20232",
    "pkpk-l0-oneside-g0-extremes": "41e6fe7d9578fd63",
    "pkpk-l0-oneside-g1-sums": "197e0e035bb945bb",
    "pkpk-l0-oneside-g1-extremes": "29d523ebc3406ea5",
    "pkpk-l1-view": "81d7bd00037e3072",
    "pkpk-l1-sorting-g0g1-sums": "d6e6a5ee793aa9f5",
    "pkpk-l1-sorting-g0g1-extremes": "c4b583ffe9034454",
    "pkpk-l1-sorting-g0-sums": "256bf77ab146db06",
    "pkpk-l1-sorting-g0-extremes": "d3352902cf1ebbc9",
    "pkpk-l1-sorting-g1-sums": "cee1507b16bcf8b2",
    "pkpk-l1-sorting-g1-extremes": "79fa483dfaccac92",
    "pkpk-l1-osorting-g0g1-sums": "12e2157f68616ee3",
    "pkpk-l1-osorting-g0g1-extremes": "ca411e4f155f9358",
    "pkpk-l1-osorting-g0-sums": "14be8992e62f0ea6",
    "pkpk-l1-osorting-g0-extremes": "99fc3b45f78bd6ba",
    "pkpk-l1-osorting-g1-sums": "580f5f8922ad2d66",
    "pkpk-l1-osorting-g1-extremes": "714be595db2c2a11",
    "pkpk-l1-bsorting-g0g1-sums": "3a721b9faa21c04e",
    "pkpk-l1-bsorting-g0g1-extremes": "412537f7fd6e0236",
    "pkpk-l1-bsorting-g0-sums": "108d62444c47641a",
    "pkpk-l1-bsorting-g0-extremes": "e84ef63215b1e73d",
    "pkpk-l1-bsorting-g1-sums": "372e94ee3a91f9a9",
    "pkpk-l1-bsorting-g1-extremes": "d4db6729c18f932a",
    "pkpk-l1-mix-g0g1-sums": "8c0e188457e83862",
    "pkpk-l1-mix-g0g1-extremes": "fc1be6a3bff97e8b",
    "pkpk-l1-mix-g0-sums": "d49a68d64d269d3b",
    "pkpk-l1-mix-g0-extremes": "fed2bd386761e516",
    "pkpk-l1-mix-g1-sums": "3cbf011f5b4d50bb",
    "pkpk-l1-mix-g1-extremes": "dbacd7d2b18df9e0",
    "pkpk-l1-bitmap-g0g1-sums": "ecc1833f6fc83313",
    "pkpk-l1-bitmap-g0g1-extremes": "2ae60cdc3c46fe11",
    "pkpk-l1-bitmap-g0-sums": "339c32d2fa29c2ef",
    "pkpk-l1-bitmap-g0-extremes": "fec98becd911e31d",
    "pkpk-l1-bitmap-g1-sums": "a8223bcdffd986cd",
    "pkpk-l1-bitmap-g1-extremes": "f13d28b635fb066a",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "9b140e56096ea831",
    "pkpk-l1-oneside-g0-extremes": "49208a0f64513807",
    "pkpk-l1-oneside-g1-sums": "e9e94270b501d971",
    "pkpk-l1-oneside-g1-extremes": "a734a87beba4a5d0",
    "pkpk-l2-view": "3b39b06e3ee2bae8",
    "pkpk-l2-sorting-g0g1-sums": "09d6f062e1cb2386",
    "pkpk-l2-sorting-g0g1-extremes": "d4d364c4ab91d8e0",
    "pkpk-l2-sorting-g0-sums": "e518dece21ca7adf",
    "pkpk-l2-sorting-g0-extremes": "dd552425f5ebdbca",
    "pkpk-l2-sorting-g1-sums": "33545d8a0687e08a",
    "pkpk-l2-sorting-g1-extremes": "ef5ab378b9a966b2",
    "pkpk-l2-osorting-g0g1-sums": "781eb7753e20f043",
    "pkpk-l2-osorting-g0g1-extremes": "18989293d8039028",
    "pkpk-l2-osorting-g0-sums": "bd46be9c3ca51e4d",
    "pkpk-l2-osorting-g0-extremes": "5412a9a1abddb76d",
    "pkpk-l2-osorting-g1-sums": "178dc50bbe7931aa",
    "pkpk-l2-osorting-g1-extremes": "6178aad86df23ab3",
    "pkpk-l2-bsorting-g0g1-sums": "58f74725b12215fb",
    "pkpk-l2-bsorting-g0g1-extremes": "2ed9dca070cb1d46",
    "pkpk-l2-bsorting-g0-sums": "391d55f51963011c",
    "pkpk-l2-bsorting-g0-extremes": "b06d339ff8a9b0c3",
    "pkpk-l2-bsorting-g1-sums": "33f7fb6ab0a84191",
    "pkpk-l2-bsorting-g1-extremes": "7f636af4bb3a6c6e",
    "pkpk-l2-mix-g0g1-sums": "3f267d30948af4ac",
    "pkpk-l2-mix-g0g1-extremes": "3498673d395a7e25",
    "pkpk-l2-mix-g0-sums": "ff3ff30b6fb133a5",
    "pkpk-l2-mix-g0-extremes": "4ca62b1843cfe00f",
    "pkpk-l2-mix-g1-sums": "c27bcba7aaf914a3",
    "pkpk-l2-mix-g1-extremes": "b31c00390089ce7a",
    "pkpk-l2-bitmap-g0g1-sums": "6f625d934ad108fb",
    "pkpk-l2-bitmap-g0g1-extremes": "25e01219178ebaf2",
    "pkpk-l2-bitmap-g0-sums": "340abc8f7184c183",
    "pkpk-l2-bitmap-g0-extremes": "617a5d1f9271f3cf",
    "pkpk-l2-bitmap-g1-sums": "f1a9fa352b7dcc82",
    "pkpk-l2-bitmap-g1-extremes": "2ea5752aae610b9b",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "0f39ffecab5627eb",
    "pkpk-l2-oneside-g0-extremes": "12bad4b66899aeb2",
    "pkpk-l2-oneside-g1-sums": "40eebff7cdd17165",
    "pkpk-l2-oneside-g1-extremes": "2c24efbc96892f13",
    "pkfk-l0-view": "3199806edcb1331d",
    "pkfk-l0-sorting-g0g1-sums": "2574973ed1bc834b",
    "pkfk-l0-sorting-g0g1-extremes": "0edc2d3b5de9b00e",
    "pkfk-l0-sorting-g0-sums": "fe95788000052aba",
    "pkfk-l0-sorting-g0-extremes": "f53bf8a43376366d",
    "pkfk-l0-sorting-g1-sums": "97c63b4231c9f232",
    "pkfk-l0-sorting-g1-extremes": "eed07b527723bd1a",
    "pkfk-l0-osorting-g0g1-sums": "708c0f54caa01a0b",
    "pkfk-l0-osorting-g0g1-extremes": "c38a8acceeb482be",
    "pkfk-l0-osorting-g0-sums": "8bc8fe9ffeb25f4e",
    "pkfk-l0-osorting-g0-extremes": "646b2008a00ff4c7",
    "pkfk-l0-osorting-g1-sums": "f6bd8e0a1e22c751",
    "pkfk-l0-osorting-g1-extremes": "c499bb3fbea75672",
    "pkfk-l0-bsorting-g0g1-sums": "c1d4ad93695cb41b",
    "pkfk-l0-bsorting-g0g1-extremes": "93498441424b27ba",
    "pkfk-l0-bsorting-g0-sums": "1778c6cb2a95eb10",
    "pkfk-l0-bsorting-g0-extremes": "fa5dbf29bf0479b4",
    "pkfk-l0-bsorting-g1-sums": "de7c984cb600c776",
    "pkfk-l0-bsorting-g1-extremes": "212d2acaf6b8aef9",
    "pkfk-l0-mix-g0g1-sums": "c0c745c0ea3c8616",
    "pkfk-l0-mix-g0g1-extremes": "1bdb448d8caefc64",
    "pkfk-l0-mix-g0-sums": "8cce2dec69459cee",
    "pkfk-l0-mix-g0-extremes": "38e066c26761fdba",
    "pkfk-l0-mix-g1-sums": "fa60da45285fbce6",
    "pkfk-l0-mix-g1-extremes": "379d9d705a1d4a29",
    "pkfk-l0-bitmap-g0g1-sums": "6d0b2abd1e065f3e",
    "pkfk-l0-bitmap-g0g1-extremes": "67698827c8d9c98b",
    "pkfk-l0-bitmap-g0-sums": "11e5a418f111185d",
    "pkfk-l0-bitmap-g0-extremes": "e182d225925562ce",
    "pkfk-l0-bitmap-g1-sums": "f7a5cccb952df1f0",
    "pkfk-l0-bitmap-g1-extremes": "adedeb852e9e3f43",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "b0adae4a5c058108",
    "pkfk-l0-oneside-g1-extremes": "5e98641fde17ad21",
    "pkfk-l1-view": "840ac673a761f9c8",
    "pkfk-l1-sorting-g0g1-sums": "aafdbaf12f4228b7",
    "pkfk-l1-sorting-g0g1-extremes": "95adb6cd06a39392",
    "pkfk-l1-sorting-g0-sums": "30d106e493c78dc1",
    "pkfk-l1-sorting-g0-extremes": "70df69f033b389b8",
    "pkfk-l1-sorting-g1-sums": "02bce1cf267cb22e",
    "pkfk-l1-sorting-g1-extremes": "dadfd69d7db2bbf1",
    "pkfk-l1-osorting-g0g1-sums": "2aff0e643d17364d",
    "pkfk-l1-osorting-g0g1-extremes": "feabcf94d354bbbb",
    "pkfk-l1-osorting-g0-sums": "12879bcc885adcfb",
    "pkfk-l1-osorting-g0-extremes": "2c0f407f4c9d4d6e",
    "pkfk-l1-osorting-g1-sums": "a2dbd5f4abca3c0e",
    "pkfk-l1-osorting-g1-extremes": "6b19fa146851a4d3",
    "pkfk-l1-bsorting-g0g1-sums": "10dcd052f3a7adfc",
    "pkfk-l1-bsorting-g0g1-extremes": "6b935b9721f37839",
    "pkfk-l1-bsorting-g0-sums": "00ff16ce70413cfa",
    "pkfk-l1-bsorting-g0-extremes": "2434e705c59fa37b",
    "pkfk-l1-bsorting-g1-sums": "e6d347228c9946de",
    "pkfk-l1-bsorting-g1-extremes": "7efedbe4d1d7a553",
    "pkfk-l1-mix-g0g1-sums": "82dcd84a329f3ea4",
    "pkfk-l1-mix-g0g1-extremes": "5d84384b883f9dc9",
    "pkfk-l1-mix-g0-sums": "1e4f07e26ee0c260",
    "pkfk-l1-mix-g0-extremes": "afa9b18b6ecd4462",
    "pkfk-l1-mix-g1-sums": "6ba7e636bfcc353e",
    "pkfk-l1-mix-g1-extremes": "eecf739f4ff80da7",
    "pkfk-l1-bitmap-g0g1-sums": "658a1009e7ea2443",
    "pkfk-l1-bitmap-g0g1-extremes": "175783e640478119",
    "pkfk-l1-bitmap-g0-sums": "dc1936a5341d3ef4",
    "pkfk-l1-bitmap-g0-extremes": "ad29860cb5021276",
    "pkfk-l1-bitmap-g1-sums": "87f2ea75ae3d1086",
    "pkfk-l1-bitmap-g1-extremes": "8b7a13efc9243493",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "375280e5e1ea2153",
    "pkfk-l1-oneside-g1-extremes": "fbfb95245a6b68f1",
    "pkfk-l2-view": "7adaa6c940bd8266",
    "pkfk-l2-sorting-g0g1-sums": "bda2f2e2cc639cfe",
    "pkfk-l2-sorting-g0g1-extremes": "9e5dacf98f576d44",
    "pkfk-l2-sorting-g0-sums": "a4d9e1603112df35",
    "pkfk-l2-sorting-g0-extremes": "856f20fe5b905d5c",
    "pkfk-l2-sorting-g1-sums": "eaacec932912f1e5",
    "pkfk-l2-sorting-g1-extremes": "bd67dc554b3aded1",
    "pkfk-l2-osorting-g0g1-sums": "3e21d249c3528408",
    "pkfk-l2-osorting-g0g1-extremes": "9a9869accc6727bd",
    "pkfk-l2-osorting-g0-sums": "8463c4d6cc1699e3",
    "pkfk-l2-osorting-g0-extremes": "9c05dc399e450888",
    "pkfk-l2-osorting-g1-sums": "498838bda4f6dd34",
    "pkfk-l2-osorting-g1-extremes": "c398cfdc0f949be3",
    "pkfk-l2-bsorting-g0g1-sums": "db833da4bbb6070b",
    "pkfk-l2-bsorting-g0g1-extremes": "3b1743e7de1f1a5e",
    "pkfk-l2-bsorting-g0-sums": "921c1941dde74b72",
    "pkfk-l2-bsorting-g0-extremes": "fe8aa9d5db55fd1f",
    "pkfk-l2-bsorting-g1-sums": "77a9a8f8b04804a5",
    "pkfk-l2-bsorting-g1-extremes": "25801e09a319e13e",
    "pkfk-l2-mix-g0g1-sums": "1b03f542368ea48f",
    "pkfk-l2-mix-g0g1-extremes": "e1f1017edf9532db",
    "pkfk-l2-mix-g0-sums": "1a4b05de51de37e5",
    "pkfk-l2-mix-g0-extremes": "b6fb0a322977def0",
    "pkfk-l2-mix-g1-sums": "b8247198e4ef7940",
    "pkfk-l2-mix-g1-extremes": "1f5c531c39153ba6",
    "pkfk-l2-bitmap-g0g1-sums": "5719f5e81b2cd176",
    "pkfk-l2-bitmap-g0g1-extremes": "6ad2b66c5271793c",
    "pkfk-l2-bitmap-g0-sums": "44204b67dd7b7cb9",
    "pkfk-l2-bitmap-g0-extremes": "e05a18c38fb306f5",
    "pkfk-l2-bitmap-g1-sums": "c011e7af66dc7e1d",
    "pkfk-l2-bitmap-g1-extremes": "01d8b32fde6d8095",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "f79760e36fb24978",
    "pkfk-l2-oneside-g1-extremes": "9eab4639b7c834ce",
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
    "shuffle": "0854e4f8cbfd87e2",
    "perm_shared": "c31df0c4581e5cae",
    "invp_shared": "721cff53c7f4bb46",
    "perm_plain": "809a5c309381f129",
    "invp_plain": "0c7567b869dd79ae",
    "stable_sort": "a2de823c9d02b237",
    "trav_flags-sum": "b6052fb894f775a6",
    "trav_flags-count": "b6052fb894f775a6",
    "trav_flags-max": "65f4082cc815b089",
    "trav_flags-min": "31c2515ee0f8c9d1",
    "trav_flags-xor": "393e3ec8f1e77a44",
    "asym_mul-arith": "8dce452513397df5",
    "asym_mul-bin64": "fe232085952c8e4f",
    "asym_mul-bin1": "8539ba3c0a073a79",
    "share_open": "1958faf848c0ed3d",
    "gates": "26a93d302aab3b99",
    "refresh_pkfk": "1f83dd1705f95743",
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


if __name__ == "__main__":
    print("GOLDEN = {")
    for join, level in VIEWS:
        for key, value in grid_cells(join, level).items():
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
