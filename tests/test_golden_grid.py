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
    "pkpk-l0-sorting-g0g1-sums": "4276e5d35273c8eb",
    "pkpk-l0-sorting-g0g1-extremes": "3a05e767c6e7f6b2",
    "pkpk-l0-sorting-g0-sums": "c119f1d726a05726",
    "pkpk-l0-sorting-g0-extremes": "da5659c4b76a1935",
    "pkpk-l0-sorting-g1-sums": "5754515f13f4ff16",
    "pkpk-l0-sorting-g1-extremes": "f421af3097544f04",
    "pkpk-l0-osorting-g0g1-sums": "d087ead56fd616a7",
    "pkpk-l0-osorting-g0g1-extremes": "c7b978d80c2043b3",
    "pkpk-l0-osorting-g0-sums": "0522a22622ee6181",
    "pkpk-l0-osorting-g0-extremes": "f2520ad469bd9729",
    "pkpk-l0-osorting-g1-sums": "42dcb7a292c3a67d",
    "pkpk-l0-osorting-g1-extremes": "ca72cbda83f57036",
    "pkpk-l0-bsorting-g0g1-sums": "fa225aedd0ac107b",
    "pkpk-l0-bsorting-g0g1-extremes": "d34db5b4a26d0e43",
    "pkpk-l0-bsorting-g0-sums": "a9df23151ed004bc",
    "pkpk-l0-bsorting-g0-extremes": "3839931fb9f399bf",
    "pkpk-l0-bsorting-g1-sums": "3559ea01918e8169",
    "pkpk-l0-bsorting-g1-extremes": "381a9a0ca2bcd2fa",
    "pkpk-l0-mix-g0g1-sums": "27e716ea3a593c1f",
    "pkpk-l0-mix-g0g1-extremes": "f2e7fd30106cae6c",
    "pkpk-l0-mix-g0-sums": "e6e4ff918dd60cbc",
    "pkpk-l0-mix-g0-extremes": "58edec1abba78210",
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
    "pkpk-l0-oneside-g0-sums": "b10715b850812f12",
    "pkpk-l0-oneside-g0-extremes": "d1a5f7baf06350d4",
    "pkpk-l0-oneside-g1-sums": "2c1c8bc5f0da6f12",
    "pkpk-l0-oneside-g1-extremes": "4f6afb90506a39bf",
    "pkpk-l1-view": "9db97b1f326b284b",
    "pkpk-l1-sorting-g0g1-sums": "083ad25e34562d4a",
    "pkpk-l1-sorting-g0g1-extremes": "15c78eec933bf24f",
    "pkpk-l1-sorting-g0-sums": "d8f61079f48acc60",
    "pkpk-l1-sorting-g0-extremes": "08b918a20fbb999b",
    "pkpk-l1-sorting-g1-sums": "3fef9aa6cd81ebf2",
    "pkpk-l1-sorting-g1-extremes": "1f4353df82c3fbbd",
    "pkpk-l1-osorting-g0g1-sums": "d9fa343d77a57952",
    "pkpk-l1-osorting-g0g1-extremes": "f6f111fa9dc7665b",
    "pkpk-l1-osorting-g0-sums": "6e8faa62e23cc186",
    "pkpk-l1-osorting-g0-extremes": "ee916b36a742f437",
    "pkpk-l1-osorting-g1-sums": "482ef00a85539ffb",
    "pkpk-l1-osorting-g1-extremes": "a0ef753bc776fb79",
    "pkpk-l1-bsorting-g0g1-sums": "d520f6db261fc4d8",
    "pkpk-l1-bsorting-g0g1-extremes": "1709100b650d253e",
    "pkpk-l1-bsorting-g0-sums": "e4513accbafe4bd8",
    "pkpk-l1-bsorting-g0-extremes": "3f518acc2c187726",
    "pkpk-l1-bsorting-g1-sums": "454dfadedd2d29e3",
    "pkpk-l1-bsorting-g1-extremes": "ea2f32b07c5356be",
    "pkpk-l1-mix-g0g1-sums": "fe78612fac7f9234",
    "pkpk-l1-mix-g0g1-extremes": "f04fec7bd2248dc7",
    "pkpk-l1-mix-g0-sums": "b21b7acbb67def61",
    "pkpk-l1-mix-g0-extremes": "fbb9a96d854d5718",
    "pkpk-l1-mix-g1-sums": "2f8c719fe0f6e30a",
    "pkpk-l1-mix-g1-extremes": "08b317d2edb0e25d",
    "pkpk-l1-bitmap-g0g1-sums": "c87c3c95045e94b9",
    "pkpk-l1-bitmap-g0g1-extremes": "78c7ee9bfa7d81a5",
    "pkpk-l1-bitmap-g0-sums": "2c6ecebd9cf457cc",
    "pkpk-l1-bitmap-g0-extremes": "b10441d1595524c3",
    "pkpk-l1-bitmap-g1-sums": "a86c3ddd068cd1ca",
    "pkpk-l1-bitmap-g1-extremes": "be81d243ce78b99f",
    "pkpk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l1-oneside-g0-sums": "b6cd4143458b0231",
    "pkpk-l1-oneside-g0-extremes": "147a71fd527fbb51",
    "pkpk-l1-oneside-g1-sums": "0766b89da3ac36fa",
    "pkpk-l1-oneside-g1-extremes": "96e3315ff08a3c7f",
    "pkpk-l2-view": "9af3687269ebea0c",
    "pkpk-l2-sorting-g0g1-sums": "543fe4409e77a928",
    "pkpk-l2-sorting-g0g1-extremes": "e5dc9c7b91b0fac1",
    "pkpk-l2-sorting-g0-sums": "bbda27f40b7ec901",
    "pkpk-l2-sorting-g0-extremes": "caa023326736ada2",
    "pkpk-l2-sorting-g1-sums": "bc2d7260fce4cfb3",
    "pkpk-l2-sorting-g1-extremes": "78bd3a2501e6f145",
    "pkpk-l2-osorting-g0g1-sums": "4367fad0f8b8de80",
    "pkpk-l2-osorting-g0g1-extremes": "884e865d413475c0",
    "pkpk-l2-osorting-g0-sums": "2a4089999406328d",
    "pkpk-l2-osorting-g0-extremes": "2159dde8be28e311",
    "pkpk-l2-osorting-g1-sums": "8c18e16ec5c214ed",
    "pkpk-l2-osorting-g1-extremes": "d359760680c8aae2",
    "pkpk-l2-bsorting-g0g1-sums": "64958c5372b900b7",
    "pkpk-l2-bsorting-g0g1-extremes": "8d09afabcf14a0a1",
    "pkpk-l2-bsorting-g0-sums": "2631a34c7f13a76c",
    "pkpk-l2-bsorting-g0-extremes": "d65c5484009c71eb",
    "pkpk-l2-bsorting-g1-sums": "92b585754935e767",
    "pkpk-l2-bsorting-g1-extremes": "85007f26c14160d4",
    "pkpk-l2-mix-g0g1-sums": "a5deeb4135c29618",
    "pkpk-l2-mix-g0g1-extremes": "d01ffa5ece5b2a23",
    "pkpk-l2-mix-g0-sums": "8e9f0ed819431163",
    "pkpk-l2-mix-g0-extremes": "a81fddb9e1930ba0",
    "pkpk-l2-mix-g1-sums": "0cd27a05aea75062",
    "pkpk-l2-mix-g1-extremes": "73676fe51c45c179",
    "pkpk-l2-bitmap-g0g1-sums": "4f36bde88daebc6e",
    "pkpk-l2-bitmap-g0g1-extremes": "206d412b70b38a0b",
    "pkpk-l2-bitmap-g0-sums": "c42582fccb5cb0d1",
    "pkpk-l2-bitmap-g0-extremes": "cb3b9602b317d96e",
    "pkpk-l2-bitmap-g1-sums": "22970b5f3734d0d2",
    "pkpk-l2-bitmap-g1-extremes": "d688434e9b4e6d99",
    "pkpk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkpk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkpk-l2-oneside-g0-sums": "80e5c7d6484a7f23",
    "pkpk-l2-oneside-g0-extremes": "ef63022d271f9071",
    "pkpk-l2-oneside-g1-sums": "8168202e678455fb",
    "pkpk-l2-oneside-g1-extremes": "6092f7035f26e838",
    "pkfk-l0-view": "162aa1009ae9b3d3",
    "pkfk-l0-sorting-g0g1-sums": "88326c97f016149e",
    "pkfk-l0-sorting-g0g1-extremes": "82b4980780a1bd02",
    "pkfk-l0-sorting-g0-sums": "2189ef4884f6d945",
    "pkfk-l0-sorting-g0-extremes": "9aa2d3be678fce26",
    "pkfk-l0-sorting-g1-sums": "da2753a844886acf",
    "pkfk-l0-sorting-g1-extremes": "628a6c1fc99534c9",
    "pkfk-l0-osorting-g0g1-sums": "86ca1081984db3d7",
    "pkfk-l0-osorting-g0g1-extremes": "6cd0a80e78b3f192",
    "pkfk-l0-osorting-g0-sums": "98453d13e5932435",
    "pkfk-l0-osorting-g0-extremes": "315308f76ce247dc",
    "pkfk-l0-osorting-g1-sums": "5b11e0ba287fb351",
    "pkfk-l0-osorting-g1-extremes": "011335ddd5dedb03",
    "pkfk-l0-bsorting-g0g1-sums": "cb922ab64c58d52e",
    "pkfk-l0-bsorting-g0g1-extremes": "5ce1cf625db75e18",
    "pkfk-l0-bsorting-g0-sums": "eaf040ac7bf6d476",
    "pkfk-l0-bsorting-g0-extremes": "5aa2003be88011b6",
    "pkfk-l0-bsorting-g1-sums": "1d41c5a7bf174733",
    "pkfk-l0-bsorting-g1-extremes": "26f0507f99e81adc",
    "pkfk-l0-mix-g0g1-sums": "f3b23e0f8688e85d",
    "pkfk-l0-mix-g0g1-extremes": "d0bdfd422d517c77",
    "pkfk-l0-mix-g0-sums": "c6cb84f16a1aba94",
    "pkfk-l0-mix-g0-extremes": "c1e981a0a8572695",
    "pkfk-l0-mix-g1-sums": "6fd0a837b7bbdaf1",
    "pkfk-l0-mix-g1-extremes": "3582aedd809d3252",
    "pkfk-l0-bitmap-g0g1-sums": "7419600e47545855",
    "pkfk-l0-bitmap-g0g1-extremes": "91db16a5be3a1e78",
    "pkfk-l0-bitmap-g0-sums": "a31aac9a874c0284",
    "pkfk-l0-bitmap-g0-extremes": "e09346f17aee3f7d",
    "pkfk-l0-bitmap-g1-sums": "dea0f74c4c11fe60",
    "pkfk-l0-bitmap-g1-extremes": "2c61f49063e6bc6c",
    "pkfk-l0-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g0-sums": "SizeMismatch",
    "pkfk-l0-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l0-oneside-g1-sums": "fd0738f5e48bb42a",
    "pkfk-l0-oneside-g1-extremes": "24d039fab6f9d51a",
    "pkfk-l1-view": "844fe1cf00ea86e8",
    "pkfk-l1-sorting-g0g1-sums": "73d96d4ec20d984b",
    "pkfk-l1-sorting-g0g1-extremes": "822c79501ddf1c15",
    "pkfk-l1-sorting-g0-sums": "feea9ccf57050c72",
    "pkfk-l1-sorting-g0-extremes": "620dae97f80db2ad",
    "pkfk-l1-sorting-g1-sums": "0a2c9d33c324f581",
    "pkfk-l1-sorting-g1-extremes": "b7729c686b6a5891",
    "pkfk-l1-osorting-g0g1-sums": "cf06afdcbe1fb5ad",
    "pkfk-l1-osorting-g0g1-extremes": "1c8b21ae95fd62ca",
    "pkfk-l1-osorting-g0-sums": "da362faad604b9f8",
    "pkfk-l1-osorting-g0-extremes": "6e99aac49754f322",
    "pkfk-l1-osorting-g1-sums": "dfb038f639959b7d",
    "pkfk-l1-osorting-g1-extremes": "ba53e1de462b58a0",
    "pkfk-l1-bsorting-g0g1-sums": "94a2911427be303d",
    "pkfk-l1-bsorting-g0g1-extremes": "09b1bedf39d71cdc",
    "pkfk-l1-bsorting-g0-sums": "5d6016ca15c82bbc",
    "pkfk-l1-bsorting-g0-extremes": "da764503b9b227ad",
    "pkfk-l1-bsorting-g1-sums": "066c5b3161bd9420",
    "pkfk-l1-bsorting-g1-extremes": "c098cbc4e13673c3",
    "pkfk-l1-mix-g0g1-sums": "4af1d94a9f83ae39",
    "pkfk-l1-mix-g0g1-extremes": "d20d77a9a836f5dc",
    "pkfk-l1-mix-g0-sums": "de8ecad75d48f926",
    "pkfk-l1-mix-g0-extremes": "c8cb1be79d1a3010",
    "pkfk-l1-mix-g1-sums": "23864aea699190fd",
    "pkfk-l1-mix-g1-extremes": "b87bbd9fad10beb3",
    "pkfk-l1-bitmap-g0g1-sums": "0da2a9d312e91be5",
    "pkfk-l1-bitmap-g0g1-extremes": "4b93cbe9aa765b43",
    "pkfk-l1-bitmap-g0-sums": "2b52c6e463b26e6f",
    "pkfk-l1-bitmap-g0-extremes": "3029def369899eea",
    "pkfk-l1-bitmap-g1-sums": "ff5cd9b7d12629d7",
    "pkfk-l1-bitmap-g1-extremes": "06843d10239cc16a",
    "pkfk-l1-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g0-sums": "SizeMismatch",
    "pkfk-l1-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l1-oneside-g1-sums": "c99e008b32d50b33",
    "pkfk-l1-oneside-g1-extremes": "3fa413e67081a878",
    "pkfk-l2-view": "7656852fae86848b",
    "pkfk-l2-sorting-g0g1-sums": "6a238ff95df3b7d4",
    "pkfk-l2-sorting-g0g1-extremes": "4eb61de6191cfc8e",
    "pkfk-l2-sorting-g0-sums": "3df4a434ac864660",
    "pkfk-l2-sorting-g0-extremes": "d44cc553808ccc8f",
    "pkfk-l2-sorting-g1-sums": "e47db8e265e21d1d",
    "pkfk-l2-sorting-g1-extremes": "16c7a5eed5f2a157",
    "pkfk-l2-osorting-g0g1-sums": "9cb843236761c0ca",
    "pkfk-l2-osorting-g0g1-extremes": "6aeef3fce19077cd",
    "pkfk-l2-osorting-g0-sums": "2753763b945cd965",
    "pkfk-l2-osorting-g0-extremes": "6ece531d409f9ef7",
    "pkfk-l2-osorting-g1-sums": "0d0301f3e1c7ce92",
    "pkfk-l2-osorting-g1-extremes": "cff3205471f84711",
    "pkfk-l2-bsorting-g0g1-sums": "5ad2a1454e440d0a",
    "pkfk-l2-bsorting-g0g1-extremes": "0d96b4d5e79e89c6",
    "pkfk-l2-bsorting-g0-sums": "a349d5e64221676c",
    "pkfk-l2-bsorting-g0-extremes": "8e1ae78be90cd361",
    "pkfk-l2-bsorting-g1-sums": "96db9319e0352be9",
    "pkfk-l2-bsorting-g1-extremes": "e4e9f69d5082d9bf",
    "pkfk-l2-mix-g0g1-sums": "2e2b77f222772a56",
    "pkfk-l2-mix-g0g1-extremes": "c21ce75d7be8e729",
    "pkfk-l2-mix-g0-sums": "5806b5b5a0af5f68",
    "pkfk-l2-mix-g0-extremes": "ec2e15f28712c57a",
    "pkfk-l2-mix-g1-sums": "8d45fb62f3ee55f7",
    "pkfk-l2-mix-g1-extremes": "656bf98d9d0626a9",
    "pkfk-l2-bitmap-g0g1-sums": "7cf5334e900f065f",
    "pkfk-l2-bitmap-g0g1-extremes": "9b24bf6bcf630722",
    "pkfk-l2-bitmap-g0-sums": "e0ce287bc509443c",
    "pkfk-l2-bitmap-g0-extremes": "76c24c6bbab4398e",
    "pkfk-l2-bitmap-g1-sums": "bcf3c933b16460d3",
    "pkfk-l2-bitmap-g1-extremes": "5b016bdb9ac9f528",
    "pkfk-l2-oneside-g0g1-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0g1-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g0-sums": "SizeMismatch",
    "pkfk-l2-oneside-g0-extremes": "SizeMismatch",
    "pkfk-l2-oneside-g1-sums": "08dd314e40a9f8e0",
    "pkfk-l2-oneside-g1-extremes": "d3c88d023dcea257",
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
