"""Communication benchmarks: per-phase bit counts and scaling-law ratios.

Every measurement here is a deterministic transcript of wire/hybrid bits and
rounds under fixed seeds, compared against the protocols' asymptotic laws
(n log n for switching, d0*d1 for the bitmap protocol, the halved cost of
plain-vector permutation application). Wall-clock time, end to end and per
layer, is measured by the benchmark under `perfbench/`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ga, oblivious as ob, sharing as sh, views as vw
from .ga import JgaQuery
from .session import Session
from .views import Relation


@dataclass
class BenchCell:
    label: str
    n: int
    d0: int | None
    d1: int | None
    agg: str | None
    wire_bits: int
    wire_rounds: int
    hybrid_bits: int
    phases: list


def _seeded(i=0) -> Session:
    return Session(101 + i, 202 + i, 303 + i)


def measure_osn(n: int, width: int = 64) -> BenchCell:
    sess = _seeded(n)
    rng = np.random.default_rng(n)
    pi = rng.permutation(n).astype(np.int64) + 1
    x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
    with sess.phase("osn"):
        ob.osn_plain(sess, 0, pi, [ob.PlainColumn(x, sh.ARITH, width)])
    t = sess.transcript
    return BenchCell("osn", n, None, None, None, t.wire_bits, t.wire_rounds,
                     t.hybrid_bits, t.phase_shapes())


def measure_perm(n: int, shared: bool) -> BenchCell:
    sess = _seeded(n + (1 if shared else 0))
    rng = np.random.default_rng(n)
    pi = rng.permutation(n).astype(np.int64) + 1
    x = rng.integers(0, 1 << 64, n, dtype=np.uint64)
    piv = sh.share_vec(sess, 0, pi, sh.ARITH)
    start = sess.transcript.wire_bits
    if shared:
        xsv = sh.share_vec(sess, 1, x, sh.ARITH)
        start = sess.transcript.wire_bits
        ob.perm_shared(sess, piv, [xsv])
    else:
        ob.perm_plain(sess, piv, 1, [ob.PlainColumn(x)])
    t = sess.transcript
    label = "perm_shared" if shared else "perm_plain"
    return BenchCell(label, n, None, None, None, t.wire_bits - start,
                     t.wire_rounds, t.hybrid_bits, [])


def _grid_tables(n: int, d0: int, d1: int, seed: int = 9):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.arange(1, 2 * n + 1))[:n]
    r0 = Relation("A", {"k": keys,
                        "g0": rng.integers(0, d0, n),
                        "v0": rng.integers(0, 1000, n)}, "k")
    keys1 = rng.permutation(np.arange(1, 2 * n + 1))[:n]
    r1 = Relation("B", {"k": keys1,
                        "g1": rng.integers(0, d1, n),
                        "v1": rng.integers(0, 1000, n)}, "k")
    return r0, r1


def measure_ga(protocol: str, n: int, d0: int, d1: int,
               agg: str = "sum") -> BenchCell:
    """One protocol's query of `agg` over v0, grouped on g0 and g1 (on g1
    alone for the one-side shortcut), on a level-0 view of n-row tables."""
    r0, r1 = _grid_tables(n, d0, d1)
    sess = _seeded(n + d0)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    run = _seeded(n + d0 + 17)
    q = JgaQuery(None if protocol == "oneside" else "g0", "g1",
                 [(0, "v0", agg)], protocol=protocol,
                 dom0=list(range(d0)), dom1=list(range(d1)))
    ga.PROTOCOLS[protocol](run, v0, v1, q)
    t = run.transcript
    return BenchCell(protocol, n, d0, d1, agg, t.wire_bits, t.wire_rounds,
                     t.hybrid_bits, t.phase_shapes())


def measure_view_gen(level: int, n: int) -> BenchCell:
    r0, r1 = _grid_tables(n, 4, 4)
    sess = _seeded(level)
    vw.GENERATORS[level](sess, r0, r1)
    t = sess.transcript
    return BenchCell(f"viewgen-l{level}", n, None, None, None, t.wire_bits,
                     t.wire_rounds, t.hybrid_bits, t.phase_shapes())


def bsorting_bitmap_phase_bits(n: int, d0: int) -> int:
    """Wire bits of the d0-dependent phases of the bitmap-assisted sort."""
    r0, r1 = _grid_tables(n, d0, 4)
    sess = _seeded(d0)
    v0, v1 = vw.gen_psiv(sess, r0, r1)
    run = _seeded(d0 + 31)
    q = JgaQuery("g0", "g1", [(0, "v0", "sum")], dom0=list(range(d0)),
                 dom1=list(range(4)))
    ga.ga_bsorting(run, v0, v1, q)
    t = run.transcript
    return (t.bits_for("bitmap-mask") + t.bits_for("osn-bitmap")
            + t.bits_for("bitsort"))


def run_grid(cells_spec: list[dict]) -> tuple[list[BenchCell], list[str]]:
    """Run an explicit grid of cells; per-cell errors are reported, not fatal.

    Each cell: {"protocol": <name|osn|viewgen-lN>, "n": int,
                "d0": int, "d1": int, "agg": str}.
    """
    cells, notes = [], []
    for spec in cells_spec:
        proto = spec["protocol"]
        n = int(spec.get("n", 64))
        try:
            if proto == "osn":
                cells.append(measure_osn(n))
            elif proto.startswith("viewgen-l"):
                cells.append(measure_view_gen(int(proto[-1]), n))
            elif proto in ("perm_plain", "perm_shared"):
                cells.append(measure_perm(n, shared=proto == "perm_shared"))
            else:
                cells.append(measure_ga(proto, n, int(spec.get("d0", 4)),
                                        int(spec.get("d1", 4)),
                                        spec.get("agg", "sum")))
        except Exception as exc:  # surfaced per cell
            notes.append(f"cell {spec}: {type(exc).__name__}: {exc}")
    return cells, notes


def default_report() -> tuple[list[BenchCell], list[str]]:
    """The default grid plus the scaling-law ratio lines."""
    cells = []
    osn = {n: measure_osn(n) for n in (256, 1024)}
    cells += list(osn.values())
    pp = measure_perm(256, shared=False)
    ps = measure_perm(256, shared=True)
    cells += [pp, ps]
    bm = {d: measure_ga("bitmap", 64, d, d) for d in (4, 8)}
    cells += list(bm.values())
    vg = {lvl: measure_view_gen(lvl, 64) for lvl in (0, 1, 2)}
    cells += list(vg.values())
    ratios = [
        f"osn bits n=1024 / n=256: "
        f"{osn[1024].wire_bits / osn[256].wire_bits:.3f} (law n log n, ~5)",
        f"perm_plain / perm_shared bits at n=256: "
        f"{pp.wire_bits / ps.wire_bits:.3f} (law ~0.5)",
        f"bitmap GA bits (8,8)/(4,4) at n=64: "
        f"{bm[8].wire_bits / bm[4].wire_bits:.3f} (law d0*d1, ~4)",
        f"view gen bits level0 < level2: "
        f"{vg[0].wire_bits} < {vg[2].wire_bits}",
    ]
    return cells, ratios


def report_csv(cells: list[BenchCell]) -> str:
    lines = ["label,n,d0,d1,agg,wire_bits,wire_rounds,hybrid_bits,"
             "phase_bits_rounds"]
    for c in cells:
        per_phase = ";".join(f"{label}:{sum(bits)}:{rounds}"
                             for label, bits, rounds, _h in c.phases)
        lines.append(f"{c.label},{c.n},{c.d0 or ''},{c.d1 or ''},"
                     f"{c.agg or ''},{c.wire_bits},{c.wire_rounds},"
                     f"{c.hybrid_bits},{per_phase}")
    return "\n".join(lines) + "\n"


def report_markdown(cells: list[BenchCell], ratios: list[str]) -> str:
    out = ["| protocol | n | d0 | d1 | agg | wire bits | rounds | hybrid bits |",
           "|---|---|---|---|---|---|---|---|"]
    for c in cells:
        out.append(f"| {c.label} | {c.n} | {c.d0 or ''} | {c.d1 or ''} | "
                   f"{c.agg or ''} | {c.wire_bits} | {c.wire_rounds} | "
                   f"{c.hybrid_bits} |")
    out.append("")
    for r in ratios:
        out.append(f"- {r}")
    return "\n".join(out) + "\n"
