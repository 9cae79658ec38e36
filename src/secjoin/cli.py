"""Command-line front end: view lifecycle, query execution, benchmarks.

Exit codes: 0 ok, 1 verification mismatch, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from . import ga, oracle
from . import store
from . import views as vw
from .errors import ParseError, SecJoinError
from .ga import JgaQuery
from .session import Session

DEFAULT_SEEDS = (11, 22, 33)


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_tables(spec: dict) -> None:
    """`ParseError` naming the field unless the table paths and join keys
    are strings: `open` would take an integer path as a file descriptor."""
    for field in ("table0", "table1", "key0", "key1"):
        if not isinstance(spec.get(field), str):
            raise ParseError(f"spec {field} must be a string, not "
                             f"{spec.get(field)!r}")


def _int_list(spec: dict, field: str, size: int | None = None) -> list | None:
    """The spec's list of integers in [0, 2^64) under `field`, if any;
    `ParseError` naming the field for any other value."""
    value = spec.get(field)
    if value is not None and not (
            isinstance(value, list) and (size is None or len(value) == size)
            and all(type(v) is int and 0 <= v < 1 << 64 for v in value)):
        count = f"{size} " if size else ""
        raise ParseError(f"spec {field} must be a list of {count}integers in "
                         f"[0, 2^64), not {value!r}")
    return value


def _seeds(spec: dict, args) -> tuple[int, int, int]:
    return tuple(s if flag is None else flag for s, flag in zip(
        _int_list(spec, "seeds", 3) or DEFAULT_SEEDS,
        (args.seed0, args.seed1, args.seedD)))


def _tables(spec: dict, join: str):
    r0 = store.relation_from_csv(spec["table0"], "R0", spec["key0"], "pk")
    r1 = store.relation_from_csv(spec["table1"], "R1", spec["key1"],
                                 "fk" if join == "pkfk" else "pk")
    return r0, r1


def _query(spec: dict, args) -> JgaQuery:
    """The spec's query; `ParseError` naming the field on a group, aggregate
    list, domain or protocol of the wrong JSON type or value."""
    for field in ("group0", "group1"):
        group = spec.get(field)
        if group is not None and not isinstance(group, str):
            raise ParseError(f"spec {field} must be a column name, not {group!r}")
    aggs = spec.get("aggs", [])
    if not isinstance(aggs, list) or not all(
            isinstance(a, dict) and "side" in a and "fn" in a for a in aggs):
        raise ParseError(f"spec aggs must be a list of objects with a side and "
                         f"an fn, not {aggs!r}")
    aggs = [(a["side"], a.get("col"), a["fn"]) for a in aggs]
    protocol = args.protocol or spec.get("protocol", "auto")
    if protocol not in ("auto", *ga.PROTOCOLS):
        raise ParseError(f"spec protocol must be one of auto, "
                         f"{', '.join(ga.PROTOCOLS)}, not {protocol!r}")
    return JgaQuery(spec.get("group0"), spec.get("group1"), aggs,
                    protocol=protocol, dom0=_int_list(spec, "dom0"),
                    dom1=_int_list(spec, "dom1"))


def _view_paths(out_dir: str) -> tuple[str, str]:
    return (os.path.join(out_dir, "view_p0.bin"),
            os.path.join(out_dir, "view_p1.bin"))


def _load(spec: dict, args):
    """The tables read as the stored views' join kind, and the views;
    `ViewStale` unless the views still match the tables."""
    p0, p1 = _view_paths(args.views)
    v0, v1 = store.load_view(p0), store.load_view(p1)
    r0, r1 = _tables(spec, v0.kind)
    vw.check_base_keys(v0, v1, r0, r1)
    return r0, r1, v0, v1


def cmd_genview(args) -> int:
    spec = _load_spec(args.spec)
    _check_tables(spec)
    join = spec.get("join", "pkpk")
    if join not in ("pkpk", "pkfk"):
        raise ParseError(f"spec join must be 'pkpk' or 'pkfk', not {join!r}")
    level = args.level if args.level is not None else spec.get("level", 2)
    if type(level) is not int or level not in vw.GENERATORS:
        raise ParseError(f"spec level must be one of {sorted(vw.GENERATORS)}, "
                         f"not {level!r}")
    sess = Session(*_seeds(spec, args))
    r0, r1 = _tables(spec, join)
    if join == "pkfk":
        v0, v1 = vw.gen_pkfk(sess, r0, r1, level=level)
    else:
        v0, v1 = vw.GENERATORS[level](sess, r0, r1)
    os.makedirs(args.out, exist_ok=True)
    p0, p1 = _view_paths(args.out)
    store.save_view(v0, p0)
    store.save_view(v1, p1)
    print(f"view generated: kind={join} level={level} n_e={len(v0.pi)}")
    print(f"transcript: {sess.transcript.summary()}")
    print(f"phases: {sess.transcript.phase_labels()}")
    print(f"wrote {p0}, {p1}")
    return 0


def _rewrite_table(path: str, rel):
    rows = zip(*(c.tolist() for c in rel.columns.values()))
    lines = [",".join(rel.columns)] + [",".join(map(str, r)) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_refresh(args) -> int:
    spec = _load_spec(args.spec)
    _check_tables(spec)
    sess = Session(*_seeds(spec, args))
    r0, r1, v0, v1 = _load(spec, args)
    up0 = store.updates_from_csv(args.updates0) if args.updates0 else []
    up1 = store.updates_from_csv(args.updates1) if args.updates1 else []
    if v0.kind == "pkfk":
        v0, v1 = vw.refresh_pkfk(sess, v0, v1, r0, r1, up0, up1)
    else:
        vw.refresh_pkpk(v0, r0, up0)
        vw.refresh_pkpk(v1, r1, up1)
    _rewrite_table(spec["table0"], r0)
    _rewrite_table(spec["table1"], r1)
    p0, p1 = _view_paths(args.views)
    store.save_view(v0, p0)
    store.save_view(v1, p1)
    t = sess.transcript
    print(f"refresh done: wire_bits={t.wire_bits} hybrid_bits={t.hybrid_bits} "
          f"rounds={t.wire_rounds}")
    print(f"phases: {t.phase_labels()}")
    return 0


def cmd_query(args) -> int:
    spec = _load_spec(args.spec)
    _check_tables(spec)
    q = _query(spec, args)
    sess = Session(*_seeds(spec, args))
    r0, r1, v0, v1 = _load(spec, args)
    result = ga.run_query(sess, v0, v1, q)
    csv_text = result.to_csv(q.agg_labels())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    print(f"transcript: {sess.transcript.summary()}")
    if args.verify:
        expect = oracle.eval_jga(r0, r1, q)
        if result.rows != expect:
            print("VERIFY FAILED: secure result differs from plaintext oracle",
                  file=sys.stderr)
            print(f"  oracle: {expect}", file=sys.stderr)
            print(f"  secure: {result.rows}", file=sys.stderr)
            return 1
        print("verify: OK (matches plaintext oracle)")
    return 0


def cmd_bench(args) -> int:
    if args.grid:
        grid = _load_spec(args.grid)
        cells, ratios = bench_mod.run_grid(grid.get("cells", []))
    else:
        cells, ratios = bench_mod.default_report()
    csv_text = bench_mod.report_csv(cells)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    print(bench_mod.report_markdown(cells, ratios))
    return 0


DEMO_T0 = "k,g0,v0\n1,0,10\n2,1,20\n3,0,30\n4,1,40\n"
DEMO_T1 = "k,g1,v1\n3,5,7\n1,6,8\n9,5,9\n"


def cmd_demo(args) -> int:
    out = args.out or "demo"
    os.makedirs(out, exist_ok=True)
    t0 = os.path.join(out, "table0.csv")
    t1 = os.path.join(out, "table1.csv")
    with open(t0, "w") as fh:
        fh.write(DEMO_T0)
    with open(t1, "w") as fh:
        fh.write(DEMO_T1)
    spec = {
        "table0": t0, "table1": t1, "key0": "k", "key1": "k",
        "join": "pkpk", "group0": "g0", "group1": "g1",
        "aggs": [{"side": 0, "col": "v0", "fn": "sum"},
                 {"side": 1, "col": "v1", "fn": "max"}],
        "level": args.level if args.level is not None else 2,
        "protocol": args.protocol or "auto",
        "seeds": list(DEFAULT_SEEDS),
    }
    spec_path = os.path.join(out, "query.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=2)
    return (main(["genview", spec_path, "--out", out])
            or main(["query", spec_path, "--views", out, "--verify",
                     "--out", os.path.join(out, "result.csv")]))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="secjoin",
        description="two-party secure join views and group aggregation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_seeds(p):
        p.add_argument("--seed0", type=int)
        p.add_argument("--seed1", type=int)
        p.add_argument("--seedD", type=int)

    g = sub.add_parser("genview", help="materialize the join view")
    g.add_argument("spec")
    g.add_argument("--level", type=int, choices=(0, 1, 2))
    g.add_argument("--out", required=True)
    add_seeds(g)
    g.set_defaults(fn=cmd_genview, protocol=None)

    r = sub.add_parser("refresh", help="refresh views after payload updates")
    r.add_argument("spec")
    r.add_argument("--views", required=True)
    r.add_argument("--updates0")
    r.add_argument("--updates1")
    add_seeds(r)
    r.set_defaults(fn=cmd_refresh)

    qp = sub.add_parser("query", help="run a JGA query over stored views")
    qp.add_argument("spec")
    qp.add_argument("--views", required=True)
    qp.add_argument("--protocol",
                    choices=("auto", "sorting", "osorting", "bsorting",
                             "mix", "bitmap", "oneside"))
    qp.add_argument("--verify", action="store_true")
    qp.add_argument("--out")
    add_seeds(qp)
    qp.set_defaults(fn=cmd_query)

    b = sub.add_parser("bench", help="communication benchmark report")
    b.add_argument("--grid", help="JSON grid of cells; default grid otherwise")
    b.add_argument("--out")
    b.set_defaults(fn=cmd_bench)

    d = sub.add_parser("demo", help="end-to-end demo on toy tables")
    d.add_argument("--out")
    d.add_argument("--level", type=int, choices=(0, 1, 2))
    d.add_argument("--protocol")
    d.set_defaults(fn=cmd_demo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SecJoinError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
