"""Correctness checks the benchmark runs on every operation.

Nothing here imports `secjoin.oracle`: the join and group-by are computed
again from the generated tables, and the view checks test the properties a
PK-PK join view must have. Every check returns a list of problems; an empty
list means the output passed.
"""
from __future__ import annotations

import numpy as np

_MOD = 1 << 64


def join_group_by(t0: dict, key0: str, t1: dict, key1: str, query) -> list[tuple]:
    """Inner equi-join of t0 (primary key side) with t1, grouped and aggregated.

    Tables are dicts of equal-length integer columns. `query` has the fields of
    `secjoin.ga.JgaQuery` that define the answer: group0, group1 and aggs as
    (side, column, fn). Rows are (g0 or None, g1 or None, *aggregates), ordered
    by the present group columns, which is the engine's canonical order.
    """
    row_of = {int(k): i for i, k in enumerate(t0[key0])}
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for j, k in enumerate(t1[key1]):
        i = row_of.get(int(k))
        if i is None:
            continue
        g0 = int(t0[query.group0][i]) if query.group0 else None
        g1 = int(t1[query.group1][j]) if query.group1 else None
        groups.setdefault((g0, g1), []).append((i, j))
    rows = []
    for (g0, g1), pairs in groups.items():
        aggs = []
        for side, col, fn in query.aggs:
            if fn == "count":
                aggs.append(len(pairs))
                continue
            src = t0[col] if side == 0 else t1[col]
            vals = [int(src[i if side == 0 else j]) for i, j in pairs]
            if fn == "sum":
                aggs.append(sum(vals) % _MOD)
            elif fn == "max":
                aggs.append(max(vals))
            elif fn == "min":
                aggs.append(min(vals))
            else:
                raise ValueError(f"aggregate {fn!r} has no reference")
        rows.append((g0, g1, *aggs))
    rows.sort(key=lambda r: tuple(v for v in r[:2] if v is not None))
    return rows


def check_rows(label: str, got: list[tuple], want: list[tuple]) -> list[str]:
    if got == want:
        return []
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
               min(len(got), len(want)))
    return [f"{label}: {len(got)} rows, expected {len(want)}; first difference "
            f"at row {bad}: got {got[bad] if bad < len(got) else None}, "
            f"expected {want[bad] if bad < len(want) else None}"]


def check_pkpk_view(t0: dict, key0: str, t1: dict, key1: str,
                    view0, view1) -> list[str]:
    """Properties every PK-PK view of the two tables must have, at any level 2 size.

    Both index maps are permutations of [1..n_a], the reconstructed flag E is
    1 exactly where the two gathered keys are equal, E counts |X n Y|, and
    each party's transcript J is its table gathered through its index map
    (dummy slots carry zero payloads).
    """
    problems = []
    n_a = max(len(t0[key0]), len(t1[key1]))
    for u, view in ((0, view0), (1, view1)):
        pi = np.asarray(view.pi, dtype=np.int64)
        if len(pi) != n_a or not np.array_equal(np.sort(pi),
                                                np.arange(1, n_a + 1)):
            problems.append(f"pi{u} is not a permutation of [1..{n_a}]")
    if problems:
        return problems

    gathered, real = [], []
    for table, key, view in ((t0, key0, view0), (t1, key1, view1)):
        rows = np.asarray(view.pi, dtype=np.int64) - 1
        is_real = rows < len(table[key])
        safe = np.where(is_real, rows, 0)
        gathered.append(np.asarray(table[key], dtype=np.uint64)[safe])
        real.append(is_real)
    match = real[0] & real[1] & (gathered[0] == gathered[1])
    e = (np.asarray(view0.e_half) ^ np.asarray(view1.e_half)) & np.uint64(1)
    if not np.array_equal(e.astype(bool), match):
        slot = int(np.flatnonzero(e.astype(bool) != match)[0])
        problems.append(f"E[{slot}] = {int(e[slot])} but the gathered keys "
                        f"{'match' if match[slot] else 'differ'}")
    inter = len(np.intersect1d(np.asarray(t0[key0], dtype=np.uint64),
                               np.asarray(t1[key1], dtype=np.uint64)))
    if int(e.sum()) != inter:
        problems.append(f"E has {int(e.sum())} ones, |X n Y| = {inter}")

    for u, (table, view, is_real) in enumerate(((t0, view0, real[0]),
                                               (t1, view1, real[1]))):
        rows = np.asarray(view.pi, dtype=np.int64) - 1
        for col, base in table.items():
            base = np.asarray(base, dtype=np.uint64)
            j = view.j.get(col)
            if j is None or len(j) != n_a:
                problems.append(f"J{u}[{col}] missing or of wrong length")
                continue
            if not np.array_equal(j[is_real], base[rows[is_real]]):
                problems.append(f"J{u}[{col}] differs from its table "
                                "gathered through pi")
            if col != view.key_col and np.any(j[~is_real] != 0):
                problems.append(f"J{u}[{col}] has a non-zero dummy payload")
    return problems
