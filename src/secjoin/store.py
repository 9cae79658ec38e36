"""Versioned binary containers for per-party view files and CSV tables."""
from __future__ import annotations

import csv
import io
import json
import struct

import numpy as np

from .errors import ParseError
from .views import PkFkView, PkPkView, Relation

MAGIC = b"SJVW1\n"


def _pack_arrays(arrays: dict[str, np.ndarray]) -> tuple[list, bytes]:
    index = []
    blob = io.BytesIO()
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr.astype(np.uint64, casting="unsafe"))
        index.append([name, len(a)])
        blob.write(a.tobytes())
    return index, blob.getvalue()


def view_to_bytes(view) -> bytes:
    if view.kind == "pkpk":
        header = {
            "kind": "pkpk", "party": view.party, "level": view.level,
            "key_col": view.key_col, "n_e": view.n_e,
            "codomain": view.codomain, "hash": view.base_key_hash,
            "j_cols": list(view.j.keys()),
        }
        arrays = {"pi": view.pi, "e": view.e_half}
        arrays.update({f"j:{c}": v for c, v in view.j.items()})
    else:
        header = {
            "kind": "pkfk", "party": view.party, "level": view.level,
            "key_col0": view.key_col0, "key_col1": view.key_col1,
            "n": view.n, "hash": view.base_key_hash,
            "j0_cols": list(view.j0_half.keys()),
            "j1_cols": list(view.j1.keys()) if view.j1 is not None else None,
        }
        arrays = {"pi": view.pi, "e": view.e_half, "map_e": view.map_e_half}
        arrays.update({f"j0:{c}": v for c, v in view.j0_half.items()})
        if view.j1 is not None:
            arrays.update({f"j1:{c}": v for c, v in view.j1.items()})
    index, blob = _pack_arrays(arrays)
    header["arrays"] = index
    head = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(head)) + head + blob


def view_from_bytes(data: bytes):
    """Parse a view container; any malformed or cut file raises ParseError."""
    if not data.startswith(MAGIC):
        raise ParseError("not a view container")
    off = len(MAGIC) + 4
    try:
        (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
        header = json.loads(data[off:off + hlen].decode())
        index = [(str(name), int(ln)) for name, ln in header["arrays"]]
        size = header["n_e" if header["kind"] == "pkpk" else "n"]
    except (struct.error, UnicodeDecodeError, ValueError, KeyError,
            TypeError) as exc:
        raise ParseError(f"view container header is malformed: {exc!r}") from None
    off += hlen
    arrays = {}
    for name, ln in index:
        if ln != size or ln < 0:
            raise ParseError(f"view array {name!r} has {ln} rows, not {size}")
        if off + 8 * ln > len(data):
            raise ParseError(f"view array {name!r} runs past the end of the file")
        arrays[name] = np.frombuffer(data[off:off + 8 * ln], dtype=np.uint64).copy()
        off += 8 * ln
    if off != len(data):
        raise ParseError(f"view container has {len(data) - off} trailing bytes")
    try:
        return _view(header, arrays)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"view container lacks {exc}") from None


def _view(header: dict, arrays: dict):
    if header["kind"] == "pkpk":
        return PkPkView(
            party=header["party"], level=header["level"],
            key_col=header["key_col"], n_e=header["n_e"],
            codomain=header["codomain"],
            pi=arrays["pi"].astype(np.int64), e_half=arrays["e"],
            j={c: arrays[f"j:{c}"] for c in header["j_cols"]},
            base_key_hash=header["hash"])
    j1 = None
    if header["j1_cols"] is not None:
        j1 = {c: arrays[f"j1:{c}"] for c in header["j1_cols"]}
    return PkFkView(
        party=header["party"], level=header["level"],
        key_col0=header["key_col0"], key_col1=header["key_col1"],
        n=header["n"], pi=arrays["pi"].astype(np.int64), e_half=arrays["e"],
        j0_half={c: arrays[f"j0:{c}"] for c in header["j0_cols"]},
        j1=j1, map_e_half=arrays["map_e"], base_key_hash=header["hash"])


def save_view(view, path: str):
    with open(path, "wb") as fh:
        fh.write(view_to_bytes(view))


def load_view(path: str):
    with open(path, "rb") as fh:
        return view_from_bytes(fh.read())


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _csv_rows(path: str) -> dict[str, np.ndarray]:
    """A CSV file's columns by header name, one contiguous uint64 array each.

    The first row is the header, of distinct names; blank rows are skipped;
    every other row has one cell per name, each a decimal integer in
    [0, 2^64).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = [h.strip() for h in rows[0]] if rows else []
    if not names:
        raise ParseError(f"{path}: no header row")
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: a header name repeats")
    body = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(names):
            raise ParseError(f"{path}:{lineno}: expected {len(names)} cells")
        try:
            vals = [int(cell) for cell in row]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer cell") from None
        if min(vals) < 0 or max(vals) >= 1 << 64:
            raise ParseError(f"{path}:{lineno}: value out of range")
        body.append(vals)
    cols = np.array(body, dtype=np.uint64).reshape(-1, len(names)).T.copy()
    return dict(zip(names, cols))


def relation_from_csv(path: str, name: str, key: str,
                      key_kind: str = "pk") -> Relation:
    """A table read by `_csv_rows`, joined on its column `key`."""
    cols = _csv_rows(path)
    if key not in cols:
        raise ParseError(f"{path}: key column {key!r} missing from header")
    return Relation(name, cols, key, key_kind)


def updates_from_csv(path: str) -> list[tuple[int, dict]]:
    """Update rows read by `_csv_rows`, header `idx,<col>[,...]`: each row
    rewrites those cells of the table's 1-based row idx."""
    cols = _csv_rows(path)
    names = list(cols)
    if names[0] != "idx":
        raise ParseError(f"{path}: first column must be 'idx'")
    return [(idx, dict(zip(names[1:], vals)))
            for idx, *vals in zip(*(c.tolist() for c in cols.values()))]
