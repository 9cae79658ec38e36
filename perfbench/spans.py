"""Layer spans for the traced benchmark run.

`Tracer.install` replaces public functions of the engine's layers with
wrappers, at the name each caller looks them up by (for example
`oblivious.build_program`, which `oblivious.py` imports by name, or the
`ga.PROTOCOLS` table that `run_query` dispatches through). A span holds its
name, start, end, parent span and operation id, and reads the session
transcript counters (wire bits, rounds, hybrid bits) at entry and exit when
the call has a session. Per-name totals feed the per-layer metrics;
complete spans are kept for set-up and the first operation only, so the
trace file stays small.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter_ns

from secjoin import benes, cli, dealer, ga, oblivious, oracle, session
from secjoin import setops, sharing, store, views

KEPT_SPAN_CAP = 200_000

OBLIVIOUS = ("osn_shared", "osn_plain", "shuffle", "perm_shared", "invp_shared",
             "perm_plain", "invp_plain", "per_gen", "bit_sort", "stable_sort",
             "adjacent_same_flags", "trav_flags")
OBLIVIOUS_TRAFFIC = ("osn_shared", "stable_sort", "bit_sort", "trav_flags")
GATES = ("mul", "and_bits", "eq", "gt", "mux", "a2b", "b2a", "b2a_wide",
         "asym_mul", "share_vec", "open_vec")
CORRELATIONS = ("triples_arith", "triples_bin", "dabits", "dabits_packed",
                "edabits", "random_ots")
PROTOCOLS = ("sorting", "osorting", "bsorting", "mix", "bitmap", "oneside")
# the Dealer argument that multiplies n, with its default where it has one
PER_ELEMENT = {"triples_bin": ("width", None), "dabits_packed": ("width", None),
               "edabits": ("width", 64), "random_ots": ("words", 1)}
STORE = ("view_to_bytes", "view_from_bytes", "relation_from_csv",
         "updates_from_csv")


# -- what a span reads from its call ------------------------------------------

def _sess_transcript(args, kwargs):
    sess = args[0] if args else kwargs.get("sess")
    return sess.transcript


def _self_transcript(args, kwargs):
    return args[0].transcript


def _elems(pos):
    def count(args, kwargs, result):
        return {"elems": len(args[pos])}
    return count


def _switches(args, kwargs, result):
    return {"switches": result.num_switches}


def _osn_payload(args, kwargs, result):
    """Bits the OSN must carry per switch: two values per column at its width."""
    pi, cols = args[2], args[3]
    m = 1 << max(len(pi) - 1, 0).bit_length()
    return {"payload_bits": benes.expected_switches(m) * 2
            * sum(c.width for c in cols)}


def _correlations(kind):
    """Units handed out: triples, bit-triples, daBits, edaBit bits or OT pads
    (one pad is one uint64 word of each of the two messages)."""
    def count(args, kwargs, result):
        n = args[1]
        if kind in PER_ELEMENT:
            arg, default = PER_ELEMENT[kind]
            n *= args[2] if len(args) > 2 else kwargs.get(arg, default)
        return {"handed_out": n}
    return count


def _digest_bytes(args, kwargs, result):
    if len(args) == 4:  # note_send(self, src, bits, payload)
        return {"digest_bytes": len(args[3])}
    return {"digest_bytes": len(args[3]) + len(args[4])}


def _targets():
    """(owner, attribute or key, span name, layer, transcript reader, counts)."""
    out = [(oblivious, "build_program", "benes.build_program", "benes", None,
            _switches)]
    for fn in OBLIVIOUS:
        counts = _osn_payload if fn in ("osn_shared", "osn_plain") else None
        out.append((oblivious, fn, f"oblivious.{fn}", "oblivious",
                    _sess_transcript, counts))
    for fn in GATES:
        pos = 2 if fn in ("asym_mul", "share_vec") else 1
        out.append((sharing, fn, f"sharing.{fn}", "sharing", _sess_transcript,
                    _elems(pos)))
    for kind in CORRELATIONS:
        out.append((dealer.Dealer, kind, f"dealer.{kind}", "dealer",
                    _self_transcript, _correlations(kind)))
    out.append((setops, "f_cpsi", "setops.f_cpsi", "setops", _sess_transcript,
                None))
    for fn in ("gen_secv", "gen_pkfk", "refresh_pkfk"):
        out.append((views, fn, f"views.{fn}", "views", _sess_transcript, None))
    # gen_pkfk and the CLI reach gen_secv through the GENERATORS table
    out.append((views.GENERATORS, views.LEVEL_SEC, "views.gen_secv", "views",
                _sess_transcript, None))
    for name in PROTOCOLS:
        out.append((ga.PROTOCOLS, name, f"ga.{name}", "ga", _sess_transcript,
                    None))
    for fn in STORE:
        out.append((store, fn, f"store.{fn}", "store", None, None))
    for fn in ("cmd_refresh", "cmd_query"):
        out.append((cli, fn, f"cli.{fn}", "cli", None, None))
    out.append((oracle, "eval_jga", "oracle.eval_jga", "cli", None, None))
    for method in ("note_send", "note_exchange"):
        out.append((session.Transcript, method, "session.transcript", "session",
                    None, _digest_bytes))
    out.append((session.RandPool, "u64", "session.randpool", "session", None,
                None))
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class _Total:
    __slots__ = ("calls", "incl_ns", "self_ns", "wire", "rounds", "dealer",
                 "counts")

    def __init__(self):
        self.calls = self.incl_ns = self.self_ns = 0
        self.wire = self.rounds = self.dealer = 0
        self.counts: dict[str, int] = {}


class Tracer:
    """Records spans while installed; `op` tags the spans that follow."""

    def __init__(self):
        self.op = "setup"
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.totals: dict[tuple[str, str], _Total] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._epoch = perf_counter_ns()

    # -- patching -------------------------------------------------------------

    def install(self):
        for owner, key, name, layer, reader, counts in _targets():
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, name, layer, reader, counts))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def _wrap(self, fn, name, layer, reader, counts):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tr = reader(args, kwargs) if reader else None
            c0 = (tr.wire_bits, tr.wire_rounds, tr.hybrid_bits) if tr else None
            parent = tracer._stack[-1] if tracer._stack else None
            # frame: id, parent id, child ns, same-layer child traffic, layer
            frame = [tracer._next_id, parent[0] if parent else None, 0,
                     [0, 0, 0], layer]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
            c1 = (tr.wire_bits, tr.wire_rounds, tr.hybrid_bits) if tr else None
            tracer._close(frame, parent, name, layer, start, end, c0, c1,
                          counts(args, kwargs, result) if counts else None)
            return result

        return span

    def _close(self, frame, parent, name, layer, start, end, c0, c1, counts):
        dur = end - start
        traffic = [b - a for a, b in zip(c0, c1)] if c0 else [0, 0, 0]
        if parent is not None:
            parent[2] += dur
            if parent[4] == layer:
                for k in range(3):
                    parent[3][k] += traffic[k]
        bucket = "setup" if self.op == "setup" else "ops"
        tot = self.totals.get((bucket, name))
        if tot is None:
            tot = self.totals[(bucket, name)] = _Total()
        tot.calls += 1
        tot.incl_ns += dur
        tot.self_ns += dur - frame[2]
        tot.wire += traffic[0] - frame[3][0]
        tot.rounds += traffic[1] - frame[3][1]
        tot.dealer += traffic[2] - frame[3][2]
        if counts:
            for key, val in counts.items():
                tot.counts[key] = tot.counts.get(key, 0) + val
        if self.op == "setup" or self.op == 0:
            if len(self.spans) < KEPT_SPAN_CAP:
                self.spans.append([frame[0], name, frame[1], self.op,
                                   start - self._epoch, end - self._epoch,
                                   list(c0) if c0 else None,
                                   list(c1) if c1 else None])
            else:
                self.spans_dropped += 1

    # -- results --------------------------------------------------------------

    def total(self, name: str, bucket: str = "ops") -> _Total:
        return self.totals.get((bucket, name)) or _Total()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric; see METRICS for what each one is."""
        return {metric: (fn(self, ops), unit) for metric, unit, fn in METRICS}

    def dump(self, path: str, extra: dict):
        summary = {}
        for (bucket, name), t in sorted(self.totals.items()):
            summary.setdefault(bucket, {})[name] = {
                "calls": t.calls, "incl_s": t.incl_ns / 1e9,
                "self_s": t.self_ns / 1e9, "self_wire_bits": t.wire,
                "self_rounds": t.rounds, "self_hybrid_bits": t.dealer,
                **t.counts}
        doc = dict(extra)
        doc.update({
            "span_fields": ["id", "name", "parent", "op", "start_ns", "end_ns",
                            "counters_in", "counters_out"],
            "counter_fields": ["wire_bits", "wire_rounds", "hybrid_bits"],
            "spans": self.spans, "spans_dropped": self.spans_dropped,
            "summary": summary})
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- per-layer metrics ---------------------------------------------------------
# Each is a value per measured operation, except the OSN ratio and the set-up
# time of the views layer, which are per run.

def _self_s(name):
    return lambda t, ops: t.total(name).self_ns / 1e9 / ops


def _incl_s(name):
    return lambda t, ops: t.total(name).incl_ns / 1e9 / ops


def _calls(name):
    return lambda t, ops: t.total(name).calls / ops


def _count(name, key, scale=1):
    return lambda t, ops: t.total(name).counts.get(key, 0) / scale / ops


def _traffic(name, field, scale):
    return lambda t, ops: getattr(t.total(name), field) / scale / ops


def _osn_ratio(t, ops):
    osn = [t.total("oblivious.osn_shared"), t.total("oblivious.osn_plain")]
    payload = sum(x.counts.get("payload_bits", 0) for x in osn)
    return sum(x.dealer for x in osn) / payload if payload else 0.0


def _dealer_self_s(t, ops):
    return sum(t.total(f"dealer.{k}").self_ns for k in CORRELATIONS) / 1e9 / ops


def _views_setup_s(t, ops):
    return sum(t.total(f"views.{fn}", "setup").self_ns
               for fn in ("gen_secv", "gen_pkfk", "refresh_pkfk")) / 1e9


METRICS = [
    ("benes.build_program.self_s", "s", _self_s("benes.build_program")),
    ("benes.build_program.calls", "count", _calls("benes.build_program")),
    ("benes.switches", "count", _count("benes.build_program", "switches")),
]
METRICS += [(f"oblivious.{fn}.self_s", "s", _self_s(f"oblivious.{fn}"))
            for fn in OBLIVIOUS]
for _fn in OBLIVIOUS_TRAFFIC:
    METRICS += [
        (f"oblivious.{_fn}.wire_mbit", "Mbit",
         _traffic(f"oblivious.{_fn}", "wire", 1e6)),
        (f"oblivious.{_fn}.rounds", "count",
         _traffic(f"oblivious.{_fn}", "rounds", 1)),
        (f"oblivious.{_fn}.dealer_mbit", "Mbit",
         _traffic(f"oblivious.{_fn}", "dealer", 1e6)),
    ]
METRICS.append(("oblivious.osn.dealer_bits_per_payload_bit", "ratio",
                _osn_ratio))
for _fn in GATES:
    METRICS += [(f"sharing.{_fn}.self_s", "s", _self_s(f"sharing.{_fn}")),
                (f"sharing.{_fn}.calls", "count", _calls(f"sharing.{_fn}")),
                (f"sharing.{_fn}.elems", "count",
                 _count(f"sharing.{_fn}", "elems"))]
METRICS += [(f"dealer.{k}", "count", _count(f"dealer.{k}", "handed_out"))
            for k in CORRELATIONS]
METRICS += [
    ("dealer.self_s", "s", _dealer_self_s),
    ("setops.f_cpsi.self_s", "s", _self_s("setops.f_cpsi")),
    ("views.gen_secv.self_s", "s", _self_s("views.gen_secv")),
    ("views.gen_pkfk.self_s", "s", _self_s("views.gen_pkfk")),
    ("views.refresh_pkfk.self_s", "s", _self_s("views.refresh_pkfk")),
    ("views.setup_self_s", "s", _views_setup_s),
]
for _p in PROTOCOLS:
    METRICS += [(f"ga.{_p}.s", "s", _incl_s(f"ga.{_p}")),
                (f"ga.{_p}.self_s", "s", _self_s(f"ga.{_p}"))]
METRICS += [(f"store.{fn}.self_s", "s", _self_s(f"store.{fn}")) for fn in STORE]
METRICS += [
    ("cli.cmd_refresh.self_s", "s", _self_s("cli.cmd_refresh")),
    ("cli.cmd_query.self_s", "s", _self_s("cli.cmd_query")),
    ("oracle.eval_jga.self_s", "s", _self_s("oracle.eval_jga")),
    ("session.transcript.self_s", "s", _self_s("session.transcript")),
    ("session.digest_mbyte", "MB",
     _count("session.transcript", "digest_bytes", 1e6)),
    ("session.randpool.self_s", "s", _self_s("session.randpool")),
]
