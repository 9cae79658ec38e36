"""Run one benchmark workload against the secjoin engine in ./src.

    python3 perfbench/run.py --workload view_gen --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The workload runs whole operations
until `--seconds` have passed, checks every output, and prints one JSON
object as the last line of standard output: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` the engine's layers are wrapped in spans, the spans
go to .perfbench_out/trace-<workload>-seed<seed>.json, and the metrics are
the per-layer ones. Single process, single thread, no sockets.
"""
import time

PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOAD_NAMES = ("view_gen", "jga_sort", "jga_bitmap", "pkfk_refresh")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

# Times are scaled to a reference host speed: a fixed kernel runs before the
# first operation and once per CAL_EVERY_S of operation time after each one,
# and setup_s and op_s are the set-up time and the median operation time
# times CAL_REFERENCE_S / (median kernel time). On a shared host whose speed
# drifts by tens of percent over tens of seconds this keeps them comparable
# between runs; the raw figures are printed as well.
CAL_REFERENCE_S = 0.02
CAL_EVERY_S = 0.2

# Modelled links: time = op_s + wire bits / bandwidth + rounds * one-way latency
LAN_BITS_PER_S, LAN_LATENCY_S = 10e9, 0.1e-3
WAN_BITS_PER_S, WAN_LATENCY_S = 100e6, 40e-3

END_TO_END = {  # name -> unit
    "setup_s": "s", "op_s": "s", "wire_mbit_per_op": "Mbit",
    "rounds_per_op": "count", "dealer_mbit_per_op": "Mbit",
    "lan_s_per_op": "s", "wan_s_per_op": "s", "peak_rss_mib": "MiB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_engine(root: str):
    """Put the checkout's src/ first on the path; refuse any other secjoin."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "secjoin", "__init__.py")):
        raise SystemExit(f"error: no secjoin sources under {src}; "
                         "run from the root of a secjoin checkout")
    sys.path.insert(0, src)
    import secjoin
    if os.path.dirname(os.path.abspath(secjoin.__file__)) != \
            os.path.join(os.path.abspath(src), "secjoin"):
        raise SystemExit(f"error: imported secjoin from {secjoin.__file__}")


def calibrate() -> float:
    """Seconds taken by a fixed Python and numpy kernel; tracks host speed."""
    import numpy as np
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    a = rng.integers(0, 1 << 63, 1 << 14, dtype=np.uint64)
    acc = 0
    for i in range(60_000):
        acc += i * i
    for _ in range(40):
        b = a[rng.permutation(len(a))] ^ a
        np.where(b & np.uint64(1), a, b)
    return time.perf_counter() - start


def end_to_end(ops, raw_setup_s: float, speed: float) -> dict:
    """`speed` scales measured times to the reference host speed."""
    med = statistics.median
    return {
        "setup_s": raw_setup_s * speed,
        "op_s": med([o.seconds for o in ops]) * speed,
        "wire_mbit_per_op": med([o.wire_bits for o in ops]) / 1e6,
        "rounds_per_op": med([o.rounds for o in ops]),
        "dealer_mbit_per_op": med([o.hybrid_bits for o in ops]) / 1e6,
        "lan_s_per_op": med([o.seconds * speed + o.wire_bits / LAN_BITS_PER_S
                             + o.rounds * LAN_LATENCY_S for o in ops]),
        "wan_s_per_op": med([o.seconds * speed + o.wire_bits / WAN_BITS_PER_S
                             + o.rounds * WAN_LATENCY_S for o in ops]),
        "peak_rss_mib": peak_rss_mib(),
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process image, in MiB.

    `ru_maxrss` would also count the high-water mark of the process that
    started this one, which Linux carries across fork and exec; the VmHWM
    line of /proc/self/status counts this image alone.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        sizes=None) -> dict:
    """Run one workload; returns the result object (without printing it)."""
    import spans
    import workloads

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[workload](seed, sizes or workloads.FULL,
                                       os.path.join(root, WORK_DIR))
    try:
        wl.setup()
        raw_setup_s = time.perf_counter() - PROCESS_START
        wl.prepare()
        ops, problems, failed = [], [], 0
        cals = [calibrate()]
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            if tracer:
                tracer.op = i
            try:
                op = wl.run_op(i)
            except Exception:  # one failed operation; the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                cals.append(calibrate())
            else:
                ops.append(op)
                problems += [f"op {i}: {p}" for p in op.problems]
                cals += [calibrate() for _ in
                         range(math.ceil(op.seconds / CAL_EVERY_S))]
            i += 1
            if i % wl.round_size == 0 and time.perf_counter() >= deadline:
                break
    finally:
        wl.close()
        if tracer:
            tracer.uninstall()
    if not ops:
        raise RuntimeError(f"all {i} operations failed")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    raw_op_s = statistics.median(o.seconds for o in ops)
    speed = CAL_REFERENCE_S / statistics.median(cals)
    print(f"raw set-up time {raw_setup_s:.6f} s; {len(ops)} operations; "
          f"raw median op time {raw_op_s:.6f} s; host speed factor "
          f"{speed:.4f}")
    if tracer:
        layer = tracer.metrics(len(ops))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        path = os.path.join(root, OUT_DIR, f"trace-{workload}-seed{seed}.json")
        traced_op_s = raw_op_s * speed
        tracer.dump(path, {"workload": workload, "seed": seed, "ops": len(ops),
                           "op_s": traced_op_s, "raw_op_s": raw_op_s,
                           "per_layer": {k: v["value"] for k, v in metrics.items()}})
        print(f"trace written to {path}; traced op_s {traced_op_s:.6f}")
    else:
        values = end_to_end(ops, raw_setup_s, speed)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": not problems, "attempted": i, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    import_engine(root)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
