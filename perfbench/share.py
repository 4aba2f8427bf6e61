"""One share of a benchmark run, in a fresh process.

run.py starts several of these one after another and pools what they
print. A share imports the library from src/ of this checkout, sets its
workload up once, makes one untimed reference pass over the fixed input set
(expected outputs, oks_ap, exact counts), then runs ops in a closed loop for
its slice of the run time and checks each op against the reference. It
prints one JSON object on stdout and exits 0, or 1 when a check failed.

    python3 perfbench/share.py --workload decode_crowd --seed 0 --seconds 5 --trace 0 --index 0
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "wbpose" / "__init__.py").is_file():
    sys.exit(f"perfbench: no wbpose sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
import wbpose  # noqa: E402

if Path(wbpose.__file__).resolve().parent != SRC / "wbpose":
    sys.exit(f"perfbench: imported wbpose from {wbpose.__file__}, not {SRC}")

from tracer import Tracer  # noqa: E402
from workloads import IMAGE_SIZE, WORKLOADS, Context, TrainWorkload  # noqa: E402
from wbpose.encoder import map_shape  # noqa: E402
from wbpose.skeleton import default_manifest_path, load_topology  # noqa: E402


def measure(name: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    import_s = time.perf_counter() - T_PROCESS
    tracer = Tracer(enabled=trace)
    workload = WORKLOADS[name]()

    t0 = time.perf_counter()
    with tracer.span("skeleton.load"):
        topo = load_topology(default_manifest_path())
    ctx = Context(topo=topo, seed=seed, tracer=tracer)
    items = workload.setup(ctx)
    setup_s = import_s + time.perf_counter() - t0

    tracer.phase = "check"
    ref = workload.reference(ctx, items)
    failures = list(ref.failures)

    # Collector pauses are part of what a caller pays, so the collector
    # stays on; freezing the set-up objects keeps full collections from
    # rescanning them on every op.
    gc.collect()
    gc.freeze()
    tracer.phase = "op"
    plain: dict[int, list[int]] = {}  # crowd size -> untraced op times
    traced: list[int] = []
    failed = 0
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    done = 0
    # Op ids key the scenes train_targets draws; each share starts its own
    # range, so the shares of a run see different scenes.
    first_op = index * 1_000_000
    min_ops = (2 if trace else 1) * len(items)  # a traced run needs a plain round too
    while done < min_ops or time.perf_counter() < deadline:
        # Whole rounds over the fixed input set, so every crowd size keeps
        # its share of ops; traced runs alternate traced and plain rounds.
        tracer.enabled = trace and (done // len(items)) % 2 == 0
        for item in items:
            tracer.op_id = first_op + done
            with tracer.span("op", n=item.n_people):
                t_op = time.perf_counter_ns()
                out = workload.op(ctx, item, first_op + done)
                elapsed = time.perf_counter_ns() - t_op
            tracer.phase = "check"
            if not workload.check(ctx, item, out):
                failed += 1
            tracer.phase = "op"
            if tracer.enabled:
                traced.append(elapsed)
            else:
                plain.setdefault(item.n_people, []).append(elapsed)
            done += 1
    loop_s = time.perf_counter() - loop_start
    gc.unfreeze()
    tracer.op_id = None

    if trace and index == 0 and not isinstance(workload, TrainWorkload):
        # The decode workloads never call the scheduler or the loss, and
        # decode_noisy has one crowd size: one traced pass of the
        # train_targets chain over the crowd sizes gives those layers and
        # sizes a measured value on every workload.
        tracer.enabled, tracer.phase = True, "ladder"
        ladder = TrainWorkload()
        failures += ladder.reference(ctx, ladder.setup(ctx)).failures

    share = {
        "import_s": import_s,
        "setup_s": setup_s,
        "loop_s": loop_s,
        "attempted": done + len(items),
        "failed": failed + len(failures),
        "ops": done,
        "ops_failed": failed,
        "failures": failures,
        "oks_ap": ref.oks_ap,
        "counts": ref.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "map_shape": list(map_shape(IMAGE_SIZE, ctx.enc.stride)),
            "noise_sigma": workload.noise_sigma,
            "crowd_cycle": list(workload.crowd_cycle),
        },
        "plain_ns": plain,
        "traced_ns": traced,
    }
    if trace:
        own = tracer.self_times_ns()
        share["spans"] = [
            {"name": s.name, "phase": s.phase, "dur_ns": s.duration_ns, "self_ns": t, "attrs": s.attrs}
            for s, t in zip(tracer.spans, own)
        ]
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}-share{index}.json")
    return share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--index", type=int, required=True)
    args = ap.parse_args(argv)
    share = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.index)
    print(json.dumps(share))
    return 0 if share["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
