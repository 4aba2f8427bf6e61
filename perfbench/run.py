"""Benchmark of the wbpose synth -> encode -> decode -> eval chain.

    python3 perfbench/run.py --workload decode_crowd --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --trace 1

A run measures one workload (see workloads.py and interactions.json) in
SHARES fresh processes, one after another, each for an equal slice of
--seconds (share.py), and pools their op times. Op times on this kind of
shared machine shift by several percent from one process to the next and
stay shifted for the life of the process, so pooling a few processes is
what makes a run repeatable. Each share sets the workload up once, so
set-up time is the median over the shares, and peak RSS is that of a
process that ran only this workload.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced rounds of ops, and prints the per-layer metrics, each layer's self
time and the tracing overhead; spans go to perfbench/out/. `--workload all`
runs every workload in turn. Every run also writes a record with its
provenance to perfbench/out/. The last stdout line is one JSON result; the
exit code is non-zero when any check fails. The library is imported from
src/ of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 0
# Seed reserved for rechecking a claimed gain; never used while tuning.
HOLDOUT_SEED = 20191
SHARES = 4
MIN_OPS = 100
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CROWD_BUCKETS = (1, 5, 10, 20)  # the crowd sizes of the per-layer ".n<size>" metrics


class ShareFailed(RuntimeError):
    """A share crashed or printed no result."""


def load_spec() -> dict:
    """BENCHMARK.json names the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


def run_shares(name: str, seed: int, seconds: float, trace: int) -> list[dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    shares = []
    for index in range(SHARES):
        cmd = [sys.executable, str(BENCH_DIR / "share.py"), "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds / SHARES), "--trace", str(trace), "--index", str(index)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            shares.append(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            raise ShareFailed(f"{name} share {index} printed no result (exit {proc.returncode})") from None
    return shares


def provenance(name: str, seed: int, shares: list[dict]) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "wbpose").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC).as_posix().encode())
            src_hash.update(path.read_bytes())
    manifest = SRC / "wbpose" / "data" / "wholebody135.json"
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        "workload": name,
        "seed": seed,
        **shares[0]["inputs"],
        "shares": len(shares),
    }


def end_to_end(shares: list[dict]) -> dict:
    plain = ms(t for s in shares for times in s["plain_ns"].values() for t in times)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in shares),
        "op_ms_p50": statistics.median(plain),
        "op_ms_p90": quantile(plain, 0.9),
        "ops_per_s": sum(s["ops"] for s in shares) / sum(s["loop_s"] for s in shares),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in shares),
        "oks_ap": shares[0]["oks_ap"],
    }


def per_layer(name: str, shares: list[dict]) -> dict:
    """Per-layer statistics, pooled over the shares: from the spans of the
    timed ops; for a layer or crowd size the ops never reach, from the spans
    of set-up, the reference pass and the ladder pass. Counts are exact, from
    the reference pass."""
    op_spans, other_spans = defaultdict(list), defaultdict(list)
    for share in shares:
        for s in share["spans"]:
            (op_spans if s["phase"] == "op" else other_spans)[s["name"]].append(s)

    def spans(layer, n=None):
        for pool in (op_spans, other_spans):
            found = [s for s in pool[layer] if n is None or s["attrs"].get("n") == n]
            if found:
                return found
        raise KeyError(f"{name}: no spans for {layer} (n={n})")

    def dur(layer, n=None, key="dur_ns"):
        return ms(s[key] if key in s else s["attrs"][key] for s in spans(layer, n))

    def p50(layer, n=None, key="dur_ns"):
        return statistics.median(dur(layer, n, key))

    def p90(layer):
        return quantile(dur(layer), 0.9)

    counts = shares[0]["counts"]
    out = {
        "decoder.decode_ms_p50": p50("decoder.decode"),
        "decoder.decode_ms_p90": p90("decoder.decode"),
        "decoder.nms_ms_p50": p50("decoder.decode", key="nms_ns"),
        "decoder.scoring_ms_p50": p50("decoder.decode", key="scoring_ns"),
        "decoder.assembly_ms_p50": p50("decoder.decode", key="assembly_ns"),
    }
    for n in CROWD_BUCKETS:
        out[f"decoder.decode_ms_p50.n{n}"] = p50("decoder.decode", n)
    out["decoder.flat_ratio"] = out["decoder.decode_ms_p50.n20"] / out["decoder.decode_ms_p50.n1"]
    for key in ("candidates", "pairs", "pairs_valid", "valid_ratio", "poses", "poses_per_person"):
        out[f"decoder.{key}"] = counts[f"decoder.{key}"]
    out["encoder.confidence_ms_p50"] = p50("encoder.confidence")
    out["encoder.paf_ms_p50"] = p50("encoder.paf")
    out["encoder.paf_ms_p90"] = p90("encoder.paf")
    for n in CROWD_BUCKETS:
        out[f"encoder.paf_ms_p50.n{n}"] = p50("encoder.paf", n)
    out["encoder.masks_ms_p50"] = p50("encoder.masks")
    out["encoder.paf_cells"] = counts["encoder.paf_cells"]
    out["synth.generate_ms_p50"] = p50("synth.generate")
    out["synth.generate_ms_p90"] = p90("synth.generate")
    out["metrics.evaluate_ms_p50"] = p50("metrics.evaluate")
    out["metrics.evaluate_ms_p90"] = p90("metrics.evaluate")
    out["metrics.oks_pairs"] = counts["metrics.oks_pairs"]
    out["loss.multitask_ms_p50"] = p50("loss.multitask")
    out["formats.from_bytes_ms_p50"] = p50("formats.from_bytes")
    out["formats.to_bytes_ms_p50"] = p50("formats.to_bytes")
    out["formats.bytes"] = counts["formats.bytes"]
    out["scheduler.plan_batch_ms_p50"] = p50("scheduler.plan_batch")
    out["skeleton.load_ms"] = p50("skeleton.load")
    traced = statistics.median(ms(t for s in shares for t in s["traced_ns"]))
    out["trace.op_ms_p50"] = traced
    out["trace.overhead_ms"] = traced - end_to_end(shares)["op_ms_p50"]
    return out


def self_times(shares: list[dict]) -> dict:
    """Self time per layer over the traced ops, pooled: total ms and share."""
    totals, calls = defaultdict(int), defaultdict(int)
    for share in shares:
        for s in share["spans"]:
            if s["phase"] == "op":
                totals[s["name"]] += s["self_ns"]
                calls[s["name"]] += 1
    whole = sum(totals.values()) or 1
    return {
        layer: {"calls": calls[layer], "self_ms": totals[layer] / 1e6, "share": totals[layer] / whole}
        for layer in sorted(totals, key=totals.get, reverse=True)
    }


def run_one(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    shares = run_shares(name, seed, seconds, trace)
    failures = [f for s in shares for f in s["failures"]]
    # The reference pass is deterministic, so every share must agree on it.
    if any(s["oks_ap"] != shares[0]["oks_ap"] or s["counts"] != shares[0]["counts"] for s in shares):
        failures.append("reference pass differs between shares")
    ops = sum(s["ops"] for s in shares)
    ops_failed = sum(s["ops_failed"] for s in shares)
    result = {
        "correct": ops_failed == 0 and not failures,
        "attempted": sum(s["attempted"] for s in shares),
        "failed": ops_failed + len(failures),
    }
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(name, shares) if trace else end_to_end(shares)
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}

    print(f"# {name}: seed {seed}, {SHARES} processes, {ops} ops, reference failures: {failures or 'none'}")
    if ops < MIN_OPS:
        print(f"# warning: {ops} ops, fewer than {MIN_OPS}; use more --seconds")
    rows = [(m["name"], values[m["name"]], m["unit"], m["better"]) for m in metrics]
    if not trace:  # gated by the correctness checks rather than by a bound
        rows += [("oks_ap", values["oks_ap"], "AP", "higher"),
                 ("failed_frac", ops_failed / max(ops, 1), "1", "lower")]
    for metric, value, unit, better in rows:
        print(f"{name:14s} {metric:30s} {value:14.4f} {unit:6s} ({better} is better)")
    record = {
        "provenance": provenance(name, seed, shares),
        **result,
        "ops": ops,
        "failed_frac": ops_failed / max(ops, 1),
        "failures": failures,
        "end_to_end": end_to_end(shares),
        "op_ms_p50_by_crowd": {
            n: statistics.median(ms(t for s in shares for t in s["plain_ns"].get(n, [])))
            for n in shares[0]["plain_ns"]
        },
        "shares": [
            {**{k: v for k, v in s.items() if k not in ("spans", "plain_ns", "traced_ns")},
             "op_ms_p50": statistics.median(ms(t for times in s["plain_ns"].values() for t in times))}
            for s in shares
        ],
    }
    if trace:
        record["per_layer"] = values
        record["self_times"] = self_times(shares)
        print(f"# self time over the traced ops; tracing overhead {values['trace.overhead_ms']:+.3f} ms per op")
        for layer, row in record["self_times"].items():
            print(f"{name:14s} self {layer:25s} {row['self_ms']:12.1f} ms "
                  f"{100 * row['share']:5.1f}% over {row['calls']} calls")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"]}))
    return result


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "wbpose" / "__init__.py").is_file():
        print(f"perfbench: no wbpose sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace, spec) for n in chosen}
    except (ShareFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:  # metric names carry the workload as a prefix
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
