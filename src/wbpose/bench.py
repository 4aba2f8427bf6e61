"""Decode timing harness.

Times the decoder alone (scenes are generated and encoded once per grid
point, outside the clock) on a grid of person counts and image sizes, with
the first WARMUP runs discarded and medians over a fixed repetition count. The point
is the shape of the curve: a single decode pass is nearly flat in the person
count, unlike a body-pass-plus-crops pipeline whose cost grows linearly.
That comparison line comes from the runtime model and is always labeled
modeled, never measured. Records go out as the `records` list of the
`wbpose bench` JSON summary, one `dataclasses.asdict` per BenchRecord.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .decoder import DecodeStats, decode_with_stats
from .encoder import EncoderParams, encode
from .skeleton import SkeletonTopology
from .synth import SceneRecipe, generate

# Decodes per grid point run before the clock starts, and discarded.
WARMUP = 3


@dataclass(frozen=True)
class BenchRecord:
    n_people: int
    map_w: int
    map_h: int
    median_ns: int
    p90_ns: int
    repetitions: int
    # The decoder's counters, the same on every repetition, and its phase
    # times as medians over the timed repetitions, like median_ns.
    stats: DecodeStats


def _percentile(sorted_ns: Sequence[int], q: float) -> int:
    return sorted_ns[round(q * (len(sorted_ns) - 1))]


def run_bench(
    n_people_grid: Sequence[int],
    image_sizes: Sequence[tuple[int, int]],
    topo: SkeletonTopology,
    enc_params: EncoderParams | None = None,
    repetitions: int = 30,
    seed: int = 0,
) -> list[BenchRecord]:
    """One record per (n_people, image_size) grid point.

    Scenes come from the synthetic generator with separation-friendly
    defaults scaled to the image; infeasible packings propagate. Only
    decode_with_stats sits inside the timed region (monotonic clock).
    Repetitions are interleaved round-robin across the person-count grid so
    slow clock-frequency drift hits every grid point alike instead of
    skewing cross-point comparisons.
    """
    if repetitions < 10:
        raise ValueError("repetitions must be >= 10")
    # Timings are keyed by crowd size, so a repeated size would pool its
    # points' repetitions into each of their records.
    if len(set(n_people_grid)) < len(n_people_grid):
        raise ValueError(f"crowd sizes must not repeat, got {list(n_people_grid)}")
    enc_params = enc_params or EncoderParams()
    records = []
    for image_size in image_sizes:
        prepared = []
        for n_people in sorted(n_people_grid):
            # Small people and a generous attempt budget so 20-person crowds
            # still pack into a 480x480 canvas.
            recipe = SceneRecipe(
                n_people=n_people,
                image_size=image_size,
                min_separation=10.0,
                person_scale=(45.0, 65.0),
                seed=seed,
                max_attempts=20_000,
            )
            scene = generate(recipe, topo)
            t = encode(scene, topo, enc_params)
            prepared.append((n_people, (t.s_star, t.l_star)))

        timings: dict[int, list[int]] = {n: [] for n, _ in prepared}
        stats_of: dict[int, list[DecodeStats]] = {n: [] for n, _ in prepared}
        # Collector pauses land in whichever repetition they interrupt, so
        # take them off the clock the way timeit does: collect once up
        # front, then keep the collector off for the timed block.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for rep in range(WARMUP + repetitions):
                for n_people, maps in prepared:
                    t0 = time.perf_counter_ns()
                    _, stats = decode_with_stats(maps, topo)
                    elapsed = time.perf_counter_ns() - t0
                    if rep >= WARMUP:
                        timings[n_people].append(elapsed)
                        stats_of[n_people].append(stats)
        finally:
            if gc_was_enabled:
                gc.enable()

        for n_people, (conf, _) in prepared:
            ns_sorted = sorted(timings[n_people])
            phase = {
                f.name: int(statistics.median(getattr(st, f.name) for st in stats_of[n_people]))
                for f in fields(DecodeStats) if f.name.endswith("_ns")
            }
            records.append(
                BenchRecord(
                    n_people=n_people,
                    map_w=conf.shape[2],
                    map_h=conf.shape[1],
                    median_ns=int(statistics.median(ns_sorted)),
                    p90_ns=_percentile(ns_sorted, 0.9),
                    repetitions=repetitions,
                    stats=replace(stats_of[n_people][-1], **phase),
                )
            )
    return records
