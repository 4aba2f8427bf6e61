"""Timing-harness tests: parameter validation, records that survive the
JSON summary, and the qualitative shape of the measurement grid. Absolute
times are machine-dependent and left to the acceptance suite."""

import dataclasses
import json

import numpy as np

import pytest

from wbpose.bench import BenchRecord, growth_fits, run_bench
from wbpose.decoder import DecodeStats


def small_grid_records(topo, n_people_grid=(1, 3), image_size=(256, 256)):
    return run_bench(
        list(n_people_grid), [image_size], topo, repetitions=10, seed=1
    )


def test_run_bench_rejects_thin_sampling(topo):
    with pytest.raises(ValueError):
        run_bench([1], [(128, 128)], topo, repetitions=9)


def test_run_bench_rejects_repeated_crowd_size(topo):
    # Each record would pool the repetitions of every point of its size.
    with pytest.raises(ValueError, match="crowd sizes must not repeat"):
        run_bench([1, 3, 1], [(128, 128)], topo, repetitions=10)


def test_single_grid_point_yields_one_record(topo):
    records = run_bench([2], [(128, 128)], topo, repetitions=10, seed=0)
    assert len(records) == 1
    r = records[0]
    assert (r.map_w, r.map_h) == (16, 16)
    assert r.repetitions == 10
    assert 0 < r.median_ns <= r.p90_ns
    assert r.stats.candidates > 0
    s = r.stats
    assert s.connections_scored >= s.connections_kept >= s.connections_accepted > 0


def test_records_sorted_and_connections_grow_with_people(topo):
    records = small_grid_records(topo)
    assert [r.n_people for r in records] == [1, 3]
    assert records[1].stats.connections_scored > records[0].stats.connections_scored
    assert records[1].stats.candidates > records[0].stats.candidates


def test_records_roundtrip_through_json(topo):
    records = small_grid_records(topo)
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in records]))
    assert [BenchRecord(**{**row, "stats": DecodeStats(**row["stats"])}) for row in rows] == records


def test_records_nest_every_decoder_counter(topo):
    # Every DecodeStats field reaches the JSON record, valid pairs included.
    keys = [f.name for f in dataclasses.fields(DecodeStats)]
    for row in json.loads(json.dumps([dataclasses.asdict(r) for r in small_grid_records(topo)])):
        stats = row["stats"]
        assert list(stats) == keys
        assert (stats["connections_scored"] >= stats["connections_kept"]
                >= stats["connections_valid"] >= stats["connections_accepted"] > 0)


def test_phase_medians_within_p90(topo):
    # Each phase is a part of its repetition's total, so its median over the
    # repetitions cannot exceed the total's median, let alone its p90. The
    # support map, prefilter, scorer and matching are parts of scoring in
    # the same way.
    for r in small_grid_records(topo):
        s = r.stats
        for phase in (s.nms_ns, s.scoring_ns, s.assembly_ns):
            assert 0 < phase <= r.median_ns <= r.p90_ns
        for part in (s.support_ns, s.prefilter_ns, s.scorer_ns, s.matching_ns):
            assert 0 < part <= s.scoring_ns


PHASES = [f.name for f in dataclasses.fields(DecodeStats) if f.name.endswith("_ns")]


def synthetic_records(grid, size, total, phase_of):
    """Records at crowd sizes grid and one map size whose median_ns is
    total(n) and whose phase p reads phase_of(p, n)."""
    return [
        BenchRecord(
            n_people=n, map_w=size, map_h=size, median_ns=total(n), p90_ns=total(n),
            repetitions=10, stats=DecodeStats(**{p: phase_of(p, n) for p in PHASES}),
        )
        for n in grid
    ]


def test_growth_fits_recover_quadratic_coefficients_exactly():
    # Integer quadratics in n, as medians in ns are: every coefficient comes
    # back exactly, per map size and per phase, zero terms included.
    coef = {p: (1_000 * (i + 1), 37 * i, 11 * (i % 3)) for i, p in enumerate(PHASES)}
    records = synthetic_records(
        [1, 5, 10, 20], 60, lambda n: 6_930_000 + 151_234 * n + 12_345 * n * n,
        lambda p, n: coef[p][0] + coef[p][1] * n + coef[p][2] * n * n,
    ) + synthetic_records([2, 3, 4], 30, lambda n: 5 - 3 * n + n * n, lambda p, n: 7 * n)
    fits = growth_fits(records)
    assert [(f["map_w"], f["map_h"], f["n_people"]) for f in fits] == [
        (60, 60, [1, 5, 10, 20]), (30, 30, [2, 3, 4])]
    assert fits[0]["median_ns"] == {"1": 6_930_000.0, "n": 151_234.0, "n2": 12_345.0}
    assert fits[0]["stats"] == {p: dict(zip(("1", "n", "n2"), map(float, coef[p]))) for p in PHASES}
    assert fits[1]["median_ns"] == {"1": 5.0, "n": -3.0, "n2": 1.0}
    assert fits[1]["stats"] == {p: {"1": 0.0, "n": 7.0, "n2": 0.0} for p in PHASES}


def test_growth_fits_are_least_squares():
    # Off a quadratic the fit is the least-squares one.
    rng = np.random.default_rng(0)
    grid = [1, 3, 5, 10, 20]
    noise = dict(zip(grid, rng.integers(-50_000, 50_000, len(grid)).tolist()))
    records = synthetic_records(grid, 60, lambda n: 7_000_000 + 9_000 * n * n + noise[n],
                                lambda p, n: n * n * n)
    want = np.linalg.lstsq(np.vander(np.array(grid, float), 3, increasing=True),
                           np.array([r.median_ns for r in records], float), rcond=None)[0]
    got = growth_fits(records)[0]
    assert [got["median_ns"][k] for k in ("1", "n", "n2")] == pytest.approx(want, rel=1e-9)
    cubic = np.linalg.lstsq(np.vander(np.array(grid, float), 3, increasing=True),
                            np.array(grid, float) ** 3, rcond=None)[0]
    assert [got["stats"]["nms_ns"][k] for k in ("1", "n", "n2")] == pytest.approx(cubic, rel=1e-9)


def test_growth_fits_need_three_crowd_sizes():
    fits = growth_fits(synthetic_records([1, 5], 60, lambda n: n, lambda p, n: n))
    assert fits[0]["median_ns"] is None
    assert set(fits[0]["stats"].values()) == {None}


def test_growth_fits_of_a_run_are_finite(topo):
    [fit] = growth_fits(small_grid_records(topo, n_people_grid=(1, 2, 3)))
    assert fit["n_people"] == [1, 2, 3]
    for coefs in [fit["median_ns"], *fit["stats"].values()]:
        assert all(np.isfinite(v) for v in coefs.values())
