"""Map-to-skeleton decoding: peaks, limb scoring, matching and assembly.

Pipeline: NMS per part channel (strict 8-neighbour maxima on a
-inf-padded float64 copy) with subpixel refinement, line-integral scoring
of candidate pairs along each limb's PAF, greedy bipartite matching per
limb, then assembly of accepted connections into poses as connected
components over the limb forest (the loader rejects cyclic limb graphs),
found by min-label propagation. Everything is numpy. Anchor parts (wrists,
ankles, eyes) carry a single candidate shared by the body and the non-body
group, so connections meeting at the same anchor candidate join one
component by identity.

An exact prefilter runs before the scorer. A sample can only clear the
sample threshold if a cell of its bilinear corner block holds a PAF vector
longer than the threshold, so a pair with fewer than min_valid_samples such
sample positions cannot be valid. The prefilter tests the scorer's own
positions, drops each pair at its first miss beyond n_samples -
min_valid_samples, and scores exactly the pairs that are left.

All positions are subpixel map-cell coordinates (x, y); multiply by the grid
stride to get pixels. The decode is deterministic: candidates are ordered by
descending score with (row, col) tie-breaks, connections by descending score
with candidate-id tie-breaks, poses by descending score with their lowest
candidate row as the tie-break.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .skeleton import SkeletonTopology


@dataclass(frozen=True)
class DecoderParams:
    nms_threshold: float = 0.05
    n_samples: int = 10
    sample_threshold: float = 0.05
    valid_fraction: float = 0.8
    min_parts: int = 4
    min_score: float | None = None  # None -> 0.2 * min_parts

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not 0.0 < self.valid_fraction <= 1.0:
            raise ValueError("valid_fraction must be in (0, 1]")

    @property
    def resolved_min_score(self) -> float:
        return 0.2 * self.min_parts if self.min_score is None else self.min_score

    @property
    def min_valid_samples(self) -> int:
        # ceil with a guard against float dust in valid_fraction * n_samples
        return math.ceil(self.valid_fraction * self.n_samples - 1e-9)


@dataclass
class Pose:
    # part_id -> (x, y, score), map coords
    parts: dict[int, tuple[float, float, float]]
    person_score: float


@dataclass
class DecodeStats:
    candidates: int = 0
    connections_scored: int = 0
    connections_kept: int = 0  # pairs that survive the prefilter and are scored
    connections_valid: int = 0
    connections_accepted: int = 0  # pairs taken by matching
    poses_dropped_min_parts: int = 0  # connected components below min_parts
    poses_dropped_min_score: int = 0  # components kept by min_parts, below min_score
    nms_ns: int = 0
    scoring_ns: int = 0
    assembly_ns: int = 0


def _parabola_offsets(vl: np.ndarray, vc: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """Vertex of the 1D quadratic fit through the 3-neighborhood, clamped to
    +-0.5. Fit in log space where all three values are positive (exact for
    Gaussian bumps), otherwise on the raw values; a -inf neighbour (a NaN
    or +inf cell, or the padding beyond the map border) gives no fit and no
    offset."""
    pos = (vl > 0.0) & (vc > 0.0) & (vr > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        al = np.log(np.where(pos, vl, 1.0))
        ac = np.log(np.where(pos, vc, 1.0))
        ar = np.log(np.where(pos, vr, 1.0))
        den_log = al + ar - 2.0 * ac
        d_log = np.where(np.abs(den_log) > 1e-12, (al - ar) / (2.0 * den_log), 0.0)
        den_lin = vl + vr - 2.0 * vc
        fit = np.isfinite(den_lin) & (np.abs(den_lin) > 1e-12)
        d_lin = np.where(fit, (vl - vr) / (2.0 * den_lin), 0.0)
    return np.clip(np.where(pos, d_log, d_lin), -0.5, 0.5)


def _nms_arrays(conf: np.ndarray, topo: SkeletonTopology, params: DecoderParams):
    """Flat candidate arrays (part_ids, xs, ys, scores), part-major and
    ordered by (-score, y, x) within each part; candidate id == row index.

    The part channels are copied into a float64 stack padded by one -inf
    cell on each side, with NaN and +inf read as -inf: such a cell is never
    a peak and never blocks one, wherever it sits in the 3x3 ring, so no
    candidate score is non-finite. A peak is a cell at or above
    nms_threshold and strictly greater than each of its 8 neighbours, read
    as shifted views of the padded stack. Its parabola neighbours come
    from the same stack, so a peak on the map border has a -inf neighbour
    across it and no offset along that axis."""
    H, W = conf.shape[1:]
    padded = np.full((topo.n_parts, H + 2, W + 2), -np.inf)
    maps = padded[:, 1:-1, 1:-1]
    np.fmax(conf[:topo.n_parts], -np.inf, out=maps)
    maps[maps == np.inf] = -np.inf
    peak = maps >= params.nms_threshold
    for dy in range(3):
        for dx in range(3):
            if dy != 1 or dx != 1:
                peak &= maps > padded[:, dy:dy + H, dx:dx + W]

    pids, rest = np.divmod(np.flatnonzero(peak), H * W)
    ys, xs = np.divmod(rest, W)
    row = W + 2
    at = (pids * (H + 2) + ys + 1) * row + xs + 1  # the peaks' padded flat indices
    flat = padded.reshape(-1)
    vc = flat.take(at)
    dx = _parabola_offsets(flat.take(at - 1), vc, flat.take(at + 1))
    dy = _parabola_offsets(flat.take(at - row), vc, flat.take(at + row))
    order = np.lexsort((xs, ys, -vc, pids))
    return pids[order], (xs + dx)[order], (ys + dy)[order], vc[order]


def _flat_pair_scores(flat, base, shape, sx, sy, dx, dy, params: DecoderParams):
    """(rows, scores) of the valid pairs among flat pair-endpoint arrays:
    their indices, ascending, and their line-integral scores.

    flat is the raveled, interleaved (x, y, x, y, ...) PAF stack and base
    is each pair's offset 2 * limb_id * H * W into it; y is read through
    the view flat[H*W:], one plane later. The first bilinear corner's
    linear index is built once and the other three derived by integer
    adds; everything after the gather is elementwise, so a pair's score
    does not depend on which other pairs share the call. A non-finite
    sample (a NaN or infinite corner cell) fails and adds 0 to the mean,
    so every score is finite.
    """
    H, W = shape
    flat_x, flat_y = flat, flat[H * W:]
    vecx = dx - sx
    vecy = dy - sy
    length = np.hypot(vecx, vecy)
    nonzero = length > 1e-12
    safe_len = np.where(nonzero, length, 1.0)
    ux = vecx / safe_len
    uy = vecy / safe_len

    t = np.linspace(0.0, 1.0, params.n_samples)
    px = sx[:, None] + t[None, :] * vecx[:, None]  # (P, S)
    py = sy[:, None] + t[None, :] * vecy[:, None]
    x0 = np.clip(np.floor(px).astype(np.int64), 0, W - 1)
    y0 = np.clip(np.floor(py).astype(np.int64), 0, H - 1)
    stepx = (x0 < W - 1).astype(np.int64)  # x1 - x0, zero at the border
    stepy = (y0 < H - 1).astype(np.int64) * W
    fx = np.clip(px - x0, 0.0, 1.0)
    fy = np.clip(py - y0, 0.0, 1.0)
    w00 = (1 - fx) * (1 - fy)
    w10 = fx * (1 - fy)
    w01 = (1 - fx) * fy
    w11 = fx * fy
    lin00 = base[:, None] + y0 * W + x0
    lin10 = lin00 + stepx
    lin01 = lin00 + stepy
    lin11 = lin01 + stepx
    with np.errstate(invalid="ignore", over="ignore"):
        vx = (flat_x.take(lin00) * w00 + flat_x.take(lin10) * w10
              + flat_x.take(lin01) * w01 + flat_x.take(lin11) * w11)
        vy = (flat_y.take(lin00) * w00 + flat_y.take(lin10) * w10
              + flat_y.take(lin01) * w01 + flat_y.take(lin11) * w11)
        dots = vx * ux[:, None] + vy * uy[:, None]  # (P, S)
    finite = np.isfinite(dots)
    dots[~finite] = 0.0

    valid_counts = (finite & (dots > params.sample_threshold)).sum(axis=1)
    rows = np.flatnonzero(nonzero & (valid_counts >= params.min_valid_samples))
    return rows, dots.mean(axis=1)[rows]


def _corner_support(paf: np.ndarray, threshold: float) -> np.ndarray:
    """(limbs, H, W) bool: True at (y, x) when a cell of the 2x2 block
    [y, y+1] x [x, x+1], clipped at the map border, holds a PAF vector
    longer than threshold, i.e. when the bilinear sample whose floored
    position is (x, y) may clear threshold. The squares are taken in
    float64, exact for float32 cells, and the 1e-9 relative slack on the
    squared threshold covers rounding in the scorer. A threshold whose
    square underflows falls back to any nonzero cell."""
    px, py = paf[0::2], paf[1::2]
    if threshold < 1e-150:
        support = (np.abs(px) > 0.0) | (np.abs(py) > 0.0)
    else:
        sq = np.square(px, dtype=np.float64)
        sq += np.square(py, dtype=np.float64)
        support = sq > threshold * threshold * (1.0 - 1e-9)
    support[:, :, :-1] |= support[:, :, 1:]
    support[:, :-1, :] |= support[:, 1:, :]
    return support


def _support_keep(paf, ch, sx, sy, dx, dy, params: DecoderParams) -> np.ndarray:
    """Indices of the pairs (limb ch, from (sx, sy) to (dx, dy)) with at
    least min_valid_samples sample positions whose bilinear corner block
    is supported (_corner_support), ascending.

    The scorer's PAF vector at a sample is a convex combination of its four
    corner cells, and its dot product with the unit limb direction is at
    most its length, so a sample can only clear sample_threshold on a
    supported block (NaN corners never support, and fail the sample). A
    pair with fewer supported positions cannot be valid, so dropping it
    leaves the decode unchanged; a pair with that many is kept. Positions
    are the scorer's own (same expression, floor and clip), tested middle
    first, since the endpoints sit on part candidates where some limb band
    usually starts. A pair is dropped at its first miss beyond the budget
    n_samples - min_valid_samples; the survivors are compacted once the
    first budget + 1 positions are in and after every later one."""
    n_s = params.n_samples
    budget = n_s - params.min_valid_samples
    idx = np.arange(sx.size)
    if budget >= n_s:
        return idx
    H, W = paf.shape[1:]
    cells = _corner_support(paf, params.sample_threshold).reshape(-1)
    t = np.linspace(0.0, 1.0, n_s)
    vecx, vecy = dx - sx, dy - sy
    plane = ch * (H * W)
    misses = np.zeros(sx.size, dtype=np.int64)
    for j, k in enumerate(np.argsort(np.abs(2 * np.arange(n_s) - (n_s - 1)), kind="stable")):
        x0 = np.floor(sx + t[k] * vecx).astype(np.int64)
        np.clip(x0, 0, W - 1, out=x0)
        y0 = np.floor(sy + t[k] * vecy).astype(np.int64)
        np.clip(y0, 0, H - 1, out=y0)
        y0 *= W
        y0 += plane
        y0 += x0
        misses += ~cells.take(y0)
        if j >= budget:
            live = np.flatnonzero(misses <= budget)
            idx, misses, sx, sy, vecx, vecy, plane = (
                a.take(live) for a in (idx, misses, sx, sy, vecx, vecy, plane)
            )
    return idx


def _segment_keys(ids: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense int keys for (segment, id), with segments the runs that begin
    at starts, and each key's multiplicity. Segment k maps its ids onto
    its own span [min, max] of keys, the spans laid end to end, so keys
    never collide across segments and no sort is needed."""
    lo = np.minimum.reduceat(ids, starts)
    span = np.maximum.reduceat(ids, starts) - lo + 1
    keys = ids + np.repeat(np.cumsum(span) - span - lo, np.diff(starts, append=ids.size))
    return keys, np.bincount(keys)[keys]


def _match_all_limbs(
    limb_ids: np.ndarray,
    scores: np.ndarray,
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy bipartite matching of every limb in one pass over the valid
    pairs: within a limb, pairs are taken by descending score (ties on src
    id, then dst id) and each candidate is used at most once. Sorting limb-major with those
    keys as secondary keys reproduces the independent per-limb matchings
    exactly, concatenated in limb order; used-sets are keyed on (limb,
    candidate) because matching is per limb while candidate ids are global.
    A pair whose (limb, src) and (limb, dst) keys no other pair holds
    competes with nobody and is always taken, so only the contested pairs
    run the greedy loop, in the same order.
    Returns accepted (src, dst, score) arrays."""
    if limb_ids.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    order = np.lexsort((dst_ids, src_ids, -scores, limb_ids))
    limbs = limb_ids[order]
    starts = np.flatnonzero(np.diff(limbs, prepend=limbs[0] - 1))
    src_key, src_n = _segment_keys(src_ids[order], starts)
    dst_key, dst_n = _segment_keys(dst_ids[order], starts)
    take = (src_n == 1) & (dst_n == 1)
    contested = np.flatnonzero(~take)
    used_src: set[int] = set()
    used_dst: set[int] = set()
    won: list[int] = []
    for j, s, d in zip(contested.tolist(), src_key[contested].tolist(),
                       dst_key[contested].tolist()):
        if s in used_src or d in used_dst:
            continue
        used_src.add(s)
        used_dst.add(d)
        won.append(j)
    take[won] = True
    idx = order[take]
    return src_ids[idx], dst_ids[idx], scores[idx]


def _forest_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each of n nodes under the undirected edges
    (src, dst): the lowest node of its component.

    Min-label propagation with pointer jumping. Each round lowers both ends
    of every edge to the smaller of their labels, then replaces each label
    by its own label. A label is always a node of the same component and
    never above its node, so when both ends of every edge agree, each
    component holds one label, and its lowest node, whose label cannot be
    lower, names it. A round carries the minimum at least one edge further,
    so the rounds are bounded by the diameter of the largest component."""
    labels = np.arange(n)
    while True:
        ls, ld = labels[src], labels[dst]
        if np.array_equal(ls, ld):
            return labels
        low = np.minimum(ls, ld)
        np.minimum.at(labels, src, low)
        np.minimum.at(labels, dst, low)
        labels = labels[labels]


def _assemble_forest(
    cand_part: np.ndarray,
    cand_x: np.ndarray,
    cand_y: np.ndarray,
    cand_score: np.ndarray,
    acc_src: np.ndarray,
    acc_dst: np.ndarray,
    acc_score: np.ndarray,
    params: DecoderParams,
    stats: DecodeStats,
) -> list[Pose]:
    """Poses as connected components of the accepted connections, ordered by
    descending person_score, then by lowest candidate row. person_score is
    the sum of member candidate scores (in row order) and internal
    connection scores; components with fewer than min_parts parts or a
    lower score are dropped and counted in stats.

    The limb graph is a forest and each limb contributed a bipartite
    matching, so a component never holds two candidates of one part: a path
    between them would have to double back along some limb at one
    candidate, which would then hold two matches on that limb. A component
    thus maps one to one onto a subtree of the limb forest, and
    _forest_labels labels it by its lowest row in at most the forest's
    diameter of rounds."""
    n = cand_part.shape[0]
    labels = _forest_labels(n, acc_src, acc_dst)
    extra = np.bincount(labels[acc_src], weights=acc_score, minlength=n)

    # Components too small to make a pose (on noisy maps, mostly lone
    # candidates) are dropped before the split, not one group at a time.
    sizes = np.bincount(labels, minlength=n)
    big = sizes >= params.min_parts
    stats.poses_dropped_min_parts = int(np.count_nonzero(~big & (sizes > 1)))
    members = np.flatnonzero(big[labels])
    if not members.size:
        return []
    # Rows ascend within each component, so its first row is its lowest,
    # which is also its label.
    order = members[np.argsort(labels[members], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    groups = np.split(order, cuts)
    first = order[np.r_[0, cuts]]
    score = np.array([cand_score[rows].sum() for rows in groups]) + extra[first]
    kept = np.flatnonzero(score >= params.resolved_min_score)
    stats.poses_dropped_min_score = len(groups) - kept.size
    poses: list[Pose] = []
    for k in kept[np.lexsort((first[kept], -score[kept]))].tolist():
        rows = groups[k]
        poses.append(Pose(
            parts=dict(zip(cand_part[rows].tolist(), zip(
                cand_x[rows].tolist(), cand_y[rows].tolist(), cand_score[rows].tolist()
            ))),
            person_score=float(score[k]),
        ))
    return poses


def decode_with_stats(
    maps: tuple[np.ndarray, np.ndarray],
    topo: SkeletonTopology,
    params: DecoderParams | None = None,
) -> tuple[list[Pose], DecodeStats]:
    """Poses of one frame's maps, and the decode's counters.

    maps is (conf, paf), float32 or float64 (other dtypes are read as
    float64): conf is (topo.n_parts or topo.confidence_channels, H, W), a
    background channel ignored, and paf is (topo.paf_channels, H, W);
    arrays that are not 3-D, differ in (H, W) or have other channel counts
    raise ValueError. A NaN or infinite confidence cell is never a peak,
    and a non-finite PAF sample fails and adds 0 to its pair's mean, so
    every decoded score is finite. Positions are map
    coordinates. Candidate rows are part-major, then by (-score, y, x);
    poses are ordered by -person_score, then by lowest candidate row.

    DecodeStats counts candidates (NMS peaks); limb pairs enumerated
    (connections_scored), kept by the prefilter and scored (_kept), valid
    (_valid) and taken by matching (_accepted); components of two or more
    candidates below min_parts, and components that pass min_parts but
    not min_score. nms_ns, scoring_ns (support map, prefilter, scorer,
    matching) and assembly_ns are wall times."""
    params = params or DecoderParams()
    conf, paf = maps
    if conf.ndim != 3 or paf.ndim != 3 or conf.shape[1:] != paf.shape[1:]:
        raise ValueError(f"confidence {conf.shape} and paf {paf.shape} tensors must both be "
                         "(channels, H, W) with the same H and W")
    if conf.shape[0] not in (topo.n_parts, topo.confidence_channels):
        raise ValueError(f"confidence tensor has {conf.shape[0]} channels, topology wants "
                         f"{topo.confidence_channels}")
    if paf.shape[0] != topo.paf_channels:
        raise ValueError(f"paf tensor has {paf.shape[0]} channels, topology wants {topo.paf_channels}")
    stats = DecodeStats()

    t0 = time.perf_counter_ns()
    cand_part, cand_x, cand_y, cand_score = _nms_arrays(conf, topo, params)
    stats.nms_ns = time.perf_counter_ns() - t0
    stats.candidates = int(cand_part.size)
    counts = np.bincount(cand_part, minlength=topo.n_parts)
    bases = np.zeros(topo.n_parts + 1, dtype=np.int64)
    np.cumsum(counts, out=bases[1:])

    t0 = time.perf_counter_ns()
    acc_src = np.empty(0, dtype=np.int64)
    acc_dst = np.empty(0, dtype=np.int64)
    acc_score = np.empty(0)
    live_limbs = [
        limb for limb in topo.limbs if counts[limb.src] and counts[limb.dst]
    ]
    if live_limbs:
        # The scorer gathers from the PAF stack as given: x of limb l at
        # offset 2*l*H*W of the flat stack, y one plane later. Widening
        # float32 to float64 inside the scorer is exact, so no float64 copy
        # of the stack is made.
        paf = np.ascontiguousarray(paf)
        if paf.dtype not in (np.float32, np.float64):
            paf = paf.astype(np.float64)
        H, W = paf.shape[1:]
        flat = paf.reshape(-1)

        # Flatten every (limb, src, dst) pair into one set of arrays, built
        # arithmetically: pair p of limb l is (src row a0+p//nd, dst row
        # b0+p%nd), row-major in src. Candidate rows are part-major, so each
        # part is a slice [bases[p], bases[p+1]) of the flat arrays.
        src_parts = np.array([l.src for l in live_limbs], dtype=np.int64)
        dst_parts = np.array([l.dst for l in live_limbs], dtype=np.int64)
        a0, b0 = bases[src_parts], bases[dst_parts]
        ns, nd = counts[src_parts], counts[dst_parts]
        totals = ns * nd
        starts = np.zeros(totals.size, dtype=np.int64)
        np.cumsum(totals[:-1], out=starts[1:])
        within = np.arange(int(totals.sum())) - np.repeat(starts, totals)
        nd_rep = np.repeat(nd, totals)
        ij = within // nd_rep
        sid = np.repeat(a0, totals) + ij
        did = np.repeat(b0, totals) + (within - ij * nd_rep)
        sx, sy = cand_x[sid], cand_y[sid]
        dx, dy = cand_x[did], cand_y[did]
        # Limb ids rise with the live limbs, so matching keys on ch.
        ch = np.repeat(np.array([l.limb_id for l in live_limbs], dtype=np.int64), totals)
        stats.connections_scored = int(sx.size)

        # Exact prefilter: drops exactly the pairs with too few supported
        # sample positions to be valid (see _support_keep).
        if params.sample_threshold >= 0.0:
            keep = _support_keep(paf, ch, sx, sy, dx, dy, params)
        else:
            keep = np.arange(sx.size)
        stats.connections_kept = int(keep.size)

        if keep.size:
            rows, scores = _flat_pair_scores(
                flat, ch[keep] * (2 * H * W), (H, W),
                sx[keep], sy[keep], dx[keep], dy[keep], params,
            )
            valid = keep[rows]
            stats.connections_valid = int(valid.size)

            acc_src, acc_dst, acc_score = _match_all_limbs(
                ch[valid], scores, sid[valid], did[valid]
            )
            stats.connections_accepted = int(acc_src.size)
    stats.scoring_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    poses = _assemble_forest(
        cand_part, cand_x, cand_y, cand_score, acc_src, acc_dst, acc_score, params,
        stats,
    )
    stats.assembly_ns = time.perf_counter_ns() - t0
    return poses, stats
