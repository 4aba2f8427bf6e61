"""Map-to-skeleton decoding: peaks, limb scoring, matching and assembly.

Pipeline: strict-local-max NMS per part channel with subpixel refinement,
line-integral scoring of candidate pairs along each limb's PAF, greedy
bipartite matching per limb, then assembly of accepted connections into
poses as connected components over the limb forest (the loader rejects
cyclic limb graphs). Anchor parts
(wrists, ankles, eyes) carry a single candidate shared by the body and the
non-body group, so connections meeting at the same anchor candidate join
one component by identity.

An exact prefilter runs before the scorer. A sample can only clear the
sample threshold if a cell of its bilinear corner block holds a PAF vector
longer than the threshold, so a pair with fewer than min_valid_samples such
sample positions cannot be valid. The prefilter tests the scorer's own
positions, drops each pair at its first miss beyond n_samples -
min_valid_samples, and scores exactly the pairs that are left.

All positions are subpixel map-cell coordinates (x, y); multiply by the grid
stride to get pixels. The decode is deterministic: candidates are ordered by
descending score with (row, col) tie-breaks, connections by descending score
with candidate-id tie-breaks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .encoder import TargetTensors
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
    candidate_ids: dict[int, int]
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


def _parabola_offsets(vl: np.ndarray, vc: np.ndarray, vr: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Vertex of the 1D quadratic fit through the 3-neighborhood, clamped to
    +-0.5. Fit in log space where all three values are positive (exact for
    Gaussian bumps), otherwise on the raw values; a -inf neighbour (a NaN
    cell) gives no fit and no offset."""
    pos = ok & (vl > 0.0) & (vc > 0.0) & (vr > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        al = np.log(np.where(pos, vl, 1.0))
        ac = np.log(np.where(pos, vc, 1.0))
        ar = np.log(np.where(pos, vr, 1.0))
        den_log = al + ar - 2.0 * ac
        d_log = np.where(np.abs(den_log) > 1e-12, (al - ar) / (2.0 * den_log), 0.0)
        den_lin = vl + vr - 2.0 * vc
        fit = np.isfinite(den_lin) & (np.abs(den_lin) > 1e-12)
        d_lin = np.where(fit, (vl - vr) / (2.0 * den_lin), 0.0)
    delta = np.where(pos, d_log, np.where(ok, d_lin, 0.0))
    return np.clip(delta, -0.5, 0.5)


def _nms_arrays(conf: np.ndarray, topo: SkeletonTopology, params: DecoderParams):
    """Flat candidate arrays (part_ids, xs, ys, scores), part-major and
    ordered by (-score, y, x) within each part; candidate id == row index."""
    # A fresh float64 copy with NaN read as -inf, made in one pass: a NaN
    # cell is never a peak and never blocks one, wherever it sits in the
    # 3x3 ring.
    parts_maps = np.fmax(conf[:topo.n_parts], -np.inf, dtype=np.float64)
    footprint = np.ones((1, 3, 3), dtype=bool)  # the 3x3 ring around a cell
    footprint[0, 1, 1] = False
    neighbor_max = maximum_filter(parts_maps, footprint=footprint, mode="constant", cval=-np.inf)
    peak_mask = (parts_maps > neighbor_max) & (parts_maps >= params.nms_threshold)

    H, W = parts_maps.shape[1:]
    pids, ys, xs = np.nonzero(peak_mask)
    vc = parts_maps[pids, ys, xs]
    ok_x = (xs > 0) & (xs < W - 1)
    dx = _parabola_offsets(
        parts_maps[pids, ys, np.clip(xs - 1, 0, W - 1)],
        vc,
        parts_maps[pids, ys, np.clip(xs + 1, 0, W - 1)],
        ok_x,
    )
    ok_y = (ys > 0) & (ys < H - 1)
    dy = _parabola_offsets(
        parts_maps[pids, np.clip(ys - 1, 0, H - 1), xs],
        vc,
        parts_maps[pids, np.clip(ys + 1, 0, H - 1), xs],
        ok_y,
    )
    order = np.lexsort((xs, ys, -vc, pids))
    return pids[order], (xs + dx)[order], (ys + dy)[order], vc[order]


def _flat_pair_scores(flat, base, shape, sx, sy, dx, dy, params: DecoderParams):
    """Line-integral scores for flat pair-endpoint arrays.

    flat is the raveled, interleaved (x, y, x, y, ...) PAF stack and base
    is each pair's offset 2 * limb_id * H * W into it; y is read through
    the view flat[H*W:], one plane later. The first bilinear corner's
    linear index is built once and the other three derived by integer
    adds; everything after the gather is elementwise, so a pair's score
    does not depend on which other pairs share the call.
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
    vx = (flat_x.take(lin00) * w00 + flat_x.take(lin10) * w10
          + flat_x.take(lin01) * w01 + flat_x.take(lin11) * w11)
    vy = (flat_y.take(lin00) * w00 + flat_y.take(lin10) * w10
          + flat_y.take(lin01) * w01 + flat_y.take(lin11) * w11)
    dots = vx * ux[:, None] + vy * uy[:, None]  # (P, S)

    scores = dots.mean(axis=1)
    valid_counts = (dots > params.sample_threshold).sum(axis=1)
    valid = nonzero & (valid_counts >= params.min_valid_samples)
    scores = np.where(nonzero, scores, 0.0)
    return scores, valid


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
    valid: np.ndarray,
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy bipartite matching of every limb in one pass: within a limb,
    valid pairs are taken by descending score (ties on src id, then dst id)
    and each candidate is used at most once. Sorting limb-major with those
    keys as secondary keys reproduces the independent per-limb matchings
    exactly, concatenated in limb order; used-sets are keyed on (limb,
    candidate) because matching is per limb while candidate ids are global.
    A pair whose (limb, src) and (limb, dst) keys no other valid pair holds
    competes with nobody and is always taken, so only the contested pairs
    run the greedy loop, in the same order.
    Returns accepted (src, dst, score) arrays."""
    vi = np.nonzero(valid)[0]
    if vi.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    order = vi[np.lexsort((dst_ids[vi], src_ids[vi], -scores[vi], limb_ids[vi]))]
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
    """Poses as connected components of the accepted connections. person_score
    is the sum of member candidate scores and internal connection scores;
    components with fewer than min_parts parts or a lower score are dropped
    and counted in stats.

    The limb graph is a forest and each limb contributed a bipartite
    matching, so a component never holds two candidates of one part: a path
    between them would have to double back along some limb at one
    candidate, which would then hold two matches on that limb."""
    n = cand_part.shape[0]
    if acc_src.size:
        graph = coo_matrix(
            (np.ones(acc_src.size, dtype=np.int8), (acc_src, acc_dst)),
            shape=(n, n),
        )
        n_comp, labels = connected_components(graph, directed=False)
        extra = np.bincount(labels[acc_src], weights=acc_score, minlength=n_comp)
    else:
        n_comp, labels = n, np.arange(n, dtype=np.int64)
        extra = np.zeros(n)

    # Components too small to make a pose (on noisy maps, mostly lone
    # candidates) are dropped before the split, not one group at a time.
    sizes = np.bincount(labels, minlength=n_comp)
    big = sizes >= params.min_parts
    stats.poses_dropped_min_parts = int(np.count_nonzero(~big & (sizes > 1)))
    members = np.flatnonzero(big[labels])
    if not members.size:
        return []
    order = members[np.argsort(labels[members], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    poses: list[Pose] = []
    for rows in np.split(order, cuts):
        score = float(cand_score[rows].sum()) + float(extra[labels[rows[0]]])
        if score < params.resolved_min_score:
            stats.poses_dropped_min_score += 1
            continue
        pids = cand_part[rows].tolist()
        poses.append(
            Pose(
                parts=dict(zip(pids, zip(
                    cand_x[rows].tolist(), cand_y[rows].tolist(), cand_score[rows].tolist()
                ))),
                candidate_ids=dict(zip(pids, rows.tolist())),
                person_score=score,
            )
        )
    poses.sort(key=lambda p: (-p.person_score, min(p.candidate_ids.values(), default=0)))
    return poses


def decode_with_stats(
    tensors: TargetTensors | tuple[np.ndarray, np.ndarray],
    topo: SkeletonTopology,
    params: DecoderParams | None = None,
) -> tuple[list[Pose], DecodeStats]:
    params = params or DecoderParams()
    if isinstance(tensors, TargetTensors):
        conf, paf = tensors.s_star, tensors.l_star
    else:
        conf, paf = tensors
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
        limb_of = np.repeat(np.arange(totals.size), totals)
        within = np.arange(int(totals.sum())) - np.repeat(starts, totals)
        nd_rep = np.repeat(nd, totals)
        ij = within // nd_rep
        sid = np.repeat(a0, totals) + ij
        did = np.repeat(b0, totals) + (within - ij * nd_rep)
        sx, sy = cand_x[sid], cand_y[sid]
        dx, dy = cand_x[did], cand_y[did]
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
            base_k = ch[keep] * (2 * H * W)
            scores_k, valid_k = _flat_pair_scores(
                flat, base_k, (H, W),
                sx[keep], sy[keep], dx[keep], dy[keep], params,
            )
            stats.connections_valid = int(valid_k.sum())

            acc_src, acc_dst, acc_score = _match_all_limbs(
                limb_of[keep], scores_k, valid_k, sid[keep], did[keep]
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


def decode(
    tensors: TargetTensors | tuple[np.ndarray, np.ndarray],
    topo: SkeletonTopology,
    params: DecoderParams | None = None,
) -> list[Pose]:
    return decode_with_stats(tensors, topo, params)[0]
