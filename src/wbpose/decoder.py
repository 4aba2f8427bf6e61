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

A candidate lies in [0, W - 1] x [0, H - 1]: a peak moves at most half a
cell, and a peak on the map border not at all across it. A sample position
lies on the segment between two candidates, and the rounding of
sx + t * (dx - sx) is monotonic, so it lies in [0, W - 1] x [0, H - 1] as
well, up to rounding above the far end that stays inside the last cell.
There, truncating a coordinate gives its floor, already inside the map,
and the bilinear fractions are in [0, 1), the cell and weights the oracle
reads after its floor and clips; the prefilter and the scorer rely on this
and take no floor and no clip. tests/test_decoder.py checks the range on
the candidates of small, 1xN and Nx1 maps with peaks on and next to the
border.

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
        for name, value in (("nms_threshold", self.nms_threshold),
                            ("min_score", self.resolved_min_score)):
            if not math.isfinite(value):  # NaN would fail every comparison
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.sample_threshold < math.inf:
            raise ValueError(f"sample_threshold must be finite and >= 0, got {self.sample_threshold}")
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
        return max(1, math.ceil(self.valid_fraction * self.n_samples - 1e-9))


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
    scoring_ns: int = 0  # pair enumeration and the four phases below
    support_ns: int = 0  # support map (_corner_support)
    prefilter_ns: int = 0  # prefilter loop (_support_keep)
    scorer_ns: int = 0  # line integrals of the kept pairs
    matching_ns: int = 0
    assembly_ns: int = 0


def _parabola_offsets(vl: np.ndarray, vc: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """Vertex of the 1D quadratic fit through the 3-neighborhood, clamped to
    +-0.5, for each row of neighbours vl and vr (one row per axis) around
    the centres vc. Fit in log space where all three values are positive
    (exact for Gaussian bumps), otherwise on the raw values; a -inf
    neighbour (a NaN or +inf cell, or the padding beyond the map border)
    gives no fit and no offset. The centres' logs are taken once for both
    axes; where a centre is not positive they are unused."""
    pos = (vl > 0.0) & (vr > 0.0) & (vc > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        al = np.log(np.where(pos, vl, 1.0))
        ac = np.log(np.where(vc > 0.0, vc, 1.0))
        ar = np.log(np.where(pos, vr, 1.0))
        den_log = al + ar - 2.0 * ac
        d_log = np.where(np.abs(den_log) > 1e-12, (al - ar) / (2.0 * den_log), 0.0)
        den_lin = vl + vr - 2.0 * vc
        fit = np.isfinite(den_lin) & (np.abs(den_lin) > 1e-12)
        d_lin = np.where(fit, (vl - vr) / (2.0 * den_lin), 0.0)
    return np.clip(np.where(pos, d_log, d_lin), -0.5, 0.5)


def _group_desc_order(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The permutation that sorts rows by group, ascending, then by value,
    descending, with ties in row order: a stable sort on -values followed
    by a stable sort on groups (non-negative ints, radix-sorted as the
    smallest unsigned type that holds them). The first sort is an unstable
    one, which gives the same permutation unless two rows of one group
    share a value out of row order; only then is it redone stably. A stable
    sort of floats is a merge sort: on the 2,700 candidates of a 20-person
    image the unstable path took 73 against 202 us."""
    if not groups.size:
        return np.arange(0)
    key = -values
    gkey = groups.astype(np.min_scalar_type(groups.max()))
    by_value = np.argsort(key)
    order = by_value[np.argsort(gkey[by_value], kind="stable")]
    g, v = gkey[order], key[order]
    tied = (g[1:] == g[:-1]) & (v[1:] == v[:-1])
    if np.any(order[1:][tied] < order[:-1][tied]):
        by_value = np.argsort(key, kind="stable")
        order = by_value[np.argsort(gkey[by_value], kind="stable")]
    return order


def _nms_arrays(conf: np.ndarray, topo: SkeletonTopology, params: DecoderParams):
    """Flat candidate arrays (part_ids, xs, ys, scores), part-major and
    ordered by (-score, y, x) within each part; candidate id == row index.

    The part channels are copied into a float64 stack padded by one -inf
    cell on each side, with NaN and +inf read as -inf: such a cell is never
    a peak and never blocks one, wherever it sits in the 3x3 ring, so no
    candidate score is non-finite. A peak is a cell at or above
    nms_threshold and strictly greater than each of its 8 neighbours. On
    the raveled stack each neighbour is one contiguous slice at a fixed
    offset (+-1, +-row, +-row+-1), and the padding keeps rows and channels
    apart: a padding cell is -inf, so it is never a peak, and a map cell's
    8 neighbours all lie in its own padded channel. Its parabola neighbours
    come from the same stack, so a peak on the map border has a -inf
    neighbour across it and no offset along that axis."""
    H, W = conf.shape[1:]
    row, plane = W + 2, (H + 2) * (W + 2)
    padded = np.full((topo.n_parts, H + 2, W + 2), -np.inf)
    maps = padded[:, 1:-1, 1:-1]
    np.fmax(conf[:topo.n_parts], -np.inf, out=maps)
    maps[maps == np.inf] = -np.inf
    flat = padded.reshape(-1)
    lo, hi = row + 1, flat.size - row - 1
    centre = flat[lo:hi]
    peak = centre >= params.nms_threshold
    # One reused buffer takes the 8 comparisons. Eight fresh temporaries
    # (0.5 MB each on 60x60 maps) ran as fast, but the heap layout they
    # left raised the peak RSS of a later training step by about 9 MB.
    greater = np.empty_like(peak)
    for off in (-row - 1, -row, -row + 1, -1, 1, row - 1, row, row + 1):
        peak &= np.greater(centre, flat[lo + off:hi + off], out=greater)

    at = np.flatnonzero(peak)  # the peaks' padded flat indices, (part, y, x) order
    at += lo
    vc = flat.take(at)
    step = np.array([[1], [row]])  # the x and y neighbours' offsets
    dx, dy = _parabola_offsets(flat.take(at - step), vc, flat.take(at + step))
    # Rows run in (part, y, x) order, so equal scores keep (y, x) order.
    pids, rest = np.divmod(at, plane)
    order = _group_desc_order(pids, vc)
    ys, xs = np.divmod(rest[order], row)
    return pids[order], xs - 1 + dx[order], ys - 1 + dy[order], vc[order]


def _flat_pair_scores(flat, base, shape, sx, sy, vecx, vecy, params: DecoderParams):
    """(rows, scores) of the valid pairs among flat pair arrays, each from
    (sx, sy) along (vecx, vecy): their indices, ascending, and their
    line-integral scores.

    flat is the raveled, interleaved (x, y, x, y, ...) PAF stack and base
    is each pair's offset 2 * limb_id * H * W into it; y is read through
    the view flat[H*W:], one plane later. Samples are laid out (S, P), one
    row per sample position, so every elementwise step runs along rows of
    P pairs. Positions are truncated toward zero, which is the floor
    clipped to the map on every position the decoder forms (see the module
    docstring). The first bilinear corner's linear index is built once and
    the other three derived by integer adds; everything after the gather
    is elementwise, so a pair's score does not depend on which other pairs
    share the call. A non-finite sample (a NaN or infinite corner cell)
    fails and adds 0 to the mean, so every score is finite. The mean of a
    valid pair's dots is taken on a (P, S) copy, so it adds them in the
    order np.mean uses on a pair's row.
    """
    H, W = shape
    flat_x, flat_y = flat, flat[H * W:]
    length = np.hypot(vecx, vecy)
    nonzero = length > 1e-12
    safe_len = np.where(nonzero, length, 1.0)
    ux = vecx / safe_len
    uy = vecy / safe_len

    t = np.linspace(0.0, 1.0, params.n_samples)[:, None]
    px = t * vecx  # (S, P)
    px += sx
    py = t * vecy
    py += sy
    x0 = px.astype(np.intp)
    y0 = py.astype(np.intp)
    stepx = x0 < W - 1  # x1 - x0, zero at the border
    stepy = (y0 < H - 1) * W
    # A position less its truncation is in [0, 1), so the clip of the
    # fractions to [0, 1] never binds.
    fx = np.subtract(px, x0, out=px)
    fy = np.subtract(py, y0, out=py)
    gx = 1 - fx
    gy = 1 - fy
    lin00 = y0
    lin00 *= W
    lin00 += x0
    lin00 += base
    # The four corners (x0, y0), (x1, y0), (x0, y1), (x1, y1) in turn, each
    # weight and index built in one reused buffer. Each sum accumulates in
    # place, left to right as the four-term expression, so its bits are
    # that expression's. Every index is in range, where take's clip mode
    # reads the same cells as its default; without the bounds check and
    # its buffered out, the scorer measured 124 against 136 us on 134 pairs.
    w = gx * gy
    lin = lin00
    cell = np.empty(w.shape, dtype=flat.dtype)
    term = np.empty_like(w)

    def gather(plane):
        return plane.take(lin, mode="clip", out=cell)

    with np.errstate(invalid="ignore", over="ignore"):
        vx = gather(flat_x) * w
        vy = gather(flat_y) * w
        lin = lin00 + stepx
        np.multiply(fx, gy, out=w)
        vx += np.multiply(gather(flat_x), w, out=term)
        vy += np.multiply(gather(flat_y), w, out=term)
        np.add(lin00, stepy, out=lin)
        np.multiply(gx, fy, out=w)
        vx += np.multiply(gather(flat_x), w, out=term)
        vy += np.multiply(gather(flat_y), w, out=term)
        lin += stepx
        np.multiply(fx, fy, out=w)
        vx += np.multiply(gather(flat_x), w, out=term)
        vy += np.multiply(gather(flat_y), w, out=term)
        vx *= ux
        vy *= uy
        dots = vx
        dots += vy
    finite = np.isfinite(dots)
    if not finite.all():
        dots[~finite] = 0.0  # so it fails: the threshold is not negative
    passing = dots > params.sample_threshold

    valid_counts = passing.sum(axis=0)
    rows = np.flatnonzero(nonzero & (valid_counts >= params.min_valid_samples))
    return rows, np.ascontiguousarray(dots[:, rows].T).mean(axis=1)


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


def _support_keep(support, ch, sx, sy, vecx, vecy, params: DecoderParams) -> np.ndarray:
    """Indices of the pairs (limb ch, from (sx, sy) along (vecx, vecy)) with at
    least min_valid_samples sample positions whose bilinear corner block
    is supported (support, the (limbs, H, W) map of _corner_support),
    ascending.

    The scorer's PAF vector at a sample is a convex combination of its four
    corner cells, and its dot product with the unit limb direction is at
    most its length, so a sample can only clear sample_threshold on a
    supported block (NaN corners never support, and fail the sample). A
    pair with fewer supported positions cannot be valid, so dropping it
    leaves the decode unchanged; a pair with that many is kept. Positions
    are the scorer's own (same expression and cell), tested middle
    first, since the endpoints sit on part candidates where some limb band
    usually starts. A pair is dropped at its first miss beyond the budget
    n_samples - min_valid_samples; the survivors are compacted once the
    first budget + 1 positions are in and after every later one.

    Positions are worked out in two reused float64 buffers, truncated
    there (see the module docstring), and the flat cell index is formed
    once before the cast: every value is a small integer, exact in float64.
    A pair's misses are its positions tested so far less its hits, so the
    hit counter holds at most n_samples. A compaction that drops nothing
    is skipped."""
    n_s = params.n_samples
    budget = n_s - params.min_valid_samples
    H, W = support.shape[1:]
    cells = support.reshape(-1)
    t = np.linspace(0.0, 1.0, n_s)
    plane = ch * float(H * W)
    hits = np.zeros(sx.size, dtype=np.min_scalar_type(n_s))
    bufx, bufy = np.empty(sx.size), np.empty(sx.size)
    at, hit = np.empty(sx.size, dtype=np.intp), np.empty(sx.size, dtype=bool)
    idx = None  # the survivors' indices, once a compaction drops a pair
    for j, k in enumerate(np.argsort(np.abs(2 * np.arange(n_s) - (n_s - 1)), kind="stable")):
        n = sx.size
        x0, y0 = bufx[:n], bufy[:n]
        np.multiply(vecx, t[k], out=x0)
        x0 += sx
        np.trunc(x0, out=x0)
        np.multiply(vecy, t[k], out=y0)
        y0 += sy
        np.trunc(y0, out=y0)
        y0 *= W
        y0 += plane
        y0 += x0
        np.copyto(at[:n], y0, casting="unsafe")
        hits += cells.take(at[:n], out=hit[:n])
        if j >= budget:
            live = np.flatnonzero(hits >= j + 1 - budget)
            if live.size < n:
                idx = live if idx is None else idx.take(live)
                hits, sx, sy, vecx, vecy, plane = (
                    a.take(live) for a in (hits, sx, sy, vecx, vecy, plane)
                )
    return np.arange(sx.size) if idx is None else idx


def _match_all_limbs(
    limb_ids: np.ndarray,
    scores: np.ndarray,
    src_keys: np.ndarray,
    dst_keys: np.ndarray,
) -> np.ndarray:
    """Greedy bipartite matching of every limb in one pass over the valid
    pairs: within a limb, pairs are taken by descending score (ties in
    arrival order) and each candidate is used at most once. Sorting
    limb-major reproduces the independent per-limb matchings exactly,
    concatenated in limb order. The caller keys each pair's ends by (limb,
    candidate), because matching is per limb while candidate ids are
    global: src_keys and dst_keys are small non-negative ints, each equal
    for two pairs exactly when they share that end's limb and candidate. A
    pair whose src and dst keys no other pair holds competes with nobody
    and is always taken, so only the contested pairs run the greedy loop,
    in the same order.

    The pairs must arrive in (limb, src, dst) order, as the decoder
    enumerates them, so sorting on (limb, -score) with ties in that order
    gives the full order.
    Returns the indices of the accepted pairs, in that order."""
    order = _group_desc_order(limb_ids, scores)
    src_key, dst_key = src_keys[order], dst_keys[order]
    take = (np.bincount(src_key)[src_key] == 1) & (np.bincount(dst_key)[dst_key] == 1)
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
    return order[take]


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
    # which is also its label. Labels are below n, so they radix-sort.
    order = members[np.argsort(labels[members].astype(np.min_scalar_type(n)), kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    starts, ends = np.append(0, cuts), np.append(cuts, order.size)
    first = order[starts]
    member_score = cand_score[order]
    bounds = list(zip(starts.tolist(), ends.tolist()))
    score = np.array([member_score[a:b].sum() for a, b in bounds]) + extra[first]
    kept = np.flatnonzero(score >= params.resolved_min_score)
    stats.poses_dropped_min_score = len(bounds) - kept.size
    part = cand_part[order].tolist()
    xys = list(zip(cand_x[order].tolist(), cand_y[order].tolist(), member_score.tolist()))
    person_score = score.tolist()
    poses: list[Pose] = []
    for k in kept[np.lexsort((first[kept], -score[kept]))].tolist():
        a, b = bounds[k]
        poses.append(Pose(parts=dict(zip(part[a:b], xys[a:b])), person_score=person_score[k]))
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
    not min_score. nms_ns, scoring_ns and assembly_ns are wall times of
    the three phases. scoring_ns covers pair enumeration and four parts
    timed on their own: support_ns (the support map), prefilter_ns (the
    prefilter loop), scorer_ns (line integrals of the kept pairs) and
    matching_ns. A part that does not run (no live limb or no kept pair)
    reads 0."""
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
        # arithmetically from one group per (limb, src row): the src row
        # paired with each dst row of the limb in turn. Candidate rows are
        # part-major, so each part is a slice [bases[p], bases[p+1]) of the
        # flat arrays, and group g covers pairs [g_at[g], g_at[g] + nd[g]).
        # A group is its pairs' (limb, src) key for matching; did + g_dkey
        # numbers the (limb, dst row)s densely, each limb's dst rows laid
        # after the previous limb's, so two limbs into one part never share
        # a key.
        limb_ids = np.array([l.limb_id for l in live_limbs], dtype=np.int64)
        src_parts = np.array([l.src for l in live_limbs], dtype=np.int64)
        dst_parts = np.array([l.dst for l in live_limbs], dtype=np.int64)
        ns, nd = counts[src_parts], counts[dst_parts]
        g_first = np.cumsum(ns) - ns  # each limb's first group
        g_src = np.arange(int(ns.sum())) + np.repeat(bases[src_parts] - g_first, ns)
        g_dkey = np.repeat(np.cumsum(nd) - nd - bases[dst_parts], ns)
        g_nd = np.repeat(nd, ns)
        g_at = np.cumsum(g_nd) - g_nd  # each group's first pair
        did = np.arange(int(g_nd.sum())) + np.repeat(np.repeat(bases[dst_parts], ns) - g_at, g_nd)
        sx, sy = np.repeat(cand_x[g_src], g_nd), np.repeat(cand_y[g_src], g_nd)
        vecx, vecy = cand_x[did] - sx, cand_y[did] - sy
        # Limb ids rise with the live limbs, so pairs run in (limb, src,
        # dst) order, the order matching wants.
        ch = np.repeat(np.repeat(limb_ids, ns), g_nd)
        stats.connections_scored = int(sx.size)

        # Exact prefilter: drops exactly the pairs with too few supported
        # sample positions to be valid (see _support_keep).
        t1 = time.perf_counter_ns()
        support = _corner_support(paf, params.sample_threshold)
        t2 = time.perf_counter_ns()
        keep = _support_keep(support, ch, sx, sy, vecx, vecy, params)
        stats.support_ns = t2 - t1
        stats.prefilter_ns = time.perf_counter_ns() - t2
        stats.connections_kept = int(keep.size)

        if keep.size:
            t1 = time.perf_counter_ns()
            rows, scores = _flat_pair_scores(
                flat, ch[keep] * (2 * H * W), (H, W),
                sx[keep], sy[keep], vecx[keep], vecy[keep], params,
            )
            valid = keep[rows]
            stats.connections_valid = int(valid.size)
            t2 = time.perf_counter_ns()
            # A valid pair's group gives its src row and both matching keys.
            g = np.searchsorted(g_at, valid, side="right") - 1
            vdid = did[valid]
            won = _match_all_limbs(ch[valid], scores, g, vdid + g_dkey[g])
            acc_src, acc_dst, acc_score = g_src[g[won]], vdid[won], scores[won]
            stats.connections_accepted = int(won.size)
            stats.scorer_ns = t2 - t1
            stats.matching_ns = time.perf_counter_ns() - t2
    stats.scoring_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    poses = _assemble_forest(
        cand_part, cand_x, cand_y, cand_score, acc_src, acc_dst, acc_score, params,
        stats,
    )
    stats.assembly_ns = time.perf_counter_ns() - t0
    return poses, stats
