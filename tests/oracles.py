"""Independent brute-force oracles used to pin down expected values.

Everything here is deliberately naive: per-pixel scalar loops, exhaustive
scans, no shared code with the library beyond dataclass types. The
exception is oracle_decode, which reuses the library's peak extraction
(checked by the NMS tests) so that it can compare the decode's pair
enumeration, prefilter, scoring, matching and assembly bit for bit; its
scorer, oracle_limb_scores, is a scalar loop of its own that repeats the
library scorer's float operations in the same order. oracle_support_keep
is the prefilter's rule as a scalar loop over pairs and all sample
positions. loop_encode_confidence and
loop_encode_paf are the encoders' scalar form, one full-grid or bounding-
window pass per (part or limb, person) entry, and pin the windowed,
vectorized encoders down to the bit. oracle_generate is synth.generate
with the dict-per-attempt person placement (oracle_place_person,
oracle_jittered_template) that the flat-list placement must reproduce
draw for draw and float for float.
"""

import math

import numpy as np

from wbpose.decoder import Pose, _nms_arrays
from wbpose.encoder import AnnotatedScene, Person, Visibility
from wbpose.skeleton import SkeletonTopology
from wbpose.synth import (
    EDGE_MARGIN_PX,
    PackingError,
    SceneRecipe,
    _box_gap,
    _limb_subtrees,
    _rng,
)


def oracle_confidence(scene, topo, params):
    """Per-pixel max-of-Gaussians, scalar math only."""
    w, h = scene.image_size
    map_h = math.ceil(h / params.stride)
    map_w = math.ceil(w / params.stride)
    out = np.zeros((topo.confidence_channels, map_h, map_w), dtype=np.float64)
    for part in topo.parts:
        sigma = params.sigma_for(part.group)
        for i in range(map_h):
            for j in range(map_w):
                px, py = j * params.stride, i * params.stride
                best = 0.0
                for person in scene.people:
                    entry = person.parts.get(part.part_id)
                    if entry is None or entry[2] == Visibility.MISSING:
                        continue
                    d2 = (px - entry[0]) ** 2 + (py - entry[1]) ** 2
                    best = max(best, math.exp(-d2 / sigma**2))
                out[part.part_id, i, j] = best
    if topo.background_index is not None:
        out[topo.background_index] = 1.0 - out[: topo.n_parts].max(axis=0)
    return out


def loop_encode_confidence(scene, topo, params):
    """Per-part max over persons of float64 full-grid Gaussians, cast once."""
    map_h = math.ceil(scene.image_size[1] / params.stride)
    map_w = math.ceil(scene.image_size[0] / params.stride)
    out = np.zeros((topo.confidence_channels, map_h, map_w), dtype=np.float32)
    ys = np.arange(map_h, dtype=np.float64) * params.stride
    xs = np.arange(map_w, dtype=np.float64) * params.stride

    for part in topo.parts:
        sigma2 = params.sigma_for(part.group) ** 2
        acc = None
        for person in scene.people:
            entry = person.parts.get(part.part_id)
            if entry is None or entry[2] == Visibility.MISSING:
                continue
            px, py = entry[0], entry[1]
            gy = np.exp(-((ys - py) ** 2) / sigma2)
            gx = np.exp(-((xs - px) ** 2) / sigma2)
            g = np.outer(gy, gx)
            acc = g if acc is None else np.maximum(acc, g)
        if acc is not None:
            out[part.part_id] = acc.astype(np.float32)

    bg = topo.background_index
    if bg is not None:
        if topo.n_parts:
            out[bg] = 1.0 - out[: topo.n_parts].max(axis=0)
        else:
            out[bg] = 1.0
    return out


def loop_encode_paf(scene, topo, params):
    """Per (limb, person) band on its bounding window, float64 sums in
    limb-major, person-minor order, divided by the count per cell."""
    map_h = math.ceil(scene.image_size[1] / params.stride)
    map_w = math.ceil(scene.image_size[0] / params.stride)
    out = np.zeros((2 * topo.n_limbs, map_h, map_w), dtype=np.float32)
    counts = np.zeros((topo.n_limbs, map_h, map_w), dtype=np.int32)
    acc = np.zeros((2 * topo.n_limbs, map_h, map_w), dtype=np.float64)
    stride = params.stride
    group_of = {p.part_id: p.group for p in topo.parts}

    for limb in topo.limbs:
        width = params.limb_width_for(group_of[limb.src])
        for person in scene.people:
            src = person.parts.get(limb.src)
            dst = person.parts.get(limb.dst)
            if src is None or dst is None:
                continue
            if src[2] == Visibility.MISSING or dst[2] == Visibility.MISSING:
                continue
            sx, sy = src[0], src[1]
            dx, dy = dst[0], dst[1]
            length = math.hypot(dx - sx, dy - sy)
            if length == 0.0:
                continue
            ux, uy = (dx - sx) / length, (dy - sy) / length

            x0 = max(0, int((min(sx, dx) - width) // stride))
            x1 = min(map_w - 1, int((max(sx, dx) + width) // stride) + 1)
            y0 = max(0, int((min(sy, dy) - width) // stride))
            y1 = min(map_h - 1, int((max(sy, dy) + width) // stride) + 1)
            if x0 > x1 or y0 > y1:
                continue
            cx = np.arange(x0, x1 + 1, dtype=np.float64) * stride
            cy = np.arange(y0, y1 + 1, dtype=np.float64) * stride
            gx, gy = np.meshgrid(cx, cy)
            rx, ry = gx - sx, gy - sy
            t = np.clip(rx * ux + ry * uy, 0.0, length)
            dist2 = (rx - t * ux) ** 2 + (ry - t * uy) ** 2
            band = dist2 <= width * width
            if not band.any():
                continue
            sl = (slice(y0, y1 + 1), slice(x0, x1 + 1))
            acc[2 * limb.limb_id][sl][band] += ux
            acc[2 * limb.limb_id + 1][sl][band] += uy
            counts[limb.limb_id][sl][band] += 1

    limb, i, j = np.nonzero(counts)
    c = counts[limb, i, j]
    out[2 * limb, i, j] = acc[2 * limb, i, j] / c
    out[2 * limb + 1, i, j] = acc[2 * limb + 1, i, j] / c
    return out


def point_segment_distance(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / seg2))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(px - cx, py - cy)


def oracle_paf(scene, topo, params):
    """Full-grid scan: every cell against every (limb, person) band."""
    w, h = scene.image_size
    map_h = math.ceil(h / params.stride)
    map_w = math.ceil(w / params.stride)
    out = np.zeros((2 * topo.n_limbs, map_h, map_w), dtype=np.float64)
    group_of = {p.part_id: p.group for p in topo.parts}
    for limb in topo.limbs:
        width = params.limb_width_for(group_of[limb.src])
        for i in range(map_h):
            for j in range(map_w):
                px, py = j * params.stride, i * params.stride
                vecs = []
                for person in scene.people:
                    src = person.parts.get(limb.src)
                    dst = person.parts.get(limb.dst)
                    if src is None or dst is None:
                        continue
                    if src[2] == Visibility.MISSING or dst[2] == Visibility.MISSING:
                        continue
                    length = math.hypot(dst[0] - src[0], dst[1] - src[1])
                    if length == 0.0:
                        continue
                    d = point_segment_distance(px, py, src[0], src[1], dst[0], dst[1])
                    if d <= width:
                        vecs.append(((dst[0] - src[0]) / length, (dst[1] - src[1]) / length))
                if vecs:
                    out[2 * limb.limb_id, i, j] = sum(v[0] for v in vecs) / len(vecs)
                    out[2 * limb.limb_id + 1, i, j] = sum(v[1] for v in vecs) / len(vecs)
    return out


def oracle_nms(channel, threshold, window):
    """Exhaustive grid scan for strict local maxima at or above threshold.
    A NaN cell is never a peak, and never blocks one (NaN >= v is false)."""
    h, w = channel.shape
    r = window // 2
    peaks = []
    for i in range(h):
        for j in range(w):
            v = channel[i, j]
            if not v >= threshold:
                continue
            strict = True
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and channel[ni, nj] >= v:
                        strict = False
                        break
                if not strict:
                    break
            if strict:
                peaks.append((i, j, v))
    return peaks


def oracle_greedy_match(connections):
    """Sort-and-sweep reference for greedy bipartite matching.

    connections: list of (score, src_id, dst_id) for *valid* candidates.
    Returns the accepted (src_id, dst_id) pairs in acceptance order.
    """
    order = sorted(connections, key=lambda c: (-c[0], c[1], c[2]))
    used_src, used_dst, accepted = set(), set(), []
    for score, s, d in order:
        if s in used_src or d in used_dst:
            continue
        used_src.add(s)
        used_dst.add(d)
        accepted.append((s, d))
    return accepted


def oracle_limb_scores(paf, limb, src_xy, dst_xy, params):
    """(scores, valid) of every src x dst pair of one limb, row-major in src,
    with no prefilter. src_xy / dst_xy are (n, 2) arrays of map coords.

    One pair and one sample at a time: samples at np.linspace positions
    along the segment, each read bilinearly from the limb's two PAF planes
    (floored corner clipped to the map, far corner clamped at the border,
    fractions clipped to [0, 1], the four weighted corners summed in the
    order (x0, y0), (x1, y0), (x0, y1), (x1, y1)) and dotted with the unit
    limb direction. The score is the mean of the pair's dots (np.mean, one
    row per pair); a pair is valid when it has nonzero length and at least
    min_valid_samples dots clear sample_threshold."""
    src_xy = np.asarray(src_xy, dtype=np.float64).reshape(-1, 2).tolist()
    dst_xy = np.asarray(dst_xy, dtype=np.float64).reshape(-1, 2).tolist()
    H, W = paf.shape[1:]
    # float64 holds every float32 cell exactly.
    plane_x = np.asarray(paf[2 * limb.limb_id], dtype=np.float64).tolist()
    plane_y = np.asarray(paf[2 * limb.limb_id + 1], dtype=np.float64).tolist()
    t = np.linspace(0.0, 1.0, params.n_samples).tolist()
    dots, nonzero = [], []
    for sx, sy in src_xy:
        for dx, dy in dst_xy:
            vecx, vecy = dx - sx, dy - sy
            length = float(np.hypot(vecx, vecy))
            nonzero.append(length > 1e-12)
            if not nonzero[-1]:
                dots.extend([0.0] * len(t))
                continue
            ux, uy = vecx / length, vecy / length
            for tk in t:
                px, py = sx + tk * vecx, sy + tk * vecy
                x0, y0 = math.floor(px), math.floor(py)
                x0 = 0 if x0 < 0 else W - 1 if x0 > W - 1 else x0
                y0 = 0 if y0 < 0 else H - 1 if y0 > H - 1 else y0
                x1 = x0 + 1 if x0 < W - 1 else x0
                y1 = y0 + 1 if y0 < H - 1 else y0
                fx, fy = px - x0, py - y0
                fx = 0.0 if fx < 0.0 else 1.0 if fx > 1.0 else fx
                fy = 0.0 if fy < 0.0 else 1.0 if fy > 1.0 else fy
                gx, gy = 1 - fx, 1 - fy
                w00, w10, w01, w11 = gx * gy, fx * gy, gx * fy, fx * fy
                ax0, ax1, ay0, ay1 = plane_x[y0], plane_x[y1], plane_y[y0], plane_y[y1]
                vx = ax0[x0] * w00 + ax0[x1] * w10 + ax1[x0] * w01 + ax1[x1] * w11
                vy = ay0[x0] * w00 + ay0[x1] * w10 + ay1[x0] * w01 + ay1[x1] * w11
                dots.append(vx * ux + vy * uy)
    dots = np.array(dots).reshape(len(nonzero), len(t))
    nonzero = np.array(nonzero, dtype=bool)
    scores = np.where(nonzero, np.mean(dots, axis=1), 0.0)
    valid = nonzero & ((dots > params.sample_threshold).sum(axis=1) >= params.min_valid_samples)
    return scores, valid


def oracle_support_keep(paf, ch, sx, sy, dx, dy, params):
    """Indices of the pairs (limb ch, from (sx, sy) to (dx, dy)) that have at
    least min_valid_samples supported sample positions: the exact set the
    decoder's prefilter must keep.

    One pair and one sample position at a time, with the scorer's
    positions (np.linspace, floor, clip to the map). A position is supported
    when a cell of its bilinear corner block, the floored cell and its
    right, lower and lower-right neighbours clamped at the border, holds a
    long vector: squared float64 length above threshold**2 * (1 - 1e-9),
    or, for a threshold below 1e-150 whose square underflows, any nonzero
    component. NaN cells are never long."""
    H, W = paf.shape[1:]
    thr = params.sample_threshold

    def is_long(vx, vy):
        if thr < 1e-150:
            return abs(vx) > 0.0 or abs(vy) > 0.0
        return vx * vx + vy * vy > thr * thr * (1.0 - 1e-9)

    cells = np.asarray(paf, dtype=np.float64).tolist()
    long = [
        [[is_long(vx, vy) for vx, vy in zip(row_x, row_y)]
         for row_x, row_y in zip(cells[2 * limb], cells[2 * limb + 1])]
        for limb in range(len(cells) // 2)
    ]
    t = np.linspace(0.0, 1.0, params.n_samples).tolist()
    keep = []
    for p, (limb, x_a, y_a, x_b, y_b) in enumerate(zip(
        np.asarray(ch).tolist(), np.asarray(sx).tolist(), np.asarray(sy).tolist(),
        np.asarray(dx).tolist(), np.asarray(dy).tolist(),
    )):
        vecx, vecy = x_b - x_a, y_b - y_a
        plane = long[limb]
        supported = 0
        for tk in t:
            x0 = min(max(math.floor(x_a + tk * vecx), 0), W - 1)
            y0 = min(max(math.floor(y_a + tk * vecy), 0), H - 1)
            x1, y1 = min(x0 + 1, W - 1), min(y0 + 1, H - 1)
            supported += plane[y0][x0] or plane[y0][x1] or plane[y1][x0] or plane[y1][x1]
        if supported >= params.min_valid_samples:
            keep.append(p)
    return keep


def oracle_decode(conf, paf, topo, params):
    """Reference decode: each limb's full candidate grid scored on its own,
    matched with oracle_greedy_match, then a plain union-find over the
    accepted pairs. Asserts that no cluster holds two candidates of one
    part. Member scores are summed with np.sum in row order and connection
    scores one by one in acceptance order, the summation order the decoder
    uses, so person scores compare exactly."""
    part, xs, ys, score = _nms_arrays(conf, topo, params)
    accepted = []  # (src row, dst row, paf score), limb by limb
    for limb in topo.limbs:
        src = np.flatnonzero(part == limb.src)
        dst = np.flatnonzero(part == limb.dst)
        if not src.size or not dst.size:
            continue
        scores, valid = oracle_limb_scores(
            paf, limb, np.stack([xs[src], ys[src]], 1), np.stack([xs[dst], ys[dst]], 1), params
        )
        by_pair = {}
        for k in np.flatnonzero(valid):
            by_pair[int(src[k // dst.size]), int(dst[k % dst.size])] = float(scores[k])
        for s, d in oracle_greedy_match([(v, s, d) for (s, d), v in by_pair.items()]):
            accepted.append((s, d, by_pair[s, d]))

    parent = list(range(part.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for s, d, _ in accepted:
        parent[find(s)] = find(d)
    clusters = {}
    for row in range(part.size):
        clusters.setdefault(find(row), []).append(row)
    link_score = {}
    for s, _, v in accepted:
        link_score[find(s)] = link_score.get(find(s), 0.0) + v

    poses = []
    for root, rows in clusters.items():
        pids = [int(part[r]) for r in rows]
        assert len(set(pids)) == len(pids), f"cluster {rows} holds two candidates of one part"
        total = float(score[rows].sum()) + link_score.get(root, 0.0)
        if len(rows) < params.min_parts or total < params.resolved_min_score:
            continue
        poses.append(Pose(
            parts={p: (float(xs[r]), float(ys[r]), float(score[r])) for p, r in zip(pids, rows)},
            candidate_ids=dict(zip(pids, rows)),
            person_score=total,
        ))
    poses.sort(key=lambda p: (-p.person_score, min(p.candidate_ids.values())))
    return poses


def oracle_receptive_field(layers):
    """Hand-unrolled receptive field recurrence over (kernel, stride) pairs."""
    rf, jump = 1, 1
    for k, s in layers:
        rf += (k - 1) * jump
        jump *= s
    return rf


def oracle_oks(det_parts, gt_parts, gt_area, kappa, part_ids):
    """Scalar OKS: mean Gaussian similarity over labeled parts in the subset."""
    s2 = gt_area
    total, count = 0.0, 0
    for pid in part_ids:
        if pid not in gt_parts:
            continue
        count += 1
        if pid in det_parts:
            dx = det_parts[pid][0] - gt_parts[pid][0]
            dy = det_parts[pid][1] - gt_parts[pid][1]
            total += math.exp(-(dx * dx + dy * dy) / (2.0 * s2 * kappa[pid] ** 2))
    if count == 0:
        raise ValueError("no labeled parts in subset")
    return total / count


def oracle_greedy_oks_assign(det_list, gt_list, oks_fn, threshold):
    """Greedy matching by descending score, explicit loops.

    det_list: [(score, det_parts)], gt_list: [gt_parts]. Returns the matched
    gt index (None if unmatched) per detection in descending-score order.
    """
    order = sorted(range(len(det_list)), key=lambda i: -det_list[i][0])
    taken = set()
    assigned = []
    for di in order:
        best, best_val = None, threshold
        for gi in range(len(gt_list)):
            if gi in taken:
                continue
            val = oks_fn(det_list[di][1], gt_list[gi])
            if val >= best_val:
                best, best_val = gi, val
        if best is not None:
            taken.add(best)
        assigned.append(best)
    return assigned


def oracle_greedy_oks_match(det_list, gt_list, oks_fn, threshold):
    """tp flags of oracle_greedy_oks_assign, in descending-score order."""
    return [gi is not None for gi in oracle_greedy_oks_assign(det_list, gt_list, oks_fn, threshold)]


def oracle_ap_101(tp_flags, n_gt):
    """AP by direct definition: for each of the 101 recall grid points, the
    best precision among prefixes whose recall reaches that point."""
    ap = 0.0
    for step in range(101):
        r = step / 100.0
        best = 0.0
        tp = fp = 0
        for flag in tp_flags:
            tp += int(flag)
            fp += int(not flag)
            if n_gt > 0 and tp / n_gt >= r - 1e-12:
                best = max(best, tp / (tp + fp))
        ap += best
    return ap / 101.0


def oracle_jittered_template(
    topo: SkeletonTopology,
    subtrees: list[tuple[int, list[int]]],
    rng: np.random.Generator,
    jitter_deg: float,
) -> dict[int, tuple[float, float]]:
    """Template coordinates after rotating each limb's subtree around its src
    joint by an independent uniform angle (forward kinematics down the tree)."""
    template = topo.template_pose
    if template is None:
        raise ValueError("topology manifest carries no template_pose; cannot synthesize scenes")
    pos = {pid: (float(x), float(y)) for pid, (x, y) in template.items()}
    for src, subtree in subtrees:
        theta = math.radians(rng.uniform(-jitter_deg, jitter_deg))
        c, s = math.cos(theta), math.sin(theta)
        ox, oy = pos[src]
        for pid in subtree:
            x, y = pos[pid]
            rx, ry = x - ox, y - oy
            pos[pid] = (ox + c * rx - s * ry, oy + s * rx + c * ry)
    return pos


def oracle_place_person(
    topo: SkeletonTopology,
    subtrees: list[tuple[int, list[int]]],
    recipe: SceneRecipe,
    rng: np.random.Generator,
    placed_boxes: list[tuple[float, float, float, float]],
    attempts_left: int,
) -> tuple[dict[int, tuple[float, float]], tuple[float, float, float, float], int]:
    w, h = recipe.image_size
    m = EDGE_MARGIN_PX
    while attempts_left > 0:
        attempts_left -= 1
        skel = oracle_jittered_template(topo, subtrees, rng, recipe.jitter_deg)
        scale = rng.uniform(*recipe.person_scale)
        theta = math.radians(rng.uniform(-recipe.rotation_deg, recipe.rotation_deg))
        c, s = math.cos(theta), math.sin(theta)
        pts = {
            pid: (scale * (c * x - s * y), scale * (s * x + c * y))
            for pid, (x, y) in skel.items()
        }
        xs = [p[0] for p in pts.values()]
        ys = [p[1] for p in pts.values()]
        bw, bh = max(xs) - min(xs), max(ys) - min(ys)
        if bw >= w - 2 * m or bh >= h - 2 * m:
            continue
        ox = rng.uniform(m - min(xs), w - m - max(xs))
        oy = rng.uniform(m - min(ys), h - m - max(ys))
        box = (min(xs) + ox, min(ys) + oy, max(xs) + ox, max(ys) + oy)
        if all(_box_gap(box, other) > recipe.min_separation for other in placed_boxes):
            return ({pid: (x + ox, y + oy) for pid, (x, y) in pts.items()}, box, attempts_left)
    raise PackingError(
        f"could not place {len(placed_boxes) + 1} of {recipe.n_people} people "
        f"within {recipe.max_attempts} attempts"
    )


def oracle_generate(recipe: SceneRecipe, topo: SkeletonTopology, scene_id: int = 0) -> AnnotatedScene:
    """synth.generate with the dict-per-attempt placement above: every
    attempt rebuilds the jittered template as a dict, one scalar angle draw
    per limb."""
    if recipe.n_people == 0:
        return AnnotatedScene(
            image_size=recipe.image_size, people=[], coverage=recipe.coverage,
            no_people=True, scene_id=scene_id,
        )
    rng = _rng(recipe.seed, scene_id)
    subtrees = _limb_subtrees(topo)
    boxes: list[tuple[float, float, float, float]] = []
    people: list[Person] = []
    attempts = recipe.max_attempts
    for _ in range(recipe.n_people):
        pts, box, attempts = oracle_place_person(topo, subtrees, recipe, rng, boxes, attempts)
        boxes.append(box)
        parts: dict[int, tuple[float, float, Visibility]] = {}
        for part in topo.parts:
            if part.group not in recipe.coverage:
                continue
            p_missing = float(recipe.missing_prob.get(part.group, 0.0))
            if p_missing > 0.0 and rng.random() < p_missing:
                continue
            x, y = pts[part.part_id]
            parts[part.part_id] = (x, y, Visibility.LABELED)
        people.append(Person(parts))
    return AnnotatedScene(
        image_size=recipe.image_size, people=people, coverage=recipe.coverage,
        scene_id=scene_id,
    )
