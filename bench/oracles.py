"""Reference computations the benchmark checks the program against.

Everything here is written apart from the program's own kernels and
bookkeeping: a convolution by shifted slices (no im2col, no ``nn.conv2d``),
forward passes of both networks built on it, and recounts of proposal
geometry, prior features, ROC / PR points and coverage.  Each ``check_*``
function returns a list of failure messages; an empty list means the
output holds.
"""

from __future__ import annotations

import math

import numpy as np

# relative tolerance for floating-point comparisons against the references;
# both sides compute in float64 and differ only in summation order
RTOL = 1e-9
# exact recounts (ratios of the same integer counts) still allow last-bit noise
EXACT = 1e-12


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --- reference layers ------------------------------------------------------------

def ref_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padding stride-1 convolution as a sum of shifted channel mixes."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, f, h, wd))
    for i in range(k):
        for j in range(k):
            out += np.einsum("nchw,fc->nfhw", xp[:, :, i:i + h, j:j + wd], w[:, :, i, j])
    return out + b[None, :, None, None]


def _pointwise(x, w, b):
    return np.einsum("nchw,fc->nfhw", x, w) + b[None, :, None, None]


def _pool2(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def _softmax1(logits):
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (z / z.sum(axis=1, keepdims=True))[:, 1]


def ref_dsf_probs(params: dict, patches: np.ndarray) -> np.ndarray:
    """Face probability of the multi-column scorer, patches (N, K, S, S)."""
    n, k = patches.shape[:2]
    feats = []
    for col in range(k):
        a = np.maximum(ref_conv2d(patches[:, col:col + 1], params[f"col{col}_w1"],
                                  params[f"col{col}_b1"]), 0.0)
        a = np.maximum(ref_conv2d(_pool2(a), params[f"col{col}_w2"],
                                  params[f"col{col}_b2"]), 0.0)
        r = _pointwise(_pool2(a), params[f"col{col}_wr"], params[f"col{col}_br"])
        feats.append(r.reshape(n, -1))
    hidden = np.maximum(np.concatenate(feats, axis=1) @ params["head_w"] + params["head_b"], 0.0)
    return _softmax1(hidden @ params["out_w"] + params["out_b"])


def ref_resize(image: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize over pixel centres with border clamping."""
    h, w = image.shape
    xs = np.clip((np.arange(side) + 0.5) * (w / side) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(side) + 0.5) * (h / side) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx, fy = (xs - x0)[None, :], (ys - y0)[:, None]
    top = image[y0][:, x0] * (1 - fx) + image[y0][:, x1] * fx
    bot = image[y1][:, x0] * (1 - fx) + image[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def ref_druid_face(params: dict, image: np.ndarray, side: int, thumb_side: int):
    """Face box (image pixels) and raw confidence from the regression network."""
    h, w = image.shape
    gray = ref_resize(image, side)
    ramp = (np.arange(side) + 0.5) / side
    x = np.stack([gray, np.broadcast_to(ramp[None, :], (side, side)),
                  np.broadcast_to(ramp[:, None], (side, side))])[None]
    a = x
    stage = 1
    while f"t{stage}_w" in params:
        s = ref_conv2d(a, params[f"t{stage}_w"], params[f"t{stage}_b"])
        s = s + _pointwise(a, params[f"t{stage}_pw"], params[f"t{stage}_pb"])
        a = _pool2(np.maximum(s, 0.0))
        stage += 1
    z = np.maximum(ref_conv2d(a, params["br_w"], params["br_b"]), 0.0)
    ch = params["head_w"].shape[1] - thumb_side * thumb_side
    pooled = z.mean(axis=(2, 3)).reshape(-1, ch)
    block = side // thumb_side
    thumb = gray.reshape(thumb_side, block, thumb_side, block).mean(axis=(1, 3)).ravel()
    merged = np.concatenate([pooled[-1], pooled[:-1].ravel(), thumb / thumb_side])
    out = merged @ params["fhead_w"] + params["fhead_b"]
    return (out[0] * w, out[1] * h, out[2] * w, out[3] * h), out[4]


# --- geometry recounts -------------------------------------------------------------

def ref_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, iw) * max(0.0, ih)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0.0 else 0.0


def clip_box(box, width, height):
    x1, y1, x2, y2 = box
    return (min(max(x1, 0.0), width), min(max(y1, 0.0), height),
            min(max(x2, 0.0), width), min(max(y2, 0.0), height))


def face_estimate(frac, box, width, height):
    """Full-face box and centre implied by one segment box (catalog fractions)."""
    fx1, fy1, fx2, fy2 = frac
    x1, y1, x2, y2 = clip_box(box, width, height)
    fw, fh = (x2 - x1) / (fx2 - fx1), (y2 - y1) / (fy2 - fy1)
    face = (x1 - fx1 * fw, y1 - fy1 * fh, x2 + (1.0 - fx2) * fw, y2 + (1.0 - fy2) * fh)
    tx = (0.5 - fx1) / (fx2 - fx1)
    ty = (0.5 - fy1) / (fy2 - fy1)
    centre = ((1.0 - tx) * x1 + tx * x2, y1 + ty * (y2 - y1))
    return clip_box(face, width, height), centre


def envelope(boxes):
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


def ref_clusters(dets, fractions, width, height, r):
    """Cluster member keys per cluster index: every unique detection seeds the
    set of detections whose face centres lie within r; repeated sets drop."""
    unique, seen = [], set()
    for seg, box in dets:
        if (seg, box) not in seen:
            seen.add((seg, box))
            unique.append((seg, box))
    centres = [face_estimate(fractions[s], b, width, height)[1] for s, b in unique]
    clusters, sets = [], set()
    for i, (cx, cy) in enumerate(centres):
        idx = frozenset(j for j, (x, y) in enumerate(centres) if math.hypot(x - cx, y - cy) <= r)
        if idx in sets:
            continue
        sets.add(idx)
        clusters.append((unique[i], {unique[j] for j in idx}))
    return clusters


def check_proposals(props, fractions, width, height, c, zeta, clusters=None, where=""):
    """Proposal invariants on (cluster_id, [(seg, box), ...], bbox) triples.

    Each proposal holds at least c members, the first of which is its
    cluster's anchor; no cluster yields more than zeta proposals; each box is
    the envelope of its members' face estimates.  With ``clusters`` (from
    ``ref_clusters``) the anchor and membership are checked against the
    recount; without, all proposals of one cluster must share the anchor.
    """
    errors = []
    per_cluster: dict[int, int] = {}
    anchors: dict[int, tuple] = {}
    for cid, members, bbox in props:
        per_cluster[cid] = per_cluster.get(cid, 0) + 1
        if len(members) < c:
            errors.append(f"{where} cluster {cid}: proposal with {len(members)} < c={c} members")
        if clusters is not None:
            anchor, member_set = clusters[cid]
            if members[0] != anchor:
                errors.append(f"{where} cluster {cid}: proposal does not start at the anchor")
            if not set(members) <= member_set:
                errors.append(f"{where} cluster {cid}: proposal member outside the cluster")
        elif anchors.setdefault(cid, members[0]) != members[0]:
            errors.append(f"{where} cluster {cid}: proposals disagree on the anchor")
        want = envelope([face_estimate(fractions[s], b, width, height)[0] for s, b in members])
        if not all(close(a, e) for a, e in zip(bbox, want)):
            errors.append(f"{where} cluster {cid}: box {bbox} is not the envelope {want}")
    for cid, n in per_cluster.items():
        if zeta is not None and n > zeta:
            errors.append(f"{where} cluster {cid}: {n} proposals > zeta={zeta}")
    return errors


# --- priors and scores ---------------------------------------------------------------

def prior_vector(tags, segments, seg_face, seg_nonface, ident_face, ident_nonface):
    present = set(tags)
    vec = []
    for seg in segments:
        vec += [seg_face[seg], seg_nonface[seg]] if seg in present else [0.0, 0.0]
    ident = tuple(sorted(tags))
    return vec + [ident_face.get(ident, 0.0), ident_nonface.get(ident, 0.0)]


def recount_priors(labeled, segments):
    """Occurrence fractions over (tags, is_face) pairs, counted from scratch."""
    faces = [t for t, y in labeled if y]
    nonfaces = [t for t, y in labeled if not y]

    def seg_frac(pool):
        return {s: sum(1 for t in pool if s in t) / len(pool) for s in segments}

    def ident_frac(pool):
        counts: dict[tuple, int] = {}
        for t in pool:
            key = tuple(sorted(t))
            counts[key] = counts.get(key, 0) + 1
        return {k: v / len(pool) for k, v in counts.items()}

    return seg_frac(faces), seg_frac(nonfaces), ident_frac(faces), ident_frac(nonfaces)


# --- curves ---------------------------------------------------------------------------

def recount_roc(outcomes, theta=0.5):
    """(threshold, FAR, TAR) at every distinct score, highest first."""
    n_face = sum(1 for o in outcomes if o[0])
    n_noface = len(outcomes) - n_face
    pts = []
    for t in sorted({o[1] for o in outcomes if o[1] is not None}, reverse=True):
        tar = sum(1 for f, s, i in outcomes if f and s is not None and s >= t
                  and i is not None and i >= theta)
        far = sum(1 for f, s, _ in outcomes if not f and s is not None and s >= t)
        pts.append((t, far / n_noface, tar / n_face))
    return pts


def recount_pr(outcomes, theta=0.5):
    """(threshold, recall, precision) at every distinct score, highest first."""
    n_face = sum(1 for o in outcomes if o[0])
    pts = []
    for t in sorted({o[1] for o in outcomes if o[1] is not None}, reverse=True):
        fired = sum(1 for _, s, _ in outcomes if s is not None and s >= t)
        tp = sum(1 for f, s, i in outcomes if f and s is not None and s >= t
                 and i is not None and i >= theta)
        pts.append((t, tp / n_face, tp / fired))
    return pts


def same_points(got, want) -> bool:
    return len(got) == len(want) and all(
        all(close(a, b, EXACT) for a, b in zip(g, w)) for g, w in zip(got, want))


def recount_coverage(best_ious, thetas):
    """Share of faces whose best proposal IOU reaches each theta."""
    return [(t, sum(1 for v in best_ious if v >= t) / len(best_ious)) for t in thetas]


# --- gradients --------------------------------------------------------------------------

def central_difference(loss_fn, params: dict, name: str, index, h: float = 1e-6) -> float:
    arr = params[name]
    old = arr[index]
    arr[index] = old + h
    up = loss_fn()
    arr[index] = old - h
    down = loss_fn()
    arr[index] = old
    return (up - down) / (2 * h)


def grad_matches(analytic: float, numeric: float) -> bool:
    return abs(analytic - numeric) <= 1e-7 + 1e-4 * abs(numeric)
