"""Toy trunk-plus-branches regression network for proposal-free detection.

Topology: a shared 3-stage residual conv trunk, 14 segment branches (one
further conv stage, global average pool, affine map to 10 outputs) and a
face head whose pooled features are merged with every branch's pooled vector
before the affine map to 5 outputs.  Trained end to end against the smooth
regression loss; a single forward pass yields the face box, its confidence,
and every segment box with visibility.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from faceseg import nn
from faceseg.druid_loss import DruidGroundTruth, LossWeights, batch_loss, stack_targets
from faceseg.geometry import BBox, SegmentCatalog, SEGMENT_IDS
from faceseg.imageops import bilinear_resize

logger = logging.getLogger(__name__)

INPUT_SIDE = 64
# gray plus two fixed coordinate ramps: global average pooling in the
# branches erases position, so box regression needs coordinates in-band
INPUT_CHANNELS = 3
TRUNK_CHANNELS = (8, 16, 32)
BRANCHES = len(SEGMENT_IDS) + 1  # 14 segments + face
BRANCH_CH = TRUNK_CHANNELS[-1]
# every head affine also reads a fixed intensity thumbnail of the input;
# pooled conv features alone cannot localize within the pinned step budget
THUMB_SIDE = 16
THUMB_DIM = THUMB_SIDE * THUMB_SIDE
HEAD_IN = BRANCH_CH + THUMB_DIM
FACE_HEAD_IN = BRANCHES * BRANCH_CH + THUMB_DIM
CANONICAL_FACE = (0.25, 0.25, 0.75, 0.75)


def input_tensor(grays: np.ndarray) -> np.ndarray:
    """(N, side, side) gray images -> (N, 3, side, side) with coord ramps."""
    n, s, s2 = grays.shape
    ramp = (np.arange(s) + 0.5) / s
    xg = np.broadcast_to(ramp[None, None, :], (n, s, s2))
    yg = np.broadcast_to(ramp[None, :, None], (n, s, s2))
    return np.stack([grays, xg, yg], axis=1)


@dataclass
class TrainConfig:
    """Adaptive-moment optimizer settings; defaults are the working recipe.

    ``decay`` is the per-update learning-rate decay lr/(1 + decay * t).
    """

    lr: float = 1e-4
    decay: float = 0.0
    epochs: int = 25
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("step size must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")


class DruidParams:
    """Named parameter arrays plus the input geometry."""

    def __init__(self, params: dict[str, np.ndarray], side: int = INPUT_SIDE):
        self.params = params
        self.side = side

    @classmethod
    def init(cls, seed: int = 0, catalog: SegmentCatalog | None = None) -> "DruidParams":
        catalog = catalog or SegmentCatalog.default()
        rng = np.random.default_rng(seed)
        p: dict[str, np.ndarray] = {}
        c_in = INPUT_CHANNELS
        for i, c_out in enumerate(TRUNK_CHANNELS, start=1):
            p[f"t{i}_w"] = nn.he_normal(rng, (c_out, c_in, 3, 3), 9 * c_in)
            p[f"t{i}_b"] = np.zeros(c_out)
            p[f"t{i}_pw"] = nn.he_normal(rng, (c_out, c_in), c_in)
            p[f"t{i}_pb"] = np.zeros(c_out)
            c_in = c_out
        p["br_w"] = nn.he_normal(rng, (BRANCHES * BRANCH_CH, BRANCH_CH, 3, 3), 9 * BRANCH_CH)
        p["br_b"] = np.zeros(BRANCHES * BRANCH_CH)

        # heads start near the canonical layout so early training is stable:
        # each branch predicts its segment's place in a centered face
        p["head_w"] = rng.standard_normal((14, HEAD_IN, 10)) * 0.01
        head_b = np.zeros((14, 10))
        fx1, fy1, fx2, fy2 = CANONICAL_FACE
        fw, fh = fx2 - fx1, fy2 - fy1
        for k, seg in enumerate(SEGMENT_IDS):
            fr = catalog[seg]
            head_b[k, :4] = (fx1 + fr.fx1 * fw, fy1 + fr.fy1 * fh,
                             fx1 + fr.fx2 * fw, fy1 + fr.fy2 * fh)
            head_b[k, 4] = 0.5
            head_b[k, 5:9] = CANONICAL_FACE
            head_b[k, 9] = 0.5
        p["head_b"] = head_b
        p["fhead_w"] = rng.standard_normal((FACE_HEAD_IN, 5)) * 0.01
        p["fhead_b"] = np.array([*CANONICAL_FACE, 0.5])
        return cls(p)

    def save(self, path) -> None:
        nn.save_model(path, "druid", self.params, meta={"side": self.side})

    @classmethod
    def load(cls, path) -> "DruidParams":
        params, meta = nn.load_model(path, "druid")
        obj = cls(params, int(meta["side"]))
        obj._check_shapes()
        return obj

    def _check_shapes(self) -> None:
        c_in = INPUT_CHANNELS
        for i, c_out in enumerate(TRUNK_CHANNELS, start=1):
            if self.params[f"t{i}_w"].shape != (c_out, c_in, 3, 3):
                raise ValueError(f"trunk stage {i} has inconsistent shape")
            c_in = c_out
        if self.params["br_w"].shape != (BRANCHES * BRANCH_CH, BRANCH_CH, 3, 3):
            raise ValueError("branch conv shape mismatch")
        if self.params["fhead_w"].shape != (FACE_HEAD_IN, 5):
            raise ValueError("face head shape mismatch")


def _stage(x, p, i):
    y, c_conv = nn.conv2d(x, p[f"t{i}_w"], p[f"t{i}_b"])
    s, c_proj = nn.conv1x1(x, p[f"t{i}_pw"], p[f"t{i}_pb"])
    a, c_relu = nn.relu(y + s)
    out, c_pool = nn.avgpool2(a)
    return out, (c_conv, c_proj, c_relu, c_pool)


def _stage_back(dout, cache, grads, i):
    c_conv, c_proj, c_relu, c_pool = cache
    da = nn.avgpool2_back(dout, c_pool)
    dsum = nn.relu_back(da, c_relu)
    dx1, grads[f"t{i}_w"], grads[f"t{i}_b"] = nn.conv2d_back(dsum, c_conv)
    dx2, grads[f"t{i}_pw"], grads[f"t{i}_pb"] = nn.conv1x1_back(dsum, c_proj)
    return dx1 + dx2


def forward(model: DruidParams, x: np.ndarray, want_cache: bool = False):
    """x: (N, 1, side, side) in [0,1] -> (seg_out (N,14,10), face_out (N,5))."""
    p = model.params
    if (x.ndim != 4 or x.shape[1] != INPUT_CHANNELS
            or x.shape[2] != model.side or x.shape[3] != model.side):
        raise ValueError(f"expected input (N,{INPUT_CHANNELS},{model.side},{model.side}), "
                         f"got {x.shape}")
    n = x.shape[0]
    h1, s1 = _stage(x, p, 1)
    h2, s2 = _stage(h1, p, 2)
    h3, s3 = _stage(h2, p, 3)
    z_pre, c_br = nn.conv2d(h3, p["br_w"], p["br_b"])
    z, r_br = nn.relu(z_pre)
    pooled_flat, c_gap = nn.gap(z)
    pooled = pooled_flat.reshape(n, BRANCHES, BRANCH_CH)
    seg_pool = pooled[:, :14]
    face_pool = pooled[:, 14]
    # fixed positional side channel for every head (not a learned path);
    # scaled down so its 256 correlated entries move heads no faster than
    # the pooled features under per-parameter adaptive steps
    block = model.side // THUMB_SIDE
    thumb = x[:, 0].reshape(n, THUMB_SIDE, block, THUMB_SIDE, block).mean(axis=(2, 4))
    thumb = thumb.reshape(n, THUMB_DIM) / THUMB_SIDE
    head_in = np.concatenate(
        [seg_pool, np.broadcast_to(thumb[:, None, :], (n, 14, THUMB_DIM))], axis=2)
    seg_out = np.einsum("nkc,kco->nko", head_in, p["head_w"]) + p["head_b"]
    merged = np.concatenate([face_pool, seg_pool.reshape(n, 14 * BRANCH_CH), thumb], axis=1)
    face_out = merged @ p["fhead_w"] + p["fhead_b"]
    if not want_cache:
        return seg_out, face_out, None
    return seg_out, face_out, (s1, s2, s3, c_br, r_br, c_gap, head_in, merged)


def backward(model: DruidParams, dseg: np.ndarray, dface: np.ndarray, cache):
    p = model.params
    s1, s2, s3, c_br, r_br, c_gap, head_in, merged = cache
    n = dseg.shape[0]
    grads: dict[str, np.ndarray] = {}

    grads["fhead_w"] = merged.T @ dface
    grads["fhead_b"] = dface.sum(axis=0)
    dmerged = dface @ p["fhead_w"].T
    dface_pool = dmerged[:, :BRANCH_CH]
    dseg_pool = dmerged[:, BRANCH_CH:BRANCH_CH + 14 * BRANCH_CH].reshape(n, 14, BRANCH_CH)

    grads["head_w"] = np.einsum("nkc,nko->kco", head_in, dseg)
    grads["head_b"] = dseg.sum(axis=0)
    # thumbnail entries are a fixed function of the input: no gradient path
    dseg_pool = dseg_pool + np.einsum("nko,kco->nkc", dseg,
                                      p["head_w"][:, :BRANCH_CH, :])

    dpooled = np.concatenate([dseg_pool, dface_pool[:, None, :]], axis=1)
    dz = nn.gap_back(dpooled.reshape(n, BRANCHES * BRANCH_CH), c_gap)
    dz_pre = nn.relu_back(dz, r_br)
    dh3, grads["br_w"], grads["br_b"] = nn.conv2d_back(dz_pre, c_br)
    dh2 = _stage_back(dh3, s3, grads, 3)
    dh1 = _stage_back(dh2, s2, grads, 2)
    _stage_back(dh1, s1, grads, 1)
    return grads


def normalized_targets(image_shape: tuple[int, int],
                       gt: DruidGroundTruth | None) -> DruidGroundTruth:
    """Ground truth in coordinates where the image is the unit square.

    No-face samples become an all-invisible target with zero boxes; the
    trainer masks the ungated box term for those.
    """
    h, w = image_shape
    if gt is None:
        zero = BBox(0.0, 0.0, 0.0, 0.0)
        return DruidGroundTruth(face=zero, boxes={s: zero for s in SEGMENT_IDS},
                                vis={s: 0 for s in SEGMENT_IDS})

    def norm(box: BBox) -> BBox:
        return BBox(box.x1 / w, box.y1 / h, box.x2 / w, box.y2 / h)

    return DruidGroundTruth(face=norm(gt.face),
                            boxes={s: norm(gt.boxes[s]) for s in SEGMENT_IDS},
                            vis=dict(gt.vis))


def _training_inputs(side: int, samples):
    """Network inputs, stacked loss targets and the per-sample box-term mask
    (0 for no-face samples) of (image, ground truth) pairs."""
    X = input_tensor(np.stack([bilinear_resize(img, side, side) for img, _ in samples]))
    targets = stack_targets([normalized_targets(img.shape, gt) for img, gt in samples])
    box_mask = np.array([float(gt is not None) for _, gt in samples])
    return X, targets, box_mask


def train(samples, cfg: TrainConfig, weights: LossWeights | None = None) -> DruidParams:
    """Fit the network on (image, ground truth) pairs; gt None means no face.

    Deterministic under cfg.seed; aborts if the loss stops being finite.
    Returns the trained parameters; per-epoch mean loss is logged.
    """
    if not samples:
        raise ValueError("training needs at least one sample")
    model = DruidParams.init(seed=cfg.seed)
    X, (boxes, gates), box_mask = _training_inputs(model.side, samples)

    def batch_grads(idx):
        seg_out, face_out, cache = forward(model, X[idx], want_cache=True)
        if not (np.all(np.isfinite(seg_out)) and np.all(np.isfinite(face_out))):
            return np.nan, None  # non-finite network outputs: fit aborts
        losses, _, (dseg, dface) = batch_loss(seg_out, face_out, (boxes[idx], gates[idx]),
                                              weights, box_mask=box_mask[idx])
        return losses.mean(), backward(model, dseg / len(idx), dface / len(idx), cache)

    nn.fit(model.params, len(samples), batch_grads, cfg.lr, cfg.epochs, cfg.batch_size,
           np.random.default_rng(cfg.seed), cfg.decay,
           lambda epoch, loss: logger.info("epoch %d mean loss %.6f", epoch, loss))
    return model


def training_loss(model: DruidParams, samples, weights: LossWeights | None = None) -> float:
    """Mean smooth-mode loss of the model over the samples."""
    X, targets, box_mask = _training_inputs(model.side, samples)
    seg_out, face_out, _ = forward(model, X)
    losses, _, _ = batch_loss(seg_out, face_out, targets, weights, box_mask=box_mask,
                              want_grad=False)
    return float(np.mean(losses))


@dataclass
class InferResult:
    """Face box with confidence plus all 14 (segment box, visibility) pairs."""

    face: BBox
    confidence: float
    segments: dict[str, tuple[BBox, float]]


def infer(image: np.ndarray, model: DruidParams) -> InferResult:
    """Single-pass inference; boxes are denormalized to image resolution and
    visibilities clamped to [0, 1] for reporting."""
    h, w = image.shape
    x = input_tensor(bilinear_resize(image, model.side, model.side)[None])
    seg_out, face_out, _ = forward(model, x)
    seg_out, face_out = seg_out[0], face_out[0]

    def denorm(vec) -> BBox:
        return BBox(vec[0] * w, vec[1] * h, vec[2] * w, vec[3] * h)

    segments = {}
    for k, seg in enumerate(SEGMENT_IDS):
        segments[seg] = (denorm(seg_out[k, :4]), float(np.clip(seg_out[k, 4], 0.0, 1.0)))
    return InferResult(face=denorm(face_out[:4]),
                       confidence=float(np.clip(face_out[4], 0.0, 1.0)),
                       segments=segments)
