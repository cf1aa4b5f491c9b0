"""Regression loss suite for segment-aware face localization.

Nine per-branch terms combine into the training objective: squared box and
visibility errors, coordinate-ordering penalties, containment hinges against
the full-face box, and an overlap term.  Every term is gated by the relevant
ground-truth visibility, so occluded segments contribute nothing through the
gated terms.  ``literal`` mode evaluates the indicator forms; ``smooth`` mode
replaces bare indicators with squared hinges and is the differentiable
training surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from faceseg.geometry import BBox, SegmentCatalog, SEGMENT_IDS, segment_from_face

TERMS = ("b", "v", "x", "y", "x1", "x2", "y1", "y2", "O")

FACE_BRANCH = "F"


@dataclass
class LossWeights:
    """Per-term weights; the composite loss is the weighted sum of terms."""

    b: float = 1.0
    v: float = 1.0
    x: float = 1.0
    y: float = 1.0
    x1: float = 1.0
    x2: float = 1.0
    y1: float = 1.0
    y2: float = 1.0
    O: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"loss weight {f.name} must be >= 0")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_config(cls, cfg: dict) -> "LossWeights":
        kwargs = {k[len("lambda_"):]: float(v) for k, v in cfg.items()
                  if k.startswith("lambda_")}
        return cls(**kwargs)


@dataclass
class DruidGroundTruth:
    """Ground truth for one sample: face box, 14 segment boxes, visibilities.

    The face box is the full geometric extent and may reach outside the image
    after occlusion crops; visibilities mark which segments remain fully
    inside the visible part.
    """

    face: BBox
    boxes: dict[str, BBox]
    vis: dict[str, int]

    @classmethod
    def from_face(cls, face: BBox, catalog: SegmentCatalog) -> "DruidGroundTruth":
        """Fully visible ground truth derived from a face box."""
        boxes = {seg: segment_from_face(seg, face, catalog) for seg in SEGMENT_IDS}
        return cls(face=face, boxes=boxes, vis={seg: 1 for seg in SEGMENT_IDS})

    @property
    def v_f(self) -> float:
        return face_visibility(self.vis)

    def seg_box_array(self) -> np.ndarray:
        return np.array([self.boxes[s].as_tuple() for s in SEGMENT_IDS])

    def vis_array(self) -> np.ndarray:
        return np.array([float(self.vis[s]) for s in SEGMENT_IDS])

    def validate(self, tol: float = 1e-9) -> "DruidGroundTruth":
        self.face.validate()
        if set(self.boxes) != set(SEGMENT_IDS) or set(self.vis) != set(SEGMENT_IDS):
            raise ValueError("ground truth must cover all 14 segments")
        for seg in SEGMENT_IDS:
            if self.vis[seg] not in (0, 1):
                raise ValueError(f"visibility for {seg} must be 0 or 1")
            box = self.boxes[seg].validate()
            if self.vis[seg] == 1:
                inside = (box.x1 >= self.face.x1 - tol and box.y1 >= self.face.y1 - tol
                          and box.x2 <= self.face.x2 + tol and box.y2 <= self.face.y2 + tol)
                if not inside:
                    raise ValueError(f"visible segment {seg} not inside face box")
        return self


def face_visibility(vis) -> float:
    """Mean visibility over the 14 segments (the face confidence target)."""
    if isinstance(vis, dict):
        values = [vis[s] for s in SEGMENT_IDS]
    else:
        values = list(np.asarray(vis, dtype=float).ravel())
    if len(values) != len(SEGMENT_IDS):
        raise ValueError(f"expected {len(SEGMENT_IDS)} visibilities, got {len(values)}")
    if any(v not in (0, 0.0, 1, 1.0) for v in values):
        raise ValueError("segment visibilities must be binary")
    return float(sum(values)) / len(values)


def _iou_and_grad(P: np.ndarray, G: np.ndarray, want_grad: bool):
    """IOU of predicted boxes against valid target boxes along the last axis.

    Widths are clamped at zero so inverted predictions behave like empty
    boxes; at min/max ties the zero subgradient is chosen.
    """
    pw = np.maximum(0.0, P[..., 2] - P[..., 0])
    ph = np.maximum(0.0, P[..., 3] - P[..., 1])
    gw = G[..., 2] - G[..., 0]
    gh = G[..., 3] - G[..., 1]
    ap = pw * ph
    ag = gw * gh
    iw = np.maximum(0.0, np.minimum(P[..., 2], G[..., 2]) - np.maximum(P[..., 0], G[..., 0]))
    ih = np.maximum(0.0, np.minimum(P[..., 3], G[..., 3]) - np.maximum(P[..., 1], G[..., 1]))
    ai = iw * ih
    union = ap + ag - ai
    pos = union > 0
    iou = np.where(pos, ai / np.where(pos, union, 1.0), 0.0)
    if not want_grad:
        return iou, None

    live_w = (pw > 0).astype(float)
    live_h = (ph > 0).astype(float)
    dap = np.stack([-ph * live_w, -pw * live_h, ph * live_w, pw * live_h], axis=-1)
    ilive = (iw > 0) & (ih > 0)
    dai = np.stack([
        -ih * ((P[..., 0] > G[..., 0]) & ilive),
        -iw * ((P[..., 1] > G[..., 1]) & ilive),
        ih * ((P[..., 2] < G[..., 2]) & ilive),
        iw * ((P[..., 3] < G[..., 3]) & ilive),
    ], axis=-1)
    dunion = dap - dai
    denom = np.where(pos, union * union, 1.0)
    diou = np.where(pos[..., None],
                    (dai * union[..., None] - ai[..., None] * dunion) / denom[..., None], 0.0)
    return iou, diou


def stack_targets(gts) -> tuple[np.ndarray, np.ndarray]:
    """Targets of N samples as boxes (N, 29, 4) and gates (N, 29).

    Rows 0-13 hold the segment boxes gated by their visibilities; rows 14-28
    hold the face box gated by v_F, as each branch's face-estimate target and
    as the face head's.  Every row's visibility target equals its gate, and
    the face box (row 28) is the containing box of every row.
    """
    boxes = np.empty((len(gts), 29, 4))
    gates = np.empty((len(gts), 29))
    for i, gt in enumerate(gts):
        boxes[i, :14] = gt.seg_box_array()
        boxes[i, 14:] = gt.face.as_tuple()
        gates[i, :14] = gt.vis_array()
        gates[i, 14:] = gt.v_f
    return boxes, gates


def batch_loss(seg_preds, face_preds, targets, weights: LossWeights | None = None,
               mode: str = "smooth", printed_overlap_indicator: bool = False,
               box_mask=None, want_grad: bool = True):
    """Loss of N samples, their per-term rows and the gradient, in one pass.

    ``seg_preds`` (N, 14, 10) and ``face_preds`` (N, 5) are branch and face
    head outputs; ``targets`` is the pair from ``stack_targets``.
    ``box_mask`` (N,) scales the ungated box term per sample: no-face samples
    pass 0, and all their other terms self-gate at v = 0.

    Returns (losses (N,), rows (N, 29, 9) of term values in TERMS order,
    grad).  ``grad`` is (dseg (N, 14, 10), dface (N, 5)) of the smooth loss;
    it is None when not wanted and in literal mode, whose indicators are flat
    almost everywhere.
    """
    if mode not in ("literal", "smooth"):
        raise ValueError(f"unknown mode {mode!r}")
    weights = weights or LossWeights()
    G, gate = targets
    n = G.shape[0]
    P = np.concatenate([seg_preds[:, :, :4], seg_preds[:, :, 5:9], face_preds[:, None, :4]],
                       axis=1)
    pv = np.concatenate([seg_preds[:, :, 4], seg_preds[:, :, 9], face_preds[:, 4:]], axis=1)
    C = G[:, -1:]
    g2 = gate * gate
    gated = (gate != 0).astype(float)
    wb = np.full(n, weights.b) if box_mask is None else weights.b * np.asarray(box_mask, float)
    want_grad = want_grad and mode == "smooth"

    diff = P - G
    hx = np.maximum(0.0, P[..., 0] - P[..., 2])
    hy = np.maximum(0.0, P[..., 1] - P[..., 3])
    hx1 = np.maximum(0.0, C[..., 0] - P[..., 0])
    hx2 = np.maximum(0.0, P[..., 2] - C[..., 2])
    hy1 = np.maximum(0.0, C[..., 1] - P[..., 1])
    hy2 = np.maximum(0.0, P[..., 3] - C[..., 3])
    if printed_overlap_indicator:
        # the printed indicator 1[IOU <= 0] zeroes the IOU contribution, so
        # the term collapses to the visibility gate alone
        overlap = gated
    else:
        iou, diou = _iou_and_grad(P, G, want_grad)
        overlap = ((1.0 - iou) * gated) ** 2
    if mode == "literal":
        order_x, order_y = g2 * (hx > 0), g2 * (hy > 0)
    else:
        order_x, order_y = g2 * hx * hx, g2 * hy * hy
    rows = np.stack([np.sum(diff * diff, axis=-1), (pv - gate) ** 2, order_x, order_y,
                     g2 * hx1 * hx1, g2 * hx2 * hx2, g2 * hy1 * hy1, g2 * hy2 * hy2,
                     overlap], axis=-1)
    w = np.tile([getattr(weights, t) for t in TERMS], (n, 1))
    w[:, 0] = wb
    losses = (rows.sum(axis=1) * w).sum(axis=1)
    if not want_grad:
        return losses, rows, None

    dP = (wb * 2.0)[:, None, None] * diff
    dpv = weights.v * 2.0 * (pv - gate)
    dP[..., 0] += weights.x * 2.0 * g2 * hx
    dP[..., 2] -= weights.x * 2.0 * g2 * hx
    dP[..., 1] += weights.y * 2.0 * g2 * hy
    dP[..., 3] -= weights.y * 2.0 * g2 * hy
    dP[..., 0] -= weights.x1 * 2.0 * g2 * hx1
    dP[..., 2] += weights.x2 * 2.0 * g2 * hx2
    dP[..., 1] -= weights.y1 * 2.0 * g2 * hy1
    dP[..., 3] += weights.y2 * 2.0 * g2 * hy2
    if not printed_overlap_indicator:
        dP += weights.O * (-2.0 * (1.0 - iou) * gated)[..., None] * diou

    dseg = np.empty((n, 14, 10))
    dseg[:, :, :4], dseg[:, :, 4] = dP[:, :14], dpv[:, :14]
    dseg[:, :, 5:9], dseg[:, :, 9] = dP[:, 14:28], dpv[:, 14:28]
    dface = np.concatenate([dP[:, 28], dpv[:, 28:]], axis=1)
    return losses, rows, (dseg, dface)


@dataclass
class LossBreakdown:
    """Per-branch, per-term loss values plus the weighted total."""

    branches: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    total: float = 0.0


def _one_sample(seg_preds, face_pred, gt: DruidGroundTruth):
    seg_preds = np.asarray(seg_preds, dtype=float)
    face_pred = np.asarray(face_pred, dtype=float)
    if seg_preds.shape != (14, 10) or face_pred.shape != (5,):
        raise ValueError("expected 14x10 segment outputs and a 5-value face output")
    if not (np.all(np.isfinite(seg_preds)) and np.all(np.isfinite(face_pred))):
        raise ValueError("non-finite values in loss inputs")
    return seg_preds[None], face_pred[None], stack_targets([gt])


def total_loss(seg_preds, face_pred, gt: DruidGroundTruth,
               weights: LossWeights | None = None, mode: str = "smooth",
               printed_overlap_indicator: bool = False,
               return_breakdown: bool = False):
    """Composite loss of one sample over all 15 branches.

    Each segment branch contributes its own-box family and its auxiliary
    face-estimate family; the face head contributes the face family computed
    on its 5 outputs.
    """
    losses, rows, _ = batch_loss(*_one_sample(seg_preds, face_pred, gt), weights, mode,
                                 printed_overlap_indicator, want_grad=False)
    total = float(losses[0])
    if not return_breakdown:
        return total
    r = rows[0].tolist()
    bd = LossBreakdown(total=total)
    for i, seg in enumerate(SEGMENT_IDS):
        bd.branches[seg] = {"own": dict(zip(TERMS, r[i])), "face": dict(zip(TERMS, r[14 + i]))}
    bd.branches[FACE_BRANCH] = {"face": dict(zip(TERMS, r[28]))}
    return total, bd


def loss_grad(seg_preds, face_pred, gt: DruidGroundTruth,
              weights: LossWeights | None = None,
              mode: str = "smooth") -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of one sample's ``total_loss`` with respect to every
    prediction.

    Only the smooth surrogate is differentiable; literal indicators have zero
    gradient almost everywhere and are rejected.
    """
    if mode != "smooth":
        raise ValueError("gradients are defined for smooth mode only; "
                         "literal indicators are flat almost everywhere")
    _, _, (dseg, dface) = batch_loss(*_one_sample(seg_preds, face_pred, gt), weights)
    return dseg[0], dface[0]
