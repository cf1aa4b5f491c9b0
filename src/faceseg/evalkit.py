"""Detection evaluation: IOU matching, ROC (TAR vs FAR), precision-recall,
and the proposal-coverage upper bound.

FAR is computed over no-face images only; a detection on a face image counts
toward TAR only when it overlaps the ground truth at the working threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from faceseg.geometry import BBox, ImageMeta


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two validated boxes (0 when disjoint or
    both degenerate)."""
    a.validate()
    b.validate()
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


@dataclass
class ImageOutcome:
    """Per-image evaluation record.

    ``score`` is None when the detector produced nothing; ``iou_with_gt`` is
    present exactly when both a detection and a ground-truth face exist.
    """

    image_id: str
    has_gt_face: bool
    score: float | None = None
    iou_with_gt: float | None = None

    def __post_init__(self):
        both = self.score is not None and self.has_gt_face
        if (self.iou_with_gt is not None) != both:
            raise ValueError("iou_with_gt must be present iff detection and gt face exist")


def outcome(image_id: str, gt_face: BBox | None, det_box: BBox | None,
            score: float | None, img: ImageMeta, clip: bool = True) -> ImageOutcome:
    """Assemble an ImageOutcome; boxes are clipped to the image so partially
    out-of-frame ground truth is compared on its visible part."""
    has_gt = gt_face is not None
    iou_val = None
    if has_gt and det_box is not None:
        g, d = gt_face, det_box
        if clip:
            g = g.clip(img.width, img.height)
            d = d.clip(img.width, img.height)
        iou_val = iou(d, g)
    return ImageOutcome(image_id=image_id, has_gt_face=has_gt,
                        score=score if det_box is not None else None,
                        iou_with_gt=iou_val)


@dataclass
class Curve:
    """Sweep points (threshold, x, y); CSV rows in sweep order."""

    points: list[tuple[float, float, float]]

    def to_csv(self) -> str:
        lines = ["threshold,x,y"]
        lines += [f"{t!r},{x!r},{y!r}" for t, x, y in self.points]
        return "\n".join(lines) + "\n"

    def xs(self) -> list[float]:
        return [p[1] for p in self.points]

    def ys(self) -> list[float]:
        return [p[2] for p in self.points]


def _score_sweep(outcomes):
    scores = sorted({o.score for o in outcomes if o.score is not None}, reverse=True)
    return scores


def roc_curve(outcomes: list[ImageOutcome], theta: float = 0.5,
              far_target: float = 0.01) -> tuple[Curve, float]:
    """ROC over the threshold sweep plus interpolated TAR at the FAR target.

    TAR(t): fraction of face images whose detection scores >= t and overlaps
    ground truth at theta.  FAR(t): fraction of no-face images with any
    detection scoring >= t.
    """
    n_face = sum(1 for o in outcomes if o.has_gt_face)
    n_noface = sum(1 for o in outcomes if not o.has_gt_face)
    if n_noface == 0:
        raise ValueError("FAR undefined: no no-face images in outcomes")
    if n_face == 0:
        raise ValueError("TAR undefined: no face images in outcomes")

    hits = np.array(sorted(o.score for o in outcomes
                           if o.has_gt_face and o.score is not None
                           and o.iou_with_gt is not None and o.iou_with_gt >= theta))
    fps = np.array(sorted(o.score for o in outcomes
                          if not o.has_gt_face and o.score is not None))
    points = []
    for t in _score_sweep(outcomes):
        tar = (hits.size - np.searchsorted(hits, t, side="left")) / n_face
        far = (fps.size - np.searchsorted(fps, t, side="left")) / n_noface
        points.append((t, float(far), float(tar)))
    return Curve(points), tar_at_far(Curve(points), far_target)


def tar_at_far(curve: Curve, target: float) -> float:
    """Linear interpolation of TAR at the given FAR along the sweep."""
    # collapse duplicate FARs to their best TAR; sweep order makes that the last
    far_to_tar: dict[float, float] = {0.0: 0.0}
    for _, far, tar in curve.points:
        far_to_tar[far] = max(tar, far_to_tar.get(far, 0.0))
    xs = sorted(far_to_tar)
    ys = [far_to_tar[x] for x in xs]
    if target >= xs[-1]:
        return ys[-1]
    return float(np.interp(target, xs, ys))


def pr_curve(outcomes: list[ImageOutcome], theta: float = 0.5,
             precision_target: float = 0.99) -> tuple[Curve, float]:
    """Precision-recall over the sweep plus recall at the precision target.

    Precision counts every detection that fired (face or no-face image);
    recall is over all ground-truth faces.  Recall at target precision uses
    the best sweep point meeting the target (no interpolation).
    """
    n_face = sum(1 for o in outcomes if o.has_gt_face)
    if n_face == 0:
        raise ValueError("recall undefined: no face images in outcomes")
    det_scores = np.array(sorted(o.score for o in outcomes if o.score is not None))
    hit_scores = np.array(sorted(o.score for o in outcomes
                                 if o.has_gt_face and o.score is not None
                                 and o.iou_with_gt is not None and o.iou_with_gt >= theta))
    points = []
    best = 0.0
    for t in _score_sweep(outcomes):
        fired = det_scores.size - np.searchsorted(det_scores, t, side="left")
        if fired == 0:
            continue
        tp = hit_scores.size - np.searchsorted(hit_scores, t, side="left")
        precision = tp / fired
        recall = tp / n_face
        points.append((t, float(recall), float(precision)))
        if precision >= precision_target:
            best = max(best, recall)
    return Curve(points), float(best)


def coverage_upper_bound(proposal_boxes: list[list[BBox]], gt_faces: list[BBox],
                         thetas) -> Curve:
    """Fraction of ground-truth faces covered by at least one proposal at each
    overlap threshold; sweep runs from high theta to low."""
    if len(proposal_boxes) != len(gt_faces):
        raise ValueError("one proposal list per ground-truth face required")
    best = []
    for boxes, gt in zip(proposal_boxes, gt_faces):
        best.append(max((iou(b, gt) for b in boxes), default=0.0))
    best_arr = np.array(best) if best else np.zeros(0)
    points = []
    for theta in sorted(thetas, reverse=True):
        cov = float(np.mean(best_arr >= theta)) if best_arr.size else 0.0
        points.append((float(theta), float(theta), cov))
    return Curve(points)


def coverage_at(curve: Curve, theta: float) -> float:
    for t, _, y in curve.points:
        if abs(t - theta) < 1e-12:
            return y
    raise KeyError(f"coverage curve has no point at theta={theta}")
