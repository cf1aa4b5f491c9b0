import numpy as np
import pytest

from faceseg.evalkit import (
    Curve,
    ImageOutcome,
    coverage_at,
    coverage_upper_bound,
    iou,
    outcome,
    pr_curve,
    roc_curve,
    tar_at_far,
)
from faceseg.geometry import BBox, ImageMeta


def test_iou_basic():
    assert iou(BBox(0, 0, 2, 2), BBox(0, 0, 2, 2)) == 1.0
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1 / 7)
    # both degenerate
    assert iou(BBox(1, 1, 1, 1), BBox(1, 1, 1, 1)) == 0.0


def test_match_at_overlap_inclusive():
    # ROC hits and coverage both count IOU >= theta, with equality a match
    a, b = BBox(0, 0, 1, 1), BBox(0, 0, 1, 2)
    img = ImageMeta(10, 10)
    hit = outcome("f", b, a, 0.8, img)
    assert hit.iou_with_gt == iou(a, b) == 0.5
    noface = outcome("n", None, None, None, img)
    assert roc_curve([hit, noface], theta=0.5)[0].points[-1][2] == 1.0
    assert roc_curve([hit, noface], theta=np.nextafter(0.5, 1.0))[0].points[-1][2] == 0.0
    cov = coverage_upper_bound([[a], [BBox(0, 0, 2, 2)]], [b, BBox(1, 1, 3, 3)], [0.5])
    assert cov.points == [(0.5, 0.5, 0.5)]


def test_outcome_invariant_enforced():
    with pytest.raises(ValueError):
        ImageOutcome("x", has_gt_face=True, score=0.5, iou_with_gt=None)
    with pytest.raises(ValueError):
        ImageOutcome("x", has_gt_face=False, score=0.5, iou_with_gt=0.3)
    ImageOutcome("x", has_gt_face=True, score=None, iou_with_gt=None)


def test_outcome_clips_boxes_to_image():
    img = ImageMeta(100, 100)
    gt = BBox(50, 0, 150, 100)   # half outside
    det = BBox(50, 0, 100, 100)  # nails the visible part
    o = outcome("a", gt, det, 0.9, img, clip=True)
    assert o.iou_with_gt == pytest.approx(1.0)
    o2 = outcome("a", gt, det, 0.9, img, clip=False)
    assert o2.iou_with_gt == pytest.approx(0.5)


def three_outcome_fixture():
    return [
        ImageOutcome("hit", True, 0.9, 0.8),    # matched detection
        ImageOutcome("miss", True, 0.8, 0.2),   # fired but bad overlap
        ImageOutcome("bg", False, 0.7, None),   # false alarm on no-face image
    ]


def test_roc_hand_sweep():
    curve, _ = roc_curve(three_outcome_fixture(), theta=0.5)
    by_t = {t: (far, tar) for t, far, tar in curve.points}
    assert by_t[0.9] == (0.0, 0.5)
    assert by_t[0.8] == (0.0, 0.5)
    assert by_t[0.7] == (1.0, 0.5)


def test_roc_perfect_detector():
    outcomes = [ImageOutcome(f"f{i}", True, 0.9 + 0.001 * i, 1.0) for i in range(5)]
    outcomes += [ImageOutcome(f"n{i}", False, 0.1, None) for i in range(5)]
    curve, tar1 = roc_curve(outcomes)
    assert tar1 == 1.0
    # TAR 1 reached while FAR still 0
    assert any(far == 0.0 and tar == 1.0 for _, far, tar in curve.points)


def test_roc_requires_noface_images():
    with pytest.raises(ValueError):
        roc_curve([ImageOutcome("f", True, 0.5, 1.0)])


def test_pr_hand_sweep():
    curve, r99 = pr_curve(three_outcome_fixture(), theta=0.5, precision_target=0.99)
    by_t = {t: (recall, precision) for t, recall, precision in curve.points}
    assert by_t[0.9] == (0.5, 1.0)
    assert by_t[0.8] == (0.5, 0.5)
    assert r99 == 0.5


def test_pr_perfect_and_uniform():
    outcomes = [ImageOutcome(f"f{i}", True, 1.0 - 0.01 * i, 1.0) for i in range(4)]
    curve, r = pr_curve(outcomes, precision_target=0.99)
    assert r == 1.0
    # equal scores, half matched: single sweep point with precision 0.5
    equal = [ImageOutcome("a", True, 0.5, 1.0), ImageOutcome("b", True, 0.5, 0.0)]
    curve, _ = pr_curve(equal)
    assert len(curve.points) == 1
    assert curve.points[0][2] == 0.5


def brute_force_roc_pr(outcomes, theta):
    """Independent per-threshold recount used as the exactness oracle."""
    scores = sorted({o.score for o in outcomes if o.score is not None}, reverse=True)
    n_face = sum(o.has_gt_face for o in outcomes)
    n_noface = sum(not o.has_gt_face for o in outcomes)
    roc, pr = [], []
    for t in scores:
        tp = sum(1 for o in outcomes if o.has_gt_face and o.score is not None
                 and o.score >= t and o.iou_with_gt is not None and o.iou_with_gt >= theta)
        fired = sum(1 for o in outcomes if o.score is not None and o.score >= t)
        fp_img = sum(1 for o in outcomes if not o.has_gt_face and o.score is not None
                     and o.score >= t)
        roc.append((t, fp_img / n_noface, tp / n_face))
        pr.append((t, tp / n_face, tp / fired))
    return roc, pr


def random_outcomes(rng, n):
    out = []
    for i in range(n):
        has_face = rng.random() < 0.7
        fired = rng.random() < 0.9
        score = float(np.round(rng.random(), 3)) if fired else None  # induce ties
        iou_v = float(rng.random()) if (has_face and fired) else None
        out.append(ImageOutcome(f"i{i}", has_face, score, iou_v))
    return out


def test_roc_pr_match_brute_force_recount():
    rng = np.random.default_rng(0)
    outcomes = random_outcomes(rng, 1000)
    theta = 0.5
    roc_want, pr_want = brute_force_roc_pr(outcomes, theta)
    roc_got, _ = roc_curve(outcomes, theta=theta)
    pr_got, _ = pr_curve(outcomes, theta=theta)
    assert roc_got.points == roc_want
    assert pr_got.points == pr_want


def test_random_scores_auc_near_half():
    rng = np.random.default_rng(1)
    outcomes = []
    for i in range(10000):
        has_face = bool(rng.random() < 0.5)
        score = float(rng.random())
        outcomes.append(ImageOutcome(f"i{i}", has_face, score,
                                     1.0 if has_face else None))
    curve, _ = roc_curve(outcomes)
    xs = np.array([p[1] for p in curve.points])
    ys = np.array([p[2] for p in curve.points])
    auc = np.trapezoid(ys, xs)
    assert abs(auc - 0.5) < 0.05


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    outcomes = random_outcomes(rng, 300)
    _, tar_a = roc_curve(outcomes)
    _, rec_a = pr_curve(outcomes)
    warped = [ImageOutcome(o.image_id, o.has_gt_face,
                           None if o.score is None else float(np.exp(3 * o.score)),
                           o.iou_with_gt) for o in outcomes]
    _, tar_b = roc_curve(warped)
    _, rec_b = pr_curve(warped)
    assert tar_a == pytest.approx(tar_b)
    assert rec_a == pytest.approx(rec_b)


def test_coverage_curve_properties():
    rng = np.random.default_rng(3)
    gts, props = [], []
    for _ in range(50):
        gt = BBox(10, 10, 60, 60)
        gts.append(gt)
        boxes = [BBox(10 + rng.uniform(-5, 5), 10 + rng.uniform(-5, 5),
                      60 + rng.uniform(-5, 5), 60 + rng.uniform(-5, 5))
                 for _ in range(rng.integers(1, 5))]
        props.append(boxes)
    thetas = [0.001, 0.25, 0.5, 0.75, 0.95]
    curve = coverage_upper_bound(props, gts, thetas)
    assert coverage_at(curve, 0.001) == 1.0  # every face has a proposal
    ys = [y for _, _, y in curve.points]  # sweep is high theta -> low
    assert all(a <= b for a, b in zip(ys, ys[1:]))


def test_tar_at_far_interpolates():
    curve = Curve([(0.9, 0.0, 0.4), (0.5, 0.02, 0.8)])
    # linear between (0, 0.4) and (0.02, 0.8) at 0.01
    assert tar_at_far(curve, 0.01) == pytest.approx(0.6)
    assert tar_at_far(curve, 0.5) == 0.8


def test_curve_csv_shape():
    curve = Curve([(0.9, 0.0, 0.4)])
    assert curve.to_csv() == "threshold,x,y\n0.9,0.0,0.4\n"
