from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from faceseg.druid_loss import (
    DruidGroundTruth,
    LossWeights,
    SEGMENT_IDS,
    batch_loss,
    face_visibility,
    loss_grad,
    stack_targets,
    total_loss,
)
from faceseg.druid_model import normalized_targets
from faceseg.geometry import BBox, SegmentCatalog

CATALOG = SegmentCatalog.default()


def make_gt(face=(0.2, 0.2, 0.8, 0.8), hidden=()):
    gt = DruidGroundTruth.from_face(BBox(*face), CATALOG)
    for seg in hidden:
        gt.vis[seg] = 0
    return gt


def perfect_preds(gt):
    seg = np.zeros((14, 10))
    face = np.array(gt.face.as_tuple())
    for i, s in enumerate(SEGMENT_IDS):
        seg[i, :4] = gt.boxes[s].as_tuple()
        seg[i, 4] = gt.vis[s]
        seg[i, 5:9] = face
        seg[i, 9] = gt.v_f
    return seg, np.concatenate([face, [gt.v_f]])


def random_preds(rng, scale=0.6):
    seg = rng.uniform(-scale, 1 + scale, size=(14, 10))
    face = rng.uniform(-scale, 1 + scale, size=5)
    return seg, face


def test_face_visibility_examples():
    vis = {s: 1 for s in SEGMENT_IDS[:7]} | {s: 0 for s in SEGMENT_IDS[7:]}
    assert face_visibility(vis) == 0.5
    assert face_visibility({s: 0 for s in SEGMENT_IDS}) == 0.0
    assert face_visibility({s: 1 for s in SEGMENT_IDS}) == 1.0


def test_face_visibility_rejects_nonbinary():
    with pytest.raises(ValueError):
        face_visibility([0.5] * 14)
    with pytest.raises(ValueError):
        face_visibility([1] * 13)


def test_zero_loss_at_ground_truth():
    for hidden in ((), ("NS", "EP"), tuple(SEGMENT_IDS[:10])):
        gt = make_gt(hidden=hidden)
        seg, face = perfect_preds(gt)
        for mode in ("literal", "smooth"):
            assert total_loss(seg, face, gt, mode=mode) == 0.0


def breakdown(seg, face, gt, **kw):
    return total_loss(seg, face, gt, return_breakdown=True, **kw)[1].branches


def test_ordering_penalty_literal_indicator():
    # visible branch predicting x1 > x2 pays exactly (v * 1)^2 = 1
    gt = make_gt()
    seg, face = perfect_preds(gt)
    seg[0, 0], seg[0, 2] = 0.6, 0.4
    assert breakdown(seg, face, gt, mode="literal")[SEGMENT_IDS[0]]["own"]["x"] == 1.0


def test_overlap_term_value():
    # gt (0,0,2,2) vs pred (1,1,3,3): intersection 1, union 7
    gt = make_gt(face=(0.0, 0.0, 2.0, 2.0))
    seg, face = perfect_preds(gt)
    face[:4] = (1.0, 1.0, 3.0, 3.0)
    assert breakdown(seg, face, gt)["F"]["face"]["O"] == pytest.approx((1 - 1 / 7) ** 2)


def test_containment_hinge_value():
    # face x1 = 0.10, segment prediction x1 = 0.08 leaks left by 0.02
    gt = make_gt(face=(0.10, 0.10, 0.90, 0.90))
    seg, face = perfect_preds(gt)
    i = SEGMENT_IDS.index("U12")
    seg[i, 0] = 0.08
    assert breakdown(seg, face, gt)["U12"]["own"]["x1"] == pytest.approx((1 * 0.02) ** 2)


def test_printed_overlap_indicator_is_constant_gate():
    gt = make_gt()
    seg, face = perfect_preds(gt)
    rng = np.random.default_rng(0)
    for _ in range(5):
        i = rng.integers(14)
        seg2 = seg.copy()
        seg2[i, :4] = rng.uniform(0, 1, 4)
        own = breakdown(seg2, face, gt, printed_overlap_indicator=True)[SEGMENT_IDS[i]]["own"]
        assert own["O"] == 1.0  # gate fires, box ignored


def test_total_loss_linearity_in_weights():
    rng = np.random.default_rng(1)
    gt = make_gt(hidden=("B12",))
    seg, face = random_preds(rng)
    base = total_loss(seg, face, gt, LossWeights())
    doubled = total_loss(seg, face, gt, LossWeights(**{k: 2.0 for k in LossWeights().as_dict()}))
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    zero = total_loss(seg, face, gt, LossWeights(**{k: 0.0 for k in LossWeights().as_dict()}))
    assert zero == 0.0


def test_terms_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        hidden = [s for s in SEGMENT_IDS if rng.random() < 0.4]
        gt = make_gt(hidden=hidden)
        seg, face = random_preds(rng)
        for mode in ("literal", "smooth"):
            total, bd = total_loss(seg, face, gt, mode=mode, return_breakdown=True)
            assert total >= 0.0
            for branch in bd.branches.values():
                for fam in branch.values():
                    assert all(v >= -0.0 for v in fam.values())


def test_invisible_segment_gates_all_gated_terms():
    gt = make_gt(hidden=("NS",))
    seg, face = perfect_preds(gt)
    i = SEGMENT_IDS.index("NS")
    seg[i, :4] = (0.9, 0.9, 0.1, 0.1)  # wildly wrong and inverted
    own = breakdown(seg, face, gt)["NS"]["own"]
    for term in ("x", "y", "x1", "x2", "y1", "y2", "O"):
        assert own[term] == 0.0
    assert own["b"] > 0.0  # box distance itself is not gated


def test_smooth_mode_is_continuous_across_hinge():
    gt = make_gt()
    seg, face = perfect_preds(gt)
    i = SEGMENT_IDS.index("L12")
    vals = []
    for eps in (-1e-8, 0.0, 1e-8):
        s = seg.copy()
        s[i, 0] = s[i, 2] + eps  # straddle the x-ordering hinge
        vals.append(total_loss(s, face, gt, mode="smooth"))
    # no jump: the two-sided difference is bounded by the (finite) slope
    assert abs(vals[0] - vals[2]) < 1e-6
    assert abs(vals[0] - vals[1]) < 1e-6


def test_grad_of_visibility_is_two_delta():
    gt = make_gt()
    seg, face = perfect_preds(gt)
    seg[3, 4] = 0.25
    dseg, dface = loss_grad(seg, face, gt)
    want = 2 * (0.25 - gt.vis[SEGMENT_IDS[3]])
    assert dseg[3, 4] == pytest.approx(want, rel=1e-12)


def test_grad_zero_at_ground_truth():
    gt = make_gt(hidden=("EP",))
    seg, face = perfect_preds(gt)
    dseg, dface = loss_grad(seg, face, gt)
    assert np.allclose(dseg, 0.0)
    assert np.allclose(dface, 0.0)


def test_grad_literal_mode_rejected():
    gt = make_gt()
    seg, face = perfect_preds(gt)
    with pytest.raises(ValueError):
        loss_grad(seg, face, gt, mode="literal")


def test_nonfinite_inputs_rejected():
    gt = make_gt()
    seg, face = perfect_preds(gt)
    seg[0, 0] = np.nan
    with pytest.raises(ValueError):
        total_loss(seg, face, gt)


def _away_from_hinges(seg, face, gt, margin=1e-5):
    """True when no hinge argument sits within ``margin`` of its boundary."""
    C = np.array(gt.face.as_tuple())
    ok = True
    for P in (seg[:, :4], seg[:, 5:9], face[None, :4]):
        gaps = [P[:, 0] - P[:, 2], P[:, 1] - P[:, 3],
                C[0] - P[:, 0], P[:, 2] - C[2], C[1] - P[:, 1], P[:, 3] - C[3]]
        ok &= all(np.all(np.abs(g) > margin) for g in gaps)
        # IOU kinks: corner crossings and degenerate overlap edges
        G = gt.seg_box_array() if P.shape[0] == 14 else C[None]
        for k in range(4):
            ok &= bool(np.all(np.abs(P[:, k] - G[:, k]) > margin))
    return ok


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    weights = LossWeights(b=1.3, v=0.7, x=1.1, y=0.9, x1=1.2, x2=0.8, y1=1.05, y2=0.95, O=1.4)
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 100:
        hidden = [s for s in SEGMENT_IDS if rng.random() < 0.3]
        gt = make_gt(face=tuple(np.sort(rng.uniform(0.05, 0.95, 2)).tolist()
                                + np.sort(rng.uniform(1.05, 1.95, 2)).tolist()))
        # reorder into (x1,y1,x2,y2) with a valid box
        x1, x2 = np.sort(rng.uniform(0.0, 1.0, 2))
        y1, y2 = np.sort(rng.uniform(0.0, 1.0, 2))
        gt = make_gt(face=(x1, y1, x2 + 0.1, y2 + 0.1), hidden=hidden)
        seg, face = random_preds(rng, scale=0.4)
        if not _away_from_hinges(seg, face, gt, margin=1e-4):
            continue
        dseg, dface = loss_grad(seg, face, gt, weights)
        flat = np.concatenate([seg.ravel(), face])
        grad = np.concatenate([dseg.ravel(), dface])
        num = np.zeros_like(flat)
        for j in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[j] += h
            dn[j] -= h
            num[j] = (total_loss(up[:140].reshape(14, 10), up[140:], gt, weights)
                      - total_loss(dn[:140].reshape(14, 10), dn[140:], gt, weights)) / (2 * h)
        denom = np.maximum(np.abs(num), 1.0)
        rel = np.abs(grad - num) / denom
        worst = max(worst, rel.max())
        checked += 1
    assert worst < 1e-4, f"max relative gradient error {worst}"


def test_loss_shape_validation():
    gt = make_gt()
    seg, face = perfect_preds(gt)
    with pytest.raises(ValueError):
        total_loss(seg[0], face, gt)
    with pytest.raises(ValueError):
        loss_grad(seg, face[:4], gt)
    with pytest.raises(ValueError):
        total_loss(seg, face, gt, mode="exact")


WEIGHTS = LossWeights(b=1.3, v=0.7, x=1.1, y=0.9, x1=1.2, x2=0.8, y1=1.05, y2=0.95, O=1.4)


def mixed_batch(rng, n=6, margin=None):
    """Face and no-face (every third) targets with random predictions; with
    ``margin``, each sample's predictions stay that far from every hinge."""
    gts, segs, faces = [], [], []
    while len(gts) < n:
        if len(gts) % 3 == 2:
            gt = normalized_targets((64, 64), None)
        else:
            x1, y1 = rng.uniform(0.0, 0.5, 2)
            gt = make_gt(face=(x1, y1, x1 + rng.uniform(0.3, 0.5), y1 + rng.uniform(0.3, 0.5)),
                         hidden=[s for s in SEGMENT_IDS if rng.random() < 0.3])
        seg, face = random_preds(rng, scale=0.4)
        if margin is not None and not _away_from_hinges(seg, face, gt, margin):
            continue
        gts.append(gt)
        segs.append(seg)
        faces.append(face)
    box_mask = np.array([float(gt.v_f > 0) for gt in gts])
    return gts, np.stack(segs), np.stack(faces), box_mask


@pytest.mark.parametrize("mode", ["smooth", "literal"])
@pytest.mark.parametrize("printed", [False, True])
def test_batch_loss_rows_equal_single_sample_wrappers(mode, printed):
    rng = np.random.default_rng(11)
    gts, seg, face, box_mask = mixed_batch(rng)
    losses, rows, grad = batch_loss(seg, face, stack_targets(gts), WEIGHTS, mode, printed,
                                    box_mask=box_mask)
    assert (grad is None) == (mode == "literal")
    for j, gt in enumerate(gts):
        # no-face samples drop the box term; every other term self-gates
        w = WEIGHTS if box_mask[j] else replace(WEIGHTS, b=0.0)
        total, bd = total_loss(seg[j], face[j], gt, w, mode, printed, return_breakdown=True)
        assert losses[j] == pytest.approx(total, rel=1e-12, abs=0.0)
        for i, s in enumerate(SEGMENT_IDS):
            assert list(bd.branches[s]["own"].values()) == rows[j, i].tolist()
            assert list(bd.branches[s]["face"].values()) == rows[j, 14 + i].tolist()
        assert list(bd.branches["F"]["face"].values()) == rows[j, 28].tolist()
        if mode == "smooth":
            # the printed overlap term is a constant gate: no gradient
            dseg, dface = loss_grad(seg[j], face[j], gt, replace(w, O=0.0) if printed else w)
            assert np.array_equal(grad[0][j], dseg) and np.array_equal(grad[1][j], dface)


def test_batch_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    gts, seg, face, box_mask = mixed_batch(rng, margin=1e-4)
    targets = stack_targets(gts)
    _, _, (dseg, dface) = batch_loss(seg, face, targets, WEIGHTS, box_mask=box_mask)

    def batch_total(s, f):
        return batch_loss(s, f, targets, WEIGHTS, box_mask=box_mask, want_grad=False)[0].sum()

    h = 1e-5
    for arr, grad in ((seg, dseg), (face, dface)):
        num = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + h
            up = batch_total(seg, face)
            arr[idx] = old - h
            dn = batch_total(seg, face)
            arr[idx] = old
            num[idx] = (up - dn) / (2 * h)
        assert np.max(np.abs(grad - num) / np.maximum(np.abs(num), 1.0)) < 1e-4


coord = st.floats(-2.0, 3.0)


@settings(max_examples=80, deadline=None)
@given(origin=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
       size=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)),
       hidden=st.lists(st.booleans(), min_size=14, max_size=14),
       no_face=st.booleans(), mode=st.sampled_from(["smooth", "literal"]),
       printed=st.booleans(),
       seg=hnp.arrays(np.float64, (14, 10), elements=coord),
       face=hnp.arrays(np.float64, 5, elements=coord))
def test_batch_loss_nonnegative_and_zero_at_ground_truth(origin, size, hidden, no_face, mode,
                                                         printed, seg, face):
    if no_face:
        gt = normalized_targets((64, 64), None)
    else:
        (x1, y1), (w, h) = origin, size
        gt = make_gt(face=(x1, y1, x1 + w, y1 + h),
                     hidden=[s for s, hide in zip(SEGMENT_IDS, hidden) if hide])
    exact_seg, exact_face = perfect_preds(gt)
    mask = [float(not no_face)] * 2
    losses, rows, _ = batch_loss(np.stack([seg, exact_seg]), np.stack([face, exact_face]),
                                 stack_targets([gt, gt]), WEIGHTS, mode, printed, box_mask=mask)
    assert np.all(rows[0] >= 0.0) and losses[0] >= 0.0
    if printed:
        # the printed indicator charges every visible branch a constant 1
        assert np.all(rows[1][:, :8] == 0.0)
    else:
        assert losses[1] == 0.0 and np.all(rows[1] == 0.0)
