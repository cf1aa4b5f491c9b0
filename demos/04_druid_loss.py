#!/usr/bin/env python3
"""Regression loss walkthrough: per-term values on hand-built cases and the
finite-difference check of the analytic gradient."""

import numpy as np

from faceseg.druid_loss import (
    DruidGroundTruth, LossWeights, SEGMENT_IDS,
    face_visibility, loss_grad, total_loss,
)
from faceseg.geometry import BBox, SegmentCatalog

catalog = SegmentCatalog.default()
gt = DruidGroundTruth.from_face(BBox(0.2, 0.2, 0.8, 0.8), catalog)

# perfect predictions: every term zero
seg = np.zeros((14, 10))
for i, s in enumerate(SEGMENT_IDS):
    seg[i, :4] = gt.boxes[s].as_tuple()
    seg[i, 4] = 1.0
    seg[i, 5:9] = gt.face.as_tuple()
    seg[i, 9] = 1.0
face = np.array([*gt.face.as_tuple(), 1.0])
print("loss at ground truth:", total_loss(seg, face, gt))

# an inverted box pays the ordering penalty; a leak past the face border
# pays the containment hinge; a shifted box pays the overlap term
bad = seg.copy()
i = SEGMENT_IDS.index("NS")
bad[i, 0], bad[i, 2] = 0.6, 0.4         # x1 > x2
bad[i, 1] = 0.1                          # above the face box
_, bd = total_loss(bad, face, gt, mode="literal", return_breakdown=True)
own = bd.branches["NS"]["own"]
print("\nbroken NS branch, literal mode:")
for term in ("x", "y1", "O", "b"):
    print(f"  L_{term} = {own[term]:.4f}")

print("\nface visibility target examples:")
vis = dict.fromkeys(SEGMENT_IDS, 0)
for k in list(vis)[:7]:
    vis[k] = 1
print("  7 of 14 visible ->", face_visibility(vis))

# smooth-mode gradient vs central differences on a random prediction
rng = np.random.default_rng(0)
pred_seg = rng.uniform(0, 1, (14, 10))
pred_face = rng.uniform(0, 1, 5)
w = LossWeights()
dseg, dface = loss_grad(pred_seg, pred_face, gt, w)
h = 1e-5
errs = []
for _ in range(50):
    j = rng.integers(140 + 5)
    flat = np.concatenate([pred_seg.ravel(), pred_face])
    up, dn = flat.copy(), flat.copy()
    up[j] += h
    dn[j] -= h
    num = (total_loss(up[:140].reshape(14, 10), up[140:], gt, w)
           - total_loss(dn[:140].reshape(14, 10), dn[140:], gt, w)) / (2 * h)
    ana = np.concatenate([dseg.ravel(), dface])[j]
    errs.append(abs(ana - num) / max(abs(num), 1.0))
print(f"\ngradient check on 50 random coordinates: max rel err {max(errs):.2e}")
