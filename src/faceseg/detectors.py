"""The three proposal classifiers and their saved forms.

FSFD: a linear max-margin model over the 2M+2 prior features alone.
SegFace: per-segment gradient-histogram scorers feeding a master linear
model on the fused 3M+2 vector.  DeepSegFace-toy: a multi-column conv net
(one column per segment, zero input when absent) with a learned 1x1
reduction, concatenation, and a 2-way softmax head, re-ranked by priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from faceseg import nn
from faceseg.geometry import PROPOSAL_SEGMENTS
from faceseg.imageops import hog_features, sample_rect
from faceseg.priors import PriorTable, prior_features
from faceseg.proposals import Proposal


@dataclass
class LinearModel:
    """w.x + b decision value; sign is the class, magnitude the confidence."""

    w: np.ndarray
    b: float

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def decision(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"feature dimension {x.shape} != trained dimension ({self.dim},)")
        return float(self.w @ x + self.b)


def train_linear(features: np.ndarray, labels: np.ndarray, epochs: int = 120,
                 step: float = 0.5, seed: int = 0, penalty: float = 1e-4) -> LinearModel:
    """Hinge-loss linear model fit by seeded stochastic subgradient descent.

    Labels are +/-1; the objective is penalty/2 ||w||^2 + mean hinge.  The
    per-epoch step decays as step / sqrt(1 + epoch), and the shuffle order is
    seed-deterministic.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) with one label per row")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite features")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("training needs at least one example of each class")

    rng = np.random.default_rng(seed)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for epoch in range(epochs):
        eta = step / math.sqrt(1.0 + epoch)
        for i in rng.permutation(n):
            margin = y[i] * (w @ X[i] + b)
            w *= (1.0 - eta * penalty)
            if margin < 1.0:
                w += eta * y[i] * X[i]
                b += eta * y[i]
    return LinearModel(w=w, b=b)


def hinge_loss(model: LinearModel, features: np.ndarray, labels: np.ndarray) -> float:
    scores = np.asarray(features) @ model.w + model.b
    return float(np.mean(np.maximum(0.0, 1.0 - np.asarray(labels) * scores)))


def fsfd_score(p: Proposal, table: PriorTable, model: LinearModel) -> float:
    """Signed decision value of the prior-feature model on one proposal."""
    return model.decision(prior_features(p, table))


@dataclass
class SegmentScorerBank:
    """One gradient-histogram scorer per active segment."""

    models: dict[str, LinearModel]
    patch_side: int = 32

    def score_patch(self, seg: str, patch: np.ndarray) -> float:
        return self.models[seg].decision(hog_features(patch))


def _first_detection(p: Proposal, seg: str):
    for d in p.segments:
        if d.seg == seg:
            return d
    return None


def segface_features(p: Proposal, image: np.ndarray, bank: SegmentScorerBank,
                     table: PriorTable) -> np.ndarray:
    """Fused vector [per-segment scores | prior features], length 3M+2."""
    fc = np.zeros(table.m)
    for i, seg in enumerate(table.segments):
        det = _first_detection(p, seg)
        if det is None:
            continue
        patch = sample_rect(image, det.box, bank.patch_side, bank.patch_side)
        fc[i] = bank.score_patch(seg, patch)
    return np.concatenate([fc, prior_features(p, table)])


class MultiColumnNet:
    """Toy multi-column scorer: per-segment conv columns -> 1x1 reduction ->
    concatenation -> hidden affine -> 2-way softmax.

    Absent segments feed an all-zero input into their column, the drop-out
    interpretation of missing detections.
    """

    PATCH = 32
    C1, C2, CR = 8, 16, 4
    HIDDEN = 64

    def __init__(self, params: dict[str, np.ndarray],
                 segments: tuple[str, ...] = PROPOSAL_SEGMENTS):
        self.params = params
        self.segments = tuple(segments)

    @classmethod
    def init(cls, seed: int = 0, segments: tuple[str, ...] = PROPOSAL_SEGMENTS) -> "MultiColumnNet":
        rng = np.random.default_rng(seed)
        p: dict[str, np.ndarray] = {}
        for k in range(len(segments)):
            p[f"col{k}_w1"] = nn.he_normal(rng, (cls.C1, 1, 3, 3), 9)
            p[f"col{k}_b1"] = np.zeros(cls.C1)
            p[f"col{k}_w2"] = nn.he_normal(rng, (cls.C2, cls.C1, 3, 3), 9 * cls.C1)
            p[f"col{k}_b2"] = np.zeros(cls.C2)
            p[f"col{k}_wr"] = nn.he_normal(rng, (cls.CR, cls.C2), cls.C2)
            p[f"col{k}_br"] = np.zeros(cls.CR)
        flat = len(segments) * cls.CR * (cls.PATCH // 4) ** 2
        p["head_w"] = rng.standard_normal((flat, cls.HIDDEN)) / np.sqrt(flat)
        p["head_b"] = np.zeros(cls.HIDDEN)
        p["out_w"] = rng.standard_normal((cls.HIDDEN, 2)) / np.sqrt(cls.HIDDEN)
        p["out_b"] = np.zeros(2)
        return cls(p, segments)

    def forward(self, patches: np.ndarray, want_cache: bool = False):
        """patches: (N, n_segments, PATCH, PATCH) -> face probabilities (N,)."""
        n = patches.shape[0]
        feats = []
        caches = []
        for k in range(len(self.segments)):
            x = patches[:, k][:, None]
            y1, c1 = nn.conv2d(x, self.params[f"col{k}_w1"], self.params[f"col{k}_b1"])
            a1, r1 = nn.relu(y1)
            p1, pc1 = nn.avgpool2(a1)
            y2, c2 = nn.conv2d(p1, self.params[f"col{k}_w2"], self.params[f"col{k}_b2"])
            a2, r2 = nn.relu(y2)
            p2, pc2 = nn.avgpool2(a2)
            yr, cr = nn.conv1x1(p2, self.params[f"col{k}_wr"], self.params[f"col{k}_br"])
            feats.append(yr.reshape(n, -1))
            caches.append((c1, r1, pc1, c2, r2, pc2, cr, yr.shape))
        concat = np.concatenate(feats, axis=1)
        h, hc = nn.affine(concat, self.params["head_w"], self.params["head_b"])
        ha, hr = nn.relu(h)
        logits, oc = nn.affine(ha, self.params["out_w"], self.params["out_b"])
        probs = nn.softmax(logits)[:, 1]
        if not want_cache:
            return probs, logits, None
        return probs, logits, (caches, hc, hr, oc, concat.shape)

    def backward(self, dlogits: np.ndarray, cache) -> dict[str, np.ndarray]:
        caches, hc, hr, oc, concat_shape = cache
        grads: dict[str, np.ndarray] = {}
        dha, grads["out_w"], grads["out_b"] = nn.affine_back(dlogits, oc)
        dh = nn.relu_back(dha, hr)
        dconcat, grads["head_w"], grads["head_b"] = nn.affine_back(dh, hc)
        per = concat_shape[1] // len(self.segments)
        for k in range(len(self.segments)):
            c1, r1, pc1, c2, r2, pc2, cr, yr_shape = caches[k]
            dyr = dconcat[:, k * per:(k + 1) * per].reshape(yr_shape)
            dp2, grads[f"col{k}_wr"], grads[f"col{k}_br"] = nn.conv1x1_back(dyr, cr)
            da2 = nn.avgpool2_back(dp2, pc2)
            dy2 = nn.relu_back(da2, r2)
            dp1, grads[f"col{k}_w2"], grads[f"col{k}_b2"] = nn.conv2d_back(dy2, c2)
            da1 = nn.avgpool2_back(dp1, pc1)
            dy1 = nn.relu_back(da1, r1)
            _, grads[f"col{k}_w1"], grads[f"col{k}_b1"] = nn.conv2d_back(dy1, c1)
        return grads

    def patches_for(self, p: Proposal, image: np.ndarray) -> np.ndarray:
        """Per-column inputs; absent segments contribute all zeros."""
        patches = np.zeros((len(self.segments), self.PATCH, self.PATCH))
        for k, seg in enumerate(self.segments):
            det = _first_detection(p, seg)
            if det is None:
                continue
            patches[k] = sample_rect(image, det.box, self.PATCH, self.PATCH)
        return patches


def linear_to_params(model: LinearModel, prefix: str = "") -> dict[str, np.ndarray]:
    return {f"{prefix}w": model.w, f"{prefix}b": np.array([model.b])}


def linear_from_params(params: dict[str, np.ndarray], prefix: str = "") -> LinearModel:
    return LinearModel(w=params[f"{prefix}w"], b=float(params[f"{prefix}b"][0]))


def save_fsfd(path, model: LinearModel) -> None:
    nn.save_model(path, "fsfd", linear_to_params(model))


def load_fsfd(path) -> LinearModel:
    params, _ = nn.load_model(path, "fsfd")
    return linear_from_params(params)


def save_segface(path, bank: SegmentScorerBank, master: LinearModel) -> None:
    params = linear_to_params(master, "master_")
    for seg, m in bank.models.items():
        params.update(linear_to_params(m, f"seg_{seg}_"))
    nn.save_model(path, "segface", params, meta={"segments": list(bank.models),
                                                 "patch_side": bank.patch_side})


def load_segface(path) -> tuple[SegmentScorerBank, LinearModel]:
    params, meta = nn.load_model(path, "segface")
    bank = SegmentScorerBank(
        models={seg: linear_from_params(params, f"seg_{seg}_") for seg in meta["segments"]},
        patch_side=int(meta.get("patch_side", 32)),
    )
    return bank, linear_from_params(params, "master_")


def save_deepsegface(path, net: MultiColumnNet) -> None:
    nn.save_model(path, "deepsegface", net.params, meta={"segments": list(net.segments)})


def load_deepsegface(path) -> MultiColumnNet:
    params, meta = nn.load_model(path, "deepsegface")
    return MultiColumnNet(params, tuple(meta["segments"]))
