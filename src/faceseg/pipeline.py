"""End-to-end experiment drivers: corpus -> detections -> proposals ->
priors -> detectors -> outcomes.

Everything is seed-deterministic; per-image randomness derives from
(seed, image index) so runs parallelize and replay identically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from faceseg import nn
from faceseg.corpus import AnnotatedImage, DetectorNoise, simulate_segment_detectors
from faceseg.detectors import (
    LinearModel,
    MultiColumnNet,
    SegmentScorerBank,
    _first_detection,
    segface_features,
    train_linear,
)
from faceseg.druid_model import DruidParams, infer
from faceseg.evalkit import Curve, ImageOutcome, coverage_upper_bound, iou, outcome
from faceseg.geometry import SegmentCatalog
from faceseg.imageops import HOG_DIM, hog_features, sample_rect
from faceseg.priors import PriorTable, fit_priors, prior_features, rerank
from faceseg.proposals import Proposal, ProposalConfig, generate_proposals

logger = logging.getLogger(__name__)


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


@dataclass
class ProposalRecord:
    image_id: str
    cluster_id: int
    proposal: Proposal
    label: bool


def proposals_for_corpus(images: list[AnnotatedImage], noise: DetectorNoise,
                         cfg: ProposalConfig, seed: int,
                         catalog: SegmentCatalog | None = None,
                         match_theta: float = 0.5) -> list[ProposalRecord]:
    """Simulate detectors and generate labeled proposals for every image.

    A proposal is labeled face when its box overlaps the (in-frame) ground
    truth face at ``match_theta``.
    """
    catalog = catalog or SegmentCatalog.default()
    records: list[ProposalRecord] = []
    for idx, ai in enumerate(images):
        dets = simulate_segment_detectors(ai, noise, derived_seed(seed, idx), catalog)
        pcfg = replace(cfg, seed=derived_seed(seed, idx + 1_000_003))
        for cid, prop in generate_proposals(dets, pcfg):
            records.append(ProposalRecord(ai.image_id, cid, prop,
                                          label_proposal(prop, ai, match_theta)))
    return records


def label_proposal(p: Proposal, ai: AnnotatedImage, theta: float = 0.5) -> bool:
    if ai.gt is None:
        return False
    gt_clipped = ai.gt.face.clip(ai.meta.width, ai.meta.height)
    return iou(p.bbox, gt_clipped) >= theta


def records_by_image(records: list[ProposalRecord]) -> dict[str, list[ProposalRecord]]:
    out: dict[str, list[ProposalRecord]] = {}
    for r in records:
        out.setdefault(r.image_id, []).append(r)
    return out


def fit_priors_from_records(records: list[ProposalRecord],
                            catalog: SegmentCatalog | None = None) -> PriorTable:
    catalog = catalog or SegmentCatalog.default()
    return fit_priors([(r.proposal, r.label) for r in records],
                      segments=catalog.proposal_segments)


# --- FSFD -------------------------------------------------------------------

def train_fsfd(records: list[ProposalRecord], table: PriorTable,
               epochs: int = 120, step: float = 0.5, penalty: float = 1e-4,
               seed: int = 0) -> LinearModel:
    X = np.stack([prior_features(r.proposal, table) for r in records])
    y = np.array([1.0 if r.label else -1.0 for r in records])
    return train_linear(X, y, epochs=epochs, step=step, penalty=penalty, seed=seed)


# --- SegFace ----------------------------------------------------------------

def train_segface(records: list[ProposalRecord], images: dict[str, AnnotatedImage],
                  table: PriorTable, epochs: int = 60, step: float = 0.5,
                  penalty: float = 1e-4, seed: int = 0,
                  patch_side: int = 32) -> tuple[SegmentScorerBank, LinearModel]:
    """Per-segment gradient-histogram scorers, then the master model on the
    fused 3M+2 features."""
    bank_models: dict[str, LinearModel] = {}
    for si, seg in enumerate(table.segments):
        feats, labels = [], []
        for r in records:
            det = _first_detection(r.proposal, seg)
            if det is None:
                continue
            patch = sample_rect(images[r.image_id].pixels, det.box, patch_side, patch_side)
            feats.append(hog_features(patch))
            labels.append(1.0 if r.label else -1.0)
        if feats and len(set(labels)) == 2:
            bank_models[seg] = train_linear(np.stack(feats), np.array(labels),
                                            epochs=epochs, step=step, penalty=penalty,
                                            seed=derived_seed(seed, si))
        else:
            # a segment never observed with both labels scores neutrally
            bank_models[seg] = LinearModel(w=np.zeros(HOG_DIM), b=0.0)
    bank = SegmentScorerBank(models=bank_models, patch_side=patch_side)

    X = np.stack([segface_features(r.proposal, images[r.image_id].pixels, bank, table)
                  for r in records])
    y = np.array([1.0 if r.label else -1.0 for r in records])
    master = train_linear(X, y, epochs=epochs, step=step, penalty=penalty,
                          seed=derived_seed(seed, 10_007))
    return bank, master


def segface_score(p: Proposal, image: np.ndarray, bank: SegmentScorerBank,
                  master: LinearModel, table: PriorTable) -> float:
    return master.decision(segface_features(p, image, bank, table))


# --- DeepSegFace-toy --------------------------------------------------------

@dataclass
class DsfTrainConfig:
    lr: float = 2e-3
    epochs: int = 8
    batch_size: int = 64
    seed: int = 0
    max_proposals: int = 8000  # balanced subsample cap for runtime


def train_deepsegface(records: list[ProposalRecord], images: dict[str, AnnotatedImage],
                      cfg: DsfTrainConfig,
                      catalog: SegmentCatalog | None = None) -> MultiColumnNet:
    """Softmax cross-entropy training of the multi-column scorer; patches are
    extracted lazily per batch to bound memory."""
    catalog = catalog or SegmentCatalog.default()
    rng = np.random.default_rng(cfg.seed)
    pos = [r for r in records if r.label]
    neg = [r for r in records if not r.label]
    if not pos or not neg:
        raise ValueError("training needs proposals of both labels")
    if len(records) > cfg.max_proposals:
        half = cfg.max_proposals // 2
        pos_take = min(len(pos), half)
        neg_take = min(len(neg), cfg.max_proposals - pos_take)
        pos = [pos[i] for i in rng.choice(len(pos), pos_take, replace=False)]
        neg = [neg[i] for i in rng.choice(len(neg), neg_take, replace=False)]
    pool = pos + neg
    labels = np.array([1] * len(pos) + [0] * len(neg))

    net = MultiColumnNet.init(seed=cfg.seed, segments=catalog.proposal_segments)

    def batch_grads(idx):
        patches = np.stack([net.patches_for(pool[i].proposal, images[pool[i].image_id].pixels)
                            for i in idx])
        _, logits, cache = net.forward(patches, want_cache=True)
        loss, dlogits = nn.softmax_ce(logits, labels[idx])
        return loss, net.backward(dlogits, cache)

    nn.fit(net.params, len(pool), batch_grads, cfg.lr, cfg.epochs, cfg.batch_size, rng, 0.0,
           lambda epoch, loss: logger.info("deepsegface epoch %d mean loss %.4f", epoch, loss))
    return net


# --- evaluation -------------------------------------------------------------

def evaluate_proposal_detector(images: list[AnnotatedImage],
                               per_image: dict[str, list[ProposalRecord]],
                               score_fn) -> list[ImageOutcome]:
    """Argmax detection per image; score_fn(image, proposals) -> score array."""
    outcomes = []
    for ai in images:
        recs = per_image.get(ai.image_id, [])
        best, best_score = None, None
        if recs:
            scores = np.asarray(score_fn(ai, [r.proposal for r in recs]))
            k = int(np.argmax(scores))
            best, best_score = recs[k].proposal, float(scores[k])
        gt_face = ai.gt.face if ai.gt is not None else None
        det_box = best.bbox if best is not None else None
        outcomes.append(outcome(ai.image_id, gt_face, det_box, best_score, ai.meta))
    return outcomes


def fsfd_score_fn(table: PriorTable, model: LinearModel):
    from faceseg.detectors import fsfd_score

    return lambda ai, props: [fsfd_score(p, table, model) for p in props]


def segface_score_fn(bank: SegmentScorerBank, master: LinearModel, table: PriorTable):
    return lambda ai, props: [segface_score(p, ai.pixels, bank, master, table)
                              for p in props]


def dsf_score_fn(net: MultiColumnNet, table: PriorTable | None):
    """Batched softmax probabilities, re-ranked by priors when a table is given."""
    def fn(ai, props):
        patches = np.stack([net.patches_for(p, ai.pixels) for p in props])
        probs, _, _ = net.forward(patches)
        if table is None:
            return probs
        return [rerank(float(pr), p, table) for pr, p in zip(probs, props)]

    return fn


def evaluate_druid(images: list[AnnotatedImage], model: DruidParams) -> list[ImageOutcome]:
    outcomes = []
    for ai in images:
        res = infer(ai.pixels, model)
        gt_face = ai.gt.face if ai.gt is not None else None
        outcomes.append(outcome(ai.image_id, gt_face, res.face, res.confidence, ai.meta))
    return outcomes


def coverage_from_records(images: list[AnnotatedImage],
                          per_image: dict[str, list[ProposalRecord]],
                          thetas) -> Curve:
    """Coverage over face images only, with gt clipped to the frame."""
    boxes, gts = [], []
    for ai in images:
        if ai.gt is None:
            continue
        gts.append(ai.gt.face.clip(ai.meta.width, ai.meta.height))
        boxes.append([r.proposal.bbox for r in per_image.get(ai.image_id, [])])
    return coverage_upper_bound(boxes, gts, thetas)
