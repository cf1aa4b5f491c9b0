import numpy as np
import pytest

from faceseg.corpus import DetectorNoise, SceneSpec, render_synthetic
from faceseg.evalkit import outcome, roc_curve
from faceseg.pipeline import (
    DsfTrainConfig,
    coverage_from_records,
    dsf_score_fn,
    evaluate_druid,
    evaluate_proposal_detector,
    fit_priors_from_records,
    fsfd_score_fn,
    proposals_for_corpus,
    records_by_image,
    segface_score_fn,
    train_deepsegface,
    train_fsfd,
    train_segface,
)
from faceseg.proposals import ProposalConfig


@pytest.fixture(scope="module")
def small_world():
    spec = SceneSpec(seed=21)
    images = render_synthetic(spec, 150)
    noise = DetectorNoise(miss=0.25, center_jitter=1.5, scale_jitter=0.01, fp_rate=2.5)
    pcfg = ProposalConfig(r=0.2 * 128, c=2, zeta=10, seed=0)
    records = proposals_for_corpus(images, noise, pcfg, seed=3)
    return images, records


def test_average_proposals_per_image_in_band(small_world):
    images, records = small_world
    avg = len(records) / len(images)
    assert 5.0 <= avg <= 30.0, f"average proposals per image {avg}"


def test_proposals_have_both_labels_and_anchor_sizes(small_world):
    _, records = small_world
    labels = {r.label for r in records}
    assert labels == {True, False}
    assert all(len(r.proposal.segments) >= 2 for r in records)


def test_records_deterministic(small_world):
    images, records = small_world
    noise = DetectorNoise(miss=0.25, center_jitter=1.5, scale_jitter=0.01, fp_rate=2.5)
    pcfg = ProposalConfig(r=0.2 * 128, c=2, zeta=10, seed=0)
    again = proposals_for_corpus(images, noise, pcfg, seed=3)
    assert [(r.image_id, r.cluster_id, r.proposal.key(), r.label) for r in records] == \
           [(r.image_id, r.cluster_id, r.proposal.key(), r.label) for r in again]


def test_fsfd_pipeline_learns(small_world):
    images, records = small_world
    table = fit_priors_from_records(records)
    model = train_fsfd(records, table, seed=0)
    per_image = records_by_image(records)
    outcomes = evaluate_proposal_detector(images, per_image, fsfd_score_fn(table, model))
    assert len(outcomes) == len(images)
    _, tar = roc_curve(outcomes)
    assert tar > 0.3  # far better than chance on its own training corpus


def test_segface_pipeline_runs(small_world):
    images, records = small_world
    table = fit_priors_from_records(records)
    by_id = {ai.image_id: ai for ai in images}
    bank, master = train_segface(records[:400], by_id, table, epochs=10, seed=0)
    assert set(bank.models) == set(table.segments)
    per_image = records_by_image(records[:400])
    subset = [ai for ai in images if ai.image_id in per_image]
    outcomes = evaluate_proposal_detector(subset, per_image,
                                          segface_score_fn(bank, master, table))
    assert len(outcomes) == len(subset)


def test_deepsegface_smoke_and_rerank(small_world):
    images, records = small_world
    table = fit_priors_from_records(records)
    by_id = {ai.image_id: ai for ai in images}
    net = train_deepsegface(records, by_id,
                            DsfTrainConfig(epochs=1, max_proposals=600, seed=0))
    per_image = records_by_image(records)
    sub = images[:30]
    raw = evaluate_proposal_detector(sub, per_image, dsf_score_fn(net, None))
    rer = evaluate_proposal_detector(sub, per_image, dsf_score_fn(net, table))
    for o in raw:
        if o.score is not None:
            assert 0.0 <= o.score <= 1.0
    # reranked scores are prob * mean(feature) <= prob
    for a, b in zip(rer, raw):
        if a.score is not None:
            assert a.score <= b.score + 1e-12


def test_deepsegface_needs_both_labels(small_world):
    images, records = small_world
    by_id = {ai.image_id: ai for ai in images}
    pos_only = [r for r in records if r.label]
    with pytest.raises(ValueError):
        train_deepsegface(pos_only, by_id, DsfTrainConfig(epochs=1))


def test_coverage_and_bound_consistency(small_world):
    images, records = small_world
    per_image = records_by_image(records)
    curve = coverage_from_records(images, per_image, [0.25, 0.5, 0.75])
    ys = {t: y for t, _, y in curve.points}
    assert ys[0.25] >= ys[0.5] >= ys[0.75]
    # a perfect-ranking oracle detector cannot beat the coverage bound
    table = fit_priors_from_records(records)
    model = train_fsfd(records, table, seed=0)
    outcomes = evaluate_proposal_detector(images, per_image, fsfd_score_fn(table, model))
    curve_roc, _ = roc_curve(outcomes)
    assert all(tar <= ys[0.5] + 1e-9 for _, _, tar in curve_roc.points)


def test_argmax_detection_rules(small_world):
    images, records = small_world
    per_image = records_by_image(records)
    ai = next(a for a in images if a.has_face and len(per_image.get(a.image_id, [])) >= 3)
    recs = per_image[ai.image_id][:3]

    def never(ai, props):
        raise AssertionError("an image without proposals was scored")

    [empty] = evaluate_proposal_detector([ai], {}, never)
    assert empty.score is None and empty.iou_with_gt is None
    [o] = evaluate_proposal_detector([ai], {ai.image_id: recs}, lambda a, props: [0.2, 0.9, 0.5])
    best = outcome(ai.image_id, ai.gt.face, recs[1].proposal.bbox, 0.9, ai.meta)
    assert o == best


def test_argmax_detection_invariant_to_monotone_transform(small_world):
    images, records = small_world
    per_image = records_by_image(records)
    rng = np.random.default_rng(0)
    raw = {id(r.proposal): rng.random() for r in records}
    a = evaluate_proposal_detector(images, per_image,
                                   lambda ai, props: [raw[id(p)] for p in props])
    b = evaluate_proposal_detector(images, per_image,
                                   lambda ai, props: [np.exp(5 * raw[id(p)]) for p in props])
    assert [o.iou_with_gt for o in a] == [o.iou_with_gt for o in b]
    assert all((x.score is None) == (y.score is None) for x, y in zip(a, b))
    assert all(y.score == np.exp(5 * x.score) for x, y in zip(a, b) if x.score is not None)


def test_evaluate_druid_outcome_shape(small_world):
    from faceseg.druid_model import DruidParams

    images, _ = small_world
    model = DruidParams.init(seed=0)
    outcomes = evaluate_druid(images[:10], model)
    assert len(outcomes) == 10
    for o, ai in zip(outcomes, images[:10]):
        assert o.has_gt_face == ai.has_face
        assert o.score is not None  # regression always reports


def test_rerank_auc_not_catastrophic():
    # prior re-ranking must not cost more than 0.01 ROC AUC against the raw
    # probabilities; checked on a fully visible corpus where the feature-mean
    # multiplier is well conditioned (heavy occlusion compresses it)
    spec = SceneSpec(seed=42, crop_weights={"none": 1.0})
    images = render_synthetic(spec, 300)
    noise = DetectorNoise(miss=0.3, center_jitter=2.0, scale_jitter=0.01, fp_rate=3.0)
    records = proposals_for_corpus(images, noise, ProposalConfig(r=25.6, seed=0), seed=7)
    train_ids = {a.image_id for a in images[:200]}
    train_recs = [r for r in records if r.image_id in train_ids]
    test_recs = [r for r in records if r.image_id not in train_ids]
    test_imgs = images[200:]
    table = fit_priors_from_records(train_recs)
    by_id = {a.image_id: a for a in images}
    net = train_deepsegface(train_recs, by_id,
                            DsfTrainConfig(epochs=4, lr=2e-3, max_proposals=2000, seed=1))
    per_image = records_by_image(test_recs)

    def auc(outs):
        curve, _ = roc_curve(outs)
        xs = [0.0] + [p[1] for p in curve.points] + [1.0]
        ys = [0.0] + [p[2] for p in curve.points] + [curve.points[-1][2]]
        return float(np.trapezoid(ys, xs))

    raw = auc(evaluate_proposal_detector(test_imgs, per_image, dsf_score_fn(net, None)))
    reranked = auc(evaluate_proposal_detector(test_imgs, per_image, dsf_score_fn(net, table)))
    assert reranked >= raw - 0.01, f"reranked AUC {reranked:.4f} vs raw {raw:.4f}"
