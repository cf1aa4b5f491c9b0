"""Tests of the benchmark's own helpers: the tail rule, self-time arithmetic,
the tracer's patching, the reference kernels and the recount oracles.

Run from the repository root:  PYTHONPATH=src python -m pytest bench -q
"""

import itertools

import numpy as np
import pytest

import oracles
import spans
import stages
from faceseg import detectors, druid_model, evalkit, nn, pipeline, priors, proposals
from faceseg.corpus import SceneSpec, render_synthetic
from faceseg.evalkit import ImageOutcome
from faceseg.geometry import BBox, ImageMeta, SegmentCatalog, face_from_segment


# --- tail rule -------------------------------------------------------------------------

@pytest.mark.parametrize("n,pct", [(40, 75.0), (50, 80.0), (100, 90.0), (200, 95.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, pct):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, percentile = stages.tail(values)
    assert percentile == pct
    assert sum(v > value for v in values) == stages.TAIL_BEYOND


def test_tail_refuses_short_samples():
    with pytest.raises(ValueError):
        stages.tail([1.0] * 39)


# --- self time -------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    tree = [
        (0, 0.0, 10.0, -1, None),   # root
        (1, 1.0, 4.0, 0, None),     # child
        (1, 5.0, 6.0, 0, None),     # child
        (2, 2.0, 3.0, 1, None),     # grandchild
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    assert sum(spans.self_times(tree)) == 10.0  # self times tile the root


def test_tracer_patches_import_sites_and_restores_them():
    originals = (pipeline.iou, evalkit.iou, nn.conv2d, detectors.MultiColumnNet.forward)
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert pipeline.iou is evalkit.iou and pipeline.iou is not originals[0]
        ai = render_synthetic(SceneSpec(seed=3), 1)[0]
        with tracer.span("bench.root"):
            pipeline.label_proposal(
                proposals.Proposal(segments=(), bbox=BBox(0.0, 0.0, 10.0, 10.0)), ai)
    finally:
        tracer.uninstall()
    assert (pipeline.iou, evalkit.iou, nn.conv2d, detectors.MultiColumnNet.forward) == originals
    summary = tracer.summary()
    assert summary["pipeline.label_proposal"]["calls"] == 1
    by_name = {tracer.names[s[0]]: (i, s) for i, s in enumerate(tracer.spans)}
    assert by_name["pipeline.label_proposal"][1][3] == by_name["bench.root"][0]
    assert by_name["evalkit.iou"][1][3] == by_name["pipeline.label_proposal"][0]


def test_layer_metrics_cover_every_unit_and_zero_unreached_layers():
    values = spans.layer_metrics({}, {}, rounds=1, overhead_pct=0.0)
    assert set(values) == set(spans.layer_metric_units())
    assert all(v == 0.0 for v in values.values())


# --- reference kernels -----------------------------------------------------------------

def _loop_conv(x, w, b):
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    p = k // 2
    out = np.zeros((n, f, h, wd))
    for i, o, y, xx in itertools.product(range(n), range(f), range(h), range(wd)):
        acc = b[o]
        for ch, di, dj in itertools.product(range(c), range(k), range(k)):
            yy, xc = y + di - p, xx + dj - p
            if 0 <= yy < h and 0 <= xc < wd:
                acc += x[i, ch, yy, xc] * w[o, ch, di, dj]
        out[i, o, y, xx] = acc
    return out


def test_reference_conv_matches_direct_loop_and_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    ref = oracles.ref_conv2d(x, w, b)
    assert np.allclose(ref, _loop_conv(x, w, b), rtol=1e-12, atol=1e-12)
    assert np.allclose(ref, nn.conv2d(x, w, b)[0], rtol=1e-12, atol=1e-12)


def test_reference_networks_match_the_program():
    ai = render_synthetic(SceneSpec(seed=5, no_face_fraction=0.0), 1)[0]
    model = druid_model.DruidParams.init(seed=2)
    res = druid_model.infer(ai.pixels, model)
    box, conf = oracles.ref_druid_face(model.params, ai.pixels, model.side,
                                       druid_model.THUMB_SIDE)
    assert np.allclose(res.face.as_tuple(), box, rtol=1e-9)
    assert res.confidence == pytest.approx(float(np.clip(conf, 0, 1)), rel=1e-9)
    assert np.allclose(oracles.ref_resize(ai.pixels, 64),
                       druid_model.bilinear_resize(ai.pixels, 64, 64), atol=1e-12)

    net = detectors.MultiColumnNet.init(seed=4)
    patches = np.random.default_rng(1).random((3, len(net.segments), net.PATCH, net.PATCH))
    assert np.allclose(net.forward(patches)[0], oracles.ref_dsf_probs(net.params, patches),
                       rtol=1e-9)


# --- recount oracles -------------------------------------------------------------------

def test_roc_and_pr_recounts_agree_with_evalkit_and_hand_counts():
    outs = [ImageOutcome("a", True, 0.9, 0.8), ImageOutcome("b", True, 0.7, 0.2),
            ImageOutcome("c", False, 0.8), ImageOutcome("d", False, None),
            ImageOutcome("e", True, 0.7, 0.6)]
    tuples = [(o.has_gt_face, o.score, o.iou_with_gt) for o in outs]
    roc = oracles.recount_roc(tuples)
    assert roc == [(0.9, 0.0, 1 / 3), (0.8, 0.5, 1 / 3), (0.7, 0.5, 2 / 3)]
    assert oracles.same_points(evalkit.roc_curve(outs)[0].points, roc)
    pr = oracles.recount_pr(tuples)
    assert pr == [(0.9, 1 / 3, 1.0), (0.8, 1 / 3, 0.5), (0.7, 2 / 3, 0.5)]
    assert oracles.same_points(evalkit.pr_curve(outs)[0].points, pr)
    assert not oracles.same_points(roc[:2], roc)


def _detections(seed):
    ai = render_synthetic(SceneSpec(seed=seed, no_face_fraction=0.0), 1)[0]
    dets = stages.corpus.simulate_segment_detectors(ai, stages.NOISE, seed)
    return ai, dets


def test_proposal_oracle_accepts_program_output_and_rejects_a_moved_box():
    ai, dets = _detections(11)
    w, h = ai.meta.width, ai.meta.height
    cfg = proposals.ProposalConfig(r=25.6, c=2, zeta=3, seed=1)
    out = proposals.generate_proposals(dets, cfg)
    assert out
    props = [(cid, [(d.seg, d.box.as_tuple()) for d in p.segments], p.bbox.as_tuple())
             for cid, p in out]
    clusters = oracles.ref_clusters([(d.seg, d.box.as_tuple()) for d in dets],
                                    stages.FRACTIONS, w, h, cfg.r)
    assert len(clusters) == len(proposals.cluster_detections(dets, cfg))
    assert oracles.check_proposals(props, stages.FRACTIONS, w, h, 2, 3, clusters) == []
    assert oracles.check_proposals(props, stages.FRACTIONS, w, h, 2, 3) == []
    cid, members, box = props[0]
    moved = [(cid, members, (box[0] + 1.0,) + box[1:])] + props[1:]
    assert oracles.check_proposals(moved, stages.FRACTIONS, w, h, 2, 3, clusters)
    most = max(sum(1 for c, _, _ in props if c == k) for k, _, _ in props)
    assert most > 1
    assert oracles.check_proposals(props, stages.FRACTIONS, w, h, 2, most - 1, clusters)


def test_face_estimate_matches_inverse_mapping():
    cat = SegmentCatalog.default()
    box = BBox(10.0, 20.0, 40.0, 35.0)
    for seg in ("EP", "L12", "NS", "UR34"):
        face, centre = face_from_segment(seg, box, ImageMeta(128, 128), cat)
        want_face, want_centre = oracles.face_estimate(cat[seg].as_tuple(), box.as_tuple(),
                                                       128, 128)
        assert face.as_tuple() == want_face and centre == want_centre


def test_prior_recount_and_vector_match_the_program():
    ai, dets = _detections(21)
    out = [p for _, p in proposals.generate_proposals(
        dets, proposals.ProposalConfig(r=25.6, c=1, zeta=None))]
    labeled = [(p, i % 3 == 0) for i, p in enumerate(out)]
    table = priors.fit_priors(labeled)
    seg_f, seg_n, id_f, id_n = oracles.recount_priors(
        [(p.tags(), y) for p, y in labeled], table.segments)
    assert seg_f == table.seg_face and seg_n == table.seg_nonface
    assert id_f == table.identity_face and id_n == table.identity_nonface
    for p in out:
        vec = oracles.prior_vector(p.tags(), table.segments, seg_f, seg_n, id_f, id_n)
        assert vec == list(priors.prior_features(p, table))


def test_coverage_recount():
    assert oracles.recount_coverage([0.9, 0.4, 0.5, 0.0], [0.5, 0.1]) == [(0.5, 0.5), (0.1, 0.75)]
