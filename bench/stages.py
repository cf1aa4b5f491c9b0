"""The benchmark's three stages: set-up, a round of each stage (a generator
of steps, so that rounds of different stages can interleave), the metrics
taken from rounds and the output checks for a round.

* ``detect``: a held-out mixed corpus scored frame by frame (DRUID-toy
  ``infer``; simulated segment detectors, ``generate_proposals``,
  DeepSegFace-toy / FSFD scoring and argmax), then as a whole corpus
  (``pipeline.evaluate_*``, ROC, PR, coverage).
* ``train``: a fixed number of DRUID-toy and DeepSegFace-toy minibatch steps
  and FSFD fits on a corpus built in set-up.
* ``prepare``: ``cli.main`` in process for gen-data, propose, fit-priors and
  coverage, writing to and reading from a scratch directory.

Program functions are always reached through their modules
(``pipeline.evaluate_druid``, not a name imported here) so that the traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from faceseg import cli, corpus, detectors, druid_loss, druid_model, evalkit, nn, pipeline
from faceseg import proposals as proposals_mod
from faceseg.geometry import PROPOSAL_SEGMENTS, SEGMENT_IDS, SegmentCatalog

import oracles

# --- input make-up -------------------------------------------------------------------

N_TRAIN = 200            # training corpus images (set-up)
N_HELDOUT = 50           # held-out mixed corpus images = frames per detect round
N_PREPARE = 120          # images generated per prepare round
# The work an image costs follows its proposal count, whose spread from image
# to image is as large as its mean: the mean over 50 images moves by 14% (sd)
# from one corpus seed to the next, over 200 images still by 6%.  The corpora
# whose work follows proposal counts (detect's held-out corpus, prepare's
# generated corpus) are therefore rendered from fixed seeds -- the acceptance
# gate's mixed-corpus seed and the repository README's CLI example -- and the
# workload seed varies the training corpus, the models and the check samples.
HELDOUT_SCENE_SEED = 888
HELDOUT_DETECTOR_SEED = 7
PREPARE_CORPUS_SEED = 1
PREPARE_DETECTOR_SEED = 7
REPEATS = 9              # calls per timing of a step under 0.2 s; the median is kept
SETUP_DSF = 64           # DeepSegFace-toy proposals trained on in set-up (1 step)
SETUP_DRUID = 32         # DRUID-toy samples trained on in set-up (1 step)
SETUP_FSFD_EPOCHS = 10
TRAIN_DRUID = 128        # DRUID-toy samples per train round (4 steps of 32)
TRAIN_DSF = 256          # DeepSegFace-toy proposal cap per train round (4 steps of 64)
# at the default step (2e-3) four steps of 64 raised a 64-proposal probe's
# loss on 5 of 6 seeds; at 1e-4 they lowered the pool's loss on all 10 seeds
# tried, so the probe-loss check below holds.  A step's cost does not depend
# on its size.
TRAIN_DSF_LR = 1e-4
TRAIN_FSFD_EPOCHS = 20   # FSFD epochs per fit; a train round fits REPEATS times
NOISE = corpus.DetectorNoise(miss=0.3, center_jitter=2.0, scale_jitter=0.01, fp_rate=3.0)
PCFG = proposals_mod.ProposalConfig(r=0.2 * 128, c=2, zeta=10, seed=0)
NOISE_FLAGS = ["--c", "2", "--zeta", "10", "--miss", "0.3", "--jitter", "2", "--fp-rate", "3"]
TAIL_BEYOND = 10         # samples that must lie beyond the reported tail value
CATALOG = SegmentCatalog.default()
# reported end-to-end metrics; dsf_frame_ms_tail and fsfd_eval_images_per_s
# are still measured (see the run record) but not reported, their ten-seed
# spreads having reached 0.32 and 0.26
METRIC_UNITS = {
    "druid_frame_ms_p50": "ms", "druid_frame_ms_tail": "ms",
    "dsf_frame_ms_p50": "ms", "fsfd_frame_ms_p50": "ms",
    "druid_eval_images_per_s": "images/s", "dsf_eval_images_per_s": "images/s",
    "druid_train_samples_per_s": "samples/s", "dsf_train_samples_per_s": "samples/s",
    "fsfd_train_proposals_per_s": "proposals/s",
    "gen_data_images_per_s": "images/s", "propose_images_per_s": "images/s",
    "fit_priors_proposals_per_s": "proposals/s",
}
FRACTIONS = {s: CATALOG[s].as_tuple() for s in SEGMENT_IDS}


def tail(values) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  Needs 4 * TAIL_BEYOND samples, below which a
    "tail" would be no tail at all.
    """
    n = len(values)
    if n < 4 * TAIL_BEYOND:
        raise ValueError(f"a tail needs at least {4 * TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def seeds_for(seed: int) -> dict[str, int]:
    """Every input seed of a run, drawn from the workload seed."""
    names = ("train_corpus", "train_detectors", "checks")
    states = np.random.SeedSequence(seed).generate_state(len(names))
    return {n: int(s) for n, s in zip(names, states)}


@dataclass
class World:
    """Everything set-up builds: corpora, proposals, priors and small models."""

    seeds: dict
    train_images: list
    records: list
    table: object
    fsfd: object
    dsf: object
    druid: object
    heldout: list
    workdir: str


def setup(seed: int, workdir: str) -> World:
    seeds = seeds_for(seed)
    train_images = corpus.render_synthetic(corpus.SceneSpec(seed=seeds["train_corpus"]), N_TRAIN)
    records = pipeline.proposals_for_corpus(train_images, NOISE, PCFG, seeds["train_detectors"])
    table = pipeline.fit_priors_from_records(records)
    fsfd = pipeline.train_fsfd(records, table, epochs=SETUP_FSFD_EPOCHS)
    by_id = {a.image_id: a for a in train_images}
    dsf = pipeline.train_deepsegface(records, by_id, pipeline.DsfTrainConfig(
        epochs=1, batch_size=SETUP_DSF, max_proposals=SETUP_DSF, seed=1))
    druid = druid_model.train([(a.pixels, a.gt) for a in train_images[:SETUP_DRUID]],
                              druid_model.TrainConfig(epochs=1, batch_size=SETUP_DRUID))
    heldout = corpus.render_synthetic(corpus.SceneSpec(seed=HELDOUT_SCENE_SEED), N_HELDOUT)
    os.makedirs(workdir, exist_ok=True)
    return World(seeds, train_images, records, table, fsfd, dsf, druid, heldout, workdir)


def _argmax(scores):
    k = int(np.argmax(scores))
    return k, float(scores[k])


def _timed(fn, repeats=REPEATS, groups=3):
    """Median wall time of ``repeats`` calls, and the last call's result.

    A generator: the calls run back to back in ``groups`` steps, with a yield
    after each, so that a short timing samples more than one stretch of the
    run.  Each group's first call may follow another stage's step; the
    median leaves those out.
    """
    walls = []
    for _ in range(groups):
        for _ in range(repeats // groups):
            t0 = time.perf_counter()
            result = fn()
            walls.append(time.perf_counter() - t0)
        yield
    return statistics.median(walls), result


def warm_up(w: World) -> None:
    """One small pass over every code path the rounds time, so that first-call
    costs (allocator growth, lazy imports, page faults) land outside them."""
    few = w.heldout[:3]
    for idx, ai in enumerate(few):
        druid_model.infer(ai.pixels, w.druid)
        dets = corpus.simulate_segment_detectors(ai, NOISE, idx)
        props = [p for _, p in proposals_mod.generate_proposals(dets, PCFG)]
        if props:
            pipeline.dsf_score_fn(w.dsf, w.table)(ai, props)
            pipeline.fsfd_score_fn(w.table, w.fsfd)(ai, props)
    per_image = pipeline.records_by_image(pipeline.proposals_for_corpus(few, NOISE, PCFG, 0))
    pipeline.evaluate_proposal_detector(few, per_image, pipeline.fsfd_score_fn(w.table, w.fsfd))
    pipeline.evaluate_druid(few, w.druid)
    base = os.path.join(w.workdir, "warm-up")
    _cli(None, "gen-data", ["--out", os.path.join(base, "c"), "--n", "5"])
    _cli(None, "propose", ["--corpus", os.path.join(base, "c"), "--out", os.path.join(base, "p")])
    shutil.rmtree(base, ignore_errors=True)


# --- detect ------------------------------------------------------------------------------

# Each round is a generator that yields between steps and returns its result.
# A step is the frame phase, a group of repeated calls, one training run or
# one command.  Work right after another stage's step runs slower (its large
# allocations, say), so the frames run back to back and repeated calls run in
# groups whose first, disturbed call the median leaves out.

def detect_round(w: World):
    """Frame phase, then corpus phase, over the held-out corpus."""
    pseed = HELDOUT_DETECTOR_SEED
    frames = []
    for idx, ai in enumerate(w.heldout):
        t0 = time.perf_counter()
        res = druid_model.infer(ai.pixels, w.druid)
        t1 = time.perf_counter()
        # the per-image seeds proposals_for_corpus uses, so both phases see
        # the same detections and proposals
        dets = corpus.simulate_segment_detectors(ai, NOISE, pipeline.derived_seed(pseed, idx))
        props = [p for _, p in proposals_mod.generate_proposals(
            dets, replace(PCFG, seed=pipeline.derived_seed(pseed, idx + 1_000_003)))]
        t2 = time.perf_counter()
        dsf_best = fsfd_best = None
        if props:
            k, s = _argmax(np.asarray(pipeline.dsf_score_fn(w.dsf, w.table)(ai, props)))
            dsf_best = (props[k].bbox.as_tuple(), s)
        t3 = time.perf_counter()
        if props:
            k, s = _argmax(np.asarray(pipeline.fsfd_score_fn(w.table, w.fsfd)(ai, props)))
            fsfd_best = (props[k].bbox.as_tuple(), s)
        t4 = time.perf_counter()
        frames.append({
            "druid_ms": 1e3 * (t1 - t0), "dsf_ms": 1e3 * (t2 - t1 + t3 - t2),
            "fsfd_ms": 1e3 * (t2 - t1 + t4 - t3),
            "druid": (res.face.as_tuple(), res.confidence), "dsf": dsf_best, "fsfd": fsfd_best,
        })
    yield

    images = w.heldout

    def propose():
        per_image = pipeline.records_by_image(
            pipeline.proposals_for_corpus(images, NOISE, PCFG, pseed))
        return per_image, pipeline.coverage_from_records(images, per_image, [0.5])

    def evaluate(outcomes):
        return outcomes, evalkit.roc_curve(outcomes), evalkit.pr_curve(outcomes)

    # proposal generation is shared by the two proposal detectors; steps
    # under 0.2 s are timed REPEATS times, evaluate_druid (0.3 s) 3 times and
    # the DeepSegFace-toy pass, which takes seconds, once
    t_props, (per_image, coverage) = yield from _timed(propose)
    t_dsf, dsf = yield from _timed(lambda: evaluate(pipeline.evaluate_proposal_detector(
        images, per_image, pipeline.dsf_score_fn(w.dsf, w.table))), repeats=1, groups=1)
    t_fsfd, fsfd = yield from _timed(lambda: evaluate(pipeline.evaluate_proposal_detector(
        images, per_image, pipeline.fsfd_score_fn(w.table, w.fsfd))))
    t_druid, druid = yield from _timed(
        lambda: evaluate(pipeline.evaluate_druid(images, w.druid)), repeats=3, groups=1)
    n = len(images)
    return {
        "frames": frames,
        "druid_eval_images_per_s": n / t_druid,
        "dsf_eval_images_per_s": n / (t_props + t_dsf),
        "fsfd_eval_images_per_s": n / (t_props + t_fsfd),
        "per_image": per_image,
        "coverage50": coverage.points[0][2],
        "eval": {"dsf": dsf, "fsfd": fsfd, "druid": druid},
    }


def detect_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-round p50 / tail / throughput, then the median over rounds."""
    per_round: dict[str, list] = {}

    def add(key, value):
        per_round.setdefault(key, []).append(value)

    for r in rounds:
        for det in ("druid", "dsf", "fsfd"):
            ms = [f[f"{det}_ms"] for f in r["frames"]]
            add(f"{det}_frame_ms_p50", statistics.median(ms))
            if det != "fsfd":
                add(f"{det}_frame_ms_tail", tail(ms)[0])
            add(f"{det}_eval_images_per_s", r[f"{det}_eval_images_per_s"])
    return {k: statistics.median(v) for k, v in per_round.items()}


def check_detect(w: World, r: dict, rng: np.random.Generator) -> list[str]:
    errors = []
    p = w.table
    prior_args = (p.segments, p.seg_face, p.seg_nonface, p.identity_face, p.identity_nonface)
    outcomes = {det: r["eval"][det][0] for det in ("dsf", "fsfd", "druid")}

    def gt_box(ai):
        if ai.gt is None:
            return None
        return oracles.clip_box(ai.gt.face.as_tuple(), ai.meta.width, ai.meta.height)

    def check_argmax(det, ai, recs, scores, o):
        k = int(np.argmax(scores))
        if not oracles.close(o.score, scores[k]):
            errors.append(f"{ai.image_id}: {det} detection score {o.score} is not the "
                          f"recounted maximum {scores[k]}")
        gt = gt_box(ai)
        if gt is not None:
            box = oracles.clip_box(recs[k].proposal.bbox.as_tuple(), ai.meta.width, ai.meta.height)
            if not oracles.close(o.iou_with_gt, oracles.ref_iou(box, gt)):
                errors.append(f"{ai.image_id}: {det} detection is not the argmax proposal")

    # sampled images: both networks against the reference forward passes, the
    # re-ranked scores against prob x mean recounted prior feature
    for i in sorted(rng.choice(len(w.heldout), size=3, replace=False)):
        ai = w.heldout[i]
        recs = r["per_image"].get(ai.image_id, [])
        if recs:
            props = [rec.proposal for rec in recs]
            patches = np.stack([w.dsf.patches_for(q, ai.pixels) for q in props])
            got, _, _ = w.dsf.forward(patches)
            want = oracles.ref_dsf_probs(w.dsf.params, patches)
            if not all(oracles.close(a, b) for a, b in zip(got, want)):
                errors.append(f"{ai.image_id}: DeepSegFace-toy probabilities differ from "
                              f"the reference by {np.max(np.abs(got - want)):.3g}")
            ranked = [prob * float(np.mean(oracles.prior_vector(q.tags(), *prior_args)))
                      for q, prob in zip(props, want)]
            scores = pipeline.dsf_score_fn(w.dsf, w.table)(ai, props)
            if not all(oracles.close(a, b) for a, b in zip(scores, ranked)):
                errors.append(f"{ai.image_id}: re-ranked scores are not prob x prior mean")
            check_argmax("dsf", ai, recs, ranked, outcomes["dsf"][i])
        res = druid_model.infer(ai.pixels, w.druid)
        box, conf = oracles.ref_druid_face(w.druid.params, ai.pixels, w.druid.side,
                                           druid_model.THUMB_SIDE)
        if not (all(oracles.close(a, b) for a, b in zip(res.face.as_tuple(), box))
                and oracles.close(res.confidence, float(np.clip(conf, 0.0, 1.0)))):
            errors.append(f"{ai.image_id}: DRUID-toy output differs from the reference")

    pseed = HELDOUT_DETECTOR_SEED
    for idx, ai in enumerate(w.heldout):
        recs = r["per_image"].get(ai.image_id, [])
        width, height = ai.meta.width, ai.meta.height
        dets = corpus.simulate_segment_detectors(ai, NOISE, pipeline.derived_seed(pseed, idx))
        clusters = oracles.ref_clusters([(d.seg, d.box.as_tuple()) for d in dets],
                                        FRACTIONS, width, height, PCFG.r)
        errors += oracles.check_proposals(
            [(rec.cluster_id, [(d.seg, d.box.as_tuple()) for d in rec.proposal.segments],
              rec.proposal.bbox.as_tuple()) for rec in recs],
            FRACTIONS, width, height, PCFG.c, PCFG.zeta, clusters, ai.image_id)
        if recs:
            check_argmax("fsfd", ai, recs, [
                float(w.fsfd.w @ oracles.prior_vector(rec.proposal.tags(), *prior_args))
                + w.fsfd.b for rec in recs], outcomes["fsfd"][idx])

        # the frame phase and the corpus phase agree on every image
        frame = r["frames"][idx]
        for det in ("dsf", "fsfd"):
            got, o = frame[det], outcomes[det][idx]
            if (got is None) != (o.score is None) or (got is not None and got[1] != o.score):
                errors.append(f"{ai.image_id}: {det} frame result {got} != corpus outcome")
        box, conf = frame["druid"]
        o = outcomes["druid"][idx]
        gt = gt_box(ai)
        if conf != o.score or (gt is not None and not oracles.close(
                oracles.ref_iou(oracles.clip_box(box, width, height), gt), o.iou_with_gt)):
            errors.append(f"{ai.image_id}: druid frame result disagrees with the corpus outcome")

    for det, (outs, (roc, _), (pr, _)) in r["eval"].items():
        tuples = [(o.has_gt_face, o.score, o.iou_with_gt) for o in outs]
        if not oracles.same_points(roc.points, oracles.recount_roc(tuples)):
            errors.append(f"{det}: ROC points differ from the brute-force recount")
        if not oracles.same_points(pr.points, oracles.recount_pr(tuples)):
            errors.append(f"{det}: PR points differ from the brute-force recount")
        if det != "druid" and roc.points and roc.points[-1][2] > r["coverage50"] + oracles.EXACT:
            errors.append(f"{det}: TAR {roc.points[-1][2]} exceeds coverage@0.5 "
                          f"{r['coverage50']}")
    return errors


# --- train -------------------------------------------------------------------------------

def dsf_pool(records) -> list:
    """Balanced DeepSegFace-toy training pool: the first TRAIN_DSF / 2 proposals
    of each label (fewer when a label runs short)."""
    half = TRAIN_DSF // 2
    return ([rec for rec in records if rec.label][:half]
            + [rec for rec in records if not rec.label][:half])


def train_round(w: World):
    samples = [(a.pixels, a.gt) for a in w.train_images[:TRAIN_DRUID]]
    by_id = {a.image_id: a for a in w.train_images}
    pool = dsf_pool(w.records)
    t0 = time.perf_counter()
    druid = druid_model.train(samples, druid_model.TrainConfig(epochs=1, batch_size=32))
    t1 = time.perf_counter()
    yield
    t2 = time.perf_counter()
    dsf = pipeline.train_deepsegface(pool, by_id, pipeline.DsfTrainConfig(
        lr=TRAIN_DSF_LR, epochs=1, batch_size=64, max_proposals=TRAIN_DSF, seed=1))
    t3 = time.perf_counter()
    yield
    t_fsfd, fsfd = yield from _timed(lambda: pipeline.train_fsfd(w.records, w.table,
                                                                 epochs=TRAIN_FSFD_EPOCHS))
    return {
        "druid_train_samples_per_s": len(samples) / (t1 - t0),
        "dsf_train_samples_per_s": len(pool) / (t3 - t2),
        "fsfd_train_proposals_per_s": len(w.records) * TRAIN_FSFD_EPOCHS / t_fsfd,
        "models": (druid, dsf, fsfd),
    }


def train_metrics(rounds: list[dict]) -> dict[str, float]:
    keys = ("druid_train_samples_per_s", "dsf_train_samples_per_s", "fsfd_train_proposals_per_s")
    return {k: statistics.median(r[k] for r in rounds) for k in keys}


def _druid_batch_loss(model, x, gts, weights):
    seg, face, _ = druid_model.forward(model, x)
    return sum(druid_loss.total_loss(seg[j], face[j], g, wt)
               for j, (g, wt) in enumerate(zip(gts, weights))) / len(gts)


def check_train(w: World, r: dict, rng: np.random.Generator) -> list[str]:
    errors = []
    druid, dsf, fsfd = r["models"]
    for name, params in (("druid", druid.params), ("dsf", dsf.params)):
        bad = [k for k, v in params.items() if not np.all(np.isfinite(v))]
        if bad:
            errors.append(f"{name}: non-finite weights in {bad}")
    if not (np.all(np.isfinite(fsfd.w)) and np.isfinite(fsfd.b)):
        errors.append("fsfd: non-finite weights")

    # DRUID-toy: analytic gradient against central differences
    samples = [(a.pixels, a.gt) for a in w.train_images[:TRAIN_DRUID]]
    probe = [samples[i] for i in sorted(rng.choice(len(samples), size=2, replace=False))]
    x = druid_model.input_tensor(np.stack([
        oracles.ref_resize(img, druid.side) for img, _ in probe]))
    gts = [druid_model.normalized_targets(img.shape, gt) for img, gt in probe]
    full = druid_loss.LossWeights()
    weights = [full if gt is not None else replace(full, b=0.0) for _, gt in probe]
    seg, face, cache = druid_model.forward(druid, x, want_cache=True)
    dseg, dface = np.zeros_like(seg), np.zeros_like(face)
    for j, (g, wt) in enumerate(zip(gts, weights)):
        gs, gf = druid_loss.loss_grad(seg[j], face[j], g, wt)
        dseg[j], dface[j] = gs / len(gts), gf / len(gts)
    grads = druid_model.backward(druid, dseg, dface, cache)
    for name in ("t1_w", "t2_pw", "t3_b", "br_w", "head_w", "fhead_w", "fhead_b"):
        index = tuple(int(rng.integers(s)) for s in druid.params[name].shape)
        num = oracles.central_difference(
            lambda: _druid_batch_loss(druid, x, gts, weights), druid.params, name, index)
        if not oracles.grad_matches(grads[name][index], num):
            errors.append(f"druid grad {name}{index}: analytic {grads[name][index]} "
                          f"vs central difference {num}")

    # DeepSegFace-toy: the same on a labelled probe batch
    by_id = {a.image_id: a for a in w.train_images}
    pos = [rec for rec in w.records if rec.label][:4]
    neg = [rec for rec in w.records if not rec.label][:4]
    batch = pos + neg
    patches = np.stack([dsf.patches_for(rec.proposal, by_id[rec.image_id].pixels)
                        for rec in batch])
    labels = np.array([1] * len(pos) + [0] * len(neg))
    _, logits, cache = dsf.forward(patches, want_cache=True)
    _, dlogits = nn.softmax_ce(logits, labels)
    grads = dsf.backward(dlogits, cache)
    k = len(dsf.segments)
    for name in (f"col{rng.integers(k)}_w1", f"col{rng.integers(k)}_w2",
                 f"col{rng.integers(k)}_wr", "head_w", "out_w", "out_b"):
        index = tuple(int(rng.integers(s)) for s in dsf.params[name].shape)
        num = oracles.central_difference(
            lambda: nn.softmax_ce(dsf.forward(patches)[1], labels)[0], dsf.params, name, index)
        if not oracles.grad_matches(grads[name][index], num):
            errors.append(f"dsf grad {name}{index}: analytic {grads[name][index]} "
                          f"vs central difference {num}")

    # training lowers the loss on a fixed probe batch
    init = druid_model.DruidParams.init(seed=0)
    before = druid_model.training_loss(init, samples[:32])
    after = druid_model.training_loss(druid, samples[:32])
    if not after < before:
        errors.append(f"druid probe loss did not fall: {before} -> {after}")
    pool = dsf_pool(w.records)
    probe_patches = np.stack([dsf.patches_for(rec.proposal, by_id[rec.image_id].pixels)
                              for rec in pool])
    probe_labels = np.array([int(rec.label) for rec in pool])
    fresh = detectors.MultiColumnNet.init(seed=1)
    before = nn.softmax_ce(fresh.forward(probe_patches)[1], probe_labels)[0]
    after = nn.softmax_ce(dsf.forward(probe_patches)[1], probe_labels)[0]
    if not after < before:
        errors.append(f"dsf probe loss did not fall: {before} -> {after}")

    # FSFD: hinge loss below that of the zero model (1.0)
    p = w.table
    X = np.array([oracles.prior_vector(rec.proposal.tags(), p.segments, p.seg_face,
                                       p.seg_nonface, p.identity_face, p.identity_nonface)
                  for rec in w.records])
    y = np.array([1.0 if rec.label else -1.0 for rec in w.records])
    hinge = float(np.mean(np.maximum(0.0, 1.0 - y * (X @ fsfd.w + fsfd.b))))
    if not hinge < 1.0:
        errors.append(f"fsfd hinge loss {hinge} is not below 1.0")
    return errors


# --- prepare -------------------------------------------------------------------------------

def _cli(tracer, cmd: str, argv: list[str]) -> tuple[int, float]:
    span = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
    sink = io.StringIO()
    with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main([cmd] + argv)
        t1 = time.perf_counter()
    return code, t1 - t0


def prepare_round(w: World, name: str, tracer=None):
    base = os.path.join(w.workdir, f"prepare-{name}")
    shutil.rmtree(base, ignore_errors=True)
    dirs = {k: os.path.join(base, k) for k in ("corpus", "props", "priors", "cov")}
    gseed, pseed = str(PREPARE_CORPUS_SEED), str(PREPARE_DETECTOR_SEED)
    jsonl = os.path.join(dirs["props"], "proposals.jsonl")
    steps = [
        ("gen-data", ["--out", dirs["corpus"], "--n", str(N_PREPARE), "--seed", gseed]),
        ("propose", ["--corpus", dirs["corpus"], "--out", dirs["props"], "--seed", pseed]
         + NOISE_FLAGS),
        ("fit-priors", ["--corpus", dirs["corpus"], "--proposals", jsonl, "--out", dirs["priors"]]),
        ("coverage", ["--corpus", dirs["corpus"], "--out", dirs["cov"], "--seed", pseed]
         + NOISE_FLAGS),
    ]
    codes, walls = {}, {}
    for cmd, argv in steps:
        codes[cmd], walls[cmd] = _cli(tracer, cmd, argv)
        yield
    n_props = 0
    if os.path.exists(jsonl):
        with open(jsonl, "rb") as fh:
            n_props = sum(1 for line in fh if line.strip())
        if tracer:
            tracer.counts["cli.propose.jsonl_bytes"] += os.path.getsize(jsonl)
    return {
        "codes": codes,
        "dirs": dirs,
        "gen_data_images_per_s": N_PREPARE / walls["gen-data"],
        "propose_images_per_s": N_PREPARE / walls["propose"],
        "fit_priors_proposals_per_s": n_props / walls["fit-priors"],
    }


def prepare_metrics(rounds: list[dict]) -> dict[str, float]:
    keys = ("gen_data_images_per_s", "propose_images_per_s", "fit_priors_proposals_per_s")
    return {k: statistics.median(r[k] for r in rounds) for k in keys}


def _read_pgm_bytes(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, dims, maxval, payload = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w), int(maxval), magic


def check_prepare(w: World, r: dict) -> list[str]:
    errors = [f"{cmd} exited with {code}" for cmd, code in r["codes"].items() if code != 0]
    if errors:
        return errors
    dirs = r["dirs"]
    ref = corpus.render_synthetic(corpus.SceneSpec(seed=PREPARE_CORPUS_SEED), N_PREPARE)
    with open(os.path.join(dirs["corpus"], "annotations.jsonl"), encoding="utf-8") as fh:
        ann = [json.loads(line) for line in fh if line.strip()]
    if [a["image_id"] for a in ann] != [ai.image_id for ai in ref]:
        return ["annotations do not list the generated images in order"]
    meta = {}
    for a, ai in zip(ann, ref):
        h, wd = ai.pixels.shape
        meta[a["image_id"]] = (a, wd, h)
        if ai.gt is None:
            same = a["face"] is None and a["segments"] == {}
        else:
            same = (tuple(a["face"]) == ai.gt.face.as_tuple() and all(
                tuple(a["segments"][s]["box"]) == ai.gt.boxes[s].as_tuple()
                and a["segments"][s]["v"] == ai.gt.vis[s] for s in SEGMENT_IDS))
        if not same or (a["width"], a["height"]) != (wd, h):
            errors.append(f"{ai.image_id}: annotation does not read back exactly")
        data, maxval, magic = _read_pgm_bytes(
            os.path.join(dirs["corpus"], "images", f"{ai.image_id}.pgm"))
        if magic != b"P5" or maxval != 255 or data.shape != ai.pixels.shape:
            errors.append(f"{ai.image_id}: PGM header does not match the image")
        elif np.max(np.abs(data / 255.0 - ai.pixels)) > 0.5 / 255.0 + 1e-12:
            errors.append(f"{ai.image_id}: pixels off by more than half a grey level")

    with open(os.path.join(dirs["props"], "proposals.jsonl"), encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    by_image: dict[str, list] = {}
    for rec in recs:
        by_image.setdefault(rec["image_id"], []).append(rec)
    labeled, best = [], {}
    for image_id, items in by_image.items():
        a, wd, h = meta[image_id]
        errors += oracles.check_proposals(
            [(rec["cluster_id"], [(s["seg"], tuple(s["box"])) for s in rec["segments"]],
              tuple(rec["bbox"])) for rec in items],
            FRACTIONS, wd, h, PCFG.c, PCFG.zeta, None, image_id)
        gt = oracles.clip_box(a["face"], wd, h) if a["face"] is not None else None
        for rec in items:
            v = oracles.ref_iou(tuple(rec["bbox"]), gt) if gt is not None else 0.0
            labeled.append((tuple(s["seg"] for s in rec["segments"]), v >= 0.5))
            best[image_id] = max(best.get(image_id, 0.0), v)

    with open(os.path.join(dirs["priors"], "priors.json"), encoding="utf-8") as fh:
        pri = json.load(fh)
    seg_f, seg_n, id_f, id_n = oracles.recount_priors(labeled, PROPOSAL_SEGMENTS)
    ident = {"+".join(k): v for k, v in id_f.items()}, {"+".join(k): v for k, v in id_n.items()}
    for key, want in (("per_segment_face", seg_f), ("per_segment_nonface", seg_n),
                      ("identity_face", ident[0]), ("identity_nonface", ident[1])):
        got = pri[key]
        if set(got) != set(want) or not all(oracles.close(got[k], want[k], oracles.EXACT)
                                            for k in want):
            errors.append(f"priors.json {key} differs from the recount")

    with open(os.path.join(dirs["cov"], "coverage.csv"), encoding="utf-8") as fh:
        rows = [tuple(float(v) for v in line.split(",")) for line in fh.read().split("\n")[1:]
                if line]
    faces = [a["image_id"] for a in ann if a["face"] is not None]
    want = oracles.recount_coverage([best.get(i, 0.0) for i in faces], [t for t, _, _ in rows])
    if not all(oracles.close(t, wt, oracles.EXACT) and oracles.close(y, wy, oracles.EXACT)
               for (t, _, y), (wt, wy) in zip(rows, want)) or len(rows) != 9:
        errors.append("coverage.csv differs from the recount over proposals and annotations")
    return errors
