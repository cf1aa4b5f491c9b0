"""Command-line pipeline runner.

Subcommands cover the whole desk-scale experiment flow: gen-data, propose,
fit-priors, train-fsfd, train-segface, train-dsf, train-druid, eval,
loss-check, coverage.  Every run is fully determined by (config, seed); the
effective configuration is echoed next to the artifacts and hashed into the
manifest, and re-running with the same inputs reproduces the artifacts
byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from faceseg.augment import PhotometricConfig
from faceseg.corpus import (
    DEFAULT_CROP_WEIGHTS,
    DetectorNoise,
    SceneSpec,
    read_corpus,
    write_corpus,
)
from faceseg.detectors import (
    load_deepsegface,
    load_fsfd,
    load_segface,
    save_deepsegface,
    save_fsfd,
    save_segface,
)
from faceseg.druid_loss import LossWeights, loss_grad, total_loss
from faceseg.druid_model import DruidParams, TrainConfig
from faceseg.druid_model import train as druid_train
from faceseg.evalkit import pr_curve, roc_curve
from faceseg.geometry import ImageMeta, SegmentCatalog
from faceseg.priors import PriorTable
from faceseg.proposals import (
    ProposalConfig,
    default_radius,
    proposal_from_record,
    proposal_to_record,
)
from faceseg import pipeline
from faceseg.pipeline import DsfTrainConfig, ProposalRecord

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return cfg


def _effective(cfg: dict, args: argparse.Namespace, mapping: dict[str, str]) -> dict:
    """Merge config-file keys with CLI flags; a flag that was set wins."""
    out = dict(cfg)
    for attr, key in mapping.items():
        val = getattr(args, attr, None)
        if val is not None:
            out[key] = val
    return out


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _write_manifest(outdir, cmd: str, cfg: dict, seed, artifacts: list[str]) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    manifest = {
        "cmd": cmd,
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "artifacts": sorted(artifacts + ["config.json"]),
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def _catalog(cfg: dict) -> SegmentCatalog:
    if "segment_catalog" in cfg:
        return SegmentCatalog.from_dict(cfg["segment_catalog"])
    return SegmentCatalog.default()


def _noise(cfg: dict) -> DetectorNoise:
    return DetectorNoise(miss=cfg.get("noise.miss", 0.0),
                         center_jitter=cfg.get("noise.jitter", 0.0),
                         scale_jitter=cfg.get("noise.scale_jitter", 0.0),
                         fp_rate=cfg.get("noise.fp_rate", 0.0))


def _pcfg(cfg: dict, img: ImageMeta, seed: int) -> ProposalConfig:
    r = cfg.get("proposal.r")
    if r is None:
        r = default_radius(img)
    zeta = cfg.get("proposal.zeta", 10)
    return ProposalConfig(r=float(r), c=int(cfg.get("proposal.c", 2)),
                          zeta=None if zeta in (0, "inf") else int(zeta), seed=seed)


def _read_priors(path) -> PriorTable:
    with open(path, encoding="utf-8") as fh:
        return PriorTable.from_json(fh.read())


def _parse_crop_weights(text: str) -> dict[str, float]:
    weights = {}
    for part in text.split(","):
        name, _, val = part.partition(":")
        if not val:
            raise ConfigError(f"bad crop weight entry {part!r}; use kind:weight")
        weights[name.strip()] = float(val)
    return weights


# --- subcommands -------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = _effective(_load_config(args.config), args, {
        "n": "gen.n", "width": "gen.width", "height": "gen.height",
        "noface_frac": "gen.noface_frac", "crop_weights": "gen.crop_weights",
        "seed": "seed",
    })
    seed = int(cfg.get("seed", 0))
    weights = cfg.get("gen.crop_weights", DEFAULT_CROP_WEIGHTS)
    if isinstance(weights, str):
        weights = _parse_crop_weights(weights)
    spec = SceneSpec(width=int(cfg.get("gen.width", 128)),
                     height=int(cfg.get("gen.height", 128)),
                     crop_weights=weights,
                     photometric=PhotometricConfig(),
                     no_face_fraction=float(cfg.get("gen.noface_frac", 0.2)),
                     seed=seed)
    from faceseg.corpus import render_synthetic

    images = render_synthetic(spec, int(cfg.get("gen.n", 100)), _catalog(cfg))
    write_corpus(args.out, images, spec)
    artifacts = ["annotations.jsonl", "spec.json"] + [f"images/{ai.image_id}.pgm" for ai in images]
    _write_manifest(args.out, "gen-data", cfg, seed, artifacts)
    print(f"gen-data: wrote {len(images)} images to {args.out}")
    return EXIT_OK


def _load_images(corpus_dir):
    if not os.path.isdir(corpus_dir):
        raise ConfigError(f"corpus directory {corpus_dir!r} not found")
    return read_corpus(corpus_dir)


def _records_for(args, cfg, images, catalog) -> list[ProposalRecord]:
    seed = int(cfg.get("seed", 0))
    meta = images[0].meta if images else ImageMeta(128, 128)
    pcfg = _pcfg(cfg, meta, seed)
    return pipeline.proposals_for_corpus(images, _noise(cfg), pcfg, seed, catalog,
                                         match_theta=float(cfg.get("eval.theta", 0.5)))


_PROPOSE_FLAGS = {
    "c": "proposal.c", "zeta": "proposal.zeta", "r": "proposal.r",
    "miss": "noise.miss", "jitter": "noise.jitter",
    "scale_jitter": "noise.scale_jitter", "fp_rate": "noise.fp_rate",
    "seed": "seed",
}


def cmd_propose(args) -> int:
    cfg = _effective(_load_config(args.config), args, _PROPOSE_FLAGS)
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    records = _records_for(args, cfg, images, catalog)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "proposals.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(proposal_to_record(r.image_id, r.cluster_id, r.proposal),
                                separators=(",", ":")) + "\n")
    _write_manifest(args.out, "propose", cfg, int(cfg.get("seed", 0)), ["proposals.jsonl"])
    print(f"propose: {len(records)} proposals over {len(images)} images "
          f"(c={cfg.get('proposal.c', 2)}, zeta={cfg.get('proposal.zeta', 10)})")
    return EXIT_OK


def _read_proposals(path, images, catalog) -> list[ProposalRecord]:
    by_id = {ai.image_id: ai for ai in images}
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            ai = by_id[rec["image_id"]]
            iid, cid, prop = proposal_from_record(rec, ai.meta, catalog)
            records.append(ProposalRecord(iid, cid, prop,
                                          pipeline.label_proposal(prop, ai)))
    return records


def cmd_fit_priors(args) -> int:
    cfg = _effective(_load_config(args.config), args, {"seed": "seed"})
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    records = _read_proposals(args.proposals, images, catalog)
    table = pipeline.fit_priors_from_records(records, catalog)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "priors.json"), "w", encoding="utf-8") as fh:
        fh.write(table.to_json())
    _write_manifest(args.out, "fit-priors", cfg, int(cfg.get("seed", 0)), ["priors.json"])
    print(f"fit-priors: fitted on {len(records)} proposals")
    return EXIT_OK


_TRAIN_FLAGS = {"seed": "seed", "epochs": "train.epochs", "step": "train.step",
                "penalty": "train.penalty"}


def cmd_train_fsfd(args) -> int:
    cfg = _effective(_load_config(args.config), args, _TRAIN_FLAGS)
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    records = _read_proposals(args.proposals, images, catalog)
    table = _read_priors(args.priors)
    model = pipeline.train_fsfd(records, table,
                                epochs=int(cfg.get("train.epochs", 120)),
                                step=float(cfg.get("train.step", 0.5)),
                                penalty=float(cfg.get("train.penalty", 1e-4)),
                                seed=int(cfg.get("seed", 0)))
    os.makedirs(args.out, exist_ok=True)
    save_fsfd(os.path.join(args.out, "fsfd.json"), model)
    _write_manifest(args.out, "train-fsfd", cfg, int(cfg.get("seed", 0)), ["fsfd.json"])
    print("train-fsfd: done")
    return EXIT_OK


def cmd_train_segface(args) -> int:
    cfg = _effective(_load_config(args.config), args, _TRAIN_FLAGS)
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    records = _read_proposals(args.proposals, images, catalog)
    table = _read_priors(args.priors)
    by_id = {ai.image_id: ai for ai in images}
    bank, master = pipeline.train_segface(records, by_id, table,
                                          epochs=int(cfg.get("train.epochs", 60)),
                                          step=float(cfg.get("train.step", 0.5)),
                                          penalty=float(cfg.get("train.penalty", 1e-4)),
                                          seed=int(cfg.get("seed", 0)))
    os.makedirs(args.out, exist_ok=True)
    save_segface(os.path.join(args.out, "segface.json"), bank, master)
    _write_manifest(args.out, "train-segface", cfg, int(cfg.get("seed", 0)), ["segface.json"])
    print("train-segface: done")
    return EXIT_OK


def cmd_train_dsf(args) -> int:
    cfg = _effective(_load_config(args.config), args, {
        "seed": "seed", "epochs": "dsf.epochs", "lr": "dsf.lr",
        "batch": "dsf.batch", "max_proposals": "dsf.max_proposals",
    })
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    records = _read_proposals(args.proposals, images, catalog)
    by_id = {ai.image_id: ai for ai in images}
    net = pipeline.train_deepsegface(records, by_id, DsfTrainConfig(
        lr=float(cfg.get("dsf.lr", 2e-3)),
        epochs=int(cfg.get("dsf.epochs", 8)),
        batch_size=int(cfg.get("dsf.batch", 64)),
        seed=int(cfg.get("seed", 0)),
        max_proposals=int(cfg.get("dsf.max_proposals", 8000)),
    ), catalog)
    os.makedirs(args.out, exist_ok=True)
    save_deepsegface(os.path.join(args.out, "deepsegface.json"), net)
    _write_manifest(args.out, "train-dsf", cfg, int(cfg.get("seed", 0)), ["deepsegface.json"])
    print("train-dsf: done")
    return EXIT_OK


def cmd_train_druid(args) -> int:
    cfg = _effective(_load_config(args.config), args, {
        "seed": "seed", "epochs": "druid.epochs", "lr": "druid.lr",
        "batch": "druid.batch",
    })
    images = _load_images(args.corpus)
    weights = LossWeights.from_config(cfg)
    tc = TrainConfig(lr=float(cfg.get("druid.lr", 1e-4)),
                     decay=float(cfg.get("druid.decay", 0.0)),
                     epochs=int(cfg.get("druid.epochs", 25)),
                     batch_size=int(cfg.get("druid.batch", 32)),
                     seed=int(cfg.get("seed", 0)))
    samples = [(ai.pixels, ai.gt) for ai in images]
    model = druid_train(samples, tc, weights)
    os.makedirs(os.path.dirname(os.path.abspath(args.weights_out)) or ".", exist_ok=True)
    model.save(args.weights_out)
    outdir = os.path.dirname(os.path.abspath(args.weights_out))
    _write_manifest(outdir, "train-druid", cfg, int(cfg.get("seed", 0)),
                    [os.path.basename(args.weights_out)])
    print(f"train-druid: saved {args.weights_out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _effective(_load_config(args.config), args, {
        **_PROPOSE_FLAGS, "theta": "eval.theta",
    })
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    theta = float(cfg.get("eval.theta", 0.5))
    coverage50 = None
    if args.detector == "druid":
        if not args.weights_in:
            raise ConfigError("--weights-in is required for the druid detector")
        model = DruidParams.load(args.weights_in)
        outcomes = pipeline.evaluate_druid(images, model)
    else:
        for flag, value in (("--model", args.model), ("--priors", args.priors)):
            if not value:
                raise ConfigError(f"{flag} is required for the {args.detector} detector")
        table = _read_priors(args.priors)
        if args.detector == "fsfd":
            score = pipeline.fsfd_score_fn(table, load_fsfd(args.model))
        elif args.detector == "segface":
            score = pipeline.segface_score_fn(*load_segface(args.model), table)
        else:
            score = pipeline.dsf_score_fn(load_deepsegface(args.model), table)
        per_image = pipeline.records_by_image(_records_for(args, cfg, images, catalog))
        outcomes = pipeline.evaluate_proposal_detector(images, per_image, score)
        cov = pipeline.coverage_from_records(images, per_image, [theta])
        coverage50 = cov.points[0][2]

    roc, tar = roc_curve(outcomes, theta=theta)
    pr, recall = pr_curve(outcomes, theta=theta)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "roc.csv"), "w", encoding="utf-8") as fh:
        fh.write(roc.to_csv())
    with open(os.path.join(args.out, "pr.csv"), "w", encoding="utf-8") as fh:
        fh.write(pr.to_csv())
    summary = {"tar_at_1pct_far": tar, "recall_at_99pct_precision": recall,
               "coverage_at_50pct": coverage50}
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    _write_manifest(args.out, "eval", cfg, int(cfg.get("seed", 0)),
                    ["roc.csv", "pr.csv", "summary.json"])
    print(f"eval[{args.detector}]: tar_at_1pct_far={tar:.4f} "
          f"recall_at_99pct_precision={recall:.4f}")
    return EXIT_OK


def cmd_loss_check(args) -> int:
    cfg = _effective(_load_config(args.config), args, {"seed": "seed", "samples": "loss.samples"})
    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("loss.samples", 100))
    weights = LossWeights.from_config(cfg)
    rng = np.random.default_rng(seed)
    from faceseg.druid_loss import DruidGroundTruth
    from faceseg.geometry import BBox

    catalog = _catalog(cfg)
    rows = ["sample,section,branch,term,value"]
    max_err = 0.0
    h = 1e-5
    checked = 0
    while checked < n:
        x1, y1 = rng.uniform(0.0, 0.5, 2)
        gt = DruidGroundTruth.from_face(BBox(x1, y1, x1 + rng.uniform(0.3, 0.5),
                                             y1 + rng.uniform(0.3, 0.5)), catalog)
        for seg in list(gt.vis):
            if rng.random() < 0.3:
                gt.vis[seg] = 0
        seg_preds = rng.uniform(-0.3, 1.3, (14, 10))
        face_pred = rng.uniform(-0.3, 1.3, 5)
        total, bd = total_loss(seg_preds, face_pred, gt, weights, return_breakdown=True)
        dseg, dface = loss_grad(seg_preds, face_pred, gt, weights)
        flat = np.concatenate([seg_preds.ravel(), face_pred])
        grad = np.concatenate([dseg.ravel(), dface])
        idx = rng.integers(flat.size, size=12)  # spot-check a dozen coordinates
        errs = []
        for j in idx:
            up, dn = flat.copy(), flat.copy()
            up[j] += h
            dn[j] -= h
            num = (total_loss(up[:140].reshape(14, 10), up[140:], gt, weights)
                   - total_loss(dn[:140].reshape(14, 10), dn[140:], gt, weights)) / (2 * h)
            errs.append(float(abs(grad[j] - num) / max(abs(num), 1.0)))
        err = max(errs)
        max_err = max(max_err, err)
        for branch, fams in bd.branches.items():
            for fam, terms in fams.items():
                for term, value in terms.items():
                    rows.append(f"{checked},{fam},{branch},{term},{value!r}")
        rows.append(f"{checked},gradcheck,,max_rel_error,{err!r}")
        checked += 1
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "loss_check.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    _write_manifest(args.out, "loss-check", cfg, seed, ["loss_check.csv"])
    print(f"loss-check: {n} samples, max relative gradient error {max_err:.2e}")
    return EXIT_OK if max_err < 1e-4 else EXIT_RUNTIME


def cmd_coverage(args) -> int:
    cfg = _effective(_load_config(args.config), args, {**_PROPOSE_FLAGS, "thetas": "coverage.thetas"})
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    records = _records_for(args, cfg, images, catalog)
    per_image = pipeline.records_by_image(records)
    thetas = cfg.get("coverage.thetas", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    if isinstance(thetas, str):
        thetas = [float(t) for t in thetas.split(",")]
    curve = pipeline.coverage_from_records(images, per_image, thetas)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "coverage.csv"), "w", encoding="utf-8") as fh:
        fh.write(curve.to_csv())
    _write_manifest(args.out, "coverage", cfg, int(cfg.get("seed", 0)), ["coverage.csv"])
    print(f"coverage: {len(curve.points)} thresholds over {len(images)} images")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="faceseg",
                                 description="facial-segment face detection toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="flat JSON config file (flags win)")
        p.add_argument("--seed", type=int, default=None)
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="render a synthetic corpus")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--noface-frac", dest="noface_frac", type=float, default=None)
    p.add_argument("--crop-weights", dest="crop_weights", default=None,
                   help="comma list kind:weight, e.g. none:0.6,TO_L34:0.4")
    p.set_defaults(fn=cmd_gen_data)

    def proposal_flags(p):
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--zeta", type=int, default=None)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--miss", type=float, default=None)
        p.add_argument("--jitter", type=float, default=None)
        p.add_argument("--scale-jitter", dest="scale_jitter", type=float, default=None)
        p.add_argument("--fp-rate", dest="fp_rate", type=float, default=None)

    p = sub.add_parser("propose", help="simulate detectors and emit proposals")
    common(p)
    p.add_argument("--corpus", required=True)
    proposal_flags(p)
    p.set_defaults(fn=cmd_propose)

    p = sub.add_parser("fit-priors", help="fit prior statistics from proposals")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--proposals", required=True)
    p.set_defaults(fn=cmd_fit_priors)

    for name, fn in (("train-fsfd", cmd_train_fsfd), ("train-segface", cmd_train_segface)):
        p = sub.add_parser(name, help=f"{name} on labeled proposals")
        common(p)
        p.add_argument("--corpus", required=True)
        p.add_argument("--proposals", required=True)
        p.add_argument("--priors", required=True)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--penalty", type=float, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("train-dsf", help="train the multi-column scorer")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--max-proposals", dest="max_proposals", type=int, default=None)
    p.set_defaults(fn=cmd_train_dsf)

    p = sub.add_parser("train-druid", help="train the regression network")
    common(p, out_required=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--weights-out", dest="weights_out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.set_defaults(fn=cmd_train_druid)

    p = sub.add_parser("eval", help="evaluate a detector on a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--detector", required=True, choices=["fsfd", "segface", "dsf", "druid"])
    p.add_argument("--model", help="model container for fsfd/segface/dsf")
    p.add_argument("--priors", help="priors.json for proposal detectors")
    p.add_argument("--weights-in", dest="weights_in", help="druid parameter file")
    p.add_argument("--theta", type=float, default=None)
    proposal_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("loss-check", help="loss terms and gradient verification CSV")
    common(p)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_loss_check)

    p = sub.add_parser("coverage", help="proposal coverage upper-bound curve")
    common(p)
    p.add_argument("--corpus", required=True)
    proposal_flags(p)
    p.add_argument("--thetas", default=None)
    p.set_defaults(fn=cmd_coverage)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
