"""Command-line pipeline runner.

Subcommands cover the whole desk-scale experiment flow: gen-data, propose,
fit-priors, train-fsfd, train-segface, train-dsf, train-druid, eval,
loss-check, coverage.  Every run is fully determined by (config, seed); the
effective configuration is echoed next to the artifacts and hashed into the
manifest, and re-running with the same inputs reproduces the artifacts
byte for byte.

Each setting is a flat config key (``seed`` or a dotted name such as
``train.epochs``); its flag, if it has one, stores under that key.  A key
that neither the config file nor a flag sets keeps the default of the
library call it feeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from faceseg.corpus import DetectorNoise, SceneSpec, read_corpus, render_synthetic, write_corpus
from faceseg.detectors import (
    load_deepsegface,
    load_fsfd,
    load_segface,
    save_deepsegface,
    save_fsfd,
    save_segface,
)
from faceseg.druid_loss import DruidGroundTruth, LossWeights, loss_grad, total_loss
from faceseg.druid_model import DruidParams, TrainConfig
from faceseg.druid_model import train as druid_train
from faceseg.evalkit import pr_curve, roc_curve
from faceseg.geometry import BBox, ImageMeta, SegmentCatalog
from faceseg.priors import PriorTable
from faceseg.proposals import (
    ProposalConfig,
    default_radius,
    proposal_from_record,
    proposal_to_record,
)
from faceseg import pipeline
from faceseg.pipeline import DsfTrainConfig, ProposalRecord

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _config(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by every setting flag that was set.

    A setting flag's argparse dest is its config key, so the settings are the
    dests that are ``seed`` or hold a dot; the other dests are paths and choices.
    """
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a flat JSON object")
    cfg.update((key, val) for key, val in vars(args).items()
               if val is not None and (key == "seed" or "." in key))
    return cfg


def _set(cfg: dict, **fields) -> dict:
    """Keyword arguments for the settings present in ``cfg``.

    Each field is (config key, type); a key that is absent is left out, so the
    callee's own default applies.
    """
    return {name: kind(cfg[key]) for name, (key, kind) in fields.items() if key in cfg}


def _write(args, cfg: dict, seed: int, artifacts: dict, outdir=None) -> None:
    """Create the output directory and write a command's artifacts into it,
    then the effective config as config.json and the run's manifest.json.

    An artifact is text, a function that saves the file at the path it is
    given, or None for a file the command wrote itself.
    """
    outdir = outdir or args.out
    os.makedirs(outdir, exist_ok=True)
    for name, content in artifacts.items():
        path = os.path.join(outdir, name)
        if callable(content):
            content(path)
        elif content is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
    with open(os.path.join(outdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    manifest = {
        "cmd": args.cmd,
        "config_hash": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16],
        "seed": seed,
        "artifacts": sorted([*artifacts, "config.json"]),
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def _catalog(cfg: dict) -> SegmentCatalog:
    if "segment_catalog" in cfg:
        return SegmentCatalog.from_dict(cfg["segment_catalog"])
    return SegmentCatalog.default()


def _crop_weights(value) -> dict[str, float]:
    """gen.crop_weights: a JSON object, or the flag's kind:weight list."""
    if not isinstance(value, str):
        return value
    weights = {}
    for part in value.split(","):
        name, _, val = part.partition(":")
        if not val:
            raise ConfigError(f"bad crop weight entry {part!r}; use kind:weight")
        weights[name.strip()] = float(val)
    return weights


def _load_images(corpus_dir):
    if not os.path.isdir(corpus_dir):
        raise ConfigError(f"corpus directory {corpus_dir!r} not found")
    return read_corpus(corpus_dir)


def _records_for(cfg, seed, images, catalog) -> tuple[ProposalConfig, list[ProposalRecord]]:
    """The proposal settings and the labeled proposals of simulated detections."""
    r = cfg.get("proposal.r")
    if r is None:
        r = default_radius(images[0].meta if images else ImageMeta(128, 128))
    zeta = ("proposal.zeta", lambda z: None if z in (0, "inf") else int(z))  # 0, "inf": no cap
    pcfg = ProposalConfig(r=float(r), seed=seed, **_set(cfg, c=("proposal.c", int), zeta=zeta))
    noise = DetectorNoise(**_set(cfg, miss=("noise.miss", float),
                                 center_jitter=("noise.jitter", float),
                                 scale_jitter=("noise.scale_jitter", float),
                                 fp_rate=("noise.fp_rate", float)))
    return pcfg, pipeline.proposals_for_corpus(images, noise, pcfg, seed, catalog,
                                               match_theta=float(cfg.get("eval.theta", 0.5)))


def _read_proposals(path, images, catalog) -> list[ProposalRecord]:
    by_id = {ai.image_id: ai for ai in images}
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            iid = rec.get("image_id") if isinstance(rec, dict) else None
            if iid not in by_id:
                raise ValueError(f"{path} line {lineno}: image_id {iid!r} is not in the corpus")
            ai = by_id[iid]
            iid, cid, prop = proposal_from_record(rec, ai.meta, catalog)
            records.append(ProposalRecord(iid, cid, prop,
                                          pipeline.label_proposal(prop, ai)))
    return records


def _labeled(args, cfg):
    """The corpus, the segment catalog and the labeled proposals of --proposals."""
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    return images, catalog, _read_proposals(args.proposals, images, catalog)


def _read_priors(path) -> PriorTable:
    with open(path, encoding="utf-8") as fh:
        return PriorTable.from_json(fh.read())


# --- subcommands -------------------------------------------------------------

def cmd_gen_data(args, cfg, seed) -> int:
    spec = SceneSpec(seed=seed, **_set(cfg, width=("gen.width", int),
                                       height=("gen.height", int),
                                       no_face_fraction=("gen.noface_frac", float),
                                       crop_weights=("gen.crop_weights", _crop_weights)))
    images = render_synthetic(spec, int(cfg.get("gen.n", 100)), _catalog(cfg))
    write_corpus(args.out, images, spec)
    names = ["annotations.jsonl", "spec.json"] + [f"images/{ai.image_id}.pgm" for ai in images]
    _write(args, cfg, seed, dict.fromkeys(names))
    print(f"gen-data: wrote {len(images)} images to {args.out}")
    return EXIT_OK


def cmd_propose(args, cfg, seed) -> int:
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    pcfg, records = _records_for(cfg, seed, images, catalog)
    lines = [json.dumps(proposal_to_record(r.image_id, r.cluster_id, r.proposal),
                        separators=(",", ":")) + "\n" for r in records]
    _write(args, cfg, seed, {"proposals.jsonl": "".join(lines)})
    print(f"propose: {len(records)} proposals over {len(images)} images "
          f"(c={pcfg.c}, zeta={pcfg.zeta})")
    return EXIT_OK


def cmd_fit_priors(args, cfg, seed) -> int:
    _, catalog, records = _labeled(args, cfg)
    table = pipeline.fit_priors_from_records(records, catalog)
    _write(args, cfg, seed, {"priors.json": table.to_json()})
    print(f"fit-priors: fitted on {len(records)} proposals")
    return EXIT_OK


def cmd_train_linear(args, cfg, seed) -> int:
    """train-fsfd and train-segface: hinge-loss linear models on labeled proposals."""
    images, _, records = _labeled(args, cfg)
    table = _read_priors(args.priors)
    kw = _set(cfg, epochs=("train.epochs", int), step=("train.step", float),
              penalty=("train.penalty", float))
    if args.cmd == "train-fsfd":
        model = pipeline.train_fsfd(records, table, seed=seed, **kw)
        artifacts = {"fsfd.json": lambda path: save_fsfd(path, model)}
    else:
        bank, master = pipeline.train_segface(records, {ai.image_id: ai for ai in images},
                                              table, seed=seed, **kw)
        artifacts = {"segface.json": lambda path: save_segface(path, bank, master)}
    _write(args, cfg, seed, artifacts)
    print(f"{args.cmd}: done")
    return EXIT_OK


def cmd_train_dsf(args, cfg, seed) -> int:
    images, catalog, records = _labeled(args, cfg)
    tc = DsfTrainConfig(seed=seed, **_set(cfg, lr=("dsf.lr", float), epochs=("dsf.epochs", int),
                                          batch_size=("dsf.batch", int),
                                          max_proposals=("dsf.max_proposals", int)))
    net = pipeline.train_deepsegface(records, {ai.image_id: ai for ai in images}, tc, catalog)
    _write(args, cfg, seed, {"deepsegface.json": lambda path: save_deepsegface(path, net)})
    print("train-dsf: done")
    return EXIT_OK


def cmd_train_druid(args, cfg, seed) -> int:
    images = _load_images(args.corpus)
    weights = LossWeights.from_config(cfg)
    tc = TrainConfig(seed=seed, **_set(cfg, lr=("druid.lr", float), decay=("druid.decay", float),
                                       epochs=("druid.epochs", int),
                                       batch_size=("druid.batch", int)))
    model = druid_train([(ai.pixels, ai.gt) for ai in images], tc, weights)
    _write(args, cfg, seed, {os.path.basename(args.weights_out): model.save},
           os.path.dirname(os.path.abspath(args.weights_out)))
    print(f"train-druid: saved {args.weights_out}")
    return EXIT_OK


def cmd_eval(args, cfg, seed) -> int:
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    theta = float(cfg.get("eval.theta", 0.5))
    coverage50 = None
    if args.detector == "druid":
        if not args.weights_in:
            raise ConfigError("--weights-in is required for the druid detector")
        outcomes = pipeline.evaluate_druid(images, DruidParams.load(args.weights_in))
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
        per_image = pipeline.records_by_image(_records_for(cfg, seed, images, catalog)[1])
        outcomes = pipeline.evaluate_proposal_detector(images, per_image, score)
        coverage50 = pipeline.coverage_from_records(images, per_image, [theta]).points[0][2]

    roc, tar = roc_curve(outcomes, theta=theta)
    pr, recall = pr_curve(outcomes, theta=theta)
    summary = {"tar_at_1pct_far": tar, "recall_at_99pct_precision": recall,
               "coverage_at_50pct": coverage50}
    _write(args, cfg, seed, {"roc.csv": roc.to_csv(), "pr.csv": pr.to_csv(),
                             "summary.json": json.dumps(summary, indent=2)})
    print(f"eval[{args.detector}]: tar_at_1pct_far={tar:.4f} "
          f"recall_at_99pct_precision={recall:.4f}")
    return EXIT_OK


def cmd_loss_check(args, cfg, seed) -> int:
    n = int(cfg.get("loss.samples", 100))
    weights = LossWeights.from_config(cfg)
    rng = np.random.default_rng(seed)
    catalog = _catalog(cfg)
    rows = ["sample,section,branch,term,value"]
    max_err = 0.0
    h = 1e-5
    for checked in range(n):
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
    _write(args, cfg, seed, {"loss_check.csv": "\n".join(rows) + "\n"})
    print(f"loss-check: {n} samples, max relative gradient error {max_err:.2e}")
    return EXIT_OK if max_err < 1e-4 else EXIT_RUNTIME


def cmd_coverage(args, cfg, seed) -> int:
    catalog = _catalog(cfg)
    images = _load_images(args.corpus)
    per_image = pipeline.records_by_image(_records_for(cfg, seed, images, catalog)[1])
    thetas = cfg.get("coverage.thetas", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    if isinstance(thetas, str):
        thetas = [float(t) for t in thetas.split(",")]
    curve = pipeline.coverage_from_records(images, per_image, thetas)
    _write(args, cfg, seed, {"coverage.csv": curve.to_csv()})
    print(f"coverage: {len(curve.points)} thresholds over {len(images)} images")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="faceseg",
                                 description="facial-segment face detection toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)
    proposal = (("--c", "proposal.c", int), ("--zeta", "proposal.zeta", int),
                ("--r", "proposal.r", float), ("--miss", "noise.miss", float),
                ("--jitter", "noise.jitter", float),
                ("--scale-jitter", "noise.scale_jitter", float),
                ("--fp-rate", "noise.fp_rate", float))

    def settings(p, *flags):
        """Add setting flags, each (flag, config key, type[, help])."""
        for flag, key, kind, *help_ in flags:
            p.add_argument(flag, dest=key, type=kind, help=help_[0] if help_ else None,
                           metavar=flag[2:].replace("-", "_").upper())

    def command(name, fn, help_, *required, out=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat JSON config file (flags win)")
        settings(p, ("--seed", "seed", int))
        if out:
            p.add_argument("--out", required=True, help="output directory")
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(fn=fn)
        return p

    p = command("gen-data", cmd_gen_data, "render a synthetic corpus")
    settings(p, ("--n", "gen.n", int), ("--width", "gen.width", int),
             ("--height", "gen.height", int), ("--noface-frac", "gen.noface_frac", float),
             ("--crop-weights", "gen.crop_weights", None,
              "comma list kind:weight, e.g. none:0.6,TO_L34:0.4"))

    p = command("propose", cmd_propose, "simulate detectors and emit proposals", "--corpus")
    settings(p, *proposal)

    command("fit-priors", cmd_fit_priors, "fit prior statistics from proposals",
            "--corpus", "--proposals")

    for name in ("train-fsfd", "train-segface"):
        p = command(name, cmd_train_linear, f"{name} on labeled proposals",
                    "--corpus", "--proposals", "--priors")
        settings(p, ("--epochs", "train.epochs", int), ("--step", "train.step", float),
                 ("--penalty", "train.penalty", float))

    p = command("train-dsf", cmd_train_dsf, "train the multi-column scorer",
                "--corpus", "--proposals")
    settings(p, ("--epochs", "dsf.epochs", int), ("--lr", "dsf.lr", float),
             ("--batch", "dsf.batch", int), ("--max-proposals", "dsf.max_proposals", int))

    p = command("train-druid", cmd_train_druid, "train the regression network",
                "--corpus", "--weights-out", out=False)
    settings(p, ("--epochs", "druid.epochs", int), ("--lr", "druid.lr", float),
             ("--batch", "druid.batch", int))

    p = command("eval", cmd_eval, "evaluate a detector on a corpus", "--corpus")
    p.add_argument("--detector", required=True, choices=["fsfd", "segface", "dsf", "druid"])
    p.add_argument("--model", help="model container for fsfd/segface/dsf")
    p.add_argument("--priors", help="priors.json for proposal detectors")
    p.add_argument("--weights-in", help="druid parameter file")
    settings(p, ("--theta", "eval.theta", float), *proposal)

    p = command("loss-check", cmd_loss_check, "loss terms and gradient verification CSV")
    settings(p, ("--samples", "loss.samples", int))

    p = command("coverage", cmd_coverage, "proposal coverage upper-bound curve", "--corpus")
    settings(p, *proposal, ("--thetas", "coverage.thetas", None))
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return args.fn(args, cfg, int(cfg.get("seed", 0)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
