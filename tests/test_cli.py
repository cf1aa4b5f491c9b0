import json
import shutil
import subprocess
import sys

import pytest

from faceseg.cli import main
from faceseg.druid_model import DruidParams


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert run_cli(["gen-data", "--out", root / "corpus", "--n", 40, "--seed", 3,
                    "--noface-frac", 0.25]) == 0
    assert run_cli(["propose", "--corpus", root / "corpus", "--out", root / "props",
                    "--c", 2, "--zeta", 10, "--miss", 0.2, "--jitter", 1.5,
                    "--fp-rate", 2, "--seed", 5]) == 0
    assert run_cli(["fit-priors", "--corpus", root / "corpus",
                    "--proposals", root / "props" / "proposals.jsonl",
                    "--out", root / "priors"]) == 0
    return root


def test_gen_data_layout(workdir):
    assert (workdir / "corpus" / "annotations.jsonl").exists()
    assert (workdir / "corpus" / "spec.json").exists()
    manifest = json.loads((workdir / "corpus" / "manifest.json").read_text())
    assert manifest["cmd"] == "gen-data"
    assert "config.json" in manifest["artifacts"]
    pgms = list((workdir / "corpus" / "images").glob("*.pgm"))
    assert len(pgms) == 40


def test_propose_echoes_config(workdir):
    cfg = json.loads((workdir / "props" / "config.json").read_text())
    assert cfg["proposal.c"] == 2
    assert cfg["proposal.zeta"] == 10
    lines = (workdir / "props" / "proposals.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert set(rec) == {"image_id", "cluster_id", "segments", "bbox"}


def test_propose_rerun_byte_identical(workdir, tmp_path):
    assert run_cli(["propose", "--corpus", workdir / "corpus", "--out", tmp_path / "again",
                    "--c", 2, "--zeta", 10, "--miss", 0.2, "--jitter", 1.5,
                    "--fp-rate", 2, "--seed", 5]) == 0
    a = (workdir / "props" / "proposals.jsonl").read_bytes()
    b = (tmp_path / "again" / "proposals.jsonl").read_bytes()
    assert a == b
    ma = (workdir / "props" / "manifest.json").read_bytes()
    mb = (tmp_path / "again" / "manifest.json").read_bytes()
    assert ma == mb


def test_train_and_eval_fsfd(workdir, tmp_path):
    assert run_cli(["train-fsfd", "--corpus", workdir / "corpus",
                    "--proposals", workdir / "props" / "proposals.jsonl",
                    "--priors", workdir / "priors" / "priors.json",
                    "--out", tmp_path / "fsfd", "--seed", 1]) == 0
    assert run_cli(["eval", "--corpus", workdir / "corpus", "--detector", "fsfd",
                    "--model", tmp_path / "fsfd" / "fsfd.json",
                    "--priors", workdir / "priors" / "priors.json",
                    "--miss", 0.2, "--jitter", 1.5, "--fp-rate", 2, "--seed", 5,
                    "--out", tmp_path / "eval"]) == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert set(summary) == {"tar_at_1pct_far", "recall_at_99pct_precision", "coverage_at_50pct"}
    roc = (tmp_path / "eval" / "roc.csv").read_text().splitlines()
    assert roc[0] == "threshold,x,y"
    assert len(roc) > 2


def test_eval_perfect_detector_fixture(tmp_path):
    # zero noise + fsfd on clean proposals: every face recovered, TAR = 1
    assert run_cli(["gen-data", "--out", tmp_path / "c", "--n", 30, "--seed", 9,
                    "--noface-frac", 0.3, "--crop-weights", "none:1.0"]) == 0
    assert run_cli(["propose", "--corpus", tmp_path / "c", "--out", tmp_path / "p",
                    "--fp-rate", 2, "--seed", 1]) == 0
    assert run_cli(["fit-priors", "--corpus", tmp_path / "c",
                    "--proposals", tmp_path / "p" / "proposals.jsonl",
                    "--out", tmp_path / "pr"]) == 0
    assert run_cli(["train-fsfd", "--corpus", tmp_path / "c",
                    "--proposals", tmp_path / "p" / "proposals.jsonl",
                    "--priors", tmp_path / "pr" / "priors.json",
                    "--out", tmp_path / "m", "--seed", 1]) == 0
    assert run_cli(["eval", "--corpus", tmp_path / "c", "--detector", "fsfd",
                    "--model", tmp_path / "m" / "fsfd.json",
                    "--priors", tmp_path / "pr" / "priors.json", "--fp-rate", 2,
                    "--seed", 1, "--out", tmp_path / "e"]) == 0
    summary = json.loads((tmp_path / "e" / "summary.json").read_text())
    assert summary["tar_at_1pct_far"] == 1.0


def test_loss_check_writes_csv(tmp_path):
    assert run_cli(["loss-check", "--samples", 5, "--seed", 2, "--out", tmp_path / "lc"]) == 0
    rows = (tmp_path / "lc" / "loss_check.csv").read_text().splitlines()
    assert rows[0] == "sample,section,branch,term,value"
    grad_rows = [r for r in rows if ",gradcheck,," in r]
    assert len(grad_rows) == 5
    assert all(float(r.rsplit(",", 1)[1]) < 1e-4 for r in grad_rows)


def test_coverage_csv(workdir, tmp_path):
    assert run_cli(["coverage", "--corpus", workdir / "corpus", "--out", tmp_path / "cov",
                    "--miss", 0.2, "--jitter", 1.5, "--fp-rate", 2, "--seed", 5,
                    "--thetas", "0.25,0.5,0.75"]) == 0
    rows = (tmp_path / "cov" / "coverage.csv").read_text().splitlines()
    assert rows[0] == "threshold,x,y"
    assert len(rows) == 4


def test_config_file_with_flag_override(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"proposal.c": 3, "noise.miss": 0.2, "seed": 5}))
    assert run_cli(["propose", "--corpus", workdir / "corpus", "--config", cfg,
                    "--out", tmp_path / "o", "--c", 2]) == 0
    eff = json.loads((tmp_path / "o" / "config.json").read_text())
    assert eff["proposal.c"] == 2      # flag wins
    assert eff["noise.miss"] == 0.2    # file value survives


def test_exit_codes(tmp_path):
    # unknown flag: argparse usage error
    proc = subprocess.run([sys.executable, "-m", "faceseg.cli", "propose",
                           "--corpus", "x", "--out", "y", "--nope"],
                          capture_output=True)
    assert proc.returncode == 2
    # config error: missing corpus
    assert run_cli(["propose", "--corpus", tmp_path / "missing",
                    "--out", tmp_path / "o", "--seed", 1]) == 2
    # bad config file
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert run_cli(["loss-check", "--config", bad, "--out", tmp_path / "lc"]) == 2


def test_druid_train_and_eval_cli(tmp_path):
    assert run_cli(["gen-data", "--out", tmp_path / "c", "--n", 12, "--seed", 4,
                    "--noface-frac", 0.25]) == 0
    assert run_cli(["train-druid", "--corpus", tmp_path / "c",
                    "--weights-out", tmp_path / "w" / "druid.bin",
                    "--epochs", 1, "--seed", 0]) == 0
    assert run_cli(["eval", "--corpus", tmp_path / "c", "--detector", "druid",
                    "--weights-in", tmp_path / "w" / "druid.bin",
                    "--out", tmp_path / "e"]) == 0
    summary = json.loads((tmp_path / "e" / "summary.json").read_text())
    assert summary["coverage_at_50pct"] is None  # no proposals involved


def run_cli_process(args):
    return subprocess.run([sys.executable, "-m", "faceseg.cli", *map(str, args)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("detector,missing", [("fsfd", "--priors"), ("segface", "--priors"),
                                              ("dsf", "--model")])
def test_eval_missing_flag_is_a_config_error(workdir, tmp_path, detector, missing):
    flags = {"--model": tmp_path / "model.json", "--priors": workdir / "priors" / "priors.json"}
    del flags[missing]
    proc = run_cli_process(["eval", "--corpus", workdir / "corpus", "--detector", detector,
                            *[a for item in flags.items() for a in item],
                            "--out", tmp_path / "e"])
    assert proc.returncode == 2
    assert proc.stderr == f"config error: {missing} is required for the {detector} detector\n"


@pytest.mark.parametrize("keep", [20, 0.5])
def test_eval_truncated_druid_weights_is_a_one_line_error(workdir, tmp_path, keep):
    path = tmp_path / "druid.bin"
    DruidParams.init(seed=0).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:int(keep if keep >= 1 else keep * len(raw))])
    proc = run_cli_process(["eval", "--corpus", workdir / "corpus", "--detector", "druid",
                            "--weights-in", path, "--out", tmp_path / "e"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("image_id", ["img_000099", None])
def test_unknown_image_id_in_proposals_names_the_line(workdir, tmp_path, image_id):
    lines = (workdir / "props" / "proposals.jsonl").read_text().splitlines()
    bad = json.loads(lines[1])
    if image_id is None:
        del bad["image_id"]
    else:
        bad["image_id"] = image_id
    path = tmp_path / "proposals.jsonl"
    path.write_text("\n".join([lines[0], json.dumps(bad), *lines[2:]]) + "\n")
    proc = run_cli_process(["fit-priors", "--corpus", workdir / "corpus",
                            "--proposals", path, "--out", tmp_path / "o"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"{path} line 2: image_id {image_id!r}" in proc.stderr


def test_truncated_pgm_is_a_one_line_error(workdir, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workdir / "corpus", corpus)
    pgm = corpus / "images" / "img_000003.pgm"
    pgm.write_bytes(pgm.read_bytes()[:-100])
    proc = run_cli_process(["propose", "--corpus", corpus, "--out", tmp_path / "o"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "img_000003.pgm" in proc.stderr


# Every setting flag of every subcommand: (flag, a value to pass, the documented config key).
PROPOSAL_SETTINGS = [("--c", 3, "proposal.c"), ("--zeta", 4, "proposal.zeta"),
                     ("--r", 20.0, "proposal.r"), ("--miss", 0.1, "noise.miss"),
                     ("--jitter", 0.5, "noise.jitter"),
                     ("--scale-jitter", 0.05, "noise.scale_jitter"),
                     ("--fp-rate", 1.5, "noise.fp_rate")]
SETTINGS = {
    "gen-data": [("--n", 6, "gen.n"), ("--width", 96, "gen.width"),
                 ("--height", 104, "gen.height"), ("--noface-frac", 0.5, "gen.noface_frac"),
                 ("--crop-weights", "none:0.7,TO_L34:0.3", "gen.crop_weights")],
    "propose": PROPOSAL_SETTINGS,
    "fit-priors": [],
    "train-fsfd": [("--epochs", 2, "train.epochs"), ("--step", 0.3, "train.step"),
                   ("--penalty", 0.001, "train.penalty")],
    "train-segface": [("--epochs", 2, "train.epochs"), ("--step", 0.3, "train.step"),
                      ("--penalty", 0.001, "train.penalty")],
    "train-dsf": [("--epochs", 1, "dsf.epochs"), ("--lr", 0.001, "dsf.lr"),
                  ("--batch", 16, "dsf.batch"), ("--max-proposals", 60, "dsf.max_proposals")],
    "train-druid": [("--epochs", 1, "druid.epochs"), ("--lr", 0.0002, "druid.lr"),
                    ("--batch", 8, "druid.batch")],
    "eval": [("--theta", 0.4, "eval.theta"), *PROPOSAL_SETTINGS],
    "loss-check": [("--samples", 2, "loss.samples")],
    "coverage": [*PROPOSAL_SETTINGS, ("--thetas", "0.3,0.6", "coverage.thetas")],
}
SETTINGS = {cmd: [*flags, ("--seed", 8, "seed")] for cmd, flags in SETTINGS.items()}


def _io_flags(cmd, workdir, root):
    """The non-setting flags each subcommand needs, writing under root/cmd."""
    out = root / cmd
    corpus = ["--corpus", workdir / "corpus"]
    props = ["--proposals", workdir / "props" / "proposals.jsonl"]
    priors = ["--priors", workdir / "priors" / "priors.json"]
    return {
        "gen-data": ["--out", out],
        "propose": [*corpus, "--out", out],
        "fit-priors": [*corpus, *props, "--out", out],
        "train-fsfd": [*corpus, *props, *priors, "--out", out],
        "train-segface": [*corpus, *props, *priors, "--out", out],
        "train-dsf": [*corpus, *props, "--out", out],
        "train-druid": [*corpus, "--weights-out", out / "druid.json"],
        "eval": [*corpus, "--detector", "fsfd", "--model", root / "train-fsfd" / "fsfd.json",
                 *priors, "--out", out],
        "loss-check": ["--out", out],
        "coverage": [*corpus, "--out", out],
    }[cmd]


@pytest.mark.parametrize("cmd,model,flags", [
    ("train-fsfd", "fsfd.json", []),
    ("train-segface", "segface.json", []),
    ("train-dsf", "deepsegface.json", ["--epochs", 1, "--max-proposals", 100]),
    ("train-druid", "druid.json", ["--epochs", 1]),
])
def test_trained_artifacts_rerun_byte_identical(workdir, tmp_path, cmd, model, flags):
    for tag in ("a", "b"):
        assert run_cli([cmd, *_io_flags(cmd, workdir, tmp_path / tag), *flags, "--seed", 3]) == 0
    for name in (model, "config.json", "manifest.json"):
        a, b = (tmp_path / tag / cmd / name for tag in ("a", "b"))
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def flag_configs(workdir, tmp_path_factory):
    """config.json of one run of each subcommand with every setting flag set."""
    root = tmp_path_factory.mktemp("flags")
    configs = {}

    def config(cmd):
        if cmd not in configs:
            if cmd == "eval":
                config("train-fsfd")  # eval scores with the model it trains
            settings = [a for flag, value, _ in SETTINGS[cmd] for a in (flag, value)]
            assert run_cli([cmd, *_io_flags(cmd, workdir, root), *settings]) == 0
            configs[cmd] = json.loads((root / cmd / "config.json").read_text())
        return configs[cmd]

    return config


@pytest.mark.parametrize("cmd,flag,value,key", [
    (cmd, flag, value, key) for cmd, flags in SETTINGS.items() for flag, value, key in flags])
def test_flag_is_echoed_under_its_config_key(flag_configs, cmd, flag, value, key):
    cfg = flag_configs(cmd)
    assert cfg[key] == value
    assert set(cfg) == {k for _, _, k in SETTINGS[cmd]}


@pytest.mark.parametrize("cmd", list(SETTINGS))
def test_help_lists_every_flag(workdir, tmp_path, capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    flags = [f for f, _, _ in SETTINGS[cmd]] + ["--config"]
    flags += [a for a in _io_flags(cmd, workdir, tmp_path) if str(a).startswith("--")]
    for flag in flags:
        assert f"{flag} " in text or f"{flag}\n" in text, flag
