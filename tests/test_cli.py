import json
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
