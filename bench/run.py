"""faceseg benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {detect,train,prepare} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; inputs are generated from ``--seed``.  With ``--trace 0`` the
last stdout line is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric, taken from spans recorded
around the program's public functions.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
STAGES = ("detect", "train", "prepare")
SETUPS = 3  # set-ups per timed run; setup_s is their median
# Every run reports every end-to-end metric, so the two stages a workload does
# not own also run, each for at least one whole round.  Steps of all three
# stages are interleaved, each stage kept at its share of the time so far, so
# that every metric samples the whole run: this machine's speed shifts by up
# to 1.8x in bursts of seconds, and a metric measured in one stretch of the
# run takes whichever speed that stretch had.
OWN_SHARE = 0.6


def _limit_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _environment(cores: int) -> dict:
    import numpy as np

    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "faceseg", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    threads = None
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "numpy": np.__version__,
            "python": platform.python_version(), "cores": cores, "commit": _commit(),
            "src_faceseg_lines": lines, "process_threads": threads}


class Runner:
    """Runs rounds of the stages, counting operations and keeping results."""

    def __init__(self, stages, world, label: str, tracer=None):
        self.stages = stages
        self.world = world
        self.label = label
        self.tracer = tracer
        self.rounds = {s: [] for s in STAGES}
        self.attempted = 0
        self.failed = 0

    def ops(self, stage: str) -> int:
        return {"detect": self.stages.N_HELDOUT + 3, "train": 2 + self.stages.REPEATS,
                "prepare": 4}[stage]

    def start(self, stage: str):
        """A new round of the stage, as a generator of its steps."""
        self.attempted += self.ops(stage)
        gc.collect()  # start each round without garbage left by the previous one
        if stage == "detect":
            return self.stages.detect_round(self.world)
        if stage == "train":
            return self.stages.train_round(self.world)
        name = f"{self.label}-{len(self.rounds[stage])}"
        return self.stages.prepare_round(self.world, name, self.tracer)

    def step(self, stage: str, round_gen) -> bool:
        """Run the round's next step; True once the round has ended."""
        try:
            next(round_gen)
            return False
        except StopIteration as stop:
            r = stop.value
        except Exception:  # a failed round counts all its operations as failed
            traceback.print_exc()
            self.failed += self.ops(stage)
            return True
        if stage == "prepare":
            self.failed += sum(1 for c in r["codes"].values() if c != 0)
        self.rounds[stage].append(r)
        return True

    def run(self, stage: str) -> float:
        """One whole round, uninterrupted; returns its wall time."""
        t0 = time.perf_counter()
        round_gen = self.start(stage)
        while not self.step(stage, round_gen):
            pass
        return time.perf_counter() - t0

    def check(self) -> list[str]:
        import numpy as np

        rng = np.random.default_rng(self.world.seeds["checks"])
        errors = []
        for stage, rounds in self.rounds.items():
            if not rounds:
                continue
            if stage == "detect":
                errors += self.stages.check_detect(self.world, rounds[0], rng)
            elif stage == "train":
                errors += self.stages.check_train(self.world, rounds[0], rng)
            else:
                errors += self.stages.check_prepare(self.world, rounds[0])
        return errors

    def end_to_end(self) -> dict[str, float]:
        out = {}
        out.update(self.stages.detect_metrics(self.rounds["detect"]))
        out.update(self.stages.train_metrics(self.rounds["train"]))
        out.update(self.stages.prepare_metrics(self.rounds["prepare"]))
        return out


def timed_run(args, stages, workdir) -> tuple[dict, Runner, dict]:
    """Set up SETUPS times, warm up, then interleave steps of the three stages'
    rounds for --seconds and finish the rounds still open."""
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        world = stages.setup(args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    stages.warm_up(world)
    gc.freeze()  # set-up's objects live for the whole run; collections skip them
    runner = Runner(stages, world, "timed")
    share = {s: OWN_SHARE if s == args.workload else (1.0 - OWN_SHARE) / 2 for s in STAGES}
    spent = {s: 0.0 for s in STAGES}
    begun = {s: 0 for s in STAGES}
    open_rounds = {}
    start = time.perf_counter()
    while True:
        # after --seconds only open rounds go on, and stages not yet begun start
        closing = time.perf_counter() - start >= args.seconds
        ready = [s for s in STAGES if s in open_rounds or not closing or not begun[s]]
        if not ready:
            break
        stage = min(ready, key=lambda s: spent[s] / share[s])
        if stage not in open_rounds:
            open_rounds[stage] = runner.start(stage)
            begun[stage] += 1
        t0 = time.perf_counter()
        if runner.step(stage, open_rounds[stage]):
            del open_rounds[stage]
        spent[stage] += time.perf_counter() - t0
    metrics = runner.end_to_end()
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"setup_s_each": setup_s, "measured_s": time.perf_counter() - start,
              "end_to_end": metrics,
              "stage_s": spent,
              "rounds": {s: len(r) for s, r in runner.rounds.items()},
              "per_round": {s: [{k: v for k, v in r.items() if k.endswith("_per_s")}
                                for r in rounds] for s, rounds in runner.rounds.items()}}
    if runner.rounds["detect"]:
        r = runner.rounds["detect"][0]
        record["detection_quality"] = {
            det: {"tar_at_1pct_far": roc[1], "recall_at_99pct_precision": pr[1]}
            for det, (_, roc, pr) in r["eval"].items()}
        record["detection_quality"]["coverage_at_50pct"] = r["coverage50"]
    return metrics, runner, record


def traced_run(args, stages, spans, workdir) -> tuple[dict, Runner, dict]:
    """Pairs of rounds of the workload's stage, untraced then traced, until
    --seconds have passed; per-layer metrics come from the traced rounds."""
    world = stages.setup(args.seed, workdir)
    stages.warm_up(world)
    gc.freeze()
    tracer = spans.Tracer()
    plain = Runner(stages, world, "untraced")
    traced = Runner(stages, world, "traced", tracer)
    walls = {"untraced": [], "traced": []}
    start = time.perf_counter()
    while True:
        walls["untraced"].append(plain.run(args.workload))
        tracer.install()
        try:
            walls["traced"].append(traced.run(args.workload))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    overhead = 100.0 * (sum(walls["traced"]) / sum(walls["untraced"]) - 1.0)
    metrics = spans.layer_metrics(tracer.summary(), tracer.counts,
                                  len(walls["traced"]), overhead)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json"))
    per_stage = {"untraced": getattr(stages, f"{args.workload}_metrics")(
                     plain.rounds[args.workload]),
                 "traced": getattr(stages, f"{args.workload}_metrics")(
                     traced.rounds[args.workload])}
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return metrics, traced, {"round_walls": walls, "end_to_end": per_stage}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=STAGES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cores = _limit_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "faceseg", "__init__.py")):
        print(f"error: no faceseg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import faceseg

    if os.path.dirname(os.path.abspath(faceseg.__file__)) != os.path.join(SRC, "faceseg"):
        print(f"error: faceseg imported from {faceseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.WARNING)
    import spans
    import stages

    workdir = os.path.join(OUT, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            metrics, runner, record = traced_run(args, stages, spans, workdir)
            units = spans.layer_metric_units()
        else:
            metrics, runner, record = timed_run(args, stages, workdir)
            units = {**stages.METRIC_UNITS, "setup_s": "s", "peak_rss_mb": "MB"}
        errors = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    env = _environment(cores)
    result = {"correct": not errors, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "record": record, "errors": errors,
                   "result": result}, fh, indent=1)
    print(json.dumps({"env": env, "rounds": {s: len(r) for s, r in runner.rounds.items()}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
