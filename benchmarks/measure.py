"""Run one workload in this process: timed loop, output checks, optional trace.

Started by run.py in a fresh process with one BLAS thread. A workload is the
set of config files in workloads/<name>/; each file's `seeds` list gives the
seeds of one repetition, shifted by the workload seed. The loop repeats the
repetition until --seconds have passed, timing each run (one
`gpsbench.cli.run_one_seed` call) split into set-up and online phases at the
call to `run_online`. With --trace 1 each run is made twice in a row,
untraced and then traced. Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from time import perf_counter_ns

import gpsbench
import gpsbench.cli as cli
import numpy as np
from gpsbench.buffer import ReplayBuffer
from gpsbench.config import load_config
from gpsbench.errors import GpsError
from tracer import ONLINE, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = HERE / "workloads"
TRACE_DIR = ROOT / ".bench_trace"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Run seeds of workload seed n are n * SEED_STRIDE + s for each s in the
# config's `seeds`, so workload seed 0 replays the config files exactly.
SEED_STRIDE = 1000
# Criteria 7-8 relations, checked when a workload has all three arms.
FINETUNE_GAP = 0.15


def load_workload(name):
    """[(arm, config)] from workloads/<name>/*.cfg, arm = file stem, sorted."""
    paths = sorted((WORKLOADS / name).glob("*.cfg"))
    if not paths:
        raise SystemExit(f"unknown workload {name!r}: no configs in {WORKLOADS / name}")
    arms = [(p.stem, load_config(p)) for p in paths]
    offsets = {config.seeds for _, config in arms}
    if len(offsets) != 1:
        raise SystemExit(f"workload {name}: config files disagree on seeds")
    return arms


def check_run(config, record):
    """Problems with one run's outputs; empty when they are correct."""
    problems = []
    if record["status"] != "ok":
        problems.append(f"status {record['status']}: {record['failure']}")
    row = record["end_row"]
    if row is None or len(row) != config.tasks or not all(0.0 <= a <= 1.0 for a in row):
        problems.append("final accuracy row is incomplete")
    if config.buffer_mode != "none":
        snap = record["snapshot"]
        if snap is None:
            problems.append("buffered run wrote no snapshot")
            return problems
        try:
            buf = ReplayBuffer.restore(snap)
        except GpsError as exc:
            problems.append(f"snapshot does not restore: {exc}")
            return problems
        if buf.snapshot() != snap:
            problems.append("restore(snapshot).snapshot() differs from snapshot")
        if buf.occupied_pixels > buf.budget.capacity_pixels:
            problems.append(f"buffer holds {buf.occupied_pixels} pixels, "
                            f"budget {buf.budget.capacity_pixels}")
    return problems


def stream_images(config):
    """Stream items one run consumes: every train image of the classes used."""
    return config.tasks * config.classes_per_task * config.synthetic_train_per_class


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def layer_metrics(tracer, runs):
    """Per-run means of each target's calls and self time, plus layer counters."""
    metrics = {}
    totals = tracer.totals()
    for name, (calls, self_ns) in totals.items():
        metrics[f"{name}.calls"] = (calls / runs, "count")
        metrics[f"{name}.self_s"] = (self_ns / runs / 1e9, "s")
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["buffer.offer.accept_ratio"] = (
        ratio(c["buffer.offer.accepted"], totals["buffer.offer"][0]), "ratio")
    metrics["assembly.replay_images"] = (c["assembly.replay_images"] / runs, "count")
    metrics["assembly.replay_yield"] = (
        ratio(c["assembly.replay_images"], c["assembly.replay_groups_requested"]), "ratio")
    metrics["learner.train_step.rows"] = (c["learner.train_step.rows"] / runs, "count")
    metrics["buffer.snapshot.bytes"] = (c["buffer.snapshot.bytes"] / runs, "B")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not Path(gpsbench.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"imported gpsbench from {gpsbench.__file__}, not from {source}")

    arms = load_workload(args.workload)
    seeds = tuple(args.seed * SEED_STRIDE + s for s in arms[0][1].seeds)
    arms = [(arm, replace(config, seeds=seeds).validate()) for arm, config in arms]
    # The untraced timer, and with --trace 1 the full tracer. In traced mode
    # every run is made twice in a row, untraced and then traced, so the
    # tracing overhead is measured under the same machine load.
    tracers = [Tracer((ONLINE,))] + ([Tracer(TARGETS)] if args.trace else [])

    # A checked item is one run, or one check over a repetition's runs.
    attempted = failed = 0
    problems = []

    def checked(arm, seed, config, record, extra=()):
        nonlocal attempted, failed
        attempted += 1
        found = check_run(config, record) + list(extra)
        failed += bool(found)
        problems.extend(f"{arm} seed {seed}: {p}" for p in found)

    # Untimed first pass over the first seed: it lets lazy set-up finish
    # before timing, and the timed loop re-runs it for the determinism check.
    first = {arm: cli.run_one_seed(config, seeds[0]) for arm, config in arms}

    # Seeds run in a cycle, every arm per seed, so the arms keep equal run
    # counts. The first repetition always completes; after it the loop stops
    # at the first seed boundary past the deadline.
    setup_ns = [[] for _ in tracers]
    online_ns = [[] for _ in tracers]
    images = 0
    records = {}
    deadline = time.perf_counter() + args.seconds
    for i in itertools.count():
        if i >= len(seeds) and time.perf_counter() >= deadline:
            break
        seed = seeds[i % len(seeds)]
        for arm, config in arms:
            for k, tracer in enumerate(tracers):
                with tracer:
                    t0 = perf_counter_ns()
                    record = cli.run_one_seed(config, seed)
                start, end = tracer.last(ONLINE.name)
                setup_ns[k].append(start - t0)
                online_ns[k].append(end - start)
                checked(arm, seed, config, record)
                if i < len(seeds) and k == 0:
                    records[arm, seed] = record
            images += stream_images(config)
    runs = len(online_ns[0])

    for arm, config in arms:
        a, b = first[arm], records[arm, seeds[0]]
        same = a["entries"] == b["entries"] and a["snapshot"] == b["snapshot"]
        checked(arm, seeds[0], config, a,
                () if same else ["untimed re-run differs from the timed run"])

    a_end = {}
    for arm, _ in arms:
        values = [records[arm, s]["a_end"] for s in seeds]
        if None not in values:
            a_end[arm] = statistics.fmean(values)
    if {"gps", "full", "finetune"} <= a_end.keys():
        found = []
        if a_end["gps"] < a_end["full"]:
            found.append(f"mean a_end gps {a_end['gps']:.4f} < full {a_end['full']:.4f}")
        if a_end["finetune"] > a_end["gps"] - FINETUNE_GAP:
            found.append(f"mean a_end finetune {a_end['finetune']:.4f} > "
                         f"gps {a_end['gps']:.4f} - {FINETUNE_GAP}")
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    setup, online = setup_ns[0], online_ns[0]
    metrics = {
        "setup_s": (statistics.median(setup) / 1e9, "s"),
        "online_s.p50": (statistics.median(online) / 1e9, "s"),
        "online_s.mean": (statistics.fmean(online) / 1e9, "s"),
        "stream_img_per_s": (images / (sum(online) / 1e9), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics.update({f"a_end.{arm}": (v, "ratio") for arm, v in a_end.items()})
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    if args.trace:
        traced = tracers[1]
        metrics.update(layer_metrics(traced, runs))
        metrics["trace.online_s.p50"] = (statistics.median(online_ns[1]) / 1e9, "s")
        metrics["trace.online_s.mean"] = (statistics.fmean(online_ns[1]) / 1e9, "s")
        metrics["trace.overhead_s"] = (
            metrics["trace.online_s.p50"][0] - metrics["online_s.p50"][0], "s")
        traced.write(TRACE_DIR / f"{args.workload}.tsv")

    print(json.dumps({
        "workload": args.workload,
        "arms": [arm for arm, _ in arms],
        "seeds": list(seeds),
        "repetitions": runs / (len(arms) * len(seeds)),
        "runs": runs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "absent": tracers[-1].absent,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
