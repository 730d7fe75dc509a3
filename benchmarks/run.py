"""Benchmark entry point: one workload, untraced or traced.

    python3 benchmarks/run.py --workload desk --seed 0 --seconds 20 --trace 0

Runs benchmarks/measure.py in a fresh child process that imports gpsbench
from ./src and has one OpenBLAS/OpenMP/MKL thread (set in the child's
environment only). --trace 0 reports the end-to-end metrics. --trace 1 makes
every run twice in a row, untraced and traced, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced online_s.p50).

Human-readable lines come first. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; metrics holds exactly the
metrics BENCHMARK.json lists for the mode, with the units it gives.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every invocation must end within 180 s; children are killed past this.
TIME_LIMIT_S = 170
# Layers whose summed self time is compared across workloads (see README.md).
SHARES = {
    "write path (Rng.split + gps_sample + offer)":
        ("imaging.Rng.split", "sampler.gps_sample", "buffer.offer"),
    "train_step": ("learner.train_step",),
    "assembly + NCM (draw_replay_batch + upsample + ncm_prototypes + classify_batch)":
        ("assembly.draw_replay_batch", "assembly.upsample", "learner.ncm_prototypes",
         "learner.classify_batch"),
}


class BenchError(Exception):
    pass


def measure(args, deadline):
    """Run one child; return the JSON object on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             check=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"measure.py exited with code {exc.returncode}") from None
    except subprocess.TimeoutExpired:
        raise BenchError(f"measure.py did not finish within {TIME_LIMIT_S} s") from None
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise BenchError("measure.py printed no result")
    return json.loads(lines[-1])


def report(result):
    traced = " (each also run traced)" if "trace.overhead_s" in result["metrics"] else ""
    print(f"{result['repetitions']:.3g} repetitions x "
          f"{len(result['arms'])} arms ({', '.join(result['arms'])}) x "
          f"{len(result['seeds'])} seeds ({', '.join(map(str, result['seeds']))}) = "
          f"{result['runs']} timed runs{traced}; medians are over these runs")
    for name, m in result["metrics"].items():
        absent = name.rsplit(".", 1)[0] in result["absent"]
        value = "absent" if absent else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:40s} {value}")
    print(f"  checks: {result['failed']} of {result['attempted']} failed")
    for problem in result["problems"]:
        print(f"    FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a directory name under benchmarks/workloads")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "gpsbench" / "__init__.py").is_file():
            raise BenchError(f"no gpsbench sources under {ROOT / 'src'}")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s; "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, {threads}")
    report(result)
    metrics = result["metrics"]
    if args.trace:
        online = metrics["trace.online_s.mean"]["value"]
        for label, layers in SHARES.items():
            busy = sum(metrics[f"{layer}.self_s"]["value"] for layer in layers)
            print(f"  share of traced online time, {label}: {busy / online:.1%}")
        overhead = metrics["trace.overhead_s"]["value"]
        base = metrics["online_s.p50"]["value"]
        print(f"  tracing overhead: {overhead:.6g} s per run, "
              f"{overhead / base:.1%} of untraced online_s.p50 {base:.6g} s")

    selected = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        got = metrics.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            print(f"benchmark failed: metric {entry['name']} [{entry['unit']}] "
                  f"was not measured", file=sys.stderr)
            return 1
        selected[entry["name"]] = got
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
