"""Command-line front end: run experiments, sweeps, and single-image demos.

Subcommands: run, sweep, compress, reconstruct, inspect-buffer.
Exit codes: 0 success, 1 other package error, 2 config error, 3 data/format
error or a path that cannot be read or written, 4 numerical failure, 141
(128 + SIGPIPE) a stdout that its reader closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    Dataset,
    average_end_accuracy,
    generate_synthetic,
    load_cifar100,
    load_image_dir,
    run_online,
    split_tasks,
)
from .buffer import ReplayBuffer
from .config import ExperimentConfig, _number, load_config
from .errors import ConfigError, FormatError, GpsError, NumericalError
from .imaging import DOMAIN_DATA, DOMAIN_TASK_SPLIT, Rng, load_ppm, require_square, save_ppm
from .sampler import gps_sample, grid_concat, grid_side


def build_dataset(config: ExperimentConfig, rng: Rng) -> Dataset:
    if config.dataset == "synthetic":
        return generate_synthetic(config, rng)
    if config.dataset == "cifar100":
        return Dataset(*load_cifar100(config.cifar_train_path),
                       *load_cifar100(config.cifar_test_path))
    return load_image_dir(config.image_dir, rng)


# Config fields that shape a run on a seed's data but not the data itself.
# Every other field, including any added later, is part of the data key.
ARM_FIELDS = frozenset({
    "buffer_mode", "budget_images", "factor", "stream_batch", "replay_batch",
    "learning_rate", "hidden_units", "embedding_units", "head", "seeds",
})

# At most one entry: data key -> (dataset, stream).
_seed_data_memo = {}


def seed_data(config: ExperimentConfig, seed: int):
    """The seed's (dataset, stream), read-only. Runs that differ only in
    ARM_FIELDS share it: it is built once per process until a run on other
    data replaces it (an image_dir tree is read once)."""
    key = (seed, *(getattr(config, f.name) for f in fields(config)
                   if f.name not in ARM_FIELDS))
    if key not in _seed_data_memo:
        _seed_data_memo.clear()  # free the old data before building the new
        root = Rng(seed)
        dataset = build_dataset(config, root.split(DOMAIN_DATA))
        stream = split_tasks(dataset, config.tasks, config.classes_per_task,
                             root.split(DOMAIN_TASK_SPLIT))
        for array in (*vars(dataset).values(), *stream.train_tasks, *stream.test_tasks):
            array.flags.writeable = False
        _seed_data_memo[key] = dataset, stream
    return _seed_data_memo[key]


def run_one_seed(config: ExperimentConfig, seed: int):
    """Execute one seeded run; returns a dict of everything the writer needs."""
    _, stream = seed_data(config, seed)
    result = run_online(stream, config, Rng(seed))
    matrix = result.matrix
    filled = ~np.isnan(matrix)
    complete = result.failure is None
    return {"seed": seed, "failure": result.failure,
            "status": "ok" if complete else "numerical_failure",
            "entries": [(t, i, a) for (t, i), a in
                        zip(np.argwhere(filled).tolist(), matrix[filled].tolist())],
            "end_row": matrix[-1].tolist() if complete else None,
            "a_end": average_end_accuracy(matrix) if complete else None,
            "snapshot": None if result.buf is None else result.buf.snapshot()}


def _write_csv(path: Path, header, rows):
    """A header line, then one line per row: strings as they are, every other
    value by repr, which writes a Python float exactly. Rows hold Python
    numbers (`.tolist()`, `float()`): a numpy scalar's repr names its type."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


def _write_records(out_dir: Path, records):
    """Write each record's CSVs and snapshot into out_dir, making it if need
    be, in place of every file an earlier run wrote for that seed; returns
    the a_end of every run that finished, in seed order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for r in records:
        seed = r["seed"]
        for name in ("matrix.csv", "matrix.partial.csv", "end.csv", "buffer.gpsb"):
            (out_dir / f"seed_{seed}_{name}").unlink(missing_ok=True)
        suffix = "" if r["status"] == "ok" else ".partial"
        _write_csv(out_dir / f"seed_{seed}_matrix{suffix}.csv", "t,i,a", r["entries"])
        if r["end_row"] is not None:
            _write_csv(out_dir / f"seed_{seed}_end.csv", "task_i,a_N_i",
                       enumerate(r["end_row"]))
        if r["snapshot"] is not None:
            (out_dir / f"seed_{seed}_buffer.gpsb").write_bytes(r["snapshot"])
    return [r["a_end"] for r in records if r["status"] == "ok"]


def _summary_stats(a_ends):
    mean = float(np.mean(a_ends))
    std = float(np.std(a_ends, ddof=1)) if len(a_ends) > 1 else 0.0
    return mean, std


def _run_seed(configs, seed):
    return [run_one_seed(config, seed) for config in configs]


def _execute_runs(configs: list[ExperimentConfig], workers: int):
    """Every seed of the configs, which share one seed list, run seed by seed
    so that the configs share each seed's data; returns each config's records
    in seed order. A process pool maps over seeds; it starts all its workers
    up front and so gets at most one per seed."""
    seeds = list(configs[0].seeds)
    workers = min(workers, len(seeds))
    if workers > 1:
        # imported here: concurrent.futures.process loads all of multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_seed = list(pool.map(_run_seed, [configs] * len(seeds), seeds))
    else:
        by_seed = [_run_seed(configs, s) for s in seeds]
    return list(zip(*by_seed))


def _require_out_dir(out_dir: Path):
    """Fail before any run unless out_dir is or can become a directory, since
    a run or sweep creates out_dir only once its runs have finished."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out_dir}: {existing} is not a directory")


def cmd_run(config: ExperimentConfig, out_dir: Path, workers: int = 1) -> int:
    _require_out_dir(out_dir)
    [records] = _execute_runs([config], workers)
    a_ends = _write_records(out_dir, records)
    (out_dir / "summary.csv").unlink(missing_ok=True)
    if a_ends:
        mean, std = _summary_stats(a_ends)
        _write_csv(out_dir / "summary.csv", "n_seeds,mean_a_end,std_a_end",
                   [(len(a_ends), mean, std)])
    manifest = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": asdict(config),
        "status": "ok" if len(a_ends) == len(records) else "numerical_failure",
        "runs": [
            {"seed": r["seed"], "status": r["status"], "a_end": r["a_end"],
             "failure": r["failure"]}
            for r in records
        ],
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    for r in records:
        label = f"seed {r['seed']}"
        if r["status"] == "ok":
            print(f"{label}: a_end = {r['a_end']:.4f}")
        else:
            print(f"{label}: FAILED ({r['failure']})")
    if a_ends:
        print(f"summary: mean a_end = {mean:.4f} +- {std:.4f} over {len(a_ends)} seeds")
    if len(a_ends) != len(records):
        raise NumericalError("one or more seeds failed; partial artifacts written")
    return 0


# sweep axis -> (config field, the buffer modes whose runs ignore that field)
_SWEEP_AXES = {"f": ("factor", ("full", "none")), "k": ("budget_images", ("none",)),
               "mode": ("buffer_mode", ())}


def _sweep_point(config: ExperimentConfig, axis_field: str, raw_value: str):
    if axis_field == "buffer_mode":
        value = raw_value.strip().lower()
    else:
        try:
            value = _number(int, raw_value)
        except ValueError:
            raise ConfigError(f"sweep value {raw_value!r} is not an integer") from None
    return replace(config, **{axis_field: value}), value


def cmd_sweep(config: ExperimentConfig, axis: str, values: list[str], out_dir: Path,
              workers: int = 1) -> int:
    axis_key = axis.strip().lower()
    if axis_key not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}: expected f, K, or mode")
    axis_field, ignored_by = _SWEEP_AXES[axis_key]
    if config.buffer_mode in ignored_by:
        raise ConfigError(f"sweep axis {axis!r} sets {axis_field}, which a run at "
                          f"buffer_mode = {config.buffer_mode} ignores")
    if not values:
        raise ConfigError("sweep needs at least one value")
    points = [_sweep_point(config, axis_field, raw) for raw in values]
    first = {}  # normalised value -> its first spelling
    for raw, (_, value) in zip(values, points):
        if value in first:
            raise ConfigError(f"sweep values {first[value]!r} and {raw!r} both give "
                              f"{axis_field} = {value}")
        first[value] = raw
    _require_out_dir(out_dir)
    point_records = _execute_runs([point_config for point_config, _ in points], workers)
    rows = []
    failure = None
    for (_, value), records in zip(points, point_records):
        a_ends = _write_records(out_dir / f"{axis_field}_{value}", records)
        bad = [r["seed"] for r in records if r["status"] != "ok"]
        if bad:
            failure = failure or f"sweep point {axis_field}={value} failed on seed {bad[0]}"
            continue
        mean, std = _summary_stats(a_ends)
        rows.append((value, mean, std))
        print(f"{axis_field} = {value}: mean a_end = {mean:.4f} +- {std:.4f}")
    (out_dir / "sweep.csv").unlink(missing_ok=True)
    if failure:
        raise NumericalError(failure)
    _write_csv(out_dir / "sweep.csv", f"{axis_field},mean_a_end,std_a_end", rows)
    return 0


def cmd_compress(input_path, factor, seed, output_path) -> int:
    image = load_ppm(input_path)
    resolution = require_square(image)
    side = grid_side(factor, resolution)
    save_ppm(output_path, gps_sample(image, factor, Rng(seed)))
    print(
        f"resolution={resolution} surrogate_side={side} factor={factor} "
        f"ratio={factor * factor} dropped_pixels={resolution ** 2 - (side * factor) ** 2}"
    )
    return 0


def cmd_reconstruct(snapshot_path, class_id, seed, output_path) -> int:
    buf = ReplayBuffer.restore(Path(snapshot_path).read_bytes())
    group_size = buf.factor ** 2
    rng = Rng(seed)
    class_slots = buf.class_slots()
    if class_id is None:
        candidates = [c for c, slots in class_slots.items() if len(slots) >= group_size]
        if not candidates:
            raise FormatError(
                f"no class holds {group_size} exemplars; nothing to reconstruct"
            )
        class_id = candidates[0]
    indices = class_slots.get(class_id, [])
    if len(indices) < group_size:
        raise FormatError(
            f"class {class_id} holds {len(indices)} exemplars, need {group_size}"
        )
    chosen = rng.permutation(indices)[:group_size]
    image = grid_concat(buf.slab[chosen], buf.factor)
    save_ppm(output_path, image)
    print(f"class={class_id} side={image.shape[0]} slots={chosen.tolist()}")
    return 0


def cmd_inspect_buffer(snapshot_path) -> int:
    buf = ReplayBuffer.restore(Path(snapshot_path).read_bytes())
    print(f"mode={'gps' if buf.factor > 1 else 'full'}")
    print(f"budget_images={buf.budget.image_count}")
    print(f"resolution={buf.budget.resolution}")
    print(f"factor={buf.factor}")
    print(f"slots={buf.slot_count}")
    print(f"occupied={buf.occupied_count}")
    print(f"seen={buf.seen_count}")
    print(f"pixels_used={buf.occupied_pixels}")
    print(f"pixels_capacity={buf.budget.capacity_pixels}")
    counts = buf.class_counts()
    print(f"classes={len(counts)}")
    for label, count in counts.items():
        print(f"class_{label}={count}")
    return 0


def integer(text):
    """A CLI integer, read by the config file rule: ASCII, no '_'."""
    return _number(int, text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gps",
        description="Grid-based patch sampling replay: experiments and demos.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    runs = argparse.ArgumentParser(add_help=False)  # what run and sweep share
    runs.add_argument("--config", required=True, help="path to the experiment config")
    runs.add_argument("--out", default="runs", help="output directory")
    runs.add_argument("--workers", type=integer, default=1,
                      help="worker processes across seeds")

    p_run = sub.add_parser("run", parents=[runs],
                           help="run an experiment config across its seeds")
    p_run.add_argument("--seed", type=integer, default=None,
                       help="override the config's seed list with one seed")

    p_sweep = sub.add_parser("sweep", parents=[runs],
                             help="run one config over an axis of values")
    p_sweep.add_argument("--axis", required=True, help="f, K, or mode")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 1,2,4")

    p_comp = sub.add_parser("compress", help="compress one PPM image into a surrogate")
    p_comp.add_argument("input", help="square binary PPM file")
    p_comp.add_argument("--factor", "-f", type=integer, default=2)
    p_comp.add_argument("--seed", type=integer, default=0)
    p_comp.add_argument("--out", required=True, help="output PPM path")

    p_rec = sub.add_parser("reconstruct",
                           help="tile same-class surrogates from a buffer snapshot")
    p_rec.add_argument("snapshot", help="buffer snapshot (.gpsb) path")
    p_rec.add_argument("--class-id", type=integer, default=None)
    p_rec.add_argument("--seed", type=integer, default=0)
    p_rec.add_argument("--out", required=True, help="output PPM path")

    p_ins = sub.add_parser("inspect-buffer", help="report a buffer snapshot's contents")
    p_ins.add_argument("snapshot", help="buffer snapshot (.gpsb) path")
    return parser


def _dispatch(args) -> int:
    if args.command in ("run", "sweep") and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if args.command in ("compress", "reconstruct") and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.command in ("run", "sweep"):
        config = load_config(args.config)
        out_dir = Path(args.out)
    if args.command == "run":
        if args.seed is not None:
            config = replace(config, seeds=(args.seed,))
        return cmd_run(config, out_dir, workers=args.workers)
    if args.command == "sweep":
        values = [v for v in args.values.split(",") if v.strip()]
        return cmd_sweep(config, args.axis, values, out_dir, workers=args.workers)
    if args.command == "compress":
        return cmd_compress(args.input, args.factor, args.seed, args.out)
    if args.command == "reconstruct":
        return cmd_reconstruct(args.snapshot, args.class_id, args.seed, args.out)
    return cmd_inspect_buffer(args.snapshot)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return _dispatch(args)
        finally:  # a closed reader shows here, not at exit, whatever ended the command
            sys.stdout.flush()
    except GpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # the reader closed stdout: end as SIGPIPE ends a tool
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # no error at exit
        return 141  # 128 + SIGPIPE
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return FormatError.exit_code


if __name__ == "__main__":
    sys.exit(main())
