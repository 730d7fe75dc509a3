import copy
import hashlib
import importlib.util
import json
import os
import struct
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gpsbench.cli as cli
import gpsbench.errors as errors
from gpsbench.bench import RunResult
from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.cli import main
from gpsbench.config import ExperimentConfig, parse_config
from gpsbench.imaging import Rng, load_ppm, save_ppm


BASE_CONFIG = """\
dataset = synthetic
synthetic_classes = 6
synthetic_resolution = 16
synthetic_train_per_class = 20
synthetic_test_per_class = 5
tasks = 3
classes_per_task = 2
buffer_mode = gps
budget_images = 8
factor = 2
stream_batch = 5
replay_batch = 16
seeds = 0,1
"""


# A noisier BASE_CONFIG with 3 test images per class, so that seed 0's
# accuracies are multiples of 1/6 rather than all 1.0.
PINNED_CONFIG = (BASE_CONFIG.replace("synthetic_test_per_class = 5",
                                     "synthetic_test_per_class = 3\nsynthetic_noise = 60")
                 .replace("seeds = 0,1", "seeds = 0"))

# sha256 of PINNED_CONFIG's seed 0 CSVs; the matrix reads 1, 1, 1, 1/2, 2/3, 1.
# Re-recorded when gps replay changed from tiling f^2 surrogates per row to
# upsampling one surrogate per row, which moves every gps run at f >= 2.
PINNED_SHA256 = {
    "seed_0_matrix.csv": "39a370be563a58cc662c4587c7eba5f9d306843b6a07fc859960f4452a70b4ae",
    "seed_0_end.csv": "5784517c5d2115f0e59109a063187dbf15057c1c0be7aeb2d7b08f291567436d",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRunCommand:
    def test_writes_expected_artifacts(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", config_file, "--out", out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.json",
            "seed_0_buffer.gpsb",
            "seed_0_end.csv",
            "seed_0_matrix.csv",
            "seed_1_buffer.gpsb",
            "seed_1_end.csv",
            "seed_1_matrix.csv",
            "summary.csv",
        ]
        printed = capsys.readouterr().out
        assert "seed 0" in printed and "summary" in printed

    def test_matrix_csv_shape(self, tmp_path, config_file):
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out)
        lines = (out / "seed_0_matrix.csv").read_text().splitlines()
        assert lines[0] == "t,i,a"
        # 3 tasks -> 6 lower-triangular entries
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            t, i, a = line.split(",")
            assert int(i) <= int(t)
            assert 0.0 <= float(a) <= 1.0

    def test_summary_stats_match_end_rows(self, tmp_path, config_file):
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out)
        a_ends = []
        for seed in (0, 1):
            rows = (out / f"seed_{seed}_end.csv").read_text().splitlines()[1:]
            a_ends.append(np.mean([float(r.split(",")[1]) for r in rows]))
        header, data = (out / "summary.csv").read_text().splitlines()
        assert header == "n_seeds,mean_a_end,std_a_end"
        n, mean, std = data.split(",")
        assert int(n) == 2
        assert float(mean) == pytest.approx(np.mean(a_ends), abs=1e-12)
        assert float(std) == pytest.approx(np.std(a_ends, ddof=1), abs=1e-12)

    def test_repeat_runs_byte_identical(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--config", config_file, "--out", out_a)
        run_cli("run", "--config", config_file, "--out", out_b)
        for name in ("seed_0_matrix.csv", "seed_1_matrix.csv", "summary.csv",
                     "seed_0_end.csv", "seed_0_buffer.gpsb"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override(self, tmp_path, config_file):
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out, "--seed", "7")
        assert (out / "seed_7_matrix.csv").exists()
        assert not (out / "seed_0_matrix.csv").exists()

    def test_out_defaults_to_runs(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--config", config_file, "--seed", "0") == 0
        assert (tmp_path / "runs" / "seed_0_end.csv").exists()
        assert run_cli("sweep", "--config", config_file, "--axis", "f", "--values", "1") == 0
        assert (tmp_path / "runs" / "sweep.csv").exists()

    def test_manifest_records_config_and_status(self, tmp_path, config_file):
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["tasks"] == 3
        assert [r["seed"] for r in manifest["runs"]] == [0, 1]

    def test_threaded_run_identical_to_serial(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--config", config_file, "--out", out_a)
        run_cli("run", "--config", config_file, "--out", out_b, "--workers", "2")
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_pool_gets_at_most_one_worker_per_seed(self, tmp_path, config_file,
                                                   monkeypatch):
        # a stand-in pool records its size and runs the seeds in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        assert run_cli("run", "--config", config_file, "--out", tmp_path / "a",
                       "--workers", "8") == 0
        assert run_cli("run", "--config", config_file, "--out", tmp_path / "b",
                       "--workers", "8", "--seed", "3") == 0
        assert run_cli("sweep", "--config", config_file, "--axis", "f", "--values", "1,2",
                       "--out", tmp_path / "c", "--workers", "2") == 0
        # two seeds: two workers, not eight; one seed runs without a pool;
        # a sweep makes one pool for all its points
        assert sizes == [2, 2]

    def test_import_loads_no_process_pool(self):
        # concurrent.futures.process loads all of multiprocessing, which only
        # --workers > 1 uses; a fresh interpreter sees what the import loads
        code = ("import sys, gpsbench.cli; print(sorted(set(sys.modules) & "
                "{'multiprocessing', 'concurrent.futures.process'}))")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_matrix_with_fractional_accuracies_is_pinned(self, tmp_path):
        # accuracies such as 2/3 and 5/6 pin the float formatting of the CSVs
        path = tmp_path / "exp.cfg"
        path.write_text(PINNED_CONFIG)
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 0
        got = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
        assert got == PINNED_SHA256

    def test_full_is_the_factor_one_gps_buffer(self):
        # `full` ignores `factor`, and gps at factor 1 keeps every pixel, so
        # both configs fill the same buffer and replay it through one draw
        full = cli.run_one_seed(parse_config(
            BASE_CONFIG.replace("buffer_mode = gps", "buffer_mode = full")), 0)
        gps = cli.run_one_seed(parse_config(BASE_CONFIG.replace("factor = 2", "factor = 1")), 0)
        assert full["entries"] == gps["entries"]
        assert full["snapshot"] == gps["snapshot"]

    def test_buffer_snapshot_restores(self, tmp_path, config_file):
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out)
        buf = ReplayBuffer.restore((out / "seed_0_buffer.gpsb").read_bytes())
        assert buf.factor == 2
        assert buf.occupied_count > 0


# The config fields that only shape a run on a seed's data.
ARM_FIELDS = {"buffer_mode", "budget_images", "factor", "stream_batch", "replay_batch",
              "learning_rate", "hidden_units", "embedding_units", "head", "seeds"}

# A value other than BASE_CONFIG's for every config field; a field added to
# ExperimentConfig needs one here. The memo test builds the data from
# BASE_CONFIG whatever the dataset fields say, so a value need only differ.
OTHER_VALUE = {
    "dataset": "image_dir", "synthetic_classes": 7,
    "synthetic_resolution": 8, "synthetic_channels": 1, "synthetic_train_per_class": 21,
    "synthetic_test_per_class": 6, "synthetic_noise": 21.0, "cifar_train_path": "train.bin",
    "cifar_test_path": "test.bin", "image_dir": "images",
    "tasks": 2, "classes_per_task": 1, "buffer_mode": "full", "budget_images": 9,
    "factor": 4, "stream_batch": 4, "replay_batch": 32, "replay_units": "images",
    "learning_rate": 0.2, "hidden_units": 16, "embedding_units": 8,
    "head": "softmax", "seeds": (5,),
}


def unchecked(config, name, value):
    """A copy of a frozen config with one field changed, not validated."""
    changed = copy.copy(config)
    object.__setattr__(changed, name, value)
    return changed


@pytest.fixture
def builds(monkeypatch):
    """Configs passed to build_dataset from here on, starting from an empty memo."""
    built = []
    build = cli.build_dataset

    def counting(config, rng):
        built.append(config)
        return build(config, rng)

    cli._seed_data_memo.clear()
    monkeypatch.setattr(cli, "build_dataset", counting)
    return built


class TestSeedData:
    def test_shared_data_gives_the_record_of_fresh_data(self, builds):
        base = parse_config(BASE_CONFIG)
        full = replace(base, buffer_mode="full")
        cli.run_one_seed(full, 0)
        shared = cli.run_one_seed(base, 0)
        assert len(builds) == 1
        cli._seed_data_memo.clear()
        fresh = cli.run_one_seed(base, 0)
        assert len(builds) == 2
        for key in ("entries", "end_row", "snapshot"):
            assert shared[key] == fresh[key]

    def test_data_is_read_only(self):
        dataset, stream = cli.seed_data(parse_config(BASE_CONFIG), 0)
        arrays = [*vars(dataset).values(), *stream.train_tasks, *stream.test_tasks]
        assert len(arrays) == 4 + 2 * 3
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_only_arm_fields_share_data(self, name, builds, monkeypatch):
        base = parse_config(BASE_CONFIG)
        build = cli.build_dataset
        monkeypatch.setattr(cli, "build_dataset", lambda config, rng: build(base, rng))
        changed = unchecked(base, name, OTHER_VALUE[name])
        assert getattr(changed, name) != getattr(base, name)
        first = cli.seed_data(base, 0)
        second = cli.seed_data(changed, 0)
        if name in ARM_FIELDS:
            assert len(builds) == 1 and second is first
        else:
            assert len(builds) == 2

    def test_another_seed_rebuilds(self, builds):
        config = parse_config(BASE_CONFIG)
        for seed in (0, 0, 1, 1, 0):
            cli.seed_data(config, seed)
        assert len(builds) == 3

    def test_old_data_is_freed_before_the_next_build(self, monkeypatch):
        cli._seed_data_memo.clear()
        build = cli.build_dataset
        built, alive = [], []

        def tracking(config, rng):
            alive.append([ref() is not None for ref in built])
            dataset = build(config, rng)
            built.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(cli, "build_dataset", tracking)
        config = parse_config(BASE_CONFIG)
        for seed in (0, 1, 0):
            cli.run_one_seed(config, seed)
        assert alive == [[], [False], [False, False]]


class TestExitCodes:
    def test_one_error_class_per_exit_code(self):
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.GpsError)]
        assert sorted(c.exit_code for c in classes) == [1, 2, 3, 4]

    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = nosuch\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_3(self, tmp_path):
        assert run_cli("run", "--config", tmp_path / "ghost.cfg",
                       "--out", tmp_path / "o") == 3

    # the deleted config keys, each at the value now fixed: only the key is wrong
    @pytest.mark.parametrize("line", [
        "who = knows", "synthetic_pattern_seed = 7", "synthetic_contrast = 25.0",
        "synthetic_baseline = 32.0", "image_test_fraction = 0.2", "replay_weight = 1.0",
        "out_dir = runs"], ids=lambda line: line.split()[0])
    def test_unknown_key_is_2(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + line + "\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_workers_below_one_is_2(self, tmp_path, config_file, capsys):
        for command in (("run",), ("sweep", "--axis", "f", "--values", "2")):
            assert run_cli(*command, "--config", config_file, "--out", tmp_path / "o",
                           "--workers", "0") == 2
            assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gps_config_that_replays_nothing_is_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("replay_batch = 16", "replay_batch = 3"))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "replay nothing" in capsys.readouterr().err

    def test_seed_beyond_int64_is_2_before_any_output(self, tmp_path, config_file, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("seeds = 0,1", f"seeds = 0,{2 ** 63}"))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "seeds" in capsys.readouterr().err
        assert run_cli("run", "--config", config_file, "--seed", 2 ** 63,
                       "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_run_that_fails_before_any_record_leaves_no_out_dir(self, tmp_path, capsys):
        # factor 3 passes the config checks at resolution 8 but does not divide it
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("resolution = 16", "resolution = 8")
                        .replace("factor = 2", "factor = 3")
                        .replace("replay_batch = 16", "replay_batch = 9"))
        out = tmp_path / "o" / "run"
        for command in (("run",), ("sweep", "--axis", "f", "--values", "3")):
            assert run_cli(*command, "--config", path, "--out", out) == 2
            assert "must divide resolution 8" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [("run",), ("sweep", "--axis", "f", "--values", "2")],
                             ids=["run", "sweep"])
    def test_out_below_a_file_is_3_before_any_run(self, tmp_path, config_file, capsys,
                                                  monkeypatch, command):
        def no_run(*args):
            raise AssertionError("run_online was called")

        monkeypatch.setattr(cli, "run_online", no_run)
        path = tmp_path / "file"
        path.write_text("")
        for out in (path, path / "below"):
            assert run_cli(*command, "--config", config_file, "--out", out) == 3
            assert f"{path} is not a directory" in capsys.readouterr().err

    def test_unallocatable_synthetic_dataset_is_2(self, tmp_path, capsys):
        # petabytes, and 10^19 images of 10^12 classes: numpy refuses both
        # before touching memory, and before any class pattern is built
        absurd = ("dataset = synthetic\nsynthetic_classes = 1000000000000\n"
                  "synthetic_train_per_class = 10000000\nsynthetic_resolution = 1\n"
                  "synthetic_channels = 1\nbuffer_mode = none\nhead = softmax\n")
        cases = [(BASE_CONFIG.replace("synthetic_train_per_class = 20",
                                      "synthetic_train_per_class = 1000000000000"),
                  "(6000000000000, 16, 16, 3)"),
                 (absurd, "(10000000000000000000, 1, 1, 1)")]
        for k, (text, shape) in enumerate(cases):
            path = tmp_path / f"exp{k}.cfg"
            path.write_text(text)
            assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
            assert shape in capsys.readouterr().err

    def test_unallocatable_buffer_is_2(self, tmp_path, capsys):
        # a 6.82 PiB slab: numpy refuses it before touching memory
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("budget_images = 8",
                                            "budget_images = 10000000000000"))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "budget_images = 10000000000000" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("run", "--config", "{cfg}", "--seed", "1_0"),
        ("run", "--config", "{cfg}", "--workers", "1_0"),
        ("sweep", "--config", "{cfg}", "--axis", "K", "--values", "\u0662"),
        ("sweep", "--config", "{cfg}", "--axis", "f", "--values", "1_0"),
        ("compress", "{ppm}", "--factor", "\u0662"),
        ("reconstruct", "{gpsb}", "--class-id", "1_0"),
    ], ids=["run-seed", "run-workers", "sweep-K", "sweep-f", "compress-factor",
            "reconstruct-class-id"])
    def test_integer_argument_is_ascii_without_underscore(self, tmp_path, config_file,
                                                           capsys, argv):
        # as in config files: int() alone would read "1_0" as 10 and an
        # Arabic-Indic digit two as 2, and each command would then succeed
        paths = {"cfg": config_file, "ppm": tmp_path / "in.ppm", "gpsb": tmp_path / "in.gpsb"}
        save_ppm(paths["ppm"], np.zeros((8, 8, 3), dtype=np.uint8))
        buf = ReplayBuffer(PixelBudget(1, 8), factor=2)
        buf.offer(np.zeros((4, 4, 4, 3), dtype=np.uint8), [10] * 4, Rng(0))
        paths["gpsb"].write_bytes(buf.snapshot())
        out = tmp_path / "o"
        try:
            code = run_cli(*[a.format(**paths) for a in argv], "--out", out)
        except SystemExit as exc:  # argparse rejects the argument
            code = exc.code
        assert code == 2
        assert "integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compress", "reconstruct"])
    def test_negative_seed_is_2(self, tmp_path, capsys, command):
        # numpy's seeding would end in a raw ValueError
        path = tmp_path / "input"
        if command == "compress":
            save_ppm(path, np.zeros((8, 8, 3), dtype=np.uint8))
        else:
            buf = ReplayBuffer(PixelBudget(1, 8), factor=2)
            buf.offer(np.zeros((4, 4, 4, 3), dtype=np.uint8), [0] * 4, Rng(0))
            path.write_bytes(buf.snapshot())
        out = tmp_path / "o.ppm"
        assert run_cli(command, path, "--seed", "-1", "--out", out) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blob", [b"tasks = 3\n\xff\n",
                                      b"P6\n1 1\n255\n\xff\x00\x80"],
                             ids=["0xff", "ppm"])
    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.cfg"
        path.write_bytes(blob)
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert f"config file {path} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("run", "--config", "."), ("inspect-buffer", "."),
                                      ("compress", ".", "--out", "o.ppm")],
                             ids=["run", "inspect-buffer", "compress"])
    def test_directory_path_is_3(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 3
        assert "error:" in capsys.readouterr().err

    def test_task_without_test_images_is_3_before_any_output(self, tmp_path, capsys):
        # 40 training records of classes 0-3 and 5 test records of class 0
        # only: the task that does not draw class 0 has nothing to evaluate on
        def cifar_file(name, labels):
            path = tmp_path / name
            path.write_bytes(b"".join(bytes([0, label]) + bytes(3072) for label in labels))
            return path

        train = cifar_file("train.bin", [k % 4 for k in range(40)])
        test = cifar_file("test.bin", [0] * 5)
        path = tmp_path / "exp.cfg"
        path.write_text(f"dataset = cifar100\ncifar_train_path = {train}\n"
                        f"cifar_test_path = {test}\ntasks = 2\nclasses_per_task = 2\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", path, "--out", out) == 3
        assert "has no test images of its classes" in capsys.readouterr().err
        assert not list(out.glob("seed_*"))

    def test_malformed_snapshot_is_3(self, tmp_path):
        path = tmp_path / "junk.gpsb"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("inspect-buffer", path) == 3

    def test_hostile_snapshot_header_is_3(self, tmp_path, capsys):
        # a 25-byte header claiming 2^31 budget images, and one claiming
        # 7 channels: both are format errors, reported before any allocation
        for image_count, channels in ((2 ** 31, 3), (8, 7)):
            path = tmp_path / "hostile.gpsb"
            path.write_bytes(struct.pack("<4sHHIIBQ", b"GPSB", 4, 2,
                                         image_count, 16, channels, 0))
            assert run_cli("inspect-buffer", path) == 3
            assert "error:" in capsys.readouterr().err


class TestCompress:
    def test_writes_surrogate_ppm(self, tmp_path, capsys):
        rng = Rng(0)
        arr = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
        src = tmp_path / "in.ppm"
        save_ppm(src, arr)
        dst = tmp_path / "out.ppm"
        assert run_cli("compress", src, "--factor", "2", "--out", dst) == 0
        assert load_ppm(dst).shape == (16, 16, 3)
        printed = capsys.readouterr().out
        assert "ratio=4" in printed

    def test_floor_semantics_on_odd_size(self, tmp_path, capsys):
        rng = Rng(1)
        arr = rng.integers(0, 256, (83, 83, 3)).astype(np.uint8)
        src = tmp_path / "in.ppm"
        save_ppm(src, arr)
        dst = tmp_path / "out.ppm"
        assert run_cli("compress", src, "--factor", "2", "--out", dst) == 0
        assert load_ppm(dst).shape == (41, 41, 3)
        assert "dropped_pixels=165" in capsys.readouterr().out

    def test_deterministic_per_seed(self, tmp_path):
        rng = Rng(2)
        arr = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        src = tmp_path / "in.ppm"
        save_ppm(src, arr)
        a, b, c = tmp_path / "a.ppm", tmp_path / "b.ppm", tmp_path / "c.ppm"
        run_cli("compress", src, "--seed", "5", "--out", a)
        run_cli("compress", src, "--seed", "5", "--out", b)
        run_cli("compress", src, "--seed", "6", "--out", c)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_non_square_is_config_error(self, tmp_path):
        src = tmp_path / "in.ppm"
        save_ppm(src, np.zeros((4, 6, 3), dtype=np.uint8))
        assert run_cli("compress", src, "--out", tmp_path / "o.ppm") == 2


class TestReconstructAndInspect:
    def make_snapshot(self, tmp_path, config_file):
        out = tmp_path / "runs"
        run_cli("run", "--config", config_file, "--out", out)
        return out / "seed_0_buffer.gpsb"

    def test_reconstruct_writes_full_resolution_image(self, tmp_path,
                                                      config_file, capsys):
        snap = self.make_snapshot(tmp_path, config_file)
        dst = tmp_path / "recon.ppm"
        assert run_cli("reconstruct", snap, "--out", dst) == 0
        assert load_ppm(dst).shape == (16, 16, 3)
        assert "class=" in capsys.readouterr().out

    def test_reconstruct_specific_class(self, tmp_path, config_file, capsys):
        snap = self.make_snapshot(tmp_path, config_file)
        buf = ReplayBuffer.restore(snap.read_bytes())
        target = next(c for c, n in buf.class_counts().items() if n >= 4)
        dst = tmp_path / "recon.ppm"
        assert run_cli("reconstruct", snap, "--class-id", target,
                       "--out", dst) == 0
        assert f"class={target}" in capsys.readouterr().out

    def test_reconstruct_missing_class_is_3(self, tmp_path, config_file):
        snap = self.make_snapshot(tmp_path, config_file)
        assert run_cli("reconstruct", snap, "--class-id", "999",
                       "--out", tmp_path / "r.ppm") == 3

    def test_reconstruct_never_tiles_empty_slots(self, tmp_path, capsys):
        # 16 slots, 6 filled: the 10 empty ones carry the marker label -1
        buf, buf_rng = ReplayBuffer(PixelBudget(4, 8), factor=2), Rng(0)
        for k in range(6):
            buf.offer(np.full((4, 4, 3), k, dtype=np.uint8), 0, buf_rng)
        snap = tmp_path / "b.gpsb"
        snap.write_bytes(buf.snapshot())
        out = tmp_path / "r.ppm"
        assert run_cli("reconstruct", snap, "--class-id", "-1", "--out", out) == 3
        assert "class -1 holds 0 exemplars" in capsys.readouterr().err
        assert not out.exists()

    def test_reconstruct_at_factor_one_writes_a_stored_image(self, tmp_path, capsys):
        buf, buf_rng = ReplayBuffer(PixelBudget(3, 8)), Rng(0)
        images = [Rng(1).split(k).integers(0, 256, (8, 8, 3)).astype(np.uint8)
                  for k in range(3)]
        for k, image in enumerate(images):
            buf.offer(image, k % 2, buf_rng)  # class 0 in slots 0 and 2, class 1 in slot 1
        snap = tmp_path / "b.gpsb"
        snap.write_bytes(buf.snapshot())
        out = tmp_path / "r.ppm"
        assert run_cli("reconstruct", snap, "--class-id", "1", "--out", out) == 0
        assert "class=1 side=8 slots=[1]" in capsys.readouterr().out
        np.testing.assert_array_equal(load_ppm(out), images[1])
        assert run_cli("reconstruct", snap, "--out", out) == 0
        assert any((load_ppm(out) == images[k]).all() for k in (0, 2))
        assert run_cli("inspect-buffer", snap) == 0
        printed = capsys.readouterr().out
        assert "mode=full\n" in printed and "factor=1\n" in printed

    def test_inspect_reports_occupancy(self, tmp_path, config_file, capsys):
        snap = self.make_snapshot(tmp_path, config_file)
        assert run_cli("inspect-buffer", snap) == 0
        printed = capsys.readouterr().out
        assert "mode=gps" in printed
        assert "slots=32" in printed  # 8 images x f^2
        assert "pixels_capacity=2048" in printed  # 8 x 16 x 16


class TestSweep:
    def test_axis_f_produces_table(self, tmp_path, config_file, capsys):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", "1,2", "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "factor,mean_a_end,std_a_end"
        assert len(lines) == 3
        assert (out / "factor_1" / "seed_0_matrix.csv").exists()
        assert (out / "factor_2" / "seed_0_matrix.csv").exists()

    def test_axis_mode_accepts_names(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", config_file, "--axis", "mode",
                       "--values", "gps,full", "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "buffer_mode,mean_a_end,std_a_end"

    def test_unknown_axis_is_2(self, tmp_path, config_file):
        # only f, K and mode name an axis; factor, budget and budget_images
        # do not
        for axis in ("lr", "factor", "budget", "budget_images"):
            assert run_cli("sweep", "--config", config_file, "--axis", axis,
                           "--values", "1", "--out", tmp_path / "s") == 2

    def test_bad_value_is_2(self, tmp_path, config_file):
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", "two", "--out", tmp_path / "s") == 2

    @pytest.mark.parametrize("axis, values, named", [
        ("f", "2,2", "'2' and '2'"),
        ("f", "2,02", "'2' and '02'"),
        ("mode", "gps,GPS", "'gps' and 'GPS'"),
    ])
    def test_repeated_value_is_2_before_any_output(self, tmp_path, config_file, capsys,
                                                    axis, values, named):
        out = tmp_path / "s"
        assert run_cli("sweep", "--config", config_file, "--axis", axis,
                       "--values", values, "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_builds_each_seed_once(self, tmp_path, config_file, builds):
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", "1,2,4", "--out", tmp_path / "s") == 0
        assert len(builds) == 2

    def test_pool_output_identical_to_serial(self, tmp_path, config_file, capsys):
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert run_cli("sweep", "--config", config_file, "--axis", "f", "--values",
                           "1,2", "--out", out, "--workers", workers) == 0
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            outputs.append((files, capsys.readouterr().out))
        assert len(outputs[0][0]) == 1 + 2 * 2 * 3
        assert outputs[0] == outputs[1]

    def test_each_point_equals_its_run(self, tmp_path, config_file):
        sweep = tmp_path / "sweep"
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", "1,4", "--out", sweep) == 0
        for factor in (1, 4):
            point_config = tmp_path / f"f{factor}.cfg"
            point_config.write_text(BASE_CONFIG.replace("factor = 2", f"factor = {factor}"))
            run = tmp_path / f"run{factor}"
            assert run_cli("run", "--config", point_config, "--out", run) == 0
            point = sweep / f"factor_{factor}"
            names = sorted(p.name for p in point.iterdir())
            assert len(names) == 6
            for name in names:
                assert (point / name).read_bytes() == (run / name).read_bytes()

    def test_failure_names_first_point_in_axis_order(self, tmp_path, config_file, capsys,
                                                     monkeypatch):
        # seed by seed, factor 4 fails on seed 0 before factor 2 fails on seed 1
        failing = {(2, 1), (4, 0), (4, 1)}
        run_online = cli.run_online

        def fake(stream, config, rng):
            if (config.factor, rng.seed) in failing:
                tasks = len(stream.train_tasks)
                return RunResult(np.full((tasks, tasks), np.nan), None, None, 0, "loss is nan")
            return run_online(stream, config, rng)

        monkeypatch.setattr(cli, "run_online", fake)
        out = tmp_path / "s"
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", "1,2,4", "--out", out) == 4
        captured = capsys.readouterr()
        assert "sweep point factor=2 failed on seed 1" in captured.err
        assert captured.out.startswith("factor = 1: mean a_end")
        assert not (out / "sweep.csv").exists()
        written = {d.name: sorted(p.name for p in d.glob("*.csv")) for d in out.iterdir()}
        assert written == {
            "factor_1": ["seed_0_end.csv", "seed_0_matrix.csv",
                         "seed_1_end.csv", "seed_1_matrix.csv"],
            "factor_2": ["seed_0_end.csv", "seed_0_matrix.csv", "seed_1_matrix.partial.csv"],
            "factor_4": ["seed_0_matrix.partial.csv", "seed_1_matrix.partial.csv"],
        }


class TestImageDirDataset:
    def build_tree(self, tmp_path, classes=3, per_class=8, r=8):
        root = tmp_path / "data"
        rng = Rng(0)
        for c in range(classes):
            d = root / str(c)
            d.mkdir(parents=True)
            for k in range(per_class):
                arr = rng.split(c, k).integers(0, 256, (r, r, 3)).astype(np.uint8)
                save_ppm(d / f"{k:03d}.ppm", arr)
        return root

    def test_runs_from_directory(self, tmp_path):
        root = self.build_tree(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = image_dir\n"
            f"image_dir = {root}\n"
            "tasks = 3\nclasses_per_task = 1\n"
            "budget_images = 4\nfactor = 2\n"
            "stream_batch = 4\nreplay_batch = 8\nseeds = 0\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        assert (out / "seed_0_matrix.csv").exists()

    def test_missing_directory_is_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = image_dir\n"
            f"image_dir = {tmp_path / 'nope'}\n"
        )
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_mixed_image_sizes_is_2(self, tmp_path, capsys):
        root = self.build_tree(tmp_path)
        save_ppm(root / "1" / "999.ppm", np.zeros((16, 16, 3), dtype=np.uint8))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = image_dir\n"
            f"image_dir = {root}\n"
            "tasks = 3\nclasses_per_task = 1\nseeds = 0\n"
        )
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "mixed image sizes" in capsys.readouterr().err

    def test_non_numeric_class_dir_is_2(self, tmp_path, capsys):
        # beside a valid class "1": int() would take "-1" (then fail in numpy),
        # read "+1" as 1 and "1_0" as 10, and "01" would merge into class 1;
        # ids from 2^31 do not fit the int32 buffer labels
        for name in ("cats", "-1", "+1", "1_0", "01", "2147483648", "99999999999999999999"):
            root = tmp_path / name / "data"
            for d in ("1", name):
                (root / d).mkdir(parents=True)
                for k in range(5):
                    save_ppm(root / d / f"{k}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
            cfg = tmp_path / name / "exp.cfg"
            cfg.write_text(f"dataset = image_dir\nimage_dir = {root}\n")
            assert run_cli("run", "--config", cfg, "--out", tmp_path / name / "o") == 2
            assert repr(name) in capsys.readouterr().err

    def test_unallocatable_model_is_2(self, tmp_path, capsys):
        # class 2^31 - 1 at 131072 embedding units asks for petabytes of
        # weights, beyond the address space, so nothing is touched
        root = tmp_path / "data"
        for d in ("1", "2147483647"):
            (root / d).mkdir(parents=True)
            for k in range(5):
                save_ppm(root / d / f"{k}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = image_dir\nimage_dir = {root}\ntasks = 1\n"
                       "hidden_units = 1\nembedding_units = 131072\n")
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "2147483648 classes" in capsys.readouterr().err


class TestBenchmarkContract:
    """What benchmarks/ reads of the library: the tracer's hook targets and
    the record that `run_one_seed` returns."""

    @pytest.fixture
    def tracer(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        return module

    def test_every_trace_target_resolves(self, tracer):
        # ncm_prototypes no longer calls upsample
        assert tracer.Tracer(tracer.TARGETS).absent == ["assembly.upsample"]

    def test_traced_run_reaches_every_target(self, tracer):
        cli._seed_data_memo.clear()  # so that this run builds its data
        traced = tracer.Tracer(tracer.TARGETS)
        with traced:
            cli.run_one_seed(parse_config(BASE_CONFIG), 0)
        idle = [name for name, (calls, _) in traced.totals().items() if not calls]
        # an ncm run; the absent upsample target is never called
        assert idle == ["assembly.upsample", "learner.softmax_classify_batch"]

    def test_run_record_keys_and_types(self):
        record = cli.run_one_seed(parse_config(BASE_CONFIG), 0)
        assert set(record) == {"seed", "status", "failure", "entries", "end_row", "a_end",
                               "snapshot"}
        assert record["status"] == "ok" and record["failure"] is None
        assert [tuple(map(type, e)) for e in record["entries"]] == [(int, int, float)] * 6
        assert [type(a) for a in record["end_row"]] == [float] * 3
        assert type(record["a_end"]) is float
        assert type(record["snapshot"]) is bytes

    def test_workload_runs_pass_the_benchmark_checks(self, monkeypatch):
        # the checks benchmarks/measure.py makes of every timed run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        measure = importlib.import_module("measure")
        for name in ("measure", "tracer"):  # dropped from sys.modules after the test
            monkeypatch.setitem(sys.modules, name, sys.modules[name])
        for workload in ("desk", "wide-gps", "stream-gps"):
            for arm, config in measure.load_workload(workload):
                record = cli.run_one_seed(config, config.seeds[0])
                assert measure.check_run(config, record) == [], (workload, arm)
