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

# sha256 of PINNED_CONFIG's seed 0 CSVs; the matrix reads 1, 5/6, 1, 1/2, 5/6, 1.
# Re-recorded when the offer and replay generators became one per task
# instead of one per run, which moves every run with a buffer.
PINNED_SHA256 = {
    "seed_0_matrix.csv": "85fe029abcd4f861ad55e078c30eb1d693bc252b8f2d0b6adb20890daa5bc198",
    "seed_0_end.csv": "ce9ab13481479c9ad90565fe2c5ded533cb291acb86e00b5b0ca0c02f7a1bbe5",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def child_env():
    """The environment of a new interpreter that imports this gpsbench."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def fresh_python(*argv):
    """A new interpreter's completed process, importing this gpsbench."""
    return subprocess.run([sys.executable, *map(str, argv)], env=child_env(),
                          capture_output=True, text=True, timeout=60)


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

    # the second command's seeds now fail, now fail at every sweep point, or
    # now keep no buffer; whatever it writes, it leaves nothing of the first
    @pytest.mark.parametrize("argv, second, code", [
        (("run",), BASE_CONFIG + "learning_rate = 1000000\n", 4),
        (("sweep", "--axis", "f", "--values", "1,2"),
         BASE_CONFIG + "learning_rate = 1000000\n", 4),
        (("run",), BASE_CONFIG.replace("buffer_mode = gps", "buffer_mode = none\nhead = softmax"),
         0),
    ], ids=["run_now_fails", "sweep_now_fails", "run_without_buffer"])
    def test_rerun_into_out_replaces_every_file_of_its_seeds(self, tmp_path, config_file,
                                                             argv, second, code):
        second_config = tmp_path / "second.cfg"
        second_config.write_text(second)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli(*argv, "--config", config_file, "--out", out) == 0
        for target in (out, fresh):
            assert run_cli(*argv, "--config", second_config, "--out", target) == code

        def files(root):  # the manifest differs only in its timestamp
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                    if p.is_file() and p.name != "manifest.json"}

        assert files(out) == files(fresh)

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

    def test_config_with_byte_order_mark_runs_as_without(self, tmp_path, config_file, capsys):
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
        outputs = []
        for path in (config_file, marked):
            out = tmp_path / path.stem
            assert run_cli("run", "--config", path, "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["timestamp"]
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".json"}
            outputs.append((files, manifest, capsys.readouterr()))
        assert len(outputs[0][0]) == 7
        assert outputs[0] == outputs[1]

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
        out = fresh_python("-c", code)
        assert out.returncode == 0 and out.stdout.strip() == "[]"

    def test_run_loads_no_numpy_module(self):
        # np.unique without return_index imports all of numpy.ma (2 MB of
        # RSS); a run of each arm and head must load no numpy module that
        # `import gpsbench.cli` has not
        code = """\
import sys, gpsbench.cli as cli
from gpsbench.config import parse_config
before = set(sys.modules)
for mode, head in (("gps", "ncm"), ("full", "ncm"), ("none", "softmax")):
    text = sys.argv[1].replace("buffer_mode = gps", f"buffer_mode = {mode}")
    cli.run_one_seed(parse_config(f"{text}head = {head}\\n"), 0)
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
"""
        out = fresh_python("-c", code, BASE_CONFIG)
        assert out.returncode == 0, out.stderr
        loaded = out.stdout.strip()
        assert loaded == "[]", f"a run loaded numpy modules (numpy.ma must not load): {loaded}"

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
        stream = cli.seed_data(parse_config(BASE_CONFIG), 0)
        arrays = [*vars(stream.dataset).values(), *stream.train_tasks, *stream.test_tasks]
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

    def test_diverging_run_is_4_without_numpy_warnings(self, tmp_path):
        # a new interpreter, outside pytest's warning filters, prints every
        # RuntimeWarning to stderr
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("seeds = 0,1", "seeds = 0")
                        + "learning_rate = 1000000\n")
        out = fresh_python("-W", "default", "-m", "gpsbench.cli", "run", "--config", path,
                           "--out", tmp_path / "o")
        assert out.returncode == 4
        assert out.stdout == ("seed 0: FAILED (non-finite training loss (stream=nan, "
                              "replay=nan) (at training step 2))\n")
        assert out.stderr == "error: one or more seeds failed; partial artifacts written\n"

    def test_run_whose_evaluation_overflows_is_4(self, tmp_path, capsys):
        # both seeds train every step, then their softmax logits overflow in
        # the evaluation after the last task
        path = tmp_path / "exp.cfg"
        path.write_text("synthetic_classes = 6\nsynthetic_resolution = 8\n"
                        "synthetic_train_per_class = 10\nsynthetic_test_per_class = 4\n"
                        "tasks = 3\nclasses_per_task = 2\nbuffer_mode = none\n"
                        "head = softmax\nstream_batch = 5\nhidden_units = 16\n"
                        "embedding_units = 8\nlearning_rate = 30.0\nseeds = 6,11\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 4
        assert capsys.readouterr().out == "".join(
            f"seed {seed}: FAILED (non-finite logits (in the evaluation after task 2))\n"
            for seed in (6, 11))
        rows = (tmp_path / "o" / "seed_6_matrix.partial.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["t", "0", "1", "1"]

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

    def test_rate_that_float32_rounds_to_zero_is_2_before_any_output(self, tmp_path, capsys):
        # at the model's float32 the step is 0: every parameter would keep its bytes
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG + "learning_rate = 1e-50\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "learning_rate must be finite and > 0 in float32" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_141_with_nothing_on_stderr(self, tmp_path, unbuffered):
        # 128 + SIGPIPE, as a Unix tool ends when its reader goes away, also
        # when the command fails after printing; an unbuffered stdout fails
        # at the first print, a buffered one when it is flushed
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        path, diverging, out = tmp_path / "exp.cfg", tmp_path / "div.cfg", tmp_path / "o"
        path.write_text(BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
        diverging.write_text(path.read_text() + "learning_rate = 1000000\n")
        for argv in (("run", "--config", path, "--out", out),
                     ("inspect-buffer", out / "seed_0_buffer.gpsb"),
                     ("run", "--config", diverging, "--out", tmp_path / "d")):
            read_end, write_end = os.pipe()
            os.close(read_end)  # the reader is gone before the command starts
            try:
                child = subprocess.run(
                    [sys.executable, "-m", "gpsbench.cli", *map(str, argv)], env=env,
                    stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
            finally:
                os.close(write_end)
            assert (child.returncode, child.stderr) == (141, "")
        # run writes every file before it prints
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "seed_0_buffer.gpsb", "seed_0_end.csv", "seed_0_matrix.csv",
            "summary.csv"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"

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
        buf.offer(np.zeros((4, 4, 4, 3), dtype=np.uint8), np.full(4, 10), Rng(0))
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
            buf.offer(np.zeros((4, 4, 4, 3), dtype=np.uint8), np.zeros(4, int), Rng(0))
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

    def test_budget_of_no_images_is_rejected(self, tmp_path, capsys):
        # the budget is plain data: the buffer checks it when built or restored
        with pytest.raises(errors.ConfigError, match="budget image count"):
            ReplayBuffer(PixelBudget(0, 8))
        path = tmp_path / "empty.gpsb"
        path.write_bytes(struct.pack("<4sHHIIBQ", b"GPSB", 4, 2, 0, 16, 3, 0))
        assert run_cli("inspect-buffer", path) == 3
        assert "budget image count" in capsys.readouterr().err

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

    def test_reconstruct_without_a_class_of_f_squared_exemplars_is_3(self, tmp_path, capsys):
        # factor 2 tiles 4 exemplars, and the one class holds 3
        buf, buf_rng = ReplayBuffer(PixelBudget(4, 8), factor=2), Rng(0)
        for k in range(3):
            buf.offer(np.full((4, 4, 3), k, dtype=np.uint8), 0, buf_rng)
        snap = tmp_path / "b.gpsb"
        snap.write_bytes(buf.snapshot())
        out = tmp_path / "r.ppm"
        assert run_cli("reconstruct", snap, "--out", out) == 3
        assert capsys.readouterr().err.startswith("error: no class holds 4 exemplars")
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

    # full replays at factor 1, and none keeps no buffer
    @pytest.mark.parametrize("mode, axis", [("full", "f"), ("none", "f"), ("none", "K")])
    def test_axis_the_buffer_mode_ignores_is_2_before_any_output(self, tmp_path, capsys,
                                                                  mode, axis):
        config = tmp_path / "exp.cfg"
        config.write_text(BASE_CONFIG.replace("buffer_mode = gps",
                                              f"buffer_mode = {mode}\nhead = softmax"))
        out = tmp_path / "s"
        assert run_cli("sweep", "--config", config, "--axis", axis,
                       "--values", "1,2", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep axis {axis!r} sets ")
        assert f"buffer_mode = {mode} ignores" in err
        assert not out.exists()

    def test_no_value_is_2_before_any_output(self, tmp_path, config_file, capsys):
        out = tmp_path / "s"
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", ",", "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: sweep needs at least one value")
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

    # class directory -> its .ppm file count; class 1 is the bad one
    @pytest.mark.parametrize("tree, message", [
        ({}, "image_dir {root} contains no class subdirectories"),
        ({"0": 5, "1": 0}, "class directory {root}/1 holds no .ppm files"),
        ({"0": 5, "1": 1}, "class 1: 1 images cannot support a test split"),
    ], ids=["no_class_dirs", "no_ppm_files", "one_image"])
    def test_tree_without_train_and_test_images_is_2(self, tmp_path, capsys, tree, message):
        root = tmp_path / "data"
        root.mkdir()
        for name, count in tree.items():
            (root / name).mkdir()
            (root / name / "notes.txt").write_text("not an image\n")
            for k in range(count):
                save_ppm(root / name / f"{k}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = image_dir\nimage_dir = {root}\n")
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(root=root))

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


# sha256 of each benchmark workload run's accuracy entries (as JSON) and
# buffer snapshot at the config's first seed, 0. The gps and full entries
# were re-recorded when the offer and replay generators became one per task
# instead of one per run; the finetune entry, which has no buffer and draws
# neither, did not change. Each run takes its own path: the f = 1 NCM
# prototypes (desk full), the softmax head (desk finetune), W1 updated in
# several row blocks (wide-gps) and one replay row per step (stream-gps). A
# change to a random stream or to a run's arithmetic shows up here and must
# update these on purpose; they held on four OpenBLAS kernels (SkylakeX,
# Haswell, SandyBridge and Nehalem).
WORKLOAD_SHA256 = {
    "desk/finetune": "1fdeb2fcf3d757f1e781837b3226a06b39e8ac46c490201482ac5c6b6c5988d2",
    "desk/full": "fe64056bda6ec4e982793f9e74fad01c239953b8ce8863dfa623e20df0064b3a",
    "desk/gps": "58415f8f9a0e4abbfbe5e1c392d7ba98c8ad16175ffd3947d2c3995a5e67e169",
    "wide-gps/gps": "642b5885fd3e9f66850fdc6bf25769a7849deada456ec2a376dc470c6bf92c69",
    "stream-gps/gps": "221af96eaa2c85af720d7b1cf006467204f3d68d302e439321bcd4b9bea916bb",
}


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
        got = {}
        for workload in ("desk", "wide-gps", "stream-gps"):
            for arm, config in measure.load_workload(workload):
                record = cli.run_one_seed(config, config.seeds[0])
                assert measure.check_run(config, record) == [], (workload, arm)
                data = json.dumps(record["entries"]).encode() + (record["snapshot"] or b"")
                got[f"{workload}/{arm}"] = hashlib.sha256(data).hexdigest()
        assert got == WORKLOAD_SHA256
