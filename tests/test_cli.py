import hashlib
import importlib.util
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import gpsbench.cli as cli
from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.cli import main
from gpsbench.config import parse_config
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

# sha256 of PINNED_CONFIG's seed 0 CSVs, recorded before the accuracy matrix
# became a plain array; the matrix reads 1, 2/3, 1, 5/6, 5/6, 1/2.
PINNED_SHA256 = {
    "seed_0_matrix.csv": "0f54253c14f9f86d43612cfdf275a568f00845a3ba1e5087110eb96c3088cca8",
    "seed_0_end.csv": "aada7ddc51ccfe9cfba690380db9848dc0a8fd4ee0a7310311e572bd5bad2516",
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

        monkeypatch.setattr("gpsbench.cli.ProcessPoolExecutor", RecordingPool)
        assert run_cli("run", "--config", config_file, "--out", tmp_path / "a",
                       "--workers", "8") == 0
        assert run_cli("run", "--config", config_file, "--out", tmp_path / "b",
                       "--workers", "8", "--seed", "3") == 0
        assert run_cli("sweep", "--config", config_file, "--axis", "f", "--values", "2",
                       "--out", tmp_path / "c", "--workers", "2") == 0
        # two seeds: two workers, not eight; one seed runs without a pool
        assert sizes == [2, 2]

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


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = nosuch\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_3(self, tmp_path):
        assert run_cli("run", "--config", tmp_path / "ghost.cfg",
                       "--out", tmp_path / "o") == 3

    def test_unknown_key_is_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("who = knows\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2

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

    def test_negative_pattern_seed_is_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG + "synthetic_pattern_seed = -1\n")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "pattern_seed" in capsys.readouterr().err

    def test_seed_beyond_snapshot_range_is_2_before_any_output(self, tmp_path, config_file,
                                                               capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("seeds = 0,1", f"seeds = 0,{2 ** 63}"))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "seeds" in capsys.readouterr().err
        assert run_cli("run", "--config", config_file, "--seed", 2 ** 63,
                       "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

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
        buf = ReplayBuffer(PixelBudget(1, 8), Rng(0), factor=2)
        for _ in range(4):
            buf.offer(np.zeros((4, 4, 3), dtype=np.uint8), 10)
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
            buf = ReplayBuffer(PixelBudget(1, 8), Rng(0), factor=2)
            for _ in range(4):
                buf.offer(np.zeros((4, 4, 3), dtype=np.uint8), 0)
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

    def test_malformed_snapshot_is_3(self, tmp_path):
        path = tmp_path / "junk.gpsb"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("inspect-buffer", path) == 3

    def test_hostile_snapshot_header_is_3(self, tmp_path, capsys):
        # a 25-byte header claiming 2^31 budget images, and one claiming
        # 7 channels: both are format errors, reported before any allocation
        for image_count, channels in ((2 ** 31, 3), (8, 7)):
            path = tmp_path / "hostile.gpsb"
            path.write_bytes(struct.pack("<4sHHIIBQ", b"GPSB", 3, 2,
                                         image_count, 16, channels, 0)
                             + Rng(0).state_bytes())
            assert run_cli("inspect-buffer", path) == 3
            assert "error:" in capsys.readouterr().err

    def test_hostile_snapshot_rng_state_is_3(self, tmp_path, config_file, capsys):
        # a negative rng seed and a cached uint32 of 2^32 both pass the length
        # checks and are rejected by numpy; they must still be format errors
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out)
        blob = (out / "seed_0_buffer.gpsb").read_bytes()
        capsys.readouterr()
        rng_at = 25
        key_count = struct.unpack_from("<I", blob, rng_at + 8)[0]
        uinteger_at = rng_at + 12 + 4 * key_count + 32 + 16 + 32 + 8
        for offset, fmt, value in ((rng_at, "<q", -1), (uinteger_at, "<Q", 2 ** 32)):
            hostile = bytearray(blob)
            struct.pack_into(fmt, hostile, offset, value)
            path = tmp_path / "hostile.gpsb"
            path.write_bytes(bytes(hostile))
            assert run_cli("inspect-buffer", path) == 3
            assert "invalid rng state" in capsys.readouterr().err


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
        buf = ReplayBuffer(PixelBudget(4, 8), Rng(0), factor=2)
        for k in range(6):
            buf.offer(np.full((4, 4, 3), k, dtype=np.uint8), 0)
        snap = tmp_path / "b.gpsb"
        snap.write_bytes(buf.snapshot())
        out = tmp_path / "r.ppm"
        assert run_cli("reconstruct", snap, "--class-id", "-1", "--out", out) == 3
        assert "class -1 holds 0 exemplars" in capsys.readouterr().err
        assert not out.exists()

    def test_reconstruct_at_factor_one_writes_a_stored_image(self, tmp_path, capsys):
        buf = ReplayBuffer(PixelBudget(3, 8), Rng(0))
        images = [Rng(1).split(k).integers(0, 256, (8, 8, 3)).astype(np.uint8)
                  for k in range(3)]
        for k, image in enumerate(images):
            buf.offer(image, k % 2)  # class 0 in slots 0 and 2, class 1 in slot 1
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
        assert run_cli("sweep", "--config", config_file, "--axis", "lr",
                       "--values", "1", "--out", tmp_path / "s") == 2

    def test_bad_value_is_2(self, tmp_path, config_file):
        assert run_cli("sweep", "--config", config_file, "--axis", "f",
                       "--values", "two", "--out", tmp_path / "s") == 2


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
        assert tracer.Tracer(tracer.TARGETS).absent == []

    def test_traced_run_reaches_every_target(self, tracer):
        traced = tracer.Tracer(tracer.TARGETS)
        with traced:
            cli.run_one_seed(parse_config(BASE_CONFIG), 0)
        idle = [name for name, (calls, _) in traced.totals().items() if not calls]
        assert idle == ["learner.softmax_classify_batch"]  # an ncm run

    def test_run_record_keys_and_types(self):
        record = cli.run_one_seed(parse_config(BASE_CONFIG), 0)
        assert set(record) == {"seed", "status", "failure", "entries", "task_count",
                               "end_row", "a_end", "snapshot"}
        assert record["status"] == "ok" and record["failure"] is None
        assert type(record["task_count"]) is int
        assert [tuple(map(type, e)) for e in record["entries"]] == [(int, int, float)] * 6
        assert [type(a) for a in record["end_row"]] == [float] * 3
        assert type(record["a_end"]) is float
        assert type(record["snapshot"]) is bytes
