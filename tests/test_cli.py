import json
import struct

import numpy as np
import pytest

from gpsbench.buffer import ReplayBuffer
from gpsbench.cli import main
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

    def test_buffer_snapshot_restores(self, tmp_path, config_file):
        out = tmp_path / "out"
        run_cli("run", "--config", config_file, "--out", out)
        buf = ReplayBuffer.restore((out / "seed_0_buffer.gpsb").read_bytes())
        assert buf.mode == "gps"
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
        # petabytes, so numpy refuses before touching memory
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("synthetic_train_per_class = 20",
                                            "synthetic_train_per_class = 1000000000000"))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "(6000000000000, 16, 16, 3)" in capsys.readouterr().err

    def test_malformed_snapshot_is_3(self, tmp_path):
        path = tmp_path / "junk.gpsb"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("inspect-buffer", path) == 3

    def test_hostile_snapshot_header_is_3(self, tmp_path, capsys):
        # a 26-byte header claiming 2^31 budget images, and one claiming
        # 7 channels: both are format errors, reported before any allocation
        for image_count, channels in ((2 ** 31, 3), (8, 7)):
            path = tmp_path / "hostile.gpsb"
            path.write_bytes(struct.pack("<4sHBHIIBQ", b"GPSB", 2, 1, 2,
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
        rng_at = 26
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

    def test_non_numeric_class_dir_is_2(self, tmp_path):
        root = tmp_path / "data"
        (root / "cats").mkdir(parents=True)
        save_ppm(root / "cats" / "a.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = image_dir\nimage_dir = {root}\n")
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
