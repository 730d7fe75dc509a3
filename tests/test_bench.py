import copy
import hashlib
import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import gpsbench.bench as bench
import gpsbench.learner as L
from gpsbench.bench import (
    CIFAR_RECORD_BYTES,
    Dataset,
    RunResult,
    average_end_accuracy,
    class_pattern,
    generate_synthetic,
    load_cifar100,
    run_online,
    run_task,
    split_tasks,
    start_run,
)
from gpsbench.buffer import PixelBudget, ReplayBuffer, draw_replay_batch
from gpsbench.cli import run_one_seed
from gpsbench.config import ExperimentConfig, parse_config
from gpsbench.errors import ConfigError, FormatError
from gpsbench.imaging import (
    DOMAIN_BUFFER,
    DOMAIN_DATA,
    DOMAIN_MODEL_INIT,
    DOMAIN_REPLAY,
    DOMAIN_STREAM,
    DOMAIN_TASK_SPLIT,
    DRAW_CHUNK_VALUES,
    Rng,
)
from gpsbench.sampler import gps_sample


def synthetic(classes, resolution, **settings):
    """A config whose synthetic_<name> keys are the given settings."""
    return ExperimentConfig(synthetic_classes=classes, synthetic_resolution=resolution,
                            **{f"synthetic_{k}": v for k, v in settings.items()})


def expected_synthetic(config, rng):
    """Per-image reference of generate_synthetic: one noise draw per image."""
    classes = config.synthetic_classes
    patterns = [class_pattern(config, c) for c in range(classes)]

    def draw(count, noise_rng):
        pixels = np.empty((classes * count, *patterns[0].shape), dtype=np.uint8)
        for k in range(len(pixels)):
            noisy = patterns[k // count] + config.synthetic_noise * noise_rng.standard_normal(
                patterns[0].shape)
            pixels[k] = np.clip(np.rint(noisy), 0, 255)
        return pixels, np.repeat(np.arange(classes), count)

    return Dataset(*draw(config.synthetic_train_per_class, rng.split(0)),
                   *draw(config.synthetic_test_per_class, rng.split(1)))


DATASET_ARRAYS = ("train_pixels", "train_labels", "test_pixels", "test_labels")

# sha256 of the desk seed-0 dataset (10 classes at 32x32x3, 100 + 20 per
# class), recorded while noise was still drawn one image at a time. Labels
# are hashed as little-endian int64.
DESK_SEED_0_SHA256 = {
    "train_pixels": "05bd57fce5d61b32d920a561ce32c90f489df21c88822c8ffb0eba21e0a00624",
    "train_labels": "bbdaed34ddb84891085b7279daa6e45d3336e5e8925f5fc218042c671c4f0e10",
    "test_pixels": "c9e4dbaf40aab013bd165266587c84a24fe50b3fec92b44f325256b8602b7ff2",
    "test_labels": "e939e099c3608c9319f0895a123bfcb13c8d369efbe10fe8c3de2f9b2d37854b",
}


def _chunk_rows(resolution, channels):
    """Images per noise draw in generate_synthetic; 0 means one draw per image."""
    return DRAW_CHUNK_VALUES // (resolution ** 2 * channels)


_ABOVE_CHUNK = math.isqrt(DRAW_CHUNK_VALUES // 3) + 1  # one 3-channel image is larger


class TestSyntheticMatchesPerImageDraws:
    @pytest.mark.parametrize("config", [
        synthetic(2, _ABOVE_CHUNK, train_per_class=3, test_per_class=1),
        synthetic(3, 16, train_per_class=2 * _chunk_rows(16, 3) + 5,
                  test_per_class=_chunk_rows(16, 3) - 1),
        synthetic(2, 16, channels=1, noise=200.0, train_per_class=_chunk_rows(16, 1) + 3,
                  test_per_class=_chunk_rows(16, 1)),
    ], ids=["one_image_above_chunk", "partial_last_chunk", "one_channel"])
    def test_equals_reference(self, config):
        got = generate_synthetic(config, Rng(3))
        want = expected_synthetic(config, Rng(3))
        for name in DATASET_ARRAYS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype

    def test_desk_seed_0_hashes(self):
        ds = generate_synthetic(ExperimentConfig(), Rng(0).split(DOMAIN_DATA))
        got = {}
        for name in DATASET_ARRAYS:
            arr = getattr(ds, name)
            data = arr.astype("<i8").tobytes() if name.endswith("labels") else arr.tobytes()
            got[name] = hashlib.sha256(data).hexdigest()
        assert got == DESK_SEED_0_SHA256

    @pytest.mark.parametrize("per_class", [10 ** 12, 10 ** 16])
    def test_unallocatable_split_is_config_error(self, per_class):
        # petabytes (a MemoryError) and exabytes (numpy's "array is too big"
        # ValueError): both are refused before any memory is touched
        config = synthetic(10, 16, train_per_class=per_class)
        with pytest.raises(ConfigError, match=rf"\({10 * per_class}, 16, 16, 3\)"):
            generate_synthetic(config, Rng(0))


class TestSynthetic:
    def test_shapes_and_counts(self):
        ds = generate_synthetic(synthetic(4, 16, train_per_class=12, test_per_class=5),
                                Rng(0))
        assert ds.train_pixels.shape == (48, 16, 16, 3)
        assert ds.test_pixels.shape == (20, 16, 16, 3)
        assert ds.train_labels.shape == (48,) and ds.test_labels.shape == (20,)
        assert np.unique(ds.train_labels).tolist() == [0, 1, 2, 3]

    def test_deterministic_for_same_rng(self):
        config = synthetic(3, 8, train_per_class=4, test_per_class=2)
        a = generate_synthetic(config, Rng(5))
        b = generate_synthetic(config, Rng(5))
        for name in ("train_pixels", "train_labels", "test_pixels", "test_labels"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_patterns_fixed_by_pattern_seed_not_data_rng(self):
        config = synthetic(3, 8)
        np.testing.assert_array_equal(class_pattern(config, 1), class_pattern(config, 1))
        # without noise every image is its class pattern, whatever the data generator
        quiet = synthetic(3, 8, noise=0.0)
        a, b = generate_synthetic(quiet, Rng(0)), generate_synthetic(quiet, Rng(1))
        for name in DATASET_ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.train_pixels[0], np.rint(class_pattern(quiet, 0)))

    def test_classes_have_distinct_patterns(self):
        config = synthetic(6, 16)
        pats = [class_pattern(config, c) for c in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.abs(pats[i] - pats[j]).mean() > 1.0

    def test_noise_varies_between_samples(self):
        ds = generate_synthetic(synthetic(1, 8, train_per_class=2, test_per_class=1), Rng(1))
        assert not np.array_equal(ds.train_pixels[0], ds.train_pixels[1])

    def test_values_stay_in_byte_range(self):
        ds = generate_synthetic(synthetic(2, 8, noise=200.0), Rng(2))
        assert ds.train_pixels.dtype == np.uint8

    def test_overflowing_noise_saturates_without_a_warning(self):
        # 1e308 is finite, so a config may set it, but nearly every draw
        # times 1e308 overflows to +-inf: rint and clip take it to 255 or 0
        config = synthetic(2, 8, noise=1e308, train_per_class=3, test_per_class=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = generate_synthetic(config, Rng(4))
        for pixels in (ds.train_pixels, ds.test_pixels):
            assert ((pixels == 0) | (pixels == 255)).all()


class TestCifarLoader:
    def make_file(self, tmp_path, records):
        blob = bytearray()
        for coarse, fine, planes in records:
            blob.append(coarse)
            blob.append(fine)
            blob.extend(planes.tobytes())
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(blob))
        return path

    def test_parses_planar_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        planes = rng.integers(0, 256, (3, 32, 32), dtype=np.uint8)
        path = self.make_file(tmp_path, [(4, 17, planes)])
        pixels, labels = load_cifar100(path)
        assert pixels.shape == (1, 32, 32, 3)
        assert labels.tolist() == [17]  # fine label, coarse byte ignored
        for c in range(3):
            np.testing.assert_array_equal(pixels[0, ..., c], planes[c])

    def test_multiple_records(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [(0, k, rng.integers(0, 256, (3, 32, 32), dtype=np.uint8))
                   for k in range(5)]
        path = self.make_file(tmp_path, records)
        _, labels = load_cifar100(path)
        assert labels.tolist() == [0, 1, 2, 3, 4]

    def test_record_size_constant(self):
        assert CIFAR_RECORD_BYTES == 2 + 3 * 32 * 32

    def test_bad_length_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(CIFAR_RECORD_BYTES + 1))
        with pytest.raises(FormatError):
            load_cifar100(path)


class TestSplitTasks:
    def dataset(self, num_classes=10, per_class=6):
        values = np.array([(c * 7 + k) % 256 for c in range(num_classes)
                           for k in range(per_class)], dtype=np.uint8)
        pixels = np.tile(values[:, None, None, None], (1, 4, 4, 3))
        labels = np.repeat(np.arange(num_classes), per_class)
        return Dataset(pixels, labels, pixels[::per_class], labels[::per_class])

    def class_sets(self, stream):
        """Each task's classes: the train labels its indices select."""
        return [set(stream.dataset.train_labels[task].tolist()) for task in stream.train_tasks]

    def test_partitions_classes_without_overlap(self):
        ds = self.dataset()
        stream = split_tasks(ds, 5, 2, Rng(0))
        assert len(stream.train_tasks) == 5
        all_classes = set()
        for cs in self.class_sets(stream):
            assert len(cs) == 2
            assert not (cs & all_classes)
            all_classes |= cs
        assert all_classes == set(range(10))

    def test_task_items_match_class_sets(self):
        ds = self.dataset()
        stream = split_tasks(ds, 5, 2, Rng(1))
        for task, cs in zip(stream.test_tasks, self.class_sets(stream)):
            assert set(ds.test_labels[task].tolist()) <= cs

    def test_every_train_image_appears_exactly_once(self):
        ds = self.dataset()
        stream = split_tasks(ds, 5, 2, Rng(2))
        visited = np.concatenate(stream.train_tasks)
        assert sorted(visited.tolist()) == list(range(len(ds.train_labels)))

    def test_class_order_depends_on_rng(self):
        ds = self.dataset()
        a = self.class_sets(split_tasks(ds, 5, 2, Rng(3)))
        b = self.class_sets(split_tasks(ds, 5, 2, Rng(4)))
        assert a != b

    def test_deterministic_for_same_rng(self):
        ds = self.dataset()
        a = split_tasks(ds, 5, 2, Rng(5))
        b = split_tasks(ds, 5, 2, Rng(5))
        assert self.class_sets(a) == self.class_sets(b)
        for ta, tb in zip(a.train_tasks, b.train_tasks):
            np.testing.assert_array_equal(ta, tb)

    def test_insufficient_classes_rejected(self):
        ds = self.dataset(num_classes=3)
        with pytest.raises(ConfigError):
            split_tasks(ds, 5, 2, Rng(0))

    def test_task_without_test_images_is_format_error(self):
        # the test split lacks both classes of task 1, which is named with them
        ds = self.dataset()
        classes = sorted(self.class_sets(split_tasks(ds, 5, 2, Rng(0)))[1])
        keep = ~np.isin(ds.test_labels, classes)
        ds = Dataset(ds.train_pixels, ds.train_labels, ds.test_pixels[keep],
                     ds.test_labels[keep])
        message = f"task 1 has no test images of its classes {classes}"
        with pytest.raises(FormatError, match=re.escape(message)):
            split_tasks(ds, 5, 2, Rng(0))


class TestAccuracyMatrix:
    """The (T, T) accuracy matrix: entry (t, i) is accuracy on task i after
    task t, NaN where no entry is written."""

    def test_entries_row_major(self):
        config = ExperimentConfig(synthetic_classes=6, synthetic_resolution=8,
                                  synthetic_train_per_class=10, synthetic_test_per_class=4,
                                  tasks=3, classes_per_task=2, budget_images=4,
                                  stream_batch=5, replay_batch=16, hidden_units=16,
                                  embedding_units=8)
        entries = run_one_seed(config, 0)["entries"]
        assert [(t, i) for t, i, _ in entries] == [(0, 0), (1, 0), (1, 1),
                                                   (2, 0), (2, 1), (2, 2)]

    def test_final_row_gate(self):
        m = np.full((2, 2), np.nan)
        m[0, 0] = 0.2
        m[1, 0] = 0.5
        with pytest.raises(ValueError, match="incomplete"):
            average_end_accuracy(m)
        m[1, 1] = 0.7
        assert average_end_accuracy(m) == pytest.approx(0.6)

    def test_average_end_accuracy_known_value(self):
        m = np.full((2, 2), np.nan)
        m[0, 0] = 0.9
        m[1, 0] = 0.5
        m[1, 1] = 0.7
        assert average_end_accuracy(m) == pytest.approx(0.6)

    def test_average_matches_recomputation_on_random_matrices(self):
        rng = Rng(6)
        for trial in range(20):
            n = int(rng.split(trial).integers(1, 7))
            m = np.full((n, n), np.nan)
            values = rng.split(trial, 1).uniform(0.0, 1.0, (n, n))
            for t in range(n):
                for i in range(t + 1):
                    m[t, i] = values[t, i]
            expected = float(np.mean(values[n - 1, :n]))
            assert average_end_accuracy(m) == pytest.approx(expected, abs=1e-12)


def small_setup(seed=0, mode="gps", head="ncm", factor=2, replay_batch=16,
                classes=4, tasks=2, budget_images=4, **settings):
    """(stream, config, root rng) of a small run_online call; the settings
    are further config keys."""
    root = Rng(seed)
    config = ExperimentConfig(synthetic_classes=classes, synthetic_resolution=8,
                              synthetic_train_per_class=10, synthetic_test_per_class=4,
                              tasks=tasks, classes_per_task=classes // tasks,
                              buffer_mode=mode, budget_images=budget_images, factor=factor,
                              stream_batch=5, replay_batch=replay_batch, hidden_units=16,
                              embedding_units=8, head=head, **settings)
    ds = generate_synthetic(config, root.split(DOMAIN_DATA))
    stream = split_tasks(ds, tasks, classes // tasks, root.split(DOMAIN_TASK_SPLIT))
    return stream, config, root


def small_run(**kwargs):
    stream, cfg, root = small_setup(**kwargs)
    return run_online(stream, cfg, root), stream


# (arm, learning rate, seed, failure) of small_setup(classes=6, tasks=3) runs
# at the edge of divergence; each ends ok, or fails as listed
EDGE_RUNS = [
    ("gps", 10.0, 0, None),
    ("full", 10.0, 0, None),
    ("none", 10.0, 0, None),
    # these two warned from the logits that NCM evaluation once computed
    ("full", 10.0, 5, None),
    ("gps", 10.0, 13, None),
    ("none", 30.0, 6, "non-finite logits (in the evaluation after task 2)"),
    ("none", 30.0, 11, "non-finite logits (in the evaluation after task 2)"),
    ("none", 100.0, 7, "non-finite logits (in the evaluation after task 1)"),
    # finite embeddings near 2.5e23, whose squared distances all overflow
    ("gps", 100.0, 0, "non-finite NCM distances (in the evaluation after task 0)"),
    ("full", 100.0, 0, "non-finite NCM distances (in the evaluation after task 0)"),
    # finite embeddings near 3e20, most of whose squared distances overflow
    ("gps", 10.0, 1, "non-finite NCM distances (in the evaluation after task 1)"),
    # training failures in an arm that draws GPS offsets and in one that draws none
    ("gps", 10.0, 11, "non-finite parameters after update (at training step 10)"),
    ("full", 10.0, 2, "non-finite parameters after update (at training step 6)"),
]


class TestEvaluation:
    @pytest.mark.parametrize("arm, lr, seed, failure", EDGE_RUNS,
                             ids=[f"{arm}-lr{lr:g}-seed{seed}" for arm, lr, seed, _ in EDGE_RUNS])
    def test_run_ends_ok_without_warnings_or_fails_as_listed(self, arm, lr, seed, failure):
        stream, cfg, root = small_setup(seed=seed, classes=6, tasks=3, learning_rate=lr,
                                        **ARMS[arm])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_online(stream, cfg, root)
        assert result.failure == failure
        steps_per_task = len(stream.train_tasks[0]) // 5
        if failure is None:
            failed_task = 3
        elif evaluation := re.search(r"in the evaluation after task (\d)\)$", failure):
            failed_task = int(evaluation[1])
            # every step of the task trained before its evaluation failed
            assert result.step_count == (failed_task + 1) * steps_per_task
        else:
            failed_task = result.step_count // steps_per_task
        assert not np.isnan(np.tril(result.matrix)[:failed_task]).any()
        assert np.isnan(result.matrix[failed_task:]).all()

    def test_ncm_never_reads_the_classifier_head(self):
        result, stream = small_run(seed=0, classes=6, tasks=3)
        params, pixels = result.params, stream.dataset.test_pixels
        expected = L.classify_batch(L.ncm_prototypes(params, result.buf), params, pixels)
        params.Wc[...] = np.inf
        params.bc[...] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prototypes = L.ncm_prototypes(params, result.buf)
            np.testing.assert_array_equal(L.classify_batch(prototypes, params, pixels),
                                          expected)


class TestReplayBatch:
    def test_rows_are_the_drawn_slots(self, monkeypatch):
        # replay_batch counts stored samples: 12 samples at f = 2 are 3 rows,
        # each a stored surrogate at its own side
        draws, replayed = [], []
        train_step = L.train_step

        def draw(buf, n, rng):
            slots = draw_replay_batch(buf, n, rng)
            draws.append((buf, n, slots))
            return slots

        def step(params, stream_batch, replay_batch, *args, **kwargs):
            buf, _, slots = draws[-1]
            pixels, labels = replay_batch
            assert pixels.shape[1:] == (4, 4, 3)
            np.testing.assert_array_equal(pixels, buf.slab[slots])
            np.testing.assert_array_equal(labels, buf.labels[slots])
            replayed.append(len(labels))
            return train_step(params, stream_batch, replay_batch, *args, **kwargs)

        monkeypatch.setattr(bench, "draw_replay_batch", draw)
        monkeypatch.setattr(L, "train_step", step)
        small_run(seed=8, replay_batch=12)
        assert {n for _, n, _ in draws} == {12 // 4}
        assert len(replayed) == len(draws) and 3 in replayed

    def test_class_below_factor_squared_is_replayed(self):
        # class 9 holds 3 surrogates at f = 2, too few to tile one image;
        # each of them still replays as one row
        rng = Rng(2)
        buf = ReplayBuffer(PixelBudget(4, 8), factor=2)
        labels = np.array([9] * 3 + [1] * (buf.slot_count - 3))
        surrogates = rng.split(1).integers(0, 256, (len(labels), 4, 4, 3)).astype(np.uint8)
        buf.offer(surrogates, labels, rng.split(0))
        assert buf.class_counts() == {1: buf.slot_count - 3, 9: 3}
        replayed = set()
        for trial in range(20):
            slots = draw_replay_batch(buf, 16 // 4, rng.split(2, trial))
            for image, label in zip(buf.slab[slots], buf.labels[slots]):
                if label == 9:
                    replayed.update(k for k in range(3) if np.array_equal(image, surrogates[k]))
        assert replayed == {0, 1, 2}


class TestRunOnline:
    def test_buffer_holds_stream_items_with_their_labels(self):
        result, stream = small_run(seed=11, mode="full", factor=1, head="softmax")
        buf, ds = result.buf, stream.dataset
        for slot in np.flatnonzero(buf.labels >= 0):
            same = (ds.train_pixels == buf.slab[slot]).all(axis=(1, 2, 3))
            assert buf.labels[slot] in ds.train_labels[same]

    def test_offer_count_matches_stream_length(self):
        result, stream = small_run(seed=1)
        assert result.buf.seen_count == sum(len(task) for task in stream.train_tasks)

    def test_matrix_is_complete_lower_triangle(self):
        result, stream = small_run(seed=2)
        m = result.matrix
        tasks = len(stream.train_tasks)
        assert m.shape == (tasks, tasks)
        lower = np.tri(tasks, dtype=bool)
        assert ((0.0 <= m[lower]) & (m[lower] <= 1.0)).all()
        assert np.isnan(m[~lower]).all()
        assert result.failure is None

    def test_deterministic_across_repeats(self):
        a, _ = small_run(seed=3)
        b, _ = small_run(seed=3)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        for ta, tb in zip(a.params.tensors(), b.params.tensors()):
            np.testing.assert_array_equal(ta, tb)
        assert a.buf.snapshot() == b.buf.snapshot()

    def test_different_seed_changes_outcome(self):
        a, _ = small_run(seed=4)
        b, _ = small_run(seed=5)
        assert not np.array_equal(a.matrix, b.matrix, equal_nan=True)

    def test_full_mode_and_softmax_head(self):
        result, _ = small_run(seed=6, mode="full", factor=1, head="softmax")
        assert 0.0 <= average_end_accuracy(result.matrix) <= 1.0

    def test_no_buffer_needs_softmax_head(self):
        with pytest.raises(ConfigError):
            small_run(seed=7, mode="none", head="ncm")

    def test_fine_tune_runs_without_buffer(self):
        result, _ = small_run(seed=8, mode="none", head="softmax",
                              replay_batch=0)
        assert result.buf is None
        assert 0.0 <= average_end_accuracy(result.matrix) <= 1.0

    def test_factor_must_divide_resolution(self):
        with pytest.raises(ConfigError, match="must divide resolution 8"):
            small_run(seed=9, factor=3, replay_batch=9)
        # a factor above the resolution fails as the buffer is built, before that check
        with pytest.raises(ConfigError, match="exceeds resolution"):
            small_run(seed=9, factor=16, replay_batch=0)

    def test_gps_replay_below_one_group_rejected(self):
        # factor 2: a replay batch of 1 to 3 samples is replay_batch // 4 = 0 rows
        for replay_batch in (1, 3):
            with pytest.raises(ConfigError, match="replay_batch"):
                small_setup(seed=12, replay_batch=replay_batch)
        for replay_batch in (0, 4):
            result, _ = small_run(seed=12, replay_batch=replay_batch)
            assert 0.0 <= average_end_accuracy(result.matrix) <= 1.0

    def test_buffer_holds_one_batched_draw_per_step(self):
        # 10 images of budget at factor 2 give 40 slots for 40 stream items,
        # so nothing is evicted and slot k holds stream item k. Each task's
        # batches draw in turn from one generator: a sampler that restarted
        # at every batch would repeat the first batch's offsets.
        result, stream = small_run(seed=13, budget_images=10)
        buf, ds = result.buf, stream.dataset
        expected, batches = [], []
        for t, task in enumerate(stream.train_tasks):
            sampler = Rng(13).split(DOMAIN_STREAM, t)
            for start in range(0, len(task), 5):
                batches.append(task[start : start + 5])
                expected.append(gps_sample(ds.train_pixels[batches[-1]], 2, sampler))
        assert result.step_count == len(batches) == 8
        expected = np.concatenate(expected)
        assert buf.seen_count == buf.slot_count == len(expected)
        np.testing.assert_array_equal(buf.slab, expected)
        np.testing.assert_array_equal(buf.labels, ds.train_labels[np.concatenate(batches)])

    def test_buffer_and_replay_follow_the_per_task_generators(self, monkeypatch):
        # 2 images of budget at factor 2 give 8 slots for 40 stream items, so
        # offers evict. Criterion 3 drives offer with its own generator; this
        # rebuilds the run's buffer and replay draws from (seed, domain, t).
        draws = []

        def draw(buf, n, rng):
            draws.append(draw_replay_batch(buf, n, rng))
            return draws[-1]

        monkeypatch.setattr(bench, "draw_replay_batch", draw)
        result, stream = small_run(seed=15, budget_images=2)
        ds, root = stream.dataset, Rng(15)
        buf = ReplayBuffer(PixelBudget(2, 8), factor=2)
        expected, evicted = [], []
        for t, task in enumerate(stream.train_tasks):
            sampler, offers = root.split(DOMAIN_STREAM, t), root.split(DOMAIN_BUFFER, t)
            replay = root.split(DOMAIN_REPLAY, t)
            for start in range(0, len(task), 5):
                batch = task[start : start + 5]
                expected.append(draw_replay_batch(buf, 16 // 4, replay))
                surrogates = gps_sample(ds.train_pixels[batch], 2, sampler)
                evicted += buf.offer(surrogates, ds.train_labels[batch], offers)[1]
        assert evicted and buf.seen_count == 40 > buf.slot_count == 8
        np.testing.assert_array_equal(result.buf.slab, buf.slab)
        np.testing.assert_array_equal(result.buf.labels, buf.labels)
        assert result.buf.seen_count == buf.seen_count
        assert len(draws) == len(expected) == 8 and any(len(slots) for slots in expected)
        for got, want in zip(draws, expected):
            np.testing.assert_array_equal(got, want)

    def test_rng_splits_grow_with_tasks_not_steps(self, monkeypatch):
        stream, cfg, root = small_setup(seed=14)
        calls = []
        split = Rng.split

        def counting_split(self, *path):
            calls.append(path)
            return split(self, *path)

        monkeypatch.setattr(Rng, "split", counting_split)
        result = run_online(stream, cfg, root)
        assert sum(len(task) for task in stream.train_tasks) == 5 * result.step_count == 40

        def per_task(*domains):
            return [(DOMAIN_MODEL_INIT,)] + [
                (domain, t) for t in range(len(stream.train_tasks)) for domain in domains]

        # the model generator, then per task the offer, replay and sampler ones
        assert calls == per_task(DOMAIN_BUFFER, DOMAIN_REPLAY, DOMAIN_STREAM)
        # full draws no offsets, and none, without a buffer, splits the model's only
        for arm, expected in (("full", per_task(DOMAIN_BUFFER, DOMAIN_REPLAY)),
                              ("none", per_task())):
            stream, cfg, root = small_setup(seed=14, **ARMS[arm])
            calls.clear()
            run_online(stream, cfg, root)
            assert calls == expected, arm

    def test_numerical_failure_is_returned_with_the_partial_run(self):
        result, stream = small_run(seed=16, learning_rate=1e6)
        assert result.failure is not None
        assert result.failure.endswith(f"(at training step {result.step_count})")
        steps_per_task = len(stream.train_tasks[0]) // 5
        failed_task = result.step_count // steps_per_task
        assert failed_task == 1  # so the first row is written before the failure
        assert np.isnan(result.matrix[failed_task:]).all()
        assert not np.isnan(np.tril(result.matrix[:failed_task])).any()
        # the failing step offers nothing
        assert result.buf.seen_count == 5 * result.step_count


def outcome(result):
    """What a run leaves, as comparable values: the matrix and parameter
    bytes, the buffer snapshot, the step count and the failure."""
    return (result.matrix.tobytes(), b"".join(t.tobytes() for t in result.params.tensors()),
            None if result.buf is None else result.buf.snapshot(), result.step_count,
            result.failure)


ARMS = {"gps": {}, "full": dict(mode="full", factor=1),
        "none": dict(mode="none", head="softmax", replay_batch=0)}


def from_bytes(result):
    """A run's state rebuilt from what has a byte format: the matrix, each
    tensor's bytes, the buffer's GPSB snapshot and the step count."""
    p = result.params
    tensors = [np.frombuffer(t.tobytes(), t.dtype).reshape(t.shape).copy() for t in p.tensors()]
    return RunResult(result.matrix.copy(), L.ModelParams(p.input_side, p.channels, *tensors),
                     None if result.buf is None else ReplayBuffer.restore(result.buf.snapshot()),
                     result.step_count)


class TestRunState:
    def continues_from_every_task_boundary(self, arm, rebuild):
        """Rebuild the state at each task boundary and run it on: it ends in
        run_online's bytes."""
        stream, cfg, root = small_setup(seed=18, classes=6, tasks=3, **ARMS[arm])
        expected = outcome(run_online(stream, cfg, root))
        assert expected[-1] is None
        tasks = len(stream.train_tasks)
        result = start_run(stream, cfg, root)
        for boundary in range(tasks):
            resumed = rebuild(result)
            for t in range(boundary, tasks):
                run_task(resumed, stream, cfg, root, t)
            assert outcome(resumed) == expected, boundary
            run_task(result, stream, cfg, root, boundary)
        # start_run, then run_task over every t, is run_online; and the
        # rebuilt states shared no state with the run they were taken from
        assert outcome(result) == expected

    @pytest.mark.parametrize("arm", ARMS)
    def test_copy_at_every_task_boundary_continues_to_the_same_bytes(self, arm):
        self.continues_from_every_task_boundary(arm, copy.deepcopy)

    @pytest.mark.parametrize("arm", ARMS)
    def test_state_rebuilt_from_bytes_at_every_task_boundary_continues_to_the_same_bytes(
            self, arm):
        # the state between tasks holds no generator: its bytes are all of it
        self.continues_from_every_task_boundary(arm, from_bytes)

    def test_failing_task_is_the_last_task_run(self, monkeypatch):
        # lr 100 diverges in task 1 of 3: row 0 is written, row 1 is not
        stream, cfg, root = small_setup(seed=17, classes=6, tasks=3, learning_rate=100.0)
        result = start_run(stream, cfg, root)
        for t in range(3):
            run_task(result, stream, cfg, root, t)
            if result.failure is not None:
                break
        assert t == 1 and result.failure.endswith(f"(at training step {result.step_count})")
        assert not np.isnan(result.matrix[0, 0]) and np.isnan(result.matrix[1:]).all()
        calls = []
        recorded = bench.run_task

        def recording(result, stream, config, rng, t):
            calls.append(t)
            return recorded(result, stream, config, rng, t)

        monkeypatch.setattr(bench, "run_task", recording)
        assert outcome(run_online(stream, cfg, root)) == outcome(result)
        assert calls == [0, 1]


# one bad value per key that the library once checked under another name
BAD_VALUES = [
    ("synthetic_classes", 0),
    ("synthetic_resolution", 0),
    ("synthetic_channels", 2),
    ("synthetic_train_per_class", 0),
    ("synthetic_test_per_class", 0),
    ("synthetic_noise", math.inf),
    ("stream_batch", 0),
    ("replay_batch", -1),
    ("learning_rate", math.nan),
    ("head", "other"),
    ("buffer_mode", "other"),
]


class TestExperimentConfig:
    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=[key for key, _ in BAD_VALUES])
    def test_bad_value_error_begins_with_its_key(self, key, value):
        # checked however the config is made: parsed from text or replaced in code
        with pytest.raises(ConfigError) as parsed:
            parse_config(f"{key} = {value}\n")
        with pytest.raises(ConfigError) as replaced:
            replace(ExperimentConfig(), **{key: value})
        for error in (parsed.value, replaced.value):
            assert str(error).startswith(key), str(error)

    @pytest.mark.parametrize("text, key", [
        ("dataset = cifar100\n", "cifar_train_path"),
        ("dataset = cifar100\ncifar_train_path = train.bin\n", "cifar_test_path"),
        ("dataset = image_dir\n", "image_dir"),
    ], ids=["cifar_train_path", "cifar_test_path", "image_dir"])
    def test_dataset_without_its_source_names_the_missing_key(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key} is required when dataset = "):
            parse_config(text)

    def test_training_defaults(self):
        config = ExperimentConfig()
        assert config.stream_batch == 10
        assert config.replay_batch == 100
        assert config.learning_rate == pytest.approx(0.1)
        assert config.head == "ncm"

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("tasks = 5\nnot_a_key = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("tasks = 5\ntasks = 6\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\ntasks = 7\n")
        assert cfg.tasks == 7

    def test_bad_int_named(self):
        with pytest.raises(ConfigError, match="tasks"):
            parse_config("tasks = soon\n")

    def test_seed_list(self):
        cfg = parse_config("seeds = 0, 1, 2\n")
        assert cfg.seeds == (0, 1, 2)

    def test_seeds_are_signed_64_bit_integers(self):
        # [0, 2^63)
        largest = 2 ** 63 - 1
        assert parse_config(f"seeds = 0, {largest}\n").validate() is not None
        for seed in (-1, 2 ** 63, 2 ** 64):
            with pytest.raises(ConfigError, match="seeds"):
                parse_config(f"seeds = {seed}\n").validate()

    def test_repeated_seed_rejected(self):
        # one seed_3_* file set, but the summary would count two seeds
        with pytest.raises(ConfigError, match="^seeds must not repeat"):
            parse_config("seeds = 3,3\n")
        with pytest.raises(ConfigError, match="^seeds must not repeat"):
            replace(ExperimentConfig(), seeds=(0, 3, 1, 3))

    def test_validate_catches_cross_field_rules(self):
        with pytest.raises(ConfigError, match="head = ncm requires a buffer"):
            parse_config("buffer_mode = none\nhead = ncm\n")

    def test_frozen_so_no_value_skips_the_check(self):
        config = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            config.stream_batch = 0

    def test_replay_units_accepts_only_samples(self):
        assert parse_config("replay_units = samples\n").validate() is not None
        for units in ("images", "bogus"):
            with pytest.raises(ConfigError, match="replay_units"):
                parse_config(f"replay_units = {units}\n").validate()

    def test_gps_replay_below_one_group_rejected(self):
        # factor 2: a tiled replay image takes 4 samples, so 1..3 replay nothing
        for batch in (1, 3):
            with pytest.raises(ConfigError, match="replay nothing"):
                parse_config(f"factor = 2\nreplay_batch = {batch}\n").validate()
        for text in ("factor = 2\nreplay_batch = 0\n", "factor = 2\nreplay_batch = 4\n",
                     "buffer_mode = full\nfactor = 2\nreplay_batch = 1\n"):
            assert parse_config(text).validate() is not None

    def test_validate_ok_on_defaults(self):
        assert ExperimentConfig().validate() is not None

    def test_non_finite_floats_rejected(self):
        for key in ("learning_rate", "synthetic_noise"):
            for bad in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=f"^{key} must be finite"):
                    parse_config(f"{key} = {bad}\n")

    # a config built in code: seed True would write seed_True_* files, factor
    # 2.5 fail deep in a run, hidden_units "8" fail comparing a str with 1
    @pytest.mark.parametrize("key, value", [("seeds", (True,)), ("factor", 2.5),
                                            ("hidden_units", "8")],
                             ids=["bool_seed", "float_factor", "str_hidden_units"])
    def test_wrong_type_in_code_is_config_error_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ExperimentConfig(**{key: value})

    def test_seed_list_in_code_hashes_like_the_parsed_config(self):
        assert hash(ExperimentConfig(seeds=[0, 1])) == hash(parse_config("seeds = 0,1\n"))

    def test_seed_list_in_code_equals_the_parsed_config(self):
        assert ExperimentConfig(seeds=[0, 1]) == parse_config("seeds = 0,1\n")

    def test_seed_list_replaced_in_code_is_stored_as_a_tuple(self):
        assert replace(ExperimentConfig(), seeds=[3]).seeds == (3,)

    def test_int_for_a_float_and_a_seed_list_are_taken_in_code(self):
        config = ExperimentConfig(learning_rate=1, seeds=[0, 1])
        assert (config.learning_rate, list(config.seeds)) == (1, [0, 1])

    # 1e-50 rounds to 0 in the model's float32, so a run would train nothing;
    # 1e39 rounds to inf. Neither may warn: Tier-1 turns warnings into errors.
    @pytest.mark.parametrize("value", [1e-50, 1e39])
    def test_rate_that_float32_rounds_to_zero_or_inf_rejected(self, value):
        with pytest.raises(ConfigError, match="^learning_rate must be finite and > 0"):
            parse_config(f"learning_rate = {value!r}\n")
        with pytest.raises(ConfigError, match="^learning_rate"):
            ExperimentConfig(learning_rate=value)

    def test_float32_extremes_are_rates(self):
        finfo = np.finfo(np.float32)
        for value in (float(finfo.smallest_subnormal), float(finfo.max)):
            assert ExperimentConfig(learning_rate=value).learning_rate == value

    def test_non_finite_floats_rejected_in_code(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="learning_rate"):
                ExperimentConfig(learning_rate=bad)
            with pytest.raises(ConfigError, match="synthetic_noise"):
                synthetic(2, 8, noise=bad)
