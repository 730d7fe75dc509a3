import numpy as np
import pytest

import gpsbench.learner as L
from gpsbench.bench import (
    AccuracyMatrix,
    CIFAR_RECORD_BYTES,
    Dataset,
    OnlineConfig,
    SyntheticSpec,
    average_end_accuracy,
    class_pattern,
    generate_synthetic,
    load_cifar100,
    run_online,
    split_tasks,
)
from gpsbench.buffer import MODE_FULL, MODE_GPS, PixelBudget, ReplayBuffer
from gpsbench.config import ExperimentConfig, parse_config, serialize_config
from gpsbench.errors import ConfigError, FormatError, StateError
from gpsbench.imaging import (
    DOMAIN_BUFFER,
    DOMAIN_DATA,
    DOMAIN_MODEL_INIT,
    DOMAIN_TASK_SPLIT,
    Rng,
)


class TestSynthetic:
    def test_shapes_and_counts(self):
        spec = SyntheticSpec(num_classes=4, resolution=16, train_per_class=12,
                             test_per_class=5)
        ds = generate_synthetic(spec, Rng(0))
        assert ds.train_pixels.shape == (48, 16, 16, 3)
        assert ds.test_pixels.shape == (20, 16, 16, 3)
        assert ds.train_labels.shape == (48,) and ds.test_labels.shape == (20,)
        assert ds.class_ids() == [0, 1, 2, 3]

    def test_deterministic_for_same_rng(self):
        spec = SyntheticSpec(num_classes=3, resolution=8, train_per_class=4,
                             test_per_class=2)
        a = generate_synthetic(spec, Rng(5))
        b = generate_synthetic(spec, Rng(5))
        for name in ("train_pixels", "train_labels", "test_pixels", "test_labels"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_patterns_fixed_by_pattern_seed_not_data_rng(self):
        spec = SyntheticSpec(num_classes=3, resolution=8)
        p1 = class_pattern(spec, 1)
        p2 = class_pattern(spec, 1)
        np.testing.assert_array_equal(p1, p2)
        other = class_pattern(SyntheticSpec(num_classes=3, resolution=8,
                                            pattern_seed=8), 1)
        assert not np.array_equal(p1, other)

    def test_classes_have_distinct_patterns(self):
        spec = SyntheticSpec(num_classes=6, resolution=16)
        pats = [class_pattern(spec, c) for c in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.abs(pats[i] - pats[j]).mean() > 1.0

    def test_noise_varies_between_samples(self):
        spec = SyntheticSpec(num_classes=1, resolution=8, train_per_class=2,
                             test_per_class=1)
        ds = generate_synthetic(spec, Rng(1))
        assert not np.array_equal(ds.train_pixels[0], ds.train_pixels[1])

    def test_values_stay_in_byte_range(self):
        spec = SyntheticSpec(num_classes=2, resolution=8, noise_amplitude=200.0)
        ds = generate_synthetic(spec, Rng(2))
        assert ds.train_pixels.dtype == np.uint8


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

    def test_partitions_classes_without_overlap(self):
        ds = self.dataset()
        stream = split_tasks(ds, 5, 2, Rng(0))
        assert stream.task_count == 5
        all_classes = set()
        for cs in stream.class_sets:
            assert len(cs) == 2
            assert not (cs & all_classes)
            all_classes |= cs
        assert all_classes == set(range(10))

    def test_task_items_match_class_sets(self):
        ds = self.dataset()
        stream = split_tasks(ds, 5, 2, Rng(1))
        for task, cs in zip(stream.train_tasks, stream.class_sets):
            assert set(ds.train_labels[task].tolist()) == cs
        for task, cs in zip(stream.test_tasks, stream.class_sets):
            assert set(ds.test_labels[task].tolist()) <= cs

    def test_every_train_image_appears_exactly_once(self):
        ds = self.dataset()
        stream = split_tasks(ds, 5, 2, Rng(2))
        assert stream.stream_length == len(ds.train_labels)
        visited = np.concatenate(stream.train_tasks)
        assert sorted(visited.tolist()) == list(range(len(ds.train_labels)))

    def test_class_order_depends_on_rng(self):
        ds = self.dataset()
        a = split_tasks(ds, 5, 2, Rng(3)).class_sets
        b = split_tasks(ds, 5, 2, Rng(4)).class_sets
        assert a != b

    def test_deterministic_for_same_rng(self):
        ds = self.dataset()
        a = split_tasks(ds, 5, 2, Rng(5))
        b = split_tasks(ds, 5, 2, Rng(5))
        assert a.class_sets == b.class_sets
        for ta, tb in zip(a.train_tasks, b.train_tasks):
            np.testing.assert_array_equal(ta, tb)

    def test_insufficient_classes_rejected(self):
        ds = self.dataset(num_classes=3)
        with pytest.raises(ConfigError):
            split_tasks(ds, 5, 2, Rng(0))


class TestAccuracyMatrix:
    def test_lower_triangle_only(self):
        m = AccuracyMatrix(3)
        m.set(1, 0, 0.5)
        with pytest.raises(ValueError):
            m.set(0, 1, 0.5)

    def test_range_validated(self):
        m = AccuracyMatrix(2)
        with pytest.raises(ValueError):
            m.set(0, 0, 1.5)

    def test_entries_row_major(self):
        m = AccuracyMatrix(2)
        m.set(0, 0, 0.25)
        m.set(1, 0, 0.5)
        m.set(1, 1, 0.75)
        assert m.entries() == [(0, 0, 0.25), (1, 0, 0.5), (1, 1, 0.75)]

    def test_final_row_gate(self):
        m = AccuracyMatrix(2)
        m.set(0, 0, 0.2)
        assert not m.final_row_complete
        with pytest.raises(StateError):
            average_end_accuracy(m)
        m.set(1, 0, 0.5)
        m.set(1, 1, 0.7)
        assert m.final_row_complete

    def test_average_end_accuracy_known_value(self):
        m = AccuracyMatrix(2)
        m.set(0, 0, 0.9)
        m.set(1, 0, 0.5)
        m.set(1, 1, 0.7)
        assert average_end_accuracy(m) == pytest.approx(0.6)

    def test_average_matches_recomputation_on_random_matrices(self):
        rng = Rng(6)
        for trial in range(20):
            n = int(rng.split(trial).integer(1, 7))
            m = AccuracyMatrix(n)
            values = rng.split(trial, 1).uniform(0.0, 1.0, (n, n))
            for t in range(n):
                for i in range(t + 1):
                    m.set(t, i, float(values[t, i]))
            expected = float(np.mean(values[n - 1, :n]))
            assert average_end_accuracy(m) == pytest.approx(expected, abs=1e-12)


def small_run(seed=0, mode=MODE_GPS, head="ncm", factor=2, replay_batch=16,
              replay_weight=1.0, classes=4, tasks=2):
    root = Rng(seed)
    spec = SyntheticSpec(num_classes=classes, resolution=8, train_per_class=10,
                         test_per_class=4)
    ds = generate_synthetic(spec, root.split(DOMAIN_DATA))
    stream = split_tasks(ds, tasks, classes // tasks, root.split(DOMAIN_TASK_SPLIT))
    params = L.init_params(8, 3, 16, 8, classes, root.split(DOMAIN_MODEL_INIT))
    buf = None
    if mode != "none":
        buf = ReplayBuffer(PixelBudget(4, 8), mode, root.split(DOMAIN_BUFFER),
                           factor=factor if mode == MODE_GPS else 1)
    cfg = OnlineConfig(stream_batch=5, replay_batch=replay_batch,
                       replay_weight=replay_weight, head=head)
    return run_online(stream, params, buf, cfg, root), stream


class TestRunOnline:
    def test_single_pass_visits_every_item_once(self):
        result, stream = small_run()
        assert result.visit_counts.shape == (stream.stream_length,)
        assert (result.visit_counts == 1).all()

    def test_buffer_holds_stream_items_with_their_labels(self):
        result, stream = small_run(seed=11, mode=MODE_FULL, factor=1, head="softmax")
        ds, buf = stream.dataset, result.buffer
        for slot in buf.occupied_indices:
            same = (ds.train_pixels == buf.slab[slot]).all(axis=(1, 2, 3))
            assert buf.labels[slot] in ds.train_labels[same]

    def test_offer_count_matches_stream_length(self):
        result, stream = small_run(seed=1)
        assert result.offer_count == stream.stream_length

    def test_matrix_is_complete_lower_triangle(self):
        result, stream = small_run(seed=2)
        m = result.matrix
        assert m.task_count == stream.task_count
        for t in range(m.task_count):
            for i in range(t + 1):
                assert 0.0 <= m.get(t, i) <= 1.0

    def test_deterministic_across_repeats(self):
        a, _ = small_run(seed=3)
        b, _ = small_run(seed=3)
        assert a.matrix.entries() == b.matrix.entries()
        for ta, tb in zip(a.final_params.tensors(), b.final_params.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_different_seed_changes_outcome(self):
        a, _ = small_run(seed=4)
        b, _ = small_run(seed=5)
        assert a.matrix.entries() != b.matrix.entries()

    def test_full_mode_and_softmax_head(self):
        result, _ = small_run(seed=6, mode=MODE_FULL, factor=1, head="softmax")
        assert result.matrix.final_row_complete

    def test_no_buffer_needs_softmax_head(self):
        with pytest.raises(ConfigError):
            small_run(seed=7, mode="none", head="ncm")

    def test_fine_tune_runs_without_buffer(self):
        result, _ = small_run(seed=8, mode="none", head="softmax",
                              replay_batch=0)
        assert result.buffer is None
        assert result.matrix.final_row_complete

    def test_factor_must_divide_resolution(self):
        with pytest.raises(ConfigError):
            small_run(seed=9, factor=3)

    def test_zero_replay_weight_matches_no_replay_draw(self):
        # lambda = 0 must leave the model exactly as a run that never draws
        a, _ = small_run(seed=10, replay_weight=0.0)
        b, _ = small_run(seed=10, replay_batch=0)
        for ta, tb in zip(a.final_params.tensors(), b.final_params.tensors()):
            np.testing.assert_array_equal(ta, tb)


class TestOnlineConfig:
    def test_defaults(self):
        cfg = OnlineConfig()
        assert cfg.stream_batch == 10
        assert cfg.replay_batch == 100
        assert cfg.learning_rate == pytest.approx(0.1)
        assert cfg.replay_weight == pytest.approx(1.0)
        assert cfg.head == "ncm"
        assert cfg.normalize_embeddings is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            OnlineConfig(stream_batch=0)
        with pytest.raises(ConfigError):
            OnlineConfig(replay_batch=-1)
        with pytest.raises(ConfigError):
            OnlineConfig(head="other")
        with pytest.raises(ConfigError):
            OnlineConfig(replay_units="bogus")

    def test_non_finite_floats_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="learning_rate"):
                OnlineConfig(learning_rate=bad)
            with pytest.raises(ConfigError, match="replay_weight"):
                OnlineConfig(replay_weight=bad)
            with pytest.raises(ConfigError, match="noise_amplitude"):
                SyntheticSpec(num_classes=2, resolution=8, noise_amplitude=bad)


class TestExperimentConfig:
    def test_parse_round_trip(self):
        cfg = ExperimentConfig(dataset="synthetic", tasks=3, classes_per_task=2,
                               synthetic_classes=6, seeds=(3, 4, 5),
                               factor=4, budget_images=8)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg

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

    def test_bool_words(self):
        assert parse_config("normalize_embeddings = true\n").normalize_embeddings
        with pytest.raises(ConfigError):
            parse_config("normalize_embeddings = yes\n")

    def test_seed_list(self):
        cfg = parse_config("seeds = 0, 1, 2\n")
        assert cfg.seeds == (0, 1, 2)

    def test_validate_catches_cross_field_rules(self):
        cfg = parse_config("buffer_mode = none\nhead = ncm\n")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_validate_ok_on_defaults(self):
        assert ExperimentConfig().validate() is not None

    def test_non_finite_floats_rejected(self):
        for text in ("learning_rate = nan\n", "synthetic_noise = inf\n",
                     "replay_weight = -inf\n", "synthetic_contrast = nan\n",
                     "image_test_fraction = nan\n"):
            with pytest.raises(ConfigError):
                parse_config(text).validate()

    def test_library_dataclasses_do_the_checking(self):
        # each field rule lives in the dataclass the library uses; validate
        # reaches it through the builders
        with pytest.raises(ConfigError, match="stream_batch"):
            parse_config("stream_batch = 0\n").validate()
        with pytest.raises(ConfigError, match="channels"):
            parse_config("synthetic_channels = 2\n").validate()
        cfg = parse_config("learning_rate = 0.5\nsynthetic_classes = 4\n")
        assert cfg.online_config().learning_rate == 0.5
        assert cfg.synthetic_spec().num_classes == 4
