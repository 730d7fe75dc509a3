import struct

import numpy as np
import pytest

import gpsbench.learner as L
from gpsbench.assembly import upsample
from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.errors import EmptyStateError, FormatError, NumericalError
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample


def tiny_images(rng, count, r=1, channels=3, num_classes=2):
    """A labeled batch: (count, r, r, channels) pixels and labels k % num_classes."""
    pixels = np.stack([rng.split(k).integers(0, 256, (r, r, channels)).astype(np.uint8)
                       for k in range(count)])
    return pixels, np.arange(count) % num_classes


def combined_loss(params, stream, replay, lam):
    X = L._to_matrix(params, stream[0])
    ls = L._cross_entropy(L._forward_matrix(params, X)[3], stream[1])
    total = float(ls.mean())
    if replay is not None and lam != 0.0:
        Xr = L._to_matrix(params, replay[0])
        lr = L._cross_entropy(L._forward_matrix(params, Xr)[3], replay[1])
        total += lam * float(lr.mean())
    return total


def numeric_gradients(params, stream, replay, lam, eps):
    grads = {}
    for name in ("W1", "b1", "W2", "b2", "Wc", "bc"):
        g = np.zeros_like(getattr(params, name))
        it = np.nditer(g, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = params.copy()
            getattr(plus, name)[idx] += eps
            minus = params.copy()
            getattr(minus, name)[idx] -= eps
            g[idx] = (combined_loss(plus, stream, replay, lam)
                      - combined_loss(minus, stream, replay, lam)) / (2 * eps)
        grads[name] = g
    return grads


def analytic_gradients(params, stream, replay, lam):
    # recover the update direction from one unit-lr step
    stepped = params.copy()
    L.train_step(stepped, stream, replay, lam, 1.0)
    return {name: getattr(params, name) - getattr(stepped, name)
            for name in ("W1", "b1", "W2", "b2", "Wc", "bc")}


class TestGradients:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_finite_difference_float64(self, lam):
        rng = Rng(0)
        params = L.init_params(2, 3, 4, 3, 3, rng.split(1), dtype=np.float64)
        params.b1 += 0.05  # keep ReLUs off the kink
        stream = tiny_images(rng.split(2), 5, r=2, num_classes=3)
        replay = tiny_images(rng.split(3), 3, r=2, num_classes=3)
        analytic = analytic_gradients(params, stream, replay, lam)
        numeric = numeric_gradients(params, stream, replay, lam, eps=1e-6)
        for name in analytic:
            denom = np.maximum(np.abs(numeric[name]), 1e-8)
            rel = np.abs(analytic[name] - numeric[name]) / denom
            assert rel.max() < 1e-4, f"{name}: {rel.max():.2e}"

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_finite_difference_float32(self, lam):
        rng = Rng(4)
        params = L.init_params(2, 3, 4, 3, 3, rng.split(1), dtype=np.float32)
        params.b1 += np.float32(0.05)
        stream = tiny_images(rng.split(2), 5, r=2, num_classes=3)
        replay = tiny_images(rng.split(3), 3, r=2, num_classes=3)
        analytic = analytic_gradients(params, stream, replay, lam)
        p64 = params.copy()
        for name in ("W1", "b1", "W2", "b2", "Wc", "bc"):
            setattr(p64, name, getattr(p64, name).astype(np.float64))
        numeric = numeric_gradients(p64, stream, replay, lam, eps=1e-6)
        for name in analytic:
            denom = np.maximum(np.abs(numeric[name]), 1e-6)
            rel = np.abs(analytic[name].astype(np.float64) - numeric[name]) / denom
            assert rel.max() < 1e-3, f"{name}: {rel.max():.2e}"

    def test_ten_parameter_model_matches_central_differences(self):
        # 3 inputs -> 1 hidden -> 1 embedding -> 2 classes: 3+1+1+1+2+2 = 10
        rng = Rng(5)
        params = L.init_params(1, 3, 1, 1, 2, rng.split(1), dtype=np.float64)
        params.b1 += 0.2
        assert sum(t.size for t in params.tensors()) == 10
        stream = tiny_images(rng.split(2), 4)
        replay = tiny_images(rng.split(3), 2)
        analytic = analytic_gradients(params, stream, replay, 1.0)
        numeric = numeric_gradients(params, stream, replay, 1.0, eps=1e-3)
        for name in analytic:
            denom = np.maximum(np.abs(numeric[name]), 1e-8)
            rel = np.abs(analytic[name] - numeric[name]) / denom
            assert rel.max() < 1e-3, f"{name}: {rel.max():.2e}"

    def test_lambda_zero_is_bit_identical_to_stream_only(self):
        rng = Rng(6)
        stream = tiny_images(rng.split(2), 6, r=2)
        replay = tiny_images(rng.split(3), 4, r=2)
        a = L.init_params(2, 3, 8, 4, 2, rng.split(1))
        b = a.copy()
        L.train_step(a, stream, replay, 0.0, 0.1)
        L.train_step(b, stream, None, 1.0, 0.1)
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_one_step_decreases_loss_on_single_example(self):
        rng = Rng(7)
        params = L.init_params(2, 3, 8, 4, 2, rng.split(1), dtype=np.float64)
        example = tiny_images(rng.split(2), 1, r=2)
        before = combined_loss(params, example, None, 0.0)
        L.train_step(params, example, None, 0.0, 1e-3)
        after = combined_loss(params, example, None, 0.0)
        assert after < before

    def test_replay_contributes_when_weighted(self):
        rng = Rng(8)
        stream = tiny_images(rng.split(2), 4, r=2)
        replay = tiny_images(rng.split(3), 4, r=2)
        a = L.init_params(2, 3, 8, 4, 2, rng.split(1))
        b = a.copy()
        L.train_step(a, stream, replay, 1.0, 0.1)
        L.train_step(b, stream, None, 1.0, 0.1)
        assert any(
            not np.array_equal(ta, tb) for ta, tb in zip(a.tensors(), b.tensors())
        )

    def test_report_fields(self):
        rng = Rng(9)
        stream = tiny_images(rng.split(2), 4, r=2)
        replay = tiny_images(rng.split(3), 2, r=2)
        params = L.init_params(2, 3, 8, 4, 2, rng.split(1))
        rep = L.train_step(params, stream, replay, 1.0, 0.1)
        assert rep.stream_size == 4 and rep.replay_size == 2
        assert rep.combined_loss == pytest.approx(
            rep.stream_loss + rep.replay_loss, rel=1e-5
        )

    def test_label_out_of_range_rejected(self):
        rng = Rng(10)
        params = L.init_params(2, 3, 8, 4, 2, rng.split(1))
        bad = np.zeros((1, 2, 2, 3), dtype=np.uint8), np.array([5])
        with pytest.raises(ValueError):
            L.train_step(params, bad, None, 1.0, 0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises_numerical_error(self):
        rng = Rng(11)
        params = L.init_params(2, 3, 8, 4, 2, rng.split(1))
        params.W1[0, 0] = np.inf
        stream = tiny_images(rng.split(2), 2, r=2)
        with pytest.raises(NumericalError):
            L.train_step(params, stream, None, 1.0, 0.1, step=17)
        try:
            L.train_step(params, stream, None, 1.0, 0.1, step=17)
        except NumericalError as exc:
            assert "17" in str(exc)


def filled_buffer(seed, mode="gps", r=8, f=2, budget=4, classes=3,
                  offers=120):
    rng = Rng(seed)
    factor = f if mode == "gps" else 1
    buf = ReplayBuffer(PixelBudget(budget, r), rng.split(0), factor=factor)
    for k in range(offers):
        img = rng.split(1, k).integers(0, 256, (r, r, 3)).astype(np.uint8)
        item = gps_sample(img, factor, rng.split(2, k))
        buf.offer(item, k % classes)
    return buf


def brute_force_prototypes(params, buf):
    sums, counts = {}, {}
    for item, label in zip(buf.slab, buf.labels.tolist()):
        if label < 0:
            continue
        img = upsample(item, buf.factor)
        emb = L.embed_batch(params, img[None])[0].astype(np.float64)
        sums[label] = sums.get(label, 0.0) + emb
        counts[label] = counts.get(label, 0) + 1
    return {c: sums[c] / counts[c] for c in sums}, counts


class TestNcm:
    @pytest.mark.parametrize("mode", ["gps", "full"])
    def test_prototypes_match_brute_force(self, mode):
        for seed in range(10):
            rng = Rng(100 + seed)
            params = L.init_params(8, 3, 16, 8, 3, rng.split(1))
            buf = filled_buffer(seed, mode=mode)
            labels, means = L.ncm_prototypes(params, buf)
            expected, counts = brute_force_prototypes(params, buf)
            assert labels.tolist() == sorted(expected)
            for label, mean in zip(labels.tolist(), means):
                np.testing.assert_allclose(
                    mean.astype(np.float64), expected[label], atol=1e-6)
            assert buf.class_counts() == counts

    def test_classification_matches_exhaustive_scan(self):
        for seed in range(10):
            rng = Rng(300 + seed)
            params = L.init_params(8, 3, 16, 8, 3, rng.split(1))
            buf = filled_buffer(seed)
            protos = L.ncm_prototypes(params, buf)
            queries, _ = tiny_images(rng.split(2), 20, r=8, num_classes=3)
            got = L.classify_batch(protos, params, queries)
            for q, pred in zip(queries, got):
                emb = L.embed_batch(params, q[None])[0]
                best, best_d = None, None
                for label, mean in sorted(zip(protos[0].tolist(), protos[1])):
                    d = float(((emb - mean) ** 2).sum())
                    if best_d is None or d < best_d:
                        best, best_d = label, d
                assert pred == best

    def test_tie_breaks_toward_smaller_class_id(self):
        emb_dim = 4
        labels = np.array([2, 7])
        means = np.array([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]], dtype=np.float32)
        # query equidistant from both prototypes
        query = np.zeros((1, emb_dim), dtype=np.float32)
        assert L.classify_embedding(labels, means, query).tolist() == [2]

    def test_labels_ascend_whatever_the_fill_order(self):
        rng = Rng(401)
        params = L.init_params(8, 3, 16, 8, 6, rng.split(1))
        buf = ReplayBuffer(PixelBudget(3, 8), rng.split(2))
        for label in (5, 3, 0):  # descending; slot k holds the k-th offer
            img = rng.split(3, label).integers(0, 256, (8, 8, 3)).astype(np.uint8)
            buf.offer(img, label)
        assert buf.labels.tolist() == [5, 3, 0]
        labels, means = L.ncm_prototypes(params, buf)
        assert labels.tolist() == [0, 3, 5]
        for label, mean in zip(labels.tolist(), means):
            direct = L.embed_batch(params, buf.slab[buf.labels == label])[0]
            np.testing.assert_allclose(mean, direct, atol=1e-6)

    def test_empty_buffer_raises(self):
        rng = Rng(400)
        params = L.init_params(8, 3, 16, 8, 3, rng.split(1))
        buf = ReplayBuffer(PixelBudget(4, 8), rng.split(2), factor=2)
        with pytest.raises(EmptyStateError):
            L.ncm_prototypes(params, buf)

    def test_gps_exemplars_are_upsampled_before_embedding(self):
        # a model whose input side equals the full resolution accepts GPS
        # exemplars only via upsampling; a smooth check: prototype from one
        # exemplar equals embedding of its upsampled image
        rng = Rng(500)
        params = L.init_params(8, 3, 16, 8, 2, rng.split(1))
        buf = ReplayBuffer(PixelBudget(1, 8), rng.split(2), factor=2)
        img = rng.split(3).integers(0, 256, (8, 8, 3)).astype(np.uint8)
        s = gps_sample(img, 2, rng.split(4))
        buf.offer(s, 1)
        _, means = L.ncm_prototypes(params, buf)
        direct = L.embed_batch(params, upsample(s, 2)[None])[0]
        np.testing.assert_allclose(means[0], direct, atol=1e-6)


class TestSoftmaxHead:
    def test_predicts_argmax_logit(self):
        rng = Rng(600)
        params = L.init_params(4, 3, 8, 4, 3, rng.split(1))
        images, _ = tiny_images(rng.split(2), 10, r=4, num_classes=3)
        preds = L.softmax_classify_batch(params, images)
        logits = L.logits_batch(params, images)
        np.testing.assert_array_equal(preds, logits.argmax(axis=1))

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(601)
        logits = rng.standard_normal((6, 4)) * 30
        p = L.softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p >= 0).all()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = Rng(700)
        params = L.init_params(4, 3, 8, 4, 5, rng.split(1))
        path = tmp_path / "model.gpsm"
        L.save_params(path, params)
        back = L.load_params(path)
        assert back.input_side == 4 and back.num_classes == 5
        for ta, tb in zip(params.tensors(), back.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_forward_agrees_after_reload(self, tmp_path):
        rng = Rng(701)
        params = L.init_params(4, 3, 8, 4, 5, rng.split(1))
        images, _ = tiny_images(rng.split(2), 6, r=4, num_classes=5)
        path = tmp_path / "model.gpsm"
        L.save_params(path, params)
        back = L.load_params(path)
        np.testing.assert_array_equal(
            L.logits_batch(params, images), L.logits_batch(back, images))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gpsm"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FormatError):
            L.load_params(path)

    def test_truncated(self, tmp_path):
        rng = Rng(702)
        params = L.init_params(4, 3, 8, 4, 5, rng.split(1))
        path = tmp_path / "model.gpsm"
        L.save_params(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            L.load_params(path)

    def test_hostile_header_dimensions_rejected(self, tmp_path):
        # W1 of (2^34, 2^30) floats: 2^64, which np.prod wraps to 0 in int64;
        # zero hidden units: an empty (2^72, 0) W1, which numpy cannot shape
        path = tmp_path / "hostile.gpsm"
        for dims in ((2 ** 17, 1, 2 ** 30, 1, 1), (2 ** 24, 2 ** 24, 0, 3, 4)):
            path.write_bytes(L.CHECKPOINT_MAGIC + struct.pack("<5I", *dims))
            with pytest.raises(FormatError):
                L.load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = Rng(703)
        params = L.init_params(4, 3, 8, 4, 5, rng.split(1))
        path = tmp_path / "model.gpsm"
        L.save_params(path, params)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(FormatError):
            L.load_params(path)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        rng = Rng(800)
        params = L.init_params(4, 3, 8, 4, 5, rng.split(1))
        d = params.W1.shape[0]
        assert d == 4 * 4 * 3 == 48
        limit = np.sqrt(6.0 / (d + 8))
        assert np.abs(params.W1).max() <= limit
        assert (params.b1 == 0).all() and (params.b2 == 0).all()
        assert (params.bc == 0).all()

    def test_seeded_reproducibility(self):
        a = L.init_params(4, 3, 8, 4, 5, Rng(9).split(1))
        b = L.init_params(4, 3, 8, 4, 5, Rng(9).split(1))
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)
