import re
import tracemalloc

import numpy as np
import pytest

import gpsbench.learner as L
from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.errors import NumericalError
from gpsbench.imaging import DRAW_CHUNK_VALUES, Rng
from gpsbench.sampler import gps_sample, upsample


def tiny_images(rng, count, r=1, channels=3, num_classes=2):
    """A labeled batch: (count, r, r, channels) pixels and labels k % num_classes."""
    pixels = np.stack([rng.split(k).integers(0, 256, (r, r, channels)).astype(np.uint8)
                       for k in range(count)])
    return pixels, np.arange(count) % num_classes


def combined_loss(params, stream, replay, lam):
    X = L._to_matrix(params, stream[0])
    ls = L._softmax_cross_entropy(L._embed(params, X @ params.W1)[2] @ params.Wc + params.bc, stream[1])[1]
    total = float(ls.mean())
    if replay is not None and lam != 0.0:
        Xr = L._to_matrix(params, replay[0])
        lr = L._softmax_cross_entropy(L._embed(params, Xr @ params.W1)[2] @ params.Wc + params.bc, replay[1])[1]
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

    def test_empty_stream_batch_rejected(self):
        params = L.init_params(2, 3, 8, 4, 2, Rng(13).split(1))
        empty = np.zeros((0, 2, 2, 3), dtype=np.uint8), np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="^stream batch must be non-empty"):
            L.train_step(params, empty, None, 1.0, 0.1)

    def test_non_finite_state_raises_numerical_error(self):
        rng = Rng(11)
        params = L.init_params(2, 3, 8, 4, 2, rng.split(1))
        params.W1[0, 0] = np.inf
        stream = tiny_images(rng.split(2), 2, r=2)
        with pytest.raises(NumericalError, match="non-finite training loss"):
            L.train_step(params, stream, None, 1.0, 0.1)

    def test_update_that_overflows_raises_numerical_error(self):
        # the loss is finite, so only the check after the update can catch it
        rng = Rng(12)
        params = L.init_params(4, 3, 8, 4, 3, rng.split(1))
        params.W2 *= np.float32(1e18)
        params.Wc *= np.float32(1e18)
        stream = tiny_images(rng.split(2), 3, r=4, num_classes=3)
        with pytest.raises(NumericalError, match="^non-finite parameters after update$"):
            L.train_step(params, stream, None, 1.0, 1e4)


def as_float64(params):
    p64 = params.copy()
    for name in ("W1", "b1", "W2", "b2", "Wc", "bc"):
        setattr(p64, name, getattr(p64, name).astype(np.float64))
    return p64


def concatenated_step(params, stream, replay, lam, lr):
    """The step with every row at the model's side: the stream and replay
    pixels concatenated, one first-layer product each way."""
    pixels = np.concatenate([stream[0], replay[0]])
    labels = np.concatenate([stream[1], replay[1]]).astype(np.intp)
    n_stream, n_replay = len(stream[1]), len(replay[1])
    dtype = params.W1.dtype
    X = L._to_matrix(params, pixels)
    h_pre = X @ params.W1 + params.b1
    h = np.maximum(h_pre, 0)
    emb = h @ params.W2 + params.b2
    logits = emb @ params.Wc + params.bc
    weights = np.empty(len(labels), dtype=dtype)
    weights[:n_stream] = dtype.type(1.0) / dtype.type(n_stream)
    weights[n_stream:] = dtype.type(lam) / dtype.type(n_replay)
    d_logits = L._softmax_cross_entropy(logits, labels)[0]
    d_logits[np.arange(len(labels)), labels] -= 1
    d_logits *= weights[:, None]
    d_emb = d_logits @ params.Wc.T
    d_h = d_emb @ params.W2.T
    d_h *= h_pre > 0
    grads = (X.T @ d_h, d_h.sum(axis=0), h.T @ d_emb, d_emb.sum(axis=0),
             emb.T @ d_logits, d_logits.sum(axis=0))
    for param, grad in zip(params.tensors(), grads):
        grad *= dtype.type(lr)
        param -= grad


class TestSurrogateReplay:
    """Replay rows of side input_side / f train as their upsampled images."""

    @pytest.mark.parametrize("dtype, tol, floor", [(np.float64, 1e-4, 1e-8),
                                                   (np.float32, 1e-3, 1e-6)])
    def test_finite_difference_at_factor_two(self, dtype, tol, floor):
        # the loss is taken through the upsample oracle at full resolution
        rng = Rng(20)
        params = L.init_params(4, 3, 4, 3, 3, rng.split(1), dtype=dtype)
        params.b1 += dtype(0.05)  # keep ReLUs off the kink
        stream = tiny_images(rng.split(2), 5, r=4, num_classes=3)
        surrogates, labels = tiny_images(rng.split(3), 3, r=2, num_classes=3)
        analytic = analytic_gradients(params, stream, (surrogates, labels), 1.0)
        numeric = numeric_gradients(as_float64(params), stream,
                                    (upsample(surrogates, 2), labels), 1.0, eps=1e-6)
        for name in analytic:
            denom = np.maximum(np.abs(numeric[name]), floor)
            rel = np.abs(analytic[name].astype(np.float64) - numeric[name]) / denom
            assert rel.max() < tol, f"{name}: {rel.max():.2e}"

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("f", [2, 4])
    def test_pooled_step_matches_upsampled_step(self, f, channels):
        rng = Rng(30 + f + channels)
        a = L.init_params(16, channels, 32, 16, 4, rng.split(1))
        b = a.copy()
        stream = tiny_images(rng.split(2), 6, r=16, channels=channels, num_classes=4)
        surrogates, labels = tiny_images(rng.split(3), 5, r=16 // f, channels=channels,
                                         num_classes=4)
        for _ in range(3):
            ra = L.train_step(a, stream, (surrogates, labels), 1.0, 0.1)
            rb = L.train_step(b, stream, (upsample(surrogates, f), labels), 1.0, 0.1)
            assert ra.replay_size == rb.replay_size == 5
            assert ra.combined_loss == pytest.approx(rb.combined_loss, rel=1e-5)
        for name, ta, tb in zip(("W1", "b1", "W2", "b2", "Wc", "bc"), a.tensors(), b.tensors()):
            np.testing.assert_allclose(ta, tb, rtol=1e-5, atol=1e-6, err_msg=name)

    def test_factor_one_is_bit_identical_to_concatenated_products(self):
        # a desk-sized model: 32x32x3 input, 128 hidden, 64 embedding units
        rng = Rng(40)
        a = L.init_params(32, 3, 128, 64, 10, rng.split(1))
        b = a.copy()
        for step in range(3):
            stream = tiny_images(rng.split(2, step), 10, r=32, num_classes=10)
            replay = tiny_images(rng.split(3, step), 25, r=32, num_classes=10)
            L.train_step(a, stream, replay, 1.0, 0.1)
            concatenated_step(b, stream, replay, 1.0, 0.1)
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)

    @pytest.mark.parametrize("shape", [(5, 5, 3), (32, 32, 3), (8, 8, 1), (8, 4, 3)])
    def test_replay_side_must_divide_the_model_side(self, shape):
        rng = Rng(50)
        params = L.init_params(16, 3, 8, 4, 2, rng.split(1))
        stream = tiny_images(rng.split(2), 2, r=16)
        replay = np.zeros((3, *shape), dtype=np.uint8), np.zeros(3, dtype=int)
        before = params.copy()
        with pytest.raises(ValueError, match=re.escape(f"{shape}") + ".*"
                           + re.escape("(16, 16, 3)")):
            L.train_step(params, stream, replay, 1.0, 0.1)
        for ta, tb in zip(params.tensors(), before.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_stream_off_the_model_side_fails_before_the_concatenation(self):
        # a full-size replay batch would be concatenated with the stream
        rng = Rng(51)
        params = L.init_params(32, 3, 8, 4, 2, rng.split(1))
        stream = tiny_images(rng.split(2), 2, r=16)
        replay = tiny_images(rng.split(3), 3, r=32)
        before = param_bytes(params)
        with pytest.raises(ValueError, match=re.escape("(16, 16, 3)") + ".*do not match "
                           "model input " + re.escape("(32, 32, 3)")):
            L.train_step(params, stream, replay, 1.0, 0.1)
        assert param_bytes(params) == before


def unblocked_update_W1(params, X, d_h, Xs, d_hs, f, step_size):
    """The W1 update as one whole gradient: X.T @ d_h, the block add of the
    surrogate gradient, then the scale and the subtraction, each over all of
    W1; the oracle for `_update_W1`."""
    dW1 = X.T @ d_h
    if Xs is not None:
        side = params.input_side // f
        blocks = dW1.reshape(side, f, side, f, -1)  # a view of dW1
        blocks += np.dot(Xs.T, d_hs).reshape(side, 1, side, 1, -1)
    dW1 *= step_size
    params.W1 -= dW1
    return bool(np.isfinite(params.W1).all())


def param_bytes(params):
    return [t.tobytes() for t in params.tensors()]


class TestBlockedW1Update:
    """train_step updates W1 in row blocks, bit-identically to one whole
    gradient, and holds no gradient the size of W1. Bit-identity rests on
    BLAS giving a block of rows the values of those rows of the whole
    product: under OPENBLAS_CORETYPE=Haswell, 8-row blocks (8x8x1 at f = 1,
    one_patch_row) with 8 or 13 input rows differ, so those cases fail."""

    # (side, channels, hidden, f); f = 1 replays full-size rows. 20x20x3 at
    # f = 2 has 10 rows of patches, and 256 KB blocks hold 4 of them.
    SHAPES = [(8, 1, 16, 1), (8, 3, 16, 2), (16, 3, 32, 4), (20, 3, 128, 2), (12, 1, 24, 2)]

    @pytest.mark.parametrize("block_bytes", [1, L.W1_BLOCK_BYTES],
                             ids=["one_patch_row", "default"])
    @pytest.mark.parametrize("side, channels, hidden, f", SHAPES)
    @pytest.mark.parametrize("replay", ["surrogates", "one_surrogate", "none", "weight_zero"])
    @pytest.mark.parametrize("n_stream", [1, 7])
    def test_equals_the_unblocked_update(self, monkeypatch, side, channels, hidden, f,
                                         replay, n_stream, block_bytes):
        monkeypatch.setattr(L, "W1_BLOCK_BYTES", block_bytes)
        rng = Rng(60 + side + channels + f)
        a = L.init_params(side, channels, hidden, 8, 4, rng.split(1))
        b = a.copy()
        for step in range(4):
            stream = tiny_images(rng.split(2, step), n_stream, r=side, channels=channels,
                                 num_classes=4)
            surrogates = tiny_images(rng.split(3, step), 6, r=side // f, channels=channels,
                                     num_classes=4)
            batch, weight = {"surrogates": (surrogates, 1.0),
                             "one_surrogate": ((surrogates[0][:1], surrogates[1][:1]), 1.0),
                             "none": (None, 1.0), "weight_zero": (surrogates, 0.0)}[replay]
            L.train_step(a, stream, batch, weight, 0.1)
            with monkeypatch.context() as m:
                m.setattr(L, "_update_W1", unblocked_update_W1)
                L.train_step(b, stream, batch, weight, 0.1)
            assert param_bytes(a) == param_bytes(b), f"step {step}"

    def test_blocks_hold_whole_patch_rows(self, monkeypatch):
        # 20x20x3 at f = 2: 120 W1 rows per row of patches, 4 of them per
        # block; each block is checked for finiteness once it is updated
        shapes = []
        finite = L._finite

        def recording_finite(t):
            shapes.append(t.shape)
            return finite(t)

        monkeypatch.setattr(L, "_finite", recording_finite)
        rng = Rng(70)
        params = L.init_params(20, 3, 128, 8, 4, rng.split(1))
        L.train_step(params, tiny_images(rng.split(2), 3, r=20, num_classes=4),
                     tiny_images(rng.split(3), 6, r=10, num_classes=4), 1.0, 0.1)
        assert shapes == [(480, 128), (480, 128), (240, 128),
                          (128,), (128, 8), (8,), (8, 4), (4,)]

    def test_overflow_in_a_middle_block_raises_after_every_block_is_updated(
            self, monkeypatch):
        # 8x8x1 at f = 2 in blocks of one row of patches: W1 rows 16-31 are
        # the second of four blocks. The four W1 rows of the surrogate pixel
        # (1, 0) hold +M, +M, -M, -M, so they pool to exactly 0 and the forward
        # pass stays finite; the stream rows are 0 there. Each of the four rows
        # takes the same gradient, so a large enough step overflows one sign.
        monkeypatch.setattr(L, "W1_BLOCK_BYTES", 1)
        rng = Rng(80)
        params = L.init_params(8, 1, 8, 4, 3, rng.split(1))
        params.W2 *= np.float32(10)
        params.b1 += np.float32(0.5)  # the surrogates' hidden units are b1 alone
        stream_pixels = rng.split(2).integers(1, 256, (2, 8, 8, 1)).astype(np.uint8)
        stream_pixels[:, 2:4, 0:2] = 0
        stream = stream_pixels, np.array([0, 1])
        surrogates = np.zeros((4, 4, 4, 1), dtype=np.uint8)
        surrogates[:, 1, 0] = 255
        replay = surrogates, np.array([2, 2, 2, 2])
        patch = [16, 17, 24, 25]
        params.W1[patch] = 0
        probe = params.copy()
        L.train_step(probe, stream, replay, 100.0, 1.0)
        gradients = [t - u for t, u in zip(params.tensors(), probe.tensors())]
        step_size = 2.5e38 / np.abs(gradients[0][patch]).max()
        assert max(np.abs(g).max() for g in gradients) * step_size < 3e38
        params.W1[patch] = np.float32(1e38) * np.array([1, 1, -1, -1], np.float32)[:, None]
        oracle = params.copy()
        with pytest.raises(NumericalError, match="^non-finite parameters after update$"):
            L.train_step(params, stream, replay, 100.0, step_size)
        bad_rows = np.flatnonzero(~np.isfinite(params.W1).all(axis=1))
        assert len(bad_rows) and set(bad_rows) <= set(patch)
        assert all(np.isfinite(t).all() for t in params.tensors()[1:])
        monkeypatch.setattr(L, "_update_W1", unblocked_update_W1)
        with pytest.raises(NumericalError):
            L.train_step(oracle, stream, replay, 100.0, step_size)
        assert param_bytes(params) == param_bytes(oracle)

    def test_peak_memory_is_below_one_W1(self):
        # wide-gps's shapes: 32x32x3 input, 128 hidden units, 10 stream rows
        # and 100 surrogates at f = 2
        rng = Rng(90)
        params = L.init_params(32, 3, 128, 64, 10, rng.split(1))
        stream = tiny_images(rng.split(2), 10, r=32, num_classes=10)
        replay = tiny_images(rng.split(3), 100, r=16, num_classes=10)
        L.train_step(params, stream, replay, 1.0, 0.1)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            L.train_step(params, stream, replay, 1.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rise, limit = peak - entry, params.W1.nbytes
        assert rise < limit


def filled_buffer(seed, mode="gps", r=8, f=2, budget=4, classes=3,
                  offers=120):
    rng = Rng(seed)
    factor = f if mode == "gps" else 1
    buf, buf_rng = ReplayBuffer(PixelBudget(budget, r), factor=factor), rng.split(0)
    for k in range(offers):
        img = rng.split(1, k).integers(0, 256, (r, r, 3)).astype(np.uint8)
        item = gps_sample(img, factor, rng.split(2, k))
        buf.offer(item, k % classes, buf_rng)
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
        buf, buf_rng = ReplayBuffer(PixelBudget(3, 8)), rng.split(2)
        for label in (5, 3, 0):  # descending; slot k holds the k-th offer
            img = rng.split(3, label).integers(0, 256, (8, 8, 3)).astype(np.uint8)
            buf.offer(img, label, buf_rng)
        assert buf.labels.tolist() == [5, 3, 0]
        labels, means = L.ncm_prototypes(params, buf)
        assert labels.tolist() == [0, 3, 5]
        for label, mean in zip(labels.tolist(), means):
            direct = L.embed_batch(params, buf.slab[buf.labels == label])[0]
            np.testing.assert_allclose(mean, direct, atol=1e-6)

    def test_empty_buffer_raises(self):
        rng = Rng(400)
        params = L.init_params(8, 3, 16, 8, 3, rng.split(1))
        buf = ReplayBuffer(PixelBudget(4, 8), factor=2)
        with pytest.raises(ValueError, match="empty buffer"):
            L.ncm_prototypes(params, buf)

    def test_gps_exemplars_are_upsampled_before_embedding(self):
        # a model whose input side equals the full resolution accepts GPS
        # exemplars only via upsampling; a smooth check: prototype from one
        # exemplar equals embedding of its upsampled image
        rng = Rng(500)
        params = L.init_params(8, 3, 16, 8, 2, rng.split(1))
        buf = ReplayBuffer(PixelBudget(1, 8), factor=2)
        img = rng.split(3).integers(0, 256, (8, 8, 3)).astype(np.uint8)
        s = gps_sample(img, 2, rng.split(4))
        buf.offer(s, 1, rng.split(2))
        _, means = L.ncm_prototypes(params, buf)
        direct = L.embed_batch(params, upsample(s, 2)[None])[0]
        np.testing.assert_allclose(means[0], direct, atol=1e-6)

    @pytest.mark.parametrize("f", [2, 4, 8])
    def test_pooled_first_layer_matches_upsampled_oracle(self, f):
        # a desk-sized model: 32x32x3 input, 128 hidden, 64 embedding units
        params = L.init_params(32, 3, 128, 64, 3, Rng(700 + f))
        buf = filled_buffer(710 + f, r=32, f=f)
        labels, means = L.ncm_prototypes(params, buf)
        expected, _ = brute_force_prototypes(params, buf)
        assert labels.tolist() == sorted(expected)
        for label, mean in zip(labels.tolist(), means):
            np.testing.assert_allclose(mean.astype(np.float64), expected[label], atol=1e-6)

    def test_factor_one_is_the_unpooled_embedding_bit_for_bit(self):
        params = L.init_params(32, 3, 128, 64, 3, Rng(720))
        buf = filled_buffer(721, mode="full", r=32)
        labels, means = L.ncm_prototypes(params, buf)
        for label, mean in zip(labels.tolist(), means):
            direct = L.embed_batch(params, buf.slab[buf.labels == label]).mean(axis=0)
            assert np.array_equal(mean, direct)

    def test_factor_one_pooled_W1_is_W1(self):
        params = L.init_params(8, 3, 16, 8, 3, Rng(722))
        assert np.shares_memory(L._pooled_W1(params, 1), params.W1)

    def test_full_buffer_prototypes_copy_no_W1(self):
        # desk's shapes: 32x32x3 input, 128 hidden units, a full buffer of
        # 20 images; the first layer takes W1 itself, not a pooled copy
        params = L.init_params(32, 3, 128, 64, 10, Rng(723))
        buf = filled_buffer(724, mode="full", r=32, budget=20, classes=10)
        L.ncm_prototypes(params, buf)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            L.ncm_prototypes(params, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rise, limit = peak - entry, params.W1.nbytes
        assert rise < limit

    # (32, 3): a side-10 slab at the buffer's own factor, yet 10 does not divide 32
    @pytest.mark.parametrize("resolution, f", [(16, 1), (16, 2), (30, 4), (32, 3)])
    def test_buffer_must_upsample_to_the_model_side(self, resolution, f):
        params = L.init_params(32, 3, 128, 64, 3, Rng(730))
        buf = filled_buffer(731, r=resolution, f=f)
        slab, before = buf.slab.tobytes(), param_bytes(params)
        with pytest.raises(ValueError, match="do not match model input"):
            L.ncm_prototypes(params, buf)
        assert (buf.slab.tobytes(), param_bytes(params)) == (slab, before)


class TestSoftmaxHead:
    def test_predicts_argmax_logit(self):
        rng = Rng(600)
        params = L.init_params(4, 3, 8, 4, 3, rng.split(1))
        images, _ = tiny_images(rng.split(2), 10, r=4, num_classes=3)
        preds = L.softmax_classify_batch(params, images)
        x = images.reshape(len(images), -1).astype(np.float32) / np.float32(255)
        h = np.maximum(x @ params.W1 + params.b1, 0)
        logits = (h @ params.W2 + params.b2) @ params.Wc + params.bc
        np.testing.assert_array_equal(preds, logits.argmax(axis=1))

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(601)
        logits = rng.standard_normal((6, 4)) * 30
        p = L._softmax_cross_entropy(logits, np.arange(6) % 4)[0]
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p >= 0).all()


def two_pass_softmax(logits):
    """The softmax of the two-pass step, kept as the reference."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def two_pass_cross_entropy(logits, labels):
    """The cross-entropy of the two-pass step, kept as the reference."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return log_norm - z[np.arange(len(labels)), labels]


class TestSoftmaxCrossEntropy:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_two_pass_formulas_bit_for_bit(self, dtype):
        rng = Rng(602)
        cases = [rng.split(k).standard_normal((7, 5)) * 30 for k in range(30)]
        cases.append(np.full((1, 5), 2.5))  # equal logits
        # spans of 1000: beyond -745 every exp but the largest's underflows to
        # 0, in float64 as in float32
        cases.append(np.array([[500.0, -500, -300, -250, -400],
                               [-900, -1000, 100, -800, -700]]))
        for k, logits in enumerate(cases):
            logits = logits.astype(dtype)
            labels = rng.split(100, k).integers(0, 5, len(logits))
            probs, losses = L._softmax_cross_entropy(logits, labels)
            for got, want in ((probs, two_pass_softmax(logits)),
                              (losses, two_pass_cross_entropy(logits, labels))):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()
            assert np.isfinite(losses).all()
        assert (probs == 0).sum() == 8  # the underflowed exps


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

    # a row larger than a chunk; rows not a multiple of the rows per chunk
    # (3,000 rows of 128 in chunks of 256); and one value
    @pytest.mark.parametrize("shape", [(2, DRAW_CHUNK_VALUES + 1), (3000, 128), (1, 1)],
                             ids=["row_above_chunk", "partial_last_chunk", "one_value"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_glorot_equals_one_draw(self, shape, dtype):
        rng, reference = Rng(810).split(1), Rng(810).split(1)
        W = L._glorot(rng, *shape, dtype)
        limit = np.sqrt(6.0 / sum(shape))
        expected = reference.uniform(-limit, limit, shape).astype(dtype)
        assert W.dtype == dtype
        np.testing.assert_array_equal(W, expected)
        np.testing.assert_array_equal(rng.uniform(size=4), reference.uniform(size=4))


class TestAllFinite:
    """`_finite`, the check train_step makes of every tensor it updates."""

    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2", "Wc", "bc"])
    def test_nan_or_infinity_in_any_tensor_is_caught(self, name):
        params = L.init_params(2, 3, 8, 4, 2, Rng(820).split(1))
        assert all(L._finite(t) for t in params.tensors())
        for value in (np.nan, np.inf, -np.inf):
            broken = params.copy()
            getattr(broken, name).flat[-1] = value
            assert not L._finite(getattr(broken, name)), value

    def test_finite_entries_whose_sum_of_squares_overflows_are_finite(self):
        params = L.init_params(2, 3, 8, 4, 2, Rng(821).split(1))
        params.W1[...] = np.float32(2e19)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(params.W1.ravel(), params.W1.ravel()))
            assert all(L._finite(t) for t in params.tensors())
