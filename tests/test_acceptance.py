"""Acceptance suite: ten numbered criteria, one test each.

Criteria 7 and 8 run the full desk-scale experiment (10 seeds per mode); the
shared fixture computes all runs once.  Thresholds there were frozen after an
oracle run: a pixel-space nearest-mean classifier on sampled surrogates
reaches 1.00 accuracy on this dataset, GPS mode averaged 1.00, FULL ~0.88,
and the no-buffer control ~0.20, so the sign test (7) and the 15-point gap
(8) have wide margins.
"""

import hashlib
import json

import numpy as np
import pytest

import gpsbench.learner as L
from gpsbench.bench import average_end_accuracy
from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.cli import main as cli_main
from gpsbench.cli import run_one_seed
from gpsbench.config import ExperimentConfig
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample, grid_concat, grid_side, upsample


def random_image(rng, r):
    return rng.integers(0, 256, (r, r, 3)).astype(np.uint8)


def labeled_batch(rng, count, r, num_classes):
    """(pixels, labels) of `count` random images labeled k % num_classes."""
    pixels = np.stack([random_image(rng.split(k), r) for k in range(count)])
    return pixels, np.arange(count) % num_classes


def test_criterion_01_structural_laws():
    root = Rng(101)

    # shape law over the full factor/resolution grid
    for f in range(1, 9):
        for r in range(8, 65):
            if r // f == 0:
                continue
            img = random_image(root.split(0, f, r), r)
            s = gps_sample(img, f, root.split(1, f, r))
            assert s.shape[:2] == (r // f, r // f)

    # patch membership of every sampled pixel
    for trial in range(10):
        f = int(root.split(2, trial).integers(2, 5))
        r = f * int(root.split(3, trial).integers(2, 8))
        img = random_image(root.split(4, trial), r)
        s = gps_sample(img, f, root.split(5, trial))
        side = grid_side(f, r)
        for i in range(side):
            for j in range(side):
                patch = img[i * f:(i + 1) * f, j * f:(j + 1) * f].reshape(-1, 3)
                assert any(np.array_equal(s[i, j], px) for px in patch)

    # f = 1 identity
    for trial in range(20):
        img = random_image(root.split(6, trial), 16)
        s = gps_sample(img, 1, root.split(7, trial))
        np.testing.assert_array_equal(s, img)

    # grid_concat placement: constant quadrants land row-major
    parts = [np.full((2, 2, 3), v, dtype=np.uint8) for v in (10, 20, 30, 40)]
    tiled = grid_concat(parts, 2)
    assert (tiled[:2, :2] == 10).all() and (tiled[:2, 2:] == 20).all()
    assert (tiled[2:, :2] == 30).all() and (tiled[2:, 2:] == 40).all()

    # upsample repetition law
    one = np.full((1, 1, 3), 9, dtype=np.uint8)
    assert (upsample(one, 3) == 9).all()
    for trial in range(10):
        f = int(root.split(8, trial).integers(2, 5))
        side = int(root.split(9, trial).integers(1, 6))
        y = root.split(10, trial).integers(0, 256, (side, side, 3)).astype(np.uint8)
        up = upsample(y, f)
        for i in range(side):
            for j in range(side):
                assert (up[f * i:f * (i + 1), f * j:f * (j + 1)] == y[i, j]).all()

    # round trip: gps_sample(upsample(y)) == y bit-exactly, 100 seeds per factor
    for f in (2, 3, 4):
        for seed in range(100):
            rng = root.split(11, f, seed)
            side = int(rng.integers(1, 9))
            y = rng.split(0).integers(0, 256, (side, side, 3)).astype(np.uint8)
            again = gps_sample(upsample(y, f), f, rng.split(1))
            np.testing.assert_array_equal(again, y)


def test_criterion_02_budget_arithmetic():
    budget = PixelBudget(20, 32)
    rng = Rng(102)
    full = ReplayBuffer(budget, rng.split(0))
    gps = ReplayBuffer(budget, rng.split(1), factor=2)
    assert gps.slot_count == 4 * full.slot_count == 80

    # pixel budget honored under a 10^4-offer fuzz sequence
    buf = ReplayBuffer(budget, rng.split(2), factor=2)
    for k in range(10_000):
        img = random_image(rng.split(3, k), 32)
        buf.offer(gps_sample(img, 2, rng.split(4, k)), k % 9)
        assert buf.occupied_pixels <= budget.capacity_pixels


def test_criterion_03_reservoir_statistics():
    m, n, trials = 10, 100, 10_000
    counts = np.zeros(n)
    blank = np.zeros((4, 4, 3), dtype=np.uint8)
    for t in range(trials):
        buf = ReplayBuffer(PixelBudget(m, 4), Rng(t))
        # one batched offer makes the same draws as n single offers (TestBatchOffer)
        buf.offer(np.broadcast_to(blank, (n, 4, 4, 3)), np.arange(n))
        for label in buf.labels.tolist():
            counts[label] += 1
    # the statistic of the n-single-offers loop, bit for bit
    assert hashlib.sha256(counts.tobytes()).hexdigest() == (
        "4b0bf91dd466ec4cdc2c3b21d998c3bd6bad2214c27d9dc6b44535686d2cd140")
    freq = counts / trials
    p = m / n
    se = np.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(freq - p) <= 3 * se)

    # class-index map equals a from-slots recomputation after fuzz sequences
    rng = Rng(103)
    for trial in range(20):
        buf = ReplayBuffer(PixelBudget(5, 8), rng.split(trial),
                           factor=2)
        for k in range(int(rng.split(trial, 0).integers(1, 150))):
            img = random_image(rng.split(trial, 1, k), 8)
            buf.offer(gps_sample(img, 2, rng.split(trial, 2, k)), k % 6)
        recomputed = {}
        for slot, label in enumerate(buf.labels.tolist()):
            if label >= 0:
                recomputed.setdefault(label, []).append(slot)
        assert {c: slots.tolist()
                for c, slots in buf.class_slots().items()} == recomputed


def _numeric_gradients(params, stream, replay, lam, eps):
    def loss(p):
        X = L._to_matrix(p, stream[0])
        value = float(L._cross_entropy(
            L._forward_matrix(p, X)[3], stream[1]).mean())
        if replay is not None and lam != 0.0:
            Xr = L._to_matrix(p, replay[0])
            value += lam * float(L._cross_entropy(
                L._forward_matrix(p, Xr)[3], replay[1]).mean())
        return value

    grads = {}
    for name in ("W1", "b1", "W2", "b2", "Wc", "bc"):
        g = np.zeros_like(getattr(params, name), dtype=np.float64)
        it = np.nditer(g, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus, minus = params.copy(), params.copy()
            getattr(plus, name)[idx] += eps
            getattr(minus, name)[idx] -= eps
            g[idx] = (loss(plus) - loss(minus)) / (2 * eps)
        grads[name] = g
    return grads


def test_criterion_04_gradient_correctness():
    for lam in (0.0, 1.0):
        for dtype, tol, eps in ((np.float32, 1e-3, 1e-3), (np.float64, 1e-4, 1e-6)):
            rng = Rng(104)
            params = L.init_params(2, 3, 4, 3, 3, rng.split(1), dtype=dtype)
            params.b1 += dtype(0.05)
            stream = labeled_batch(rng.split(2), 5, 2, 3)
            replay = labeled_batch(rng.split(3), 3, 2, 3)
            stepped = params.copy()
            L.train_step(stepped, stream, replay, lam, 1.0)
            reference = params.copy()
            if dtype is np.float32:
                for name in ("W1", "b1", "W2", "b2", "Wc", "bc"):
                    setattr(reference, name,
                            getattr(reference, name).astype(np.float64))
            numeric = _numeric_gradients(reference, stream, replay, lam, eps)
            for name, num in numeric.items():
                analytic = (getattr(params, name)
                            - getattr(stepped, name)).astype(np.float64)
                denom = np.maximum(np.abs(num), 1e-6)
                assert (np.abs(analytic - num) / denom).max() < tol, (
                    f"{name} lam={lam} dtype={dtype}"
                )

    # lambda = 0 step is bit-identical to a stream-only step
    rng = Rng(105)
    stream = labeled_batch(rng.split(0), 6, 2, 2)
    replay = labeled_batch(rng.split(1), 4, 2, 2)
    a = L.init_params(2, 3, 8, 4, 2, rng.split(2))
    b = a.copy()
    L.train_step(a, stream, replay, 0.0, 0.1)
    L.train_step(b, stream, None, 1.0, 0.1)
    for ta, tb in zip(a.tensors(), b.tensors()):
        np.testing.assert_array_equal(ta, tb)


def test_criterion_05_ncm_oracle_equivalence():
    for seed in range(10):
        rng = Rng(200 + seed)
        params = L.init_params(8, 3, 16, 8, 4, rng.split(0))
        buf = ReplayBuffer(PixelBudget(4, 8), rng.split(1), factor=2)
        for k in range(100):
            img = random_image(rng.split(2, k), 8)
            buf.offer(gps_sample(img, 2, rng.split(3, k)), k % 4)

        labels, means = L.ncm_prototypes(params, buf)
        sums, counts = {}, {}
        for item, label in zip(buf.slab, buf.labels.tolist()):
            emb = L.embed_batch(params, upsample(item, 2)[None])[0].astype(np.float64)
            sums[label] = sums.get(label, 0.0) + emb
            counts[label] = counts.get(label, 0) + 1
        assert labels.tolist() == sorted(sums)
        for label, mean in zip(labels.tolist(), means):
            np.testing.assert_allclose(
                mean.astype(np.float64), sums[label] / counts[label], atol=1e-6)
        assert buf.class_counts() == counts

        queries, _ = labeled_batch(rng.split(4), 15, 8, 1)
        preds = L.classify_batch((labels, means), params, queries)
        for q, pred in zip(queries, preds):
            emb = L.embed_batch(params, q[None])[0]
            scan = [(float(((emb - mean) ** 2).sum()), label)
                    for label, mean in zip(labels.tolist(), means)]
            best = min(d for d, _ in scan)
            assert pred == min(lbl for d, lbl in scan if d == best)

    # constructed equidistant case breaks toward the smaller class id
    labels = np.array([3, 6])
    means = np.array([[-2.0, 0.0], [2.0, 0.0]], dtype=np.float32)
    query = np.zeros((1, 2), dtype=np.float32)
    assert L.classify_embedding(labels, means, query).tolist() == [3]


def test_criterion_06_metric_correctness():
    m = np.full((2, 2), np.nan)
    m[0, 0] = 1.0
    m[1, 0] = 0.5
    m[1, 1] = 0.7
    assert average_end_accuracy(m) == pytest.approx(0.6, abs=1e-12)

    rng = Rng(106)
    for trial in range(25):
        n = int(rng.split(trial).integers(1, 8))
        values = rng.split(trial, 1).uniform(0.0, 1.0, (n, n))
        m = np.full((n, n), np.nan)
        for t in range(n):
            for i in range(t + 1):
                m[t, i] = values[t, i]
        assert average_end_accuracy(m) == pytest.approx(
            float(np.mean(values[n - 1])), abs=1e-12)


def _desk_scale_run(seed, mode, head="ncm"):
    # the config defaults are the desk experiment
    return run_one_seed(ExperimentConfig(buffer_mode=mode, head=head, seeds=(seed,)),
                        seed)["a_end"]


@pytest.fixture(scope="module")
def desk_scale_results():
    # seed by seed, so that the three arms share each seed's data
    results = {"gps": [], "full": [], "finetune": []}
    for s in range(10):
        results["gps"].append(_desk_scale_run(s, "gps"))
        results["full"].append(_desk_scale_run(s, "full"))
        results["finetune"].append(_desk_scale_run(s, "none", head="softmax"))
    return results


def test_criterion_07_gps_beats_full_at_low_budget(desk_scale_results):
    gps = float(np.mean(desk_scale_results["gps"]))
    full = float(np.mean(desk_scale_results["full"]))
    assert gps >= full, f"mean A_N: gps={gps:.4f} full={full:.4f}"


def test_criterion_08_fine_tune_collapse(desk_scale_results):
    gps = float(np.mean(desk_scale_results["gps"]))
    finetune = float(np.mean(desk_scale_results["finetune"]))
    assert finetune <= gps - 0.15, (
        f"mean A_N: gps={gps:.4f} finetune={finetune:.4f}"
    )


def test_criterion_09_scope_exclusions_documented():
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    # full-scale benchmark numbers, GPU profiling, and deep-backbone results
    # are declared out of scope rather than silently missing
    assert "out of scope" in text
    assert "desk scale" in text or "desk-scale" in text


CRITERION_10_CONFIG = (
    "dataset = synthetic\n"
    "synthetic_classes = 6\n"
    "synthetic_resolution = 16\n"
    "synthetic_train_per_class = 20\n"
    "synthetic_test_per_class = 5\n"
    "tasks = 3\n"
    "classes_per_task = 2\n"
    "budget_images = 8\n"
    "stream_batch = 5\n"
    "replay_batch = 16\n"
    "seeds = 0,1\n"
)


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(CRITERION_10_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    for seed in (0, 1):
        name = f"seed_{seed}_matrix.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# sha256 of the outputs of the criterion-10 config, recorded before the data
# path moved from per-image objects to arrays. A change to any random stream
# or to the arithmetic of a run shows up here and must update these on
# purpose. The matrices are all 1.0 on this small config, so the buffer
# report (per-class exemplar counts) pins the random streams as well.
GOLDEN_SHA256 = {
    "seed_0_matrix.csv": "b2ceac3c77174a5e272f223be10f0990cc6b5a0235e1e2640e812418aea667ed",
    "seed_1_matrix.csv": "b2ceac3c77174a5e272f223be10f0990cc6b5a0235e1e2640e812418aea667ed",
    "seed_0_buffer.gpsb": "346b93069f409f10fc7de36ffe48d0a6243be1860828d6f6fbbfa7493c29d3bd",
    "seed_1_buffer.gpsb": "289a4d9a20b30d480aa5d4de38e90d567da9dd9c5f9f6a627b9dc2cb39a03014",
}


def test_golden_outputs_of_criterion_10_config(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(CRITERION_10_CONFIG)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    got = {}
    for name in GOLDEN_SHA256:
        if name.endswith(".gpsb"):
            # the snapshot format may change; its inspect-buffer report may not
            capsys.readouterr()
            assert cli_main(["inspect-buffer", str(out / name)]) == 0
            data = capsys.readouterr().out.encode()
        else:
            data = (out / name).read_bytes()
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN_SHA256


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence is the point
def test_diverging_run_writes_partial_artifacts(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(CRITERION_10_CONFIG + "learning_rate = 1000000\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 4
    for seed in (0, 1):
        assert (out / f"seed_{seed}_matrix.partial.csv").exists()
        assert not (out / f"seed_{seed}_end.csv").exists()
    assert not (out / "summary.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_failure"
    assert [r["status"] for r in manifest["runs"]] == ["numerical_failure"] * 2
