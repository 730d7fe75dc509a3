"""Task streams, the single-pass online protocol, and evaluation metrics.

A class-incremental stream is an ordered list of tasks with disjoint class
sets; the runner visits every stream item exactly once, mixes each incoming
mini-batch with a replay batch, trains, then compresses the mini-batch with
one sampling draw and offers its items to the buffer one by one. After each
task it fills one row of the accuracy matrix by evaluating on all test sets
seen so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import learner as L
from .assembly import draw_replay_batch, grid_concat
from .buffer import MODE_GPS, ReplayBuffer
from .errors import ConfigError, FormatError, NumericalError, StateError
from .imaging import DOMAIN_REPLAY, DOMAIN_STREAM, Rng
from .sampler import gps_sample

CIFAR_RECORD_BYTES = 2 + 32 * 32 * 3

HEAD_NCM = "ncm"
HEAD_SOFTMAX = "softmax"
HEADS = (HEAD_NCM, HEAD_SOFTMAX)


def _check(ok, message):
    if not ok:
        raise ConfigError(message)


@dataclass
class Dataset:
    """Labeled train/test images from one source.

    Each split is an (N, r, r, C) uint8 pixel array and a length-N integer
    label vector.
    """

    train_pixels: np.ndarray
    train_labels: np.ndarray
    test_pixels: np.ndarray
    test_labels: np.ndarray

    def class_ids(self):
        return np.unique(self.train_labels).tolist()


@dataclass
class TaskStream:
    """Ordered tasks with mutually disjoint class sets and per-task test sets.

    Tasks are index vectors into the dataset's train and test arrays, so
    each pixel is stored once; train indices are in stream order.
    """

    dataset: Dataset
    train_tasks: list[np.ndarray]
    test_tasks: list[np.ndarray]
    class_sets: list[frozenset[int]]

    @property
    def task_count(self):
        return len(self.train_tasks)

    @property
    def stream_length(self):
        return sum(len(t) for t in self.train_tasks)

    def check_invariants(self):
        seen = set()
        for t, classes in enumerate(self.class_sets):
            if seen & classes:
                raise ValueError(f"task {t} shares classes {seen & classes} with earlier tasks")
            seen |= classes
            labels = np.concatenate([self.dataset.train_labels[self.train_tasks[t]],
                                     self.dataset.test_labels[self.test_tasks[t]]])
            stray = set(labels.tolist()) - classes
            if stray:
                raise ValueError(f"task {t} holds images labeled {sorted(stray)}")


class AccuracyMatrix:
    """Lower-triangular record: entry (t, i) is accuracy on task i after task t."""

    def __init__(self, task_count):
        if task_count < 1:
            raise ValueError(f"task count must be >= 1, got {task_count}")
        self.task_count = task_count
        self.values = np.full((task_count, task_count), np.nan)

    def set(self, t, i, accuracy):
        if not (0 <= i <= t < self.task_count):
            raise ValueError(f"entry ({t}, {i}) outside the lower triangle")
        if not (0.0 <= accuracy <= 1.0):
            raise ValueError(f"accuracy must lie in [0, 1], got {accuracy}")
        self.values[t, i] = accuracy

    def get(self, t, i):
        return float(self.values[t, i])

    def entries(self):
        """All filled (t, i, accuracy) triples in row-major order."""
        out = []
        for t in range(self.task_count):
            for i in range(t + 1):
                if not math.isnan(self.values[t, i]):
                    out.append((t, i, float(self.values[t, i])))
        return out

    @property
    def final_row_complete(self):
        last = self.values[self.task_count - 1, : self.task_count]
        return not np.isnan(last).any()

    def end_row(self):
        return [float(v) for v in self.values[self.task_count - 1]]


def average_end_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean of the final row: accuracy over all tasks after the last one."""
    if not matrix.final_row_complete:
        raise StateError("final accuracy row is incomplete")
    return float(np.mean(matrix.end_row()))


# --- dataset construction ---


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale dataset: smooth per-class patterns plus per-sample noise."""

    num_classes: int
    resolution: int
    channels: int = 3
    train_per_class: int = 100
    test_per_class: int = 20
    noise_amplitude: float = 20.0
    pattern_seed: int = 7
    pattern_contrast: float = 25.0
    # Dark baseline keeps [0,1]-scaled inputs small enough that SGD at the
    # default learning rate stays stable on a plain ReLU net.
    pattern_baseline: float = 32.0

    def __post_init__(self):
        for name in ("num_classes", "resolution", "train_per_class", "test_per_class"):
            value = getattr(self, name)
            _check(value >= 1, f"{name} must be >= 1, got {value}")
        _check(self.pattern_seed >= 0, f"pattern_seed must be >= 0, got {self.pattern_seed}")
        _check(self.channels in (1, 3), f"channels must be 1 or 3, got {self.channels}")
        noise, contrast = self.noise_amplitude, self.pattern_contrast
        _check(math.isfinite(noise) and noise >= 0,
               f"noise_amplitude must be finite and >= 0, got {noise}")
        _check(math.isfinite(contrast), f"pattern_contrast must be finite, got {contrast}")
        _check(0.0 <= self.pattern_baseline <= 255.0,
               f"pattern_baseline must lie in [0, 255], got {self.pattern_baseline}")


# Low spatial frequencies only, so class evidence survives patch sampling.
_PATTERN_WAVES = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 0))


def class_pattern(spec: SyntheticSpec, label) -> np.ndarray:
    """The smooth mean pattern of one class as a float64 HxWxC array."""
    rng = Rng(spec.pattern_seed).split(label)
    r = spec.resolution
    ys, xs = np.mgrid[0:r, 0:r].astype(np.float64)
    channels = []
    for _ in range(spec.channels):
        amps = rng.normal((len(_PATTERN_WAVES),))
        phases = rng.uniform(0.0, 2.0 * np.pi, (len(_PATTERN_WAVES),))
        acc = np.zeros((r, r))
        for (p, q), a, phi in zip(_PATTERN_WAVES, amps, phases):
            acc += a * np.cos(2.0 * np.pi * (p * ys + q * xs) / r + phi)
        scale = acc.std()
        if scale > 0:
            acc /= scale
        channels.append(spec.pattern_baseline + spec.pattern_contrast * acc)
    return np.clip(np.stack(channels, axis=-1), 0.0, 255.0)


# float64 noise values per draw (256 KB); an image larger than this is one draw.
_NOISE_CHUNK_VALUES = 1 << 15


def generate_synthetic(spec: SyntheticSpec, rng: Rng) -> Dataset:
    """Seeded noisy samples around each class pattern; train/test drawn separately."""
    patterns = [class_pattern(spec, c) for c in range(spec.num_classes)]
    shape = patterns[0].shape
    rows = max(1, _NOISE_CHUNK_VALUES // patterns[0].size)

    def draw(count, noise_rng):
        size = (spec.num_classes * count, *shape)
        try:
            pixels = np.empty(size, dtype=np.uint8)
            labels = np.repeat(np.arange(spec.num_classes), count)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(
                f"synthetic split of shape {size} cannot be allocated: {exc}") from None
        # Chunked draws yield the same normals as one draw per image.
        for c, pattern in enumerate(patterns):
            for start in range(c * count, (c + 1) * count, rows):
                noisy = noise_rng.normal((min(rows, (c + 1) * count - start), *shape))
                noisy *= spec.noise_amplitude
                noisy += pattern
                np.clip(np.rint(noisy, out=noisy), 0, 255, out=noisy)
                pixels[start : start + len(noisy)] = noisy
        return pixels, labels

    return Dataset(*draw(spec.train_per_class, rng.split(0)),
                   *draw(spec.test_per_class, rng.split(1)))


def load_cifar100(path):
    """Parse one CIFAR-100 binary file into (pixels, labels): per record, coarse
    byte + fine byte + 3072 channel-planar bytes. The fine label becomes the class id."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"file length {len(data)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    pixels = records[:, 2:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(pixels), records[:, 1].astype(np.int64)


def load_cifar100_dataset(train_path, test_path) -> Dataset:
    return Dataset(*load_cifar100(train_path), *load_cifar100(test_path))


def split_tasks(dataset: Dataset, task_count, classes_per_task, rng: Rng) -> TaskStream:
    """Assign classes to tasks by seeded shuffle; shuffle within-task sample order."""
    classes = dataset.class_ids()
    needed = task_count * classes_per_task
    if needed > len(classes):
        raise ConfigError(
            f"need {needed} classes for {task_count} tasks x {classes_per_task}, "
            f"dataset has {len(classes)}"
        )
    order = rng.shuffled(classes).tolist()
    train_tasks, test_tasks, class_sets = [], [], []
    for t in range(task_count):
        chosen = order[t * classes_per_task : (t + 1) * classes_per_task]
        train = np.flatnonzero(np.isin(dataset.train_labels, chosen))
        train_tasks.append(rng.shuffled(train))
        test_tasks.append(np.flatnonzero(np.isin(dataset.test_labels, chosen)))
        class_sets.append(frozenset(chosen))
    stream = TaskStream(dataset, train_tasks, test_tasks, class_sets)
    stream.check_invariants()
    return stream


# --- the online protocol ---


@dataclass
class OnlineConfig:
    """Knobs of one single-pass run (seed-independent; pass the Rng separately)."""

    stream_batch: int = 10
    replay_batch: int = 100  # stored exemplars; a gps replay image uses factor^2
    learning_rate: float = 0.1
    replay_weight: float = 1.0
    head: str = HEAD_NCM
    normalize_embeddings: bool = False

    def __post_init__(self):
        _check(self.stream_batch >= 1, f"stream_batch must be >= 1, got {self.stream_batch}")
        _check(self.replay_batch >= 0, f"replay_batch must be >= 0, got {self.replay_batch}")
        lr, weight = self.learning_rate, self.replay_weight
        _check(math.isfinite(lr) and lr > 0, f"learning_rate must be finite and > 0, got {lr}")
        _check(math.isfinite(weight), f"replay_weight must be finite, got {weight}")
        _check(self.head in HEADS, f"head must be one of {HEADS}, got {self.head!r}")


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    offer_count: int
    step_count: int
    final_params: L.ModelParams = None
    buffer: ReplayBuffer = None


def _replay_batch(buf, cfg, replay_rng):
    """(pixels, labels) of one replay batch, or None when nothing is replayed."""
    if buf is None or cfg.replay_batch == 0:
        return None
    if buf.mode == MODE_GPS:
        groups = draw_replay_batch(buf, cfg.replay_batch // buf.factor ** 2, replay_rng)
        return grid_concat(buf.slab[groups], buf.factor), buf.labels[groups[:, 0]]
    occupied = buf.occupied_indices
    if not len(occupied):
        return None
    take = min(cfg.replay_batch, len(occupied))
    chosen = occupied[replay_rng.choose(len(occupied), take)]
    return buf.slab[chosen], buf.labels[chosen]


def _evaluate_row(matrix, t, stream, params, buf, cfg):
    ds = stream.dataset
    if cfg.head == HEAD_NCM:
        prototypes = L.ncm_prototypes(params, buf, normalize=cfg.normalize_embeddings)
    for i in range(t + 1):
        test = stream.test_tasks[i]
        if not len(test):
            raise StateError(f"task {i} has an empty test set")
        if cfg.head == HEAD_NCM:
            preds = L.classify_batch(prototypes, params, ds.test_pixels[test],
                                     normalize=cfg.normalize_embeddings)
        else:
            preds = L.softmax_classify_batch(params, ds.test_pixels[test])
        matrix.set(t, i, float(np.mean(preds == ds.test_labels[test])))


def run_online(stream: TaskStream, params: L.ModelParams, buf: ReplayBuffer | None,
               cfg: OnlineConfig, rng: Rng) -> RunResult:
    """Single pass over the task stream; returns the accuracy matrix and counters.

    Per mini-batch: draw replay, take one SGD step on stream + replay, then
    (gps mode) compress the whole mini-batch with one `gps_sample` call on
    `rng.split(DOMAIN_STREAM, step)`, and offer its images in stream order,
    one reservoir draw each. On a numerical failure the partial result is
    attached to the raised error.
    """
    ds = stream.dataset
    if cfg.head == HEAD_NCM and buf is None:
        raise ConfigError("ncm head requires a replay buffer; use head=softmax")
    if buf is not None and buf.mode == MODE_GPS:
        f, resolution = buf.factor, buf.budget.resolution
        _check(resolution % f == 0,
               f"factor {f} must divide resolution {resolution} for replay training")
        _check(not 0 < cfg.replay_batch < f * f, f"replay_batch {cfg.replay_batch} < "
               f"factor^2 would replay nothing in gps mode; use 0 or >= {f * f}")
    matrix = AccuracyMatrix(stream.task_count)
    replay_rng = rng.split(DOMAIN_REPLAY)
    result = RunResult(matrix, 0, 0, params, buf)
    for t, task in enumerate(stream.train_tasks):
        for start in range(0, len(task), cfg.stream_batch):
            batch = task[start : start + cfg.stream_batch]
            pixels, labels = ds.train_pixels[batch], ds.train_labels[batch]
            replay = _replay_batch(buf, cfg, replay_rng)
            step = result.step_count
            try:
                L.train_step(params, (pixels, labels), replay, cfg.replay_weight,
                             cfg.learning_rate, step=step)
            except NumericalError as exc:
                exc.partial_result = result
                raise
            result.step_count += 1
            if buf is None:
                continue
            if buf.mode == MODE_GPS:
                pixels = gps_sample(pixels, buf.factor, rng.split(DOMAIN_STREAM, step))
            for item, label in zip(pixels, labels):
                buf.offer(item, label)
            result.offer_count += len(batch)
        _evaluate_row(matrix, t, stream, params, buf, cfg)
    return result
