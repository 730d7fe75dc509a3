"""Datasets and their loaders, task streams, the single-pass online protocol,
and evaluation metrics.

A class-incremental stream is an ordered list of tasks with disjoint class
sets; the runner visits every stream item exactly once, mixes each incoming
mini-batch with a replay batch, trains, then compresses the mini-batch with
one sampling draw and offers it to the buffer with one reservoir call. A
task's sampling, offer and replay draws each continue one generator keyed
by (seed, domain, task), so a run between tasks holds no generator. After
each task it fills one row of the accuracy matrix by evaluating on all test
sets seen so far.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import learner as L
from .buffer import PixelBudget, ReplayBuffer, draw_replay_batch
from .config import ExperimentConfig
from .errors import ConfigError, FormatError, NumericalError
from .imaging import (DOMAIN_BUFFER, DOMAIN_MODEL_INIT, DOMAIN_REPLAY, DOMAIN_STREAM,
                      DRAW_CHUNK_VALUES, Rng, load_ppm, require_square)
from .sampler import gps_sample

CIFAR_RECORD_BYTES = 2 + 32 * 32 * 3
_IMAGE_TEST_FRACTION = 0.2


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


@dataclass
class TaskStream:
    """Ordered tasks with mutually disjoint class sets and per-task test sets.

    Tasks are index vectors into the dataset's train and test arrays, so
    each pixel and label is stored once; train indices are in stream order.
    """

    dataset: Dataset
    train_tasks: list[np.ndarray]
    test_tasks: list[np.ndarray]


def average_end_accuracy(matrix: np.ndarray) -> float:
    """Mean of the final row of a (T, T) accuracy matrix, in which entry
    (t, i) is the accuracy on task i after task t and NaN marks an entry
    not yet written: accuracy over all tasks after the last one."""
    end_row = matrix[-1]
    if np.isnan(end_row).any():
        raise ValueError("final accuracy row is incomplete")
    return float(np.mean(end_row))


@contextmanager
def _allocating(what):
    """Report a MemoryError or ValueError in the block as a ConfigError."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{what} cannot be allocated: {exc}") from None


# --- dataset construction ---


# Low spatial frequencies only, so class evidence survives patch sampling.
_PATTERN_WAVES = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 0))
_PATTERN_SEED = 7
_PATTERN_CONTRAST = 25.0
_PATTERN_BASELINE = 32.0  # dark, so [0,1]-scaled inputs keep default-rate SGD stable


def class_pattern(config: ExperimentConfig, label) -> np.ndarray:
    """The smooth mean pattern of one class as a float64 HxWxC array."""
    rng = Rng(_PATTERN_SEED).split(label)
    r = config.synthetic_resolution
    ys, xs = np.mgrid[0:r, 0:r].astype(np.float64)
    channels = []
    for _ in range(config.synthetic_channels):
        amps = rng.standard_normal((len(_PATTERN_WAVES),))
        phases = rng.uniform(0.0, 2.0 * np.pi, (len(_PATTERN_WAVES),))
        acc = np.zeros((r, r))
        for (p, q), a, phi in zip(_PATTERN_WAVES, amps, phases):
            acc += a * np.cos(2.0 * np.pi * (p * ys + q * xs) / r + phi)
        scale = acc.std()
        if scale > 0:
            acc /= scale
        channels.append(_PATTERN_BASELINE + _PATTERN_CONTRAST * acc)
    return np.clip(np.stack(channels, axis=-1), 0.0, 255.0)


def generate_synthetic(config: ExperimentConfig, rng: Rng) -> Dataset:
    """Seeded noisy samples around each class pattern; train/test drawn separately.

    Both splits are allocated before any class pattern is built, so a split
    too large to allocate is a ConfigError however many classes it asks for.
    """
    classes, r = config.synthetic_classes, config.synthetic_resolution
    shape = (r, r, config.synthetic_channels)

    def allocate(count):
        size = (classes * count, *shape)
        with _allocating(f"synthetic split of shape {size}"):
            return (np.empty(size, dtype=np.uint8), np.repeat(np.arange(classes), count))

    counts = (config.synthetic_train_per_class, config.synthetic_test_per_class)
    splits = [allocate(count) for count in counts]
    patterns = [class_pattern(config, c) for c in range(classes)]
    rows = max(1, DRAW_CHUNK_VALUES // patterns[0].size)
    for (pixels, _), count, noise_rng in zip(splits, counts, (rng.split(0), rng.split(1))):
        # Chunked draws yield the same normals as one draw per image.
        for c, pattern in enumerate(patterns):
            for start in range(c * count, (c + 1) * count, rows):
                noisy = noise_rng.standard_normal((min(rows, (c + 1) * count - start), *shape))
                with np.errstate(over="ignore"):  # an overflow is +-inf, clipped to 255 or 0
                    noisy *= config.synthetic_noise
                noisy += pattern
                np.clip(np.rint(noisy, out=noisy), 0, 255, out=noisy)
                pixels[start : start + len(noisy)] = noisy
    return Dataset(*splits[0], *splits[1])


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


def load_image_dir(root, rng: Rng) -> Dataset:
    """Per-class subdirectories of PPM files; seeded per-class train/test split.

    A class directory is named by its class id, below 2^31, in ASCII decimal
    digits; two names for one id (such as "1" and "01") are a ConfigError.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"image_dir {root} is not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise ConfigError(f"image_dir {root} contains no class subdirectories")
    shape = None
    names = {}  # class id -> directory name
    train, test = [], []  # per class: (pixels, label)
    for d in class_dirs:
        # buffer labels and the snapshot label field are int32
        if not (d.name.isascii() and d.name.isdigit()) or int(d.name) >= 2 ** 31:
            raise ConfigError(
                f"class directory name {d.name!r} is not an integer in [0, 2^31)")
        label = int(d.name)
        if label in names:
            raise ConfigError(f"class directories {names[label]!r} and {d.name!r} "
                              f"both name class {label}")
        names[label] = d.name
        files = sorted(d.glob("*.ppm"))
        if not files:
            raise ConfigError(f"class directory {d} holds no .ppm files")
        images = [load_ppm(f) for f in files]
        shape = shape or images[0].shape
        for f, img in zip(files, images):
            if img.shape != shape:
                raise ConfigError(f"mixed image sizes: {f} is {img.shape[0]}x{img.shape[1]}, "
                                  f"expected {shape[0]}x{shape[1]}")
        pixels = rng.split(label).permutation(images)
        n_test = max(1, int(round(len(pixels) * _IMAGE_TEST_FRACTION)))
        if n_test >= len(pixels):
            raise ConfigError(
                f"class {label}: {len(pixels)} images cannot support a test split"
            )
        test.append((pixels[:n_test], label))
        train.append((pixels[n_test:], label))

    def stack(parts):
        return (np.concatenate([pixels for pixels, _ in parts]),
                np.concatenate([np.full(len(pixels), label) for pixels, label in parts]))

    return Dataset(*stack(train), *stack(test))


def split_tasks(dataset: Dataset, task_count, classes_per_task, rng: Rng) -> TaskStream:
    """Assign classes to tasks by seeded shuffle; shuffle within-task sample order.

    Classes are drawn from the train labels, so a task's train indices hold
    all its classes; a task whose classes have no test image is a FormatError.
    """
    # not np.unique: without return_index it imports all of numpy.ma
    classes = sorted(set(dataset.train_labels.tolist()))
    needed = task_count * classes_per_task
    if needed > len(classes):
        raise ConfigError(
            f"need {needed} classes for {task_count} tasks x {classes_per_task}, "
            f"dataset has {len(classes)}"
        )
    order = rng.permutation(classes).tolist()
    train_tasks, test_tasks = [], []
    for t in range(task_count):
        chosen = order[t * classes_per_task : (t + 1) * classes_per_task]
        train = np.flatnonzero(np.isin(dataset.train_labels, chosen))
        train_tasks.append(rng.permutation(train))
        test = np.flatnonzero(np.isin(dataset.test_labels, chosen))
        if not len(test):
            raise FormatError(f"task {t} has no test images of its classes {sorted(chosen)}")
        test_tasks.append(test)
    return TaskStream(dataset, train_tasks, test_tasks)


# --- the online protocol ---


@dataclass
class RunResult:
    """A run's whole state between tasks: every draw of a task is keyed by
    the seed and the task, so no generator outlives one."""

    matrix: np.ndarray  # (T, T) float64; NaN where no entry is written
    params: L.ModelParams
    buf: ReplayBuffer | None
    step_count: int
    failure: str | None = None  # the ending NumericalError's message and where


def start_run(stream: TaskStream, config: ExperimentConfig, rng: Rng) -> RunResult:
    """The state of a run before its first task: the model the config
    describes, with an output for each class id up to the tasks' largest
    train label, on `rng.split(DOMAIN_MODEL_INIT)`; its empty buffer (None at
    buffer_mode = none); and an all-NaN accuracy matrix."""
    ds = stream.dataset
    resolution = require_square(ds.train_pixels[0])
    channels = ds.train_pixels.shape[3]
    num_classes = max(int(ds.train_labels[task].max()) for task in stream.train_tasks) + 1
    with _allocating(f"a model for {num_classes} classes"):
        params = L.init_params(resolution, channels, config.hidden_units,
                               config.embedding_units, num_classes,
                               rng.split(DOMAIN_MODEL_INIT))
    buf = None
    if config.buffer_mode != "none":
        # a full buffer is the factor-1 buffer, whatever `factor` says
        factor = config.factor if config.buffer_mode == "gps" else 1
        with _allocating(f"a buffer of budget_images = {config.budget_images}"):
            buf = ReplayBuffer(PixelBudget(config.budget_images, resolution),
                               factor=factor, channels=channels)
        if resolution % factor:
            raise ConfigError(
                f"factor {factor} must divide resolution {resolution} for replay training")
    return RunResult(np.full((len(stream.train_tasks),) * 2, np.nan), params, buf, 0)


def run_task(result: RunResult, stream: TaskStream, config: ExperimentConfig, rng: Rng, t):
    """Train task t's mini-batches, then fill row t of the matrix by
    evaluating on every task seen so far.

    Per mini-batch: draw replay_batch // factor^2 stored surrogates, take one
    SGD step on stream + replay with the surrogates at their own resolution
    (each trains as its upsampled full-resolution row), then (at factor > 1)
    compress the whole mini-batch with one `gps_sample` call, and offer it
    with one `buf.offer` call, which decides for its images in stream order.
    A run with a buffer splits one generator per task for each kind of draw,
    which the task's mini-batches continue in turn: `rng.split(DOMAIN_BUFFER,
    t)` for `offer`, `rng.split(DOMAIN_REPLAY, t)` for the replay draw and, at
    factor > 1, `rng.split(DOMAIN_STREAM, t)` for `gps_sample`. So every draw
    of task t depends on the seed, the domain and t alone.

    A NumericalError from a step sets `failure` to its message and the step,
    and returns with row t unwritten. The row is computed whole before it is
    written: a NumericalError from the evaluation (non-finite logits or NCM
    distances) sets `failure` to its message and "(in the evaluation after
    task t)", and row t stays NaN too.
    """
    ds, params, buf = stream.dataset, result.params, result.buf
    task = stream.train_tasks[t]
    replay = sampler = None
    if buf is not None:
        offers, draws = rng.split(DOMAIN_BUFFER, t), rng.split(DOMAIN_REPLAY, t)
        if buf.factor > 1:  # factor 1 keeps every pixel
            sampler = rng.split(DOMAIN_STREAM, t)
    for start in range(0, len(task), config.stream_batch):
        batch = task[start : start + config.stream_batch]
        pixels, labels = ds.train_pixels[batch], ds.train_labels[batch]
        if buf is not None:
            # replay_batch counts stored samples, f^2 per surrogate
            slots = draw_replay_batch(buf, config.replay_batch // buf.factor ** 2, draws)
            replay = buf.slab[slots], buf.labels[slots]
        try:
            L.train_step(params, (pixels, labels), replay, 1.0, config.learning_rate)
        except NumericalError as exc:
            result.failure = f"{exc} (at training step {result.step_count})"
            return
        result.step_count += 1
        if buf is None:
            continue
        if sampler is not None:
            pixels = gps_sample(pixels, buf.factor, sampler)
        buf.offer(pixels, labels, offers)
    tests = stream.test_tasks[:t + 1]
    try:
        if config.head == "ncm":
            prototypes = L.ncm_prototypes(params, buf)
            preds = [L.classify_batch(prototypes, params, ds.test_pixels[test]) for test in tests]
        else:
            preds = [L.softmax_classify_batch(params, ds.test_pixels[test]) for test in tests]
    except NumericalError as exc:
        result.failure = f"{exc} (in the evaluation after task {t})"
        return
    result.matrix[t, :t + 1] = [np.mean(p == ds.test_labels[test]) for p, test in zip(preds, tests)]


def run_online(stream: TaskStream, config: ExperimentConfig, rng: Rng) -> RunResult:
    """Single pass over the task stream with the model and buffer the config
    describes: `start_run`, then one `run_task` per task until one fails."""
    result = start_run(stream, config, rng)
    for t in range(len(stream.train_tasks)):
        run_task(result, stream, config, rng, t)
        if result.failure is not None:
            break
    return result
