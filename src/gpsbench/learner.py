"""Embedding network + softmax head with manual gradients, and NCM inference.

The network is a two-layer MLP: pixels in [0,1] -> hidden (ReLU) ->
embedding (affine) -> class logits (affine). Training takes one SGD step on
   mean_ce(stream batch) + replay_weight * mean_ce(replay batch)
per call. Inference offers the softmax head or nearest-class-mean over
buffered exemplars, upsampled by the buffer's factor to the model resolution.

Batches are (n, side, side, C) uint8 pixel arrays; a labeled batch is a
(pixels, labels) pair.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .assembly import upsample
from .buffer import ReplayBuffer
from .errors import EmptyStateError, FormatError, NumericalError
from .imaging import Rng

CHECKPOINT_MAGIC = b"GPSM"


@dataclass
class ModelParams:
    """All trainable tensors plus the input geometry they assume."""

    input_side: int
    channels: int
    hidden_units: int
    embedding_units: int
    num_classes: int
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wc: np.ndarray
    bc: np.ndarray

    def tensors(self):
        return [self.W1, self.b1, self.W2, self.b2, self.Wc, self.bc]

    def all_finite(self):
        return all(np.isfinite(t).all() for t in self.tensors())

    def copy(self):
        return ModelParams(self.input_side, self.channels, self.hidden_units,
                           self.embedding_units, self.num_classes,
                           *[t.copy() for t in self.tensors()])


@dataclass(frozen=True)
class TrainStepReport:
    combined_loss: float
    stream_loss: float
    replay_loss: float
    stream_size: int
    replay_size: int


def _glorot(rng: Rng, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out)).astype(dtype)


def init_params(input_side, channels, hidden_units, embedding_units, num_classes,
                rng: Rng, dtype=np.float32) -> ModelParams:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    return ModelParams(
        input_side, channels, hidden_units, embedding_units, num_classes,
        W1=_glorot(rng, input_side * input_side * channels, hidden_units, dtype),
        b1=np.zeros(hidden_units, dtype=dtype),
        W2=_glorot(rng, hidden_units, embedding_units, dtype),
        b2=np.zeros(embedding_units, dtype=dtype),
        Wc=_glorot(rng, embedding_units, num_classes, dtype),
        bc=np.zeros(num_classes, dtype=dtype),
    )


def _to_matrix(params: ModelParams, pixels) -> np.ndarray:
    """Flatten an (n, side, side, C) batch into an (n, side * side * C) matrix of [0,1] reals."""
    expected = (params.input_side, params.input_side, params.channels)
    if pixels.shape[1:] != expected:
        raise ValueError(f"input images of shape {pixels.shape[1:]} do not match "
                         f"model input {expected}")
    dtype = params.W1.dtype
    X = pixels.reshape(len(pixels), -1).astype(dtype)
    X /= dtype.type(255)
    return X


def _forward_matrix(params: ModelParams, X):
    """Returns (hidden pre-activation, hidden, embeddings, logits)."""
    h_pre = X @ params.W1 + params.b1
    h = np.maximum(h_pre, 0)
    emb = h @ params.W2 + params.b2
    logits = emb @ params.Wc + params.bc
    return h_pre, h, emb, logits


def embed_batch(params: ModelParams, pixels) -> np.ndarray:
    return _forward_matrix(params, _to_matrix(params, pixels))[2]


def logits_batch(params: ModelParams, pixels) -> np.ndarray:
    return _forward_matrix(params, _to_matrix(params, pixels))[3]


def softmax(logits):
    """Row-wise stable softmax."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(logits, labels):
    """Per-row -log softmax(logits)[label], numerically stable."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return log_norm - z[np.arange(len(labels)), labels]


def train_step(params: ModelParams, stream_batch, replay_batch, replay_weight, lr,
               step=None) -> TrainStepReport:
    """One in-place SGD step on the combined stream + weighted replay loss.

    Both batches are (pixels, labels) pairs. `replay_batch` may be None or
    hold no rows; with replay_weight == 0 the replay pass is skipped
    entirely, so the update is bit-identical to a stream-only step.
    """
    stream_pixels, stream_labels = stream_batch
    if not len(stream_labels):
        raise ValueError("stream batch must be non-empty")
    use_replay = (replay_batch is not None and len(replay_batch[1]) > 0
                  and replay_weight != 0.0)
    if use_replay:
        pixels = np.concatenate([stream_pixels, replay_batch[0]])
        labels = np.concatenate([stream_labels, replay_batch[1]]).astype(np.intp)
    else:
        pixels, labels = stream_pixels, np.asarray(stream_labels, dtype=np.intp)
    if labels.min() < 0 or labels.max() >= params.num_classes:
        raise ValueError(
            f"labels must lie in [0, {params.num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    dtype = params.W1.dtype
    n_stream = len(stream_labels)
    n_replay = len(labels) - n_stream

    X = _to_matrix(params, pixels)
    h_pre, h, emb, logits = _forward_matrix(params, X)
    losses = _cross_entropy(logits, labels)
    stream_loss = float(losses[:n_stream].mean())
    replay_loss = float(losses[n_stream:].mean()) if use_replay else 0.0
    combined = stream_loss + float(replay_weight) * replay_loss
    if not np.isfinite(combined):
        raise NumericalError(
            f"non-finite training loss (stream={stream_loss}, replay={replay_loss})",
            step=step,
        )

    # d(combined)/d(logits): softmax minus one-hot, row-weighted so that each
    # term contributes the mean over its own batch.
    weights = np.empty(len(labels), dtype=dtype)
    weights[:n_stream] = dtype.type(1.0) / dtype.type(n_stream)
    if n_replay:
        weights[n_stream:] = dtype.type(replay_weight) / dtype.type(n_replay)
    d_logits = softmax(logits)
    d_logits[np.arange(len(labels)), labels] -= 1
    d_logits *= weights[:, None]

    dWc = emb.T @ d_logits
    dbc = d_logits.sum(axis=0)
    d_emb = d_logits @ params.Wc.T
    dW2 = h.T @ d_emb
    db2 = d_emb.sum(axis=0)
    d_h = d_emb @ params.W2.T
    d_h *= h_pre > 0
    dW1 = X.T @ d_h
    db1 = d_h.sum(axis=0)

    step_size = dtype.type(lr)
    params.W1 -= step_size * dW1
    params.b1 -= step_size * db1
    params.W2 -= step_size * dW2
    params.b2 -= step_size * db2
    params.Wc -= step_size * dWc
    params.bc -= step_size * dbc
    if not params.all_finite():
        raise NumericalError("non-finite parameters after update", step=step)
    return TrainStepReport(combined, stream_loss, replay_loss, n_stream, n_replay)


def ncm_prototypes(params: ModelParams, buf: ReplayBuffer):
    """(labels, means): the buffered class ids, ascending, and an
    (n_classes, d) array whose row k is the mean embedding of class labels[k].

    Exemplars are upsampled by the buffer's factor (the identity at factor
    1) to the model resolution first.
    """
    class_slots = buf.class_slots()
    if not class_slots:
        raise EmptyStateError("cannot build prototypes from an empty buffer")
    means = []
    for slots in class_slots.values():
        images = upsample(buf.slab[slots], buf.factor)
        means.append(embed_batch(params, images).mean(axis=0))
    return np.array(list(class_slots)), np.stack(means)


def classify_embedding(labels, means, embeddings) -> np.ndarray:
    """Label of the Euclidean-nearest mean for each row of an (n, d) matrix.

    `labels` must ascend, as `ncm_prototypes` returns them, so that argmin
    sends distance ties to the smallest class id.
    """
    d2 = ((embeddings[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return labels[np.argmin(d2, axis=1)]


def classify_batch(prototypes, params: ModelParams, pixels) -> np.ndarray:
    """NCM labels for an (n, side, side, C) batch; `prototypes` is the
    (labels, means) pair that `ncm_prototypes` returns."""
    return classify_embedding(*prototypes, embed_batch(params, pixels))


def softmax_classify_batch(params: ModelParams, pixels) -> np.ndarray:
    """Argmax-logit labels; ties go to the smallest class id."""
    return np.argmax(logits_batch(params, pixels), axis=1)


# --- checkpoint I/O ---


def save_params(path, params: ModelParams):
    """Checkpoint: 'GPSM', u32 LE dims, then row-major float32 LE tensors."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<5I", params.input_side, params.channels,
                             params.hidden_units, params.embedding_units,
                             params.num_classes))
        for t in params.tensors():
            fh.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}: expected {CHECKPOINT_MAGIC!r}")
    if len(blob) < 24:
        raise FormatError("truncated checkpoint header")
    dims = struct.unpack_from("<5I", blob, 4)
    if min(dims) < 1:
        raise FormatError(f"checkpoint dimensions must be >= 1, got {dims}")
    side, channels, hidden, embed, classes = dims
    shapes = [(side * side * channels, hidden), (hidden,), (hidden, embed), (embed,),
              (embed, classes), (classes,)]
    pos = 24
    tensors = []
    for shape in shapes:
        count = math.prod(shape)  # exact: np.prod wraps around int64
        if pos + 4 * count > len(blob):
            raise FormatError("truncated checkpoint tensors")
        tensors.append(np.frombuffer(blob, dtype="<f4", count=count, offset=pos)
                       .reshape(shape).copy())
        pos += 4 * count
    if pos != len(blob):
        raise FormatError(f"checkpoint has {len(blob) - pos} trailing bytes")
    return ModelParams(side, channels, hidden, embed, classes, *tensors)
