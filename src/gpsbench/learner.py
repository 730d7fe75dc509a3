"""Embedding network + softmax head with manual gradients, and NCM inference.

The network is a two-layer MLP: pixels in [0,1] -> hidden (ReLU) ->
embedding (affine) -> class logits (affine). Training takes one SGD step on
   mean_ce(stream batch) + replay_weight * mean_ce(replay batch)
per call. Inference offers the softmax head or nearest-class-mean over
buffered exemplars, embedded at their own resolution (see ncm_prototypes).

Batches are (n, side, side, C) uint8 pixel arrays; a labeled batch is a
(pixels, labels) pair. Stream and test batches are at the model's side;
replay batches may hold surrogates of side input_side / f, which train at
that resolution as their pixel-repeated upsampling would (see train_step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffer import ReplayBuffer
from .errors import NumericalError
from .imaging import DRAW_CHUNK_VALUES, Rng


@dataclass
class ModelParams:
    """All trainable tensors plus the input geometry they assume."""

    input_side: int
    channels: int
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wc: np.ndarray
    bc: np.ndarray

    def tensors(self):
        return [self.W1, self.b1, self.W2, self.b2, self.Wc, self.bc]

    def all_finite(self):
        """True when no tensor holds a NaN or an infinity, as np.isfinite says,
        without building a bool mask the size of each tensor.

        The test is exact. A finite sum of squares has only finite terms, since
        no square is negative and so no infinity can cancel; a NaN or an
        infinity makes the sum NaN or infinite. A sum that overflows while
        every entry is finite falls back to np.isfinite, and raises no
        overflow warning.
        """
        with np.errstate(over="ignore"):
            return all(np.isfinite(np.dot(v, v)) or np.isfinite(v).all()
                       for v in (t.ravel() for t in self.tensors()))

    def copy(self):
        return ModelParams(self.input_side, self.channels, *[t.copy() for t in self.tensors()])


@dataclass(frozen=True)
class TrainStepReport:
    combined_loss: float
    stream_loss: float
    replay_loss: float
    stream_size: int
    replay_size: int


def _glorot(rng: Rng, fan_in, fan_out, dtype):
    """rng.uniform(-limit, limit, (fan_in, fan_out)).astype(dtype), drawn in row
    blocks of at most DRAW_CHUNK_VALUES float64 values, so that no float64 copy
    of the whole matrix is made."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    W = np.empty((fan_in, fan_out), dtype=dtype)
    rows = max(1, DRAW_CHUNK_VALUES // fan_out)
    for start in range(0, fan_in, rows):
        block = W[start : start + rows]  # a view of W
        block[...] = rng.uniform(-limit, limit, block.shape)
    return W


def init_params(input_side, channels, hidden_units, embedding_units, num_classes,
                rng: Rng, dtype=np.float32) -> ModelParams:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    return ModelParams(
        input_side, channels,
        W1=_glorot(rng, input_side * input_side * channels, hidden_units, dtype),
        b1=np.zeros(hidden_units, dtype=dtype),
        W2=_glorot(rng, hidden_units, embedding_units, dtype),
        b2=np.zeros(embedding_units, dtype=dtype),
        Wc=_glorot(rng, embedding_units, num_classes, dtype),
        bc=np.zeros(num_classes, dtype=dtype),
    )


def _to_matrix(params: ModelParams, pixels, factor=1) -> np.ndarray:
    """Flatten an (n, s, s, C) batch, s = input_side // factor, into an
    (n, s * s * C) matrix of [0,1] reals."""
    side = params.input_side // factor
    if pixels.shape[1:] != (side, side, params.channels):
        raise ValueError(f"input images of shape {pixels.shape[1:]} at factor {factor} do "
                         f"not match model input {(params.input_side,) * 2 + (params.channels,)}")
    dtype = params.W1.dtype
    X = pixels.reshape(len(pixels), -1).astype(dtype)
    X /= dtype.type(255)
    return X


def _pooled_W1(params: ModelParams, factor) -> np.ndarray:
    """W1 with its rows summed over each factor x factor block of input pixels.

    It is the first layer for surrogates of side s = input_side / factor:
        upsample(x, f).reshape(n, -1) @ W1 == x.reshape(n, -1) @ W1p
    up to float rounding, since pixel repetition makes each block one value.
    At factor 1 it equals W1.
    """
    side = params.input_side // factor
    W1p = params.W1.reshape(side, factor, side, factor, -1).sum(axis=(1, 3))
    return W1p.reshape(side * side * params.channels, -1)


def _forward(params: ModelParams, first):
    """(hidden pre-activation, hidden, embeddings, logits) from the first
    layer's product `first`, bias not yet added."""
    h_pre = first + params.b1
    h = np.maximum(h_pre, 0)
    emb = h @ params.W2 + params.b2
    logits = emb @ params.Wc + params.bc
    return h_pre, h, emb, logits


def embed_batch(params: ModelParams, pixels) -> np.ndarray:
    return _forward(params, _to_matrix(params, pixels) @ params.W1)[2]


def logits_batch(params: ModelParams, pixels) -> np.ndarray:
    return _forward(params, _to_matrix(params, pixels) @ params.W1)[3]


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


def _replay_factor(params: ModelParams, pixels) -> int:
    """f for an (n, s, s, C) replay batch whose side s is input_side / f."""
    side = pixels.shape[1] if pixels.ndim == 4 else 0
    if (pixels.shape[1:] != (side, side, params.channels) or not side
            or params.input_side % side):
        raise ValueError(f"replay images of shape {pixels.shape[1:]} do not upsample to "
                         f"model input {(params.input_side,) * 2 + (params.channels,)}")
    return params.input_side // side


def train_step(params: ModelParams, stream_batch, replay_batch, replay_weight, lr,
               step=None) -> TrainStepReport:
    """One in-place SGD step on the combined stream + weighted replay loss.

    Both batches are (pixels, labels) pairs. Stream pixels are at the model's
    side; replay pixels are at side input_side / f for some f. Replay rows at
    f > 1 are surrogates: they train as their `upsample(pixels, f)` would,
    through W1 pooled over each f x f block (`_pooled_W1`), at 1/f^2 of the
    first layer's work, and their W1 gradient is added to each block's rows.
    Rows at the model's side (the stream, and replay at f = 1) share one
    first-layer product each way. `replay_batch` may be None or hold no
    rows; with replay_weight == 0 the replay pass is skipped entirely, so
    the update is bit-identical to a stream-only step. A replay side that
    does not divide the model's is a ValueError.
    """
    stream_pixels, stream_labels = stream_batch
    if not len(stream_labels):
        raise ValueError("stream batch must be non-empty")
    use_replay = (replay_batch is not None and len(replay_batch[1]) > 0
                  and replay_weight != 0.0)
    pixels, surrogates = stream_pixels, None
    if use_replay:
        f = _replay_factor(params, replay_batch[0])
        if f == 1:
            pixels = np.concatenate([stream_pixels, replay_batch[0]])
        else:
            surrogates = replay_batch[0]
        labels = np.concatenate([stream_labels, replay_batch[1]]).astype(np.intp)
    else:
        labels = np.asarray(stream_labels, dtype=np.intp)
    num_classes = params.Wc.shape[1]
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    dtype = params.W1.dtype
    n_stream = len(stream_labels)
    n_replay = len(labels) - n_stream

    X = _to_matrix(params, pixels)
    first = X @ params.W1
    if surrogates is not None:
        Xs = _to_matrix(params, surrogates, f)
        first = np.concatenate([first, Xs @ _pooled_W1(params, f)])
    h_pre, h, emb, logits = _forward(params, first)
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
    dW1 = X.T @ d_h[:len(X)]
    if surrogates is not None:
        # each surrogate input feeds the f x f block of W1 rows it pools
        side = params.input_side // f
        blocks = dW1.reshape(side, f, side, f, -1)  # a view of dW1
        # np.dot: matmul's (n, d).T @ (n, H) takes a slow non-BLAS loop at n = 1
        blocks += np.dot(Xs.T, d_h[len(X):]).reshape(side, 1, side, 1, -1)
    db1 = d_h.sum(axis=0)

    # scale each gradient in place: the same products without a temporary
    step_size = dtype.type(lr)
    for param, grad in ((params.W1, dW1), (params.b1, db1), (params.W2, dW2),
                        (params.b2, db2), (params.Wc, dWc), (params.bc, dbc)):
        grad *= step_size
        param -= grad
    if not params.all_finite():
        raise NumericalError("non-finite parameters after update", step=step)
    return TrainStepReport(combined, stream_loss, replay_loss, n_stream, n_replay)


def ncm_prototypes(params: ModelParams, buf: ReplayBuffer):
    """(labels, means): the buffered class ids, ascending, and an
    (n_classes, d) array whose row k is the mean embedding of class labels[k].

    Exemplars are embedded at their own side s = input_side / f, f the
    buffer's factor, through W1 pooled over each f x f block (`_pooled_W1`):
    the embedding of their upsampled images up to float rounding, at 1/f^2
    of the first layer's work; at f = 1 the pooled W1 equals W1. Exemplars
    that do not upsample to the model input are a ValueError.
    """
    class_slots = buf.class_slots()
    if not class_slots:
        raise ValueError("cannot build prototypes from an empty buffer")
    f = buf.factor
    W1p = _pooled_W1(params, f)
    means = [_forward(params, _to_matrix(params, buf.slab[slots], f) @ W1p)[2].mean(axis=0)
             for slots in class_slots.values()]
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
