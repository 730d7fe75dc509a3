"""Embedding network + softmax head with manual gradients, and NCM inference.

The network is a two-layer MLP: pixels in [0,1] -> hidden (ReLU) ->
embedding (affine) -> class logits (affine). Training takes one SGD step on
   mean_ce(stream batch) + replay_weight * mean_ce(replay batch)
per call. Inference offers the softmax head or nearest-class-mean over
buffered exemplars, embedded at their own resolution (see ncm_prototypes);
NCM stops at the embedding and computes no logits. Training and inference
alike report a non-finite loss, parameter, logit or NCM distance as a
NumericalError, with numpy's overflow and invalid-value warnings silenced.

Batches are (n, s, s, C) uint8 pixel arrays, checked by one rule before
any product (`_input_factor`): s = input_side / f, with f = 1 for stream and
test batches, the buffer's factor for NCM exemplars, and any f for replay
surrogates, which train as their upsampling would (see train_step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffer import ReplayBuffer
from .errors import NumericalError
from .imaging import DRAW_CHUNK_VALUES, Rng

# Bytes of W1's gradient that train_step holds at once: a block of them, the
# W1 rows it updates and the inputs' columns stay in a 2 MB L2 cache together.
W1_BLOCK_BYTES = 1 << 18


def _finite(t) -> bool:
    """np.isfinite(t).all(), without building a bool mask the size of t.

    The test is exact. A finite sum of squares has only finite terms, since
    no square is negative and so no infinity can cancel; a NaN or an
    infinity makes the sum NaN or infinite. A sum that overflows while
    every entry is finite falls back to np.isfinite. Call it under
    np.errstate(over="ignore"), so that such a sum raises no warning.
    """
    v = t.ravel()
    return bool(np.isfinite(np.dot(v, v)) or np.isfinite(v).all())


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


def _input_factor(params: ModelParams, pixels, factor=None) -> int:
    """f of an (n, s, s, C) batch of side s = input_side / f; only `factor`, if given."""
    side = pixels.shape[1] if pixels.ndim == 4 else 0
    if (pixels.shape[1:] != (side, side, params.channels) or not side
            or params.input_side % side or factor not in (None, params.input_side // side)):
        at = "" if factor is None else f" at factor {factor}"
        raise ValueError(f"images of shape {pixels.shape[1:]}{at} do not match model "
                         f"input {(params.input_side,) * 2 + (params.channels,)}")
    return params.input_side // side


def _to_matrix(params: ModelParams, pixels) -> np.ndarray:
    """An (n, s, s, C) batch, unchecked, as an (n, s * s * C) matrix of [0,1] reals."""
    dtype = params.W1.dtype
    X = pixels.reshape(len(pixels), -1).astype(dtype)
    X /= dtype.type(255)
    return X


def _pooled_W1(params: ModelParams, factor) -> np.ndarray:
    """W1 with its rows summed over each factor x factor block of input pixels.

    It is the first layer for surrogates of side s = input_side / factor:
        upsample(x, f).reshape(n, -1) @ W1 == x.reshape(n, -1) @ W1p
    up to float rounding, since pixel repetition makes each block one value.
    At factor 1 it is W1 itself, not a copy, so a full-resolution buffer's
    prototypes cost no W1-sized temporary.
    """
    if factor == 1:
        return params.W1
    side = params.input_side // factor
    W1p = params.W1.reshape(side, factor, side, factor, -1).sum(axis=(1, 3))
    return W1p.reshape(side * side * params.channels, -1)


def _embed(params: ModelParams, first):
    """(hidden pre-activation, hidden, embeddings) from the first layer's
    product `first`, bias not yet added: the network up to the embedding.
    The classifier head is applied only by train_step and the softmax head."""
    h_pre = first + params.b1
    h = np.maximum(h_pre, 0)
    return h_pre, h, h @ params.W2 + params.b2


def embed_batch(params: ModelParams, pixels) -> np.ndarray:
    _input_factor(params, pixels, 1)
    return _embed(params, _to_matrix(params, pixels) @ params.W1)[2]


def _softmax_cross_entropy(logits, labels):
    """(softmax, -log softmax[label]) of each row, from one stable shift and exp."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1, keepdims=True)
    return np.divide(e, norm, out=e), np.log(norm[:, 0]) - z[np.arange(len(labels)), labels]


def _transposed_product(A, B, out):
    """out[...] = A.T @ B for (n, m) and (n, k) matrices, A a block of columns.

    At n = 1 matmul takes a slow non-BLAS loop, and np.dot calls BLAS; at
    n > 1 np.dot first copies a block of columns, and matmul does not.
    """
    (np.dot if len(A) == 1 else np.matmul)(A.T, B, out=out)


def _update_W1(params: ModelParams, X, d_h, Xs, d_hs, f, step_size) -> bool:
    """W1 -= step_size * (X.T @ d_h + the f x f block repeat of Xs.T @ d_hs),
    one block of W1's rows at a time; True when every updated row is finite.

    Each block holds whole rows of f x f patches: as many as fit in
    W1_BLOCK_BYTES of gradient, and at least one. So the gradient, the W1
    rows it updates and the inputs' columns stay in cache: one pass over W1,
    and no gradient the size of W1. The rest is elementwise, so the update is
    bit-identical to the unblocked one where BLAS gives a block of rows the
    values of the whole product's rows (OpenBLAS's Haswell kernel does not at
    8 or 64 float32 rows). Xs is None when no surrogate trains; f is then 1.
    """
    W1 = params.W1
    side = params.input_side // f
    patch_rows = f * params.input_side * params.channels  # W1 rows per row of patches
    rows = patch_rows * max(1, W1_BLOCK_BYTES // (patch_rows * W1[0].nbytes))
    grad = np.empty((min(rows, len(W1)), W1.shape[1]), dtype=W1.dtype)
    if Xs is not None:
        grad_s = np.empty((len(grad) // f ** 2, W1.shape[1]), dtype=W1.dtype)
        width = params.channels * W1.shape[1]  # one pixel's W1 rows, flattened
    finite = True
    for r0 in range(0, len(W1), rows):
        r1 = min(r0 + rows, len(W1))
        block = grad[:r1 - r0]
        _transposed_product(X[:, r0:r1], d_h, block)
        if Xs is not None:
            # each surrogate input feeds the f x f block of W1 rows it pools
            s0, s1 = r0 // f ** 2, r1 // f ** 2
            _transposed_product(Xs[:, s0:s1], d_hs, grad_s[:s1 - s0])
            blocks = block.reshape(-1, f, side, f, width)  # a view of block
            blocks += grad_s[:s1 - s0].reshape(-1, 1, side, 1, width)
        block *= step_size
        W1[r0:r1] -= block
        finite = finite and _finite(W1[r0:r1])
    return finite


@np.errstate(over="ignore", invalid="ignore")
def train_step(params: ModelParams, stream_batch, replay_batch, replay_weight,
               lr) -> TrainStepReport:
    """One in-place SGD step on the combined stream + weighted replay loss.

    Both batches are (pixels, labels) pairs. Stream pixels are at the model's
    side; replay pixels are at side input_side / f for some f. Replay rows at
    f > 1 are surrogates: they train as their `upsample(pixels, f)` would,
    through W1 pooled over each f x f block (`_pooled_W1`), at 1/f^2 of the
    first layer's work, and their W1 gradient is added to each block's rows.
    Rows at the model's side (the stream, and replay at f = 1) share one
    first-layer product each way. `replay_batch` may be None or hold no
    rows; with replay_weight == 0 the replay pass is skipped entirely, so
    the update is bit-identical to a stream-only step. A stream side other
    than the model's, or a replay side not dividing it, is a ValueError.

    W1 is updated in cache-sized blocks of rows (`_update_W1`): its gradient,
    replay block add, update and finiteness check are one pass, with no
    gradient array the size of W1. The five small tensors take a whole
    gradient each. Overflow and invalid-value warnings are silenced: the
    loss check and the parameter check report a divergence as a
    NumericalError, and every tensor is updated before the second raises.
    """
    stream_pixels, stream_labels = stream_batch
    if not len(stream_labels):
        raise ValueError("stream batch must be non-empty")
    _input_factor(params, stream_pixels, 1)
    use_replay = (replay_batch is not None and len(replay_batch[1]) > 0
                  and replay_weight != 0.0)
    pixels, Xs, f = stream_pixels, None, 1
    if use_replay:
        f = _input_factor(params, replay_batch[0])
        if f == 1:
            pixels = np.concatenate([stream_pixels, replay_batch[0]])
        else:
            Xs = _to_matrix(params, replay_batch[0])
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
    if Xs is not None:
        first = np.concatenate([first, Xs @ _pooled_W1(params, f)])
    h_pre, h, emb = _embed(params, first)
    logits = emb @ params.Wc + params.bc
    d_logits, losses = _softmax_cross_entropy(logits, labels)
    stream_loss = float(losses[:n_stream].mean())
    replay_loss = float(losses[n_stream:].mean()) if use_replay else 0.0
    combined = stream_loss + float(replay_weight) * replay_loss
    if not np.isfinite(combined):
        raise NumericalError(
            f"non-finite training loss (stream={stream_loss}, replay={replay_loss})")

    # d(combined)/d(logits): softmax minus one-hot, each batch's rows scaled
    # so that its term contributes the mean over the batch.
    d_logits[np.arange(len(labels)), labels] -= 1
    d_logits[:n_stream] *= dtype.type(1.0) / dtype.type(n_stream)
    if n_replay:
        d_logits[n_stream:] *= dtype.type(replay_weight) / dtype.type(n_replay)

    dWc = emb.T @ d_logits
    dbc = d_logits.sum(axis=0)
    d_emb = d_logits @ params.Wc.T
    dW2 = h.T @ d_emb
    db2 = d_emb.sum(axis=0)
    d_h = d_emb @ params.W2.T
    d_h *= h_pre > 0
    db1 = d_h.sum(axis=0)

    step_size = dtype.type(lr)
    finite = _update_W1(params, X, d_h[:len(X)], Xs, d_h[len(X):], f, step_size)
    # scale each gradient in place: the same products without a temporary
    for param, grad in ((params.b1, db1), (params.W2, dW2), (params.b2, db2),
                        (params.Wc, dWc), (params.bc, dbc)):
        grad *= step_size
        param -= grad
    if not (finite and all(_finite(t) for t in params.tensors()[1:])):
        raise NumericalError("non-finite parameters after update")
    return TrainStepReport(combined, stream_loss, replay_loss, n_stream, n_replay)


@np.errstate(over="ignore", invalid="ignore")
def ncm_prototypes(params: ModelParams, buf: ReplayBuffer):
    """(labels, means): the buffered class ids, ascending, and an
    (n_classes, d) array whose row k is the mean embedding of class labels[k].

    Exemplars are embedded at their own side s = input_side / f, f the
    buffer's factor, through W1 pooled over each f x f block (`_pooled_W1`):
    the embedding of their upsampled images up to float rounding, at 1/f^2
    of the first layer's work; at f = 1 the pooled W1 is W1 itself. A slab
    whose side is not input_side / f is a ValueError, checked once per call.
    """
    class_slots = buf.class_slots()
    if not class_slots:
        raise ValueError("cannot build prototypes from an empty buffer")
    W1p = _pooled_W1(params, _input_factor(params, buf.slab, buf.factor))
    means = [_embed(params, _to_matrix(params, buf.slab[slots]) @ W1p)[2].mean(axis=0)
             for slots in class_slots.values()]
    return np.array(list(class_slots)), np.stack(means)


def classify_embedding(labels, means, embeddings) -> np.ndarray:
    """Label of the Euclidean-nearest mean for each row of an (n, d) matrix.

    `labels` must ascend, as `ncm_prototypes` returns them, so that argmin
    sends distance ties to the smallest class id. A non-finite squared
    distance, from a non-finite embedding or mean or from an overflow, is a
    NumericalError: argmin over it would pick a class by its tie rule.
    """
    d2 = ((embeddings[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    if not _finite(d2):
        raise NumericalError("non-finite NCM distances")
    return labels[np.argmin(d2, axis=1)]


@np.errstate(over="ignore", invalid="ignore")
def classify_batch(prototypes, params: ModelParams, pixels) -> np.ndarray:
    """NCM labels for an (n, side, side, C) batch; `prototypes` is the
    (labels, means) pair that `ncm_prototypes` returns."""
    return classify_embedding(*prototypes, embed_batch(params, pixels))


@np.errstate(over="ignore", invalid="ignore")
def softmax_classify_batch(params: ModelParams, pixels) -> np.ndarray:
    """Argmax-logit labels; ties go to the smallest class id. A non-finite
    logit is a NumericalError."""
    logits = embed_batch(params, pixels) @ params.Wc + params.bc
    if not _finite(logits):
        raise NumericalError("non-finite logits")
    return np.argmax(logits, axis=1)
