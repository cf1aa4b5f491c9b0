"""Minimal numpy neural-network kernel: conv / pool / affine layers with
hand-written backward passes, an adaptive-moment optimizer with its
minibatch loop, and the versioned weight container every model is saved in.

All tensors are float64 in (N, C, H, W) layout; forward functions return
(output, cache) and backward functions consume (grad_output, cache).
"""

from __future__ import annotations

import base64
import json

import numpy as np

MODEL_FORMAT_VERSION = 1


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padding stride-1 convolution; kernel must be square and odd."""
    n, c, h, wd = x.shape
    f, c2, kh, kw = w.shape
    assert c == c2 and kh == kw and kh % 2 == 1
    pad = kh // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # (N, C, H, W, kh, kw) windows -> (N*H*W, C*kh*kw) patch matrix
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * wd, c * kh * kw)
    out = cols @ w.reshape(f, -1).T + b
    y = out.reshape(n, h, wd, f).transpose(0, 3, 1, 2)
    return y, (cols, x.shape, w)


def conv2d_back(dy: np.ndarray, cache):
    cols, x_shape, w = cache
    n, c, h, wd = x_shape
    f, _, kh, kw = w.shape
    pad = kh // 2
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(n * h * wd, f)
    dw = (dy_mat.T @ cols).reshape(w.shape)
    db = dy_mat.sum(axis=0)
    dcols = (dy_mat @ w.reshape(f, -1)).reshape(n, h, wd, c, kh, kw)
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki:ki + h, kj:kj + wd] += dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    dx = dxp[:, :, pad:pad + h, pad:pad + wd]
    return dx, dw, db


def conv1x1(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Pointwise channel mixing; w has shape (out_channels, in_channels)."""
    y = np.einsum("nchw,fc->nfhw", x, w) + b[None, :, None, None]
    return y, (x, w)


def conv1x1_back(dy: np.ndarray, cache):
    x, w = cache
    dw = np.einsum("nfhw,nchw->fc", dy, x)
    db = dy.sum(axis=(0, 2, 3))
    dx = np.einsum("nfhw,fc->nchw", dy, w)
    return dx, dw, db


def relu(x: np.ndarray):
    y = np.maximum(x, 0.0)
    return y, (x > 0.0)


def relu_back(dy: np.ndarray, cache):
    return dy * cache


def avgpool2(x: np.ndarray):
    n, c, h, w = x.shape
    assert h % 2 == 0 and w % 2 == 0
    y = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    return y, x.shape


def avgpool2_back(dy: np.ndarray, x_shape):
    n, c, h, w = x_shape
    return np.repeat(np.repeat(dy, 2, axis=2), 2, axis=3) / 4.0


def gap(x: np.ndarray):
    """Global average pool to (N, C)."""
    return x.mean(axis=(2, 3)), x.shape


def gap_back(dy: np.ndarray, x_shape):
    n, c, h, w = x_shape
    return np.broadcast_to(dy[:, :, None, None], x_shape) / (h * w)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w + b, (x, w)


def affine_back(dy: np.ndarray, cache):
    x, w = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient wrt logits."""
    p = softmax(logits)
    n = logits.shape[0]
    loss = -np.log(np.maximum(p[np.arange(n), labels], 1e-300)).mean()
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class Adam:
    """Adaptive-moment optimizer over a dict of named parameter arrays.

    ``lr_decay`` shrinks the step over updates as lr / (1 + lr_decay * t).
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 lr_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_decay = lr_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        lr_t = self.lr / (1.0 + self.lr_decay * self.t)
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / b1t
            vhat = self.v[k] / b2t
            self.params[k] -= lr_t * mhat / (np.sqrt(vhat) + self.eps)


def fit(params: dict[str, np.ndarray], n: int, batch_grads, lr: float, epochs: int,
        batch_size: int, rng: np.random.Generator, decay: float, log) -> None:
    """Adam over shuffled minibatches of ``n`` samples, updating ``params``.

    Each epoch draws a fresh permutation from ``rng``.  ``batch_grads(idx)``
    returns the mean loss of the samples ``idx`` and the gradients of that
    mean; ``log(epoch, mean_loss)`` runs after every epoch.  A non-finite
    batch loss aborts with RuntimeError.
    """
    opt = Adam(params, lr=lr, lr_decay=decay)
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = batch_grads(idx)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged at epoch {epoch}: batch loss {loss} "
                                   "(reduce the step size)")
            opt.step(grads)
            epoch_loss += loss * len(idx)
        log(epoch, epoch_loss / n)


def flatten_params(params: dict[str, np.ndarray]) -> tuple[list, bytes]:
    """Sorted shape table plus concatenated little-endian float64 payload."""
    dims = []
    chunks = []
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        dims.append([name, list(arr.shape)])
        chunks.append(arr.tobytes())
    return dims, b"".join(chunks)


def unflatten_params(dims: list, payload: bytes) -> dict[str, np.ndarray]:
    params = {}
    offset = 0
    for name, shape in dims:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        params[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    if offset != len(payload):
        raise ValueError("parameter payload length does not match shape table")
    return params


def save_model(path, kind: str, params: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Versioned JSON container with base64 little-endian float64 weights."""
    dims, payload = flatten_params(params)
    doc = {
        "kind": kind,
        "version": MODEL_FORMAT_VERSION,
        "dims": dims,
        "weights": base64.b64encode(payload).decode("ascii"),
    }
    if meta:
        doc["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path, kind: str) -> tuple[dict[str, np.ndarray], dict]:
    """Parameters and metadata of a container that must hold a ``kind`` model."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a model container ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: not a version {MODEL_FORMAT_VERSION} model container")
    if doc.get("kind") != kind:
        raise ValueError(f"expected a {kind} model, got {doc.get('kind')!r}")
    params = unflatten_params(doc["dims"], base64.b64decode(doc["weights"]))
    return params, doc.get("meta", {})
