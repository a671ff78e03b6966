"""Small dense classifier trained with analytic gradients.

Plain numpy implementation: dense layers with a rectifier after each but
the last, a softmax cross-entropy head and an adaptive-moment optimizer.
Everything is seeded and updates run serially, so two runs from the same
configuration produce bit-identical parameters.

A step's arrays are at most batch by widest layer, so its cost is the count
of numpy calls: it works in place, reuses buffers across steps, and keeps
the textbook expression order, so the parameters match it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrainingDivergedError


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3  # 1e-3 for initial training, 1e-5 for retraining
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0
    epochs_per_iteration: int = 2  # per clip-and-retrain iteration
    n_iterations: int = 30

    def __post_init__(self):
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise DomainError("learning_rate must be finite and >= 0")
        if self.epochs < 0 or self.epochs_per_iteration < 0 or self.n_iterations < 0:
            raise DomainError("epoch and iteration counts must be >= 0")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


class Dense:
    """Affine layer y = x @ w + b."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.asarray(w, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DomainError("inconsistent dense layer shapes")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise DomainError("dense layer parameters must be finite")
        self.dw, self.db = np.zeros_like(self.w), np.zeros_like(self.b)
        self.x = None  # input of the latest forward, read by backward

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng) -> "Dense":
        w = rng.normal(0.0, np.sqrt(2.0 / in_dim), (in_dim, out_dim))
        return cls(w, np.zeros(out_dim))

    def forward(self, x):
        """``x @ w + b`` as a new array the caller may change in place;
        keeps ``x`` for backward."""
        self.x = x
        out = x @ self.w
        out += self.b
        return out

    def backward(self, grad_out):
        """Fills ``dw`` and ``db``; the input gradient is the caller's."""
        np.matmul(self.x.T, grad_out, out=self.dw)
        grad_out.sum(axis=0, out=self.db)


def _softmax_cross_entropy_(logits, flat_labels):
    """In place: turns the C-ordered ``logits`` into the gradient of the mean
    cross-entropy and returns the loss. ``flat_labels`` index the raveled
    logits: ``row * classes + label``."""
    n = logits.shape[0]
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    flat = logits.reshape(-1)  # a view
    picked = flat.take(flat_labels)
    flat.put(flat_labels, picked - 1.0)
    np.maximum(picked, 1e-300, out=picked)
    loss = -(np.log(picked, out=picked).sum() / n)
    logits /= n
    return float(loss)


class Model:
    """Dense layers with a ReLU after each but the last, ending in raw
    logits; each layer's ``w``/``b`` (``dw``/``db``) views one
    ``flat_params`` (``flat_grads``) buffer."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.flat_params = np.concatenate(
            [p.ravel() for l in self.layers for p in (l.w, l.b)])
        self.flat_grads = np.zeros_like(self.flat_params)
        start = 0
        for layer in self.layers:
            for name in ("w", "b"):
                shape = getattr(layer, name).shape
                stop = start + int(np.prod(shape))
                setattr(layer, name, self.flat_params[start:stop].reshape(shape))
                setattr(layer, "d" + name,
                        self.flat_grads[start:stop].reshape(shape))
                start = stop

    @classmethod
    def new(cls, dims, seed: int = 0) -> "Model":
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DomainError("dims must list at least input and output sizes")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        return cls([Dense.init(dims[i], dims[i + 1], rng)
                    for i in range(len(dims) - 1)])

    def dense_layers(self):
        return self.layers

    @property
    def dims(self):
        return [self.layers[0].w.shape[0]] + [l.w.shape[1] for l in self.layers]

    def forward(self, x):
        """Logits; each layer keeps its input (``layer.x``) and each hidden
        ReLU its mask, for backward."""
        out = np.asarray(x, dtype=float)
        self._relu_masks = []
        for layer in self.layers[:-1]:
            out = layer.forward(out)
            mask = out > 0.0
            out *= mask  # ReLU
            self._relu_masks.append(mask)
        return self.layers[-1].forward(out)

    def predict(self, x):
        return np.argmax(self.forward(x), axis=1)

    def loss_and_gradients(self, x, y):
        """Mean cross-entropy on ``(x, y)``; gradients land in
        ``flat_grads``."""
        rows = np.arange(np.shape(x)[0])
        return self._loss_and_gradients(x, np.ravel_multi_index(
            (rows, y), (rows.size, self.layers[-1].w.shape[1])))

    def _loss_and_gradients(self, x, flat_labels):
        """``loss_and_gradients`` with the labels as flat logit indices."""
        grad = self.forward(x)
        loss = _softmax_cross_entropy_(grad, flat_labels)
        for layer, mask in zip(self.layers[:0:-1], self._relu_masks[::-1]):
            layer.backward(grad)
            grad = grad @ layer.w.T
            grad *= mask
        self.layers[0].backward(grad)
        return loss

    def copy(self) -> "Model":
        # Model() packs fresh buffers, so the layers need not copy.
        return Model([Dense(l.w, l.b) for l in self.layers])

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "layers": [{"weights": l.w.flatten().tolist(),  # row-major
                        "biases": l.b.tolist()}
                       for l in self.layers],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Model":
        try:
            dims, layers = raw["dims"], raw["layers"]
            if len(dims) != len(layers) + 1:
                raise ValueError(f"{len(dims)} dims for {len(layers)} layers")
            return cls([Dense(np.asarray(spec["weights"], dtype=float)
                              .reshape(dims[i], dims[i + 1]),
                              np.asarray(spec["biases"], dtype=float))
                        for i, spec in enumerate(layers)])
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed model payload: {exc}") from exc


class Adam:
    """Adaptive-moment optimizer with bias correction."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self._mv = None  # the moments m and v, stacked

    def step(self, p, g):
        """Updates the array ``p`` in place from its gradient ``g``:
        ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, in that order."""
        if self._mv is None:
            shape = (2,) + p.shape
            self._mv = np.zeros(shape)
            self._hat = np.empty(shape)  # temporaries, then m_hat and v_hat
            # Full size: numpy takes longer per call on a broadcast operand.
            self._decay = np.empty(shape)
            self._decay[0], self._decay[1] = self.beta1, self.beta2
            self._gain = 1 - self._decay
        self.t += 1
        mv, hat = self._mv, self._hat
        (m, v), (m_hat, v_hat) = mv, hat
        mv *= self._decay
        np.multiply(self._gain, g, out=hat)
        v_hat *= g  # ((1 - b2) * g) * g
        mv += hat
        np.divide(m, 1 - self.beta1 ** self.t, out=m_hat)
        np.divide(v, 1 - self.beta2 ** self.t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat *= self.lr
        m_hat /= v_hat
        p -= m_hat


def train(model: Model, x, y, config: TrainConfig, rng=None,
          epochs=None) -> Model:
    """Mini-batch training; raises TrainingDivergedError on non-finite loss.

    A caller that trains in several rounds (the clip-and-retrain loop) passes
    one ``rng`` through every round so the shuffle stream keeps advancing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise DomainError("x must be (samples, features) aligned with y")
    classes = model.layers[-1].w.shape[1]
    if y.size and not (y.dtype.kind in "iu" and y.min() >= 0
                       and y.max() < classes):
        raise DomainError(f"labels must be integers in 0..{classes - 1}")
    y = y.astype(np.intp, copy=False)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n_epochs = config.epochs if epochs is None else epochs
    optimizer = Adam(config.learning_rate)
    n, size = x.shape[0], config.batch_size
    # Each row's label as an index into its batch's raveled logits.
    slots = np.arange(n) % size * classes
    # An overflow surfaces as a non-finite loss, checked every step.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_epochs):
            order = rng.permutation(n)
            xs = x[order]  # one gather; batches are row slices
            flat_labels = slots + y[order]
            for start in range(0, n, size):
                stop = start + size
                loss = model._loss_and_gradients(xs[start:stop],
                                                 flat_labels[start:stop])
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss became {loss}")
                optimizer.step(model.flat_params, model.flat_grads)
    return model


def accuracy(model: Model, x, y) -> float:
    """Top-1 accuracy of the software forward pass."""
    return float(np.mean(model.predict(x) == np.asarray(y)))
