"""Small dense classifier trained with analytic gradients.

Plain numpy implementation: dense layers with a rectifier after each but
the last, a softmax cross-entropy head and an adaptive-moment optimizer.
Everything is seeded and updates run serially, so two runs from the same
configuration produce bit-identical parameters.
"""

from __future__ import annotations

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
        self.x = x
        return x @ self.w + self.b

    def backward(self, grad_out):
        np.matmul(self.x.T, grad_out, out=self.dw)
        grad_out.sum(axis=0, out=self.db)
        return grad_out @ self.w.T


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=float)
    probs = logits - logits.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    n, rows = logits.shape[0], np.arange(logits.shape[0])
    loss = -(np.log(np.maximum(probs[rows, labels], 1e-300)).sum() / n)
    probs[rows, labels] -= 1.0
    probs /= n
    return float(loss), probs


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
        rng = np.random.default_rng(seed)
        return cls([Dense.init(dims[i], dims[i + 1], rng)
                    for i in range(len(dims) - 1)])

    def dense_layers(self):
        return self.layers

    @property
    def dims(self):
        return [self.layers[0].w.shape[0]] + [l.w.shape[1] for l in self.layers]

    def forward(self, x):
        """Logits; every layer keeps its input (``layer.x``) for backward."""
        out = np.asarray(x, dtype=float)
        for layer in self.layers[:-1]:
            out = layer.forward(out)
            out = out * (out > 0.0)  # ReLU
        return self.layers[-1].forward(out)

    def predict(self, x):
        return np.argmax(self.forward(x), axis=1)

    def loss_and_gradients(self, x, y):
        loss, grad = softmax_cross_entropy(self.forward(x), y)
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
            grad = grad * (layer.x > 0.0)  # the ReLU mask of its input
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
            dims = raw["dims"]
            return cls([Dense(np.asarray(spec["weights"], dtype=float)
                              .reshape(dims[i], dims[i + 1]),
                              np.asarray(spec["biases"], dtype=float))
                        for i, spec in enumerate(raw["layers"])])
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
        self._m = None
        self._v = None

    def step(self, p, g):
        """Updates the array ``p`` in place from its gradient ``g``."""
        if self._m is None:
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** self.t)
        v_hat = v / (1 - b2 ** self.t)
        p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train(model: Model, x, y, config: TrainConfig, rng=None,
          epochs=None) -> Model:
    """Mini-batch training; raises TrainingDivergedError on non-finite loss.

    A caller that trains in several rounds (the clip-and-retrain loop) passes
    one ``rng`` through every round so the shuffle stream keeps advancing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("x must be (samples, features) aligned with y")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n_epochs = config.epochs if epochs is None else epochs
    optimizer = Adam(config.learning_rate)
    n = x.shape[0]
    for _ in range(n_epochs):
        order = rng.permutation(n)
        xs, ys = x[order], y[order]  # one gather; batches are row slices
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            loss = model.loss_and_gradients(xs[start:stop], ys[start:stop])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss}")
            optimizer.step(model.flat_params, model.flat_grads)
    return model


def accuracy(model: Model, x, y) -> float:
    """Top-1 accuracy of the software forward pass."""
    return float(np.mean(model.predict(x) == np.asarray(y)))
