"""Small dense classifier trained with analytic gradients.

Plain numpy implementation: fully-connected layers with rectifier
activations, a softmax cross-entropy head and an adaptive-moment optimizer.
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


def retrain_config(seed: int = 0, **overrides) -> TrainConfig:
    """Configuration used by the clip-and-retrain loop."""
    defaults = dict(learning_rate=1e-5, epochs=0, seed=seed)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class Dense:
    """Affine layer y = x @ w + b."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.asarray(w, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DomainError("inconsistent dense layer shapes")
        self.dw, self.db = np.zeros_like(self.w), np.zeros_like(self.b)
        self._x = None

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng) -> "Dense":
        w = rng.normal(0.0, np.sqrt(2.0 / in_dim), (in_dim, out_dim))
        return cls(w, np.zeros(out_dim))

    def forward(self, x):
        self._x = x
        return x @ self.w + self.b

    def backward(self, grad_out):
        np.matmul(self._x.T, grad_out, out=self.dw)
        grad_out.sum(axis=0, out=self.db)
        return grad_out @ self.w.T

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]


class ReLU:
    def forward(self, x):
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad_out):
        return grad_out * self._mask

    def params(self):
        return []

    def grads(self):
        return []


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
    """Dense / ReLU stack ending in raw logits; each dense ``w``/``b``
    (``dw``/``db``) views one ``flat_params`` (``flat_grads``) buffer."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.flat_params = np.concatenate([p.ravel() for p in self.params()])
        self.flat_grads = np.zeros_like(self.flat_params)
        start = 0
        for layer in self.dense_layers():
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
        layers = []
        for i in range(len(dims) - 1):
            layers.append(Dense.init(dims[i], dims[i + 1], rng))
            if i < len(dims) - 2:
                layers.append(ReLU())
        return cls(layers)

    def dense_layers(self):
        return [l for l in self.layers if isinstance(l, Dense)]

    @property
    def dims(self):
        dense = self.dense_layers()
        return [dense[0].w.shape[0]] + [l.w.shape[1] for l in dense]

    def forward(self, x):
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x):
        return np.argmax(self.forward(x), axis=1)

    def loss_and_gradients(self, x, y):
        loss, grad = softmax_cross_entropy(self.forward(x), y)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return loss

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def grads(self):
        return [g for layer in self.layers for g in layer.grads()]

    def copy(self) -> "Model":
        # Model() packs fresh buffers, so the layers need not copy.
        return Model([Dense(l.w, l.b) if isinstance(l, Dense) else ReLU()
                      for l in self.layers])

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "layers": [{"weights": l.w.flatten().tolist(),  # row-major
                        "biases": l.b.tolist()}
                       for l in self.dense_layers()],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Model":
        try:
            dims = raw["dims"]
            layers = []
            for i, spec in enumerate(raw["layers"]):
                w = np.asarray(spec["weights"], dtype=float).reshape(dims[i], dims[i + 1])
                layers.append(Dense(w, np.asarray(spec["biases"], dtype=float)))
                if i < len(raw["layers"]) - 1:
                    layers.append(ReLU())
            return cls(layers)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
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

    def step(self, params, grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(params, grads, self._m, self._v):
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
            optimizer.step([model.flat_params], [model.flat_grads])
    return model


def accuracy(model: Model, x, y) -> float:
    """Top-1 accuracy of the software forward pass."""
    return float(np.mean(model.predict(x) == np.asarray(y)))
