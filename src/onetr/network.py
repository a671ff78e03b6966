"""Small dense classifier trained with analytic gradients.

Plain numpy implementation: dense layers with a rectifier after each but
the last, a softmax cross-entropy head and an adaptive-moment optimizer.
Everything is seeded and updates run serially, so two runs from the same
configuration produce bit-identical parameters.

A step's arrays are at most batch by widest layer, so its cost is the count
of numpy calls: each writes into a workspace made once per batch row count,
in the textbook expression order, so the parameters match it bit for bit.
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

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng) -> "Dense":
        w = rng.normal(0.0, np.sqrt(2.0 / in_dim), (in_dim, out_dim))
        return cls(w, np.zeros(out_dim))


class _Workspace:
    """A training step of ``model`` on ``b`` rows: its buffers (each layer's
    output, a float 0/1 ReLU mask and input gradient per hidden layer, a
    ``(b, 1)`` column and a row) and, per layer, the views it reads."""

    # 0-d operands: numpy converts a Python scalar operand on every call.
    zero, one, tiny = (np.array(v) for v in (0.0, 1.0, 1e-300))

    def __init__(self, model, b: int):
        layers = model.layers
        self.outs = [np.empty((b, d)) for d in model.dims[1:]]
        masks = [np.empty_like(o) for o in self.outs[:-1]] + [None]
        self.forward = [(l.w, l.b, o, m)
                        for l, o, m in zip(layers, self.outs, masks)]
        self.backward = [(o.T, l.dw, l.db, l.w.T, np.empty_like(o), m)
                         for l, o, m in zip(layers[:0:-1], self.outs[-2::-1],
                                            masks[-2::-1])]
        self.first = layers[0]
        self.col, self.spare = np.empty((b, 1)), np.empty(b)
        self.n, self.picked = np.array(float(b)), self.col.reshape(b)
        self.flat_logits = self.outs[-1].reshape(-1)  # views, as is picked

    def loss_and_gradients(self, x, flat_labels):
        """Mean cross-entropy on ``b`` rows ``x`` with the labels as flat
        logit indices; gradients land in the model's ``flat_grads``. Its
        ``np.dot`` calls are matmul's BLAS calls at less cost per call."""
        out = x
        for w, b, o, mask in self.forward:
            out = np.dot(out, w, out=o)
            out += b
            if mask is not None:  # ReLU, the same bits as a boolean mask
                out *= np.greater(out, self.zero, out=mask)
        loss, grad = _softmax_cross_entropy_(self, flat_labels), out
        for x_t, dw, db, w_t, g_in, mask in self.backward:
            np.dot(x_t, grad, out=dw)
            np.add.reduce(grad, axis=0, out=db)
            grad = np.dot(grad, w_t, out=g_in)
            grad *= mask
        # The first layer: nothing reads its input gradient.
        np.dot(x.T, grad, out=self.first.dw)
        np.add.reduce(grad, axis=0, out=self.first.db)
        return loss


def _softmax_cross_entropy_(ws: _Workspace, flat_labels):
    """In place: turns the logits in ``ws.outs[-1]`` into the gradient of
    the mean cross-entropy and returns the loss. ``flat_labels`` index the
    raveled logits: ``row * classes + label``."""
    logits, col, flat, picked = ws.outs[-1], ws.col, ws.flat_logits, ws.picked
    logits -= np.maximum.reduce(logits, axis=1, out=col, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, out=col, keepdims=True)
    flat.take(flat_labels, out=picked)
    flat.put(flat_labels, np.subtract(picked, ws.one, out=ws.spare))
    np.maximum(picked, ws.tiny, out=picked)
    loss = -(np.add.reduce(np.log(picked, out=picked)) / picked.size)
    logits /= ws.n
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
        """``layers``, kept for ``perfbench/`` and tests (ROADMAP item 1a)."""
        return self.layers

    @property
    def dims(self):
        return [self.layers[0].w.shape[0]] + [l.w.shape[1] for l in self.layers]

    def activations(self, x):
        """Each layer's input, then the logits: new arrays, bar a float ``x``."""
        outs = [np.asarray(x, dtype=float)]
        for i, layer in enumerate(self.layers, 1):
            out = outs[-1] @ layer.w
            out += layer.b
            if i < len(self.layers):
                out *= out > 0.0  # ReLU
            outs.append(out)
        return outs

    def loss_and_gradients(self, x, y):
        """Mean cross-entropy on ``(x, y)``; gradients land in ``flat_grads``."""
        x = np.asarray(x, dtype=float)
        labels = np.ravel_multi_index((np.arange(len(x)), y),
                                      (len(x), self.dims[-1]))
        return _Workspace(self, len(x)).loss_and_gradients(x, labels)

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
            # Views and 0-d operands made once: each costs about a ufunc
            # call when made per step.
            self._views = (*self._mv, *self._hat)
            self._eps, self._lr = np.array(self.eps), np.array(self.lr)
        self.t += 1
        mv, hat = self._mv, self._hat
        m, v, m_hat, v_hat = self._views
        mv *= self._decay
        np.multiply(self._gain, g, out=hat)
        v_hat *= g  # ((1 - b2) * g) * g
        mv += hat
        np.divide(m, 1 - self.beta1 ** self.t, out=m_hat)
        np.divide(v, 1 - self.beta2 ** self.t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self._eps
        m_hat *= self._lr
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
    full, last = (_Workspace(model, b) for b in (min(n, size), n % size))
    # An overflow surfaces as a non-finite loss, checked every step.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_epochs):
            order = rng.permutation(n)
            xs = x[order]  # one gather; batches are row slices
            flat_labels = slots + y[order]
            for start in range(0, n, size):
                stop = start + size
                loss = (full if stop <= n else last).loss_and_gradients(
                    xs[start:stop], flat_labels[start:stop])
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss became {loss}")
                optimizer.step(model.flat_params, model.flat_grads)
    return model


def accuracy(model: Model, x, y) -> float:
    """Top-1 accuracy of the software forward pass."""
    return float(np.mean(np.argmax(model.activations(x)[-1], axis=1)
                         == np.asarray(y)))
