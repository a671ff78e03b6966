"""Dense network primitives: layers, loss, optimizer, training loop."""

import numpy as np
import pytest

from onetr import (Adam, Dense, DomainError, Model, TrainConfig,
                   TrainingDivergedError, accuracy, clip_model,
                   load_checkpoint, save_checkpoint, train)
from onetr.cli import build_parser
from onetr.data import N_CLASSES, N_FEATURES
from onetr.network import _softmax_cross_entropy_, _Workspace
from onetr.training import ScheduleEntry, VgSchedule


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(epochs=-1)
    with pytest.raises(DomainError):
        TrainConfig(n_iterations=-1)
    with pytest.raises(DomainError):
        TrainConfig(seed=-1)
    # Clip-and-retrain (the neat command) runs at 1e-5 by default.
    args = build_parser().parse_args(["neat", "--checkpoint", "c.json"])
    assert args.retrain_lr == 1e-5


def test_model_new_validation():
    with pytest.raises(DomainError):
        Model.new([3, 2], seed=-1)
    with pytest.raises(DomainError):
        Model.new([3])


def test_dense_forward_is_affine():
    rng = np.random.default_rng(0)
    layer = Dense.init(4, 3, rng)
    x = rng.normal(size=(5, 4))
    inputs, logits = Model([layer]).activations(x)
    assert inputs is x
    assert np.allclose(logits, x @ layer.w + layer.b)


def test_relu_masks_gradient():
    # Identity layers: the hidden pre-activation is x itself.
    model = Model([Dense(np.eye(3), np.zeros(3)),
                   Dense(np.eye(3), np.zeros(3))])
    first, second = model.dense_layers()
    x = np.array([[-1.0, 0.0, 2.0]])
    for out in model.activations(x)[1:]:  # the hidden layer, the logits
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])
    model.loss_and_gradients(x, np.array([1]))
    # The hidden gradient is the logits' gradient (second.db) masked.
    assert np.all(second.db != 0.0)
    assert np.array_equal(first.db, second.db * [0.0, 0.0, 1.0])


def test_softmax_cross_entropy_matches_manual():
    logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    labels = np.array([0, 2])
    ws = _Workspace(Model.new([4, 3]), 2)
    grad = ws.outs[-1]  # overwritten with the gradient
    grad[...] = logits
    loss = _softmax_cross_entropy_(ws, np.arange(2) * 3 + labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    manual = -np.mean(np.log(p[np.arange(2), labels]))
    assert loss == pytest.approx(manual, rel=1e-12)
    # Per-sample probability mass is conserved, so gradient rows sum to zero.
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)
    assert grad.shape == logits.shape


def test_model_shapes_and_prediction():
    model = Model.new([4, 8, 3], seed=1)
    assert model.dims == [4, 8, 3]
    assert len(model.dense_layers()) == 2
    x = np.random.default_rng(1).normal(size=(6, 4))
    logits = model.activations(x)[-1]
    assert logits.shape == (6, 3)
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert accuracy(model, x, labels) == np.mean(np.argmax(logits, axis=1)
                                                 == labels)


def test_model_dict_round_trip():
    model = Model.new([5, 7, 4, 2], seed=3)
    back = Model.from_dict(model.to_dict())
    assert back.dims == model.dims
    for a, b in zip(model.dense_layers(), back.dense_layers()):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)
    with pytest.raises(DomainError):
        Model.from_dict({"dims": [3, 2]})
    # Surplus dims, or a layer dropped from the list, do not load.
    raw = Model.new([4, 5, 3], seed=0).to_dict()
    for bad in (dict(raw, dims=[4, 5, 3, 7]), dict(raw, dims=[4, 5]),
                dict(raw, layers=raw["layers"][:1])):
        with pytest.raises(DomainError, match="malformed model payload"):
            Model.from_dict(bad)


def test_adam_single_step_hand_computed():
    w = np.array([1.0])
    g = np.array([0.5])
    opt = Adam(learning_rate=0.1)
    opt.step(w, g)
    # Bias-corrected first step moves by lr * g / (|g| + eps) ~ lr.
    assert w[0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_training_is_deterministic(blobs):
    cfg = TrainConfig(epochs=2, seed=9)
    runs = []
    for _ in range(2):
        model = Model.new([N_FEATURES, 8, N_CLASSES], seed=9)
        train(model, blobs.x_train[:200], blobs.y_train[:200], cfg)
        runs.append([l.w.copy() for l in model.dense_layers()])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_shared_rng_advances_between_rounds(blobs):
    # Passing one generator through several calls must give a different
    # shuffle order per round; restarting the stream would repeat it.
    cfg = TrainConfig(epochs=1, seed=9)
    x, y = blobs.x_train[:200], blobs.y_train[:200]

    shared = Model.new([N_FEATURES, 8, N_CLASSES], seed=9)
    rng = np.random.default_rng(9)
    train(shared, x, y, cfg, rng=rng)
    train(shared, x, y, cfg, rng=rng)

    restarted = Model.new([N_FEATURES, 8, N_CLASSES], seed=9)
    train(restarted, x, y, cfg)
    train(restarted, x, y, cfg)

    same = all(np.array_equal(a.w, b.w) for a, b in
               zip(shared.dense_layers(), restarted.dense_layers()))
    assert not same


def test_epoch_override_controls_duration(blobs):
    cfg = TrainConfig(epochs=40, seed=1)
    model = Model.new([N_FEATURES, 4, N_CLASSES], seed=1)
    before = [l.w.copy() for l in model.dense_layers()]
    train(model, blobs.x_train[:100], blobs.y_train[:100], cfg, epochs=0)
    for w0, layer in zip(before, model.dense_layers()):
        assert np.array_equal(w0, layer.w)


def test_divergence_is_reported(blobs):
    model = Model.new([N_FEATURES, 4, N_CLASSES], seed=0)
    model.dense_layers()[0].w[:] = np.nan
    with pytest.raises(TrainingDivergedError):
        train(model, blobs.x_train[:64], blobs.y_train[:64],
              TrainConfig(epochs=1))


def test_train_rejects_labels_outside_the_output(blobs):
    # A label indexes its row of the logits; one outside [0, classes)
    # would read a neighbouring row's logit.
    x, y = blobs.x_train[:40], blobs.y_train[:40].copy()
    model = Model.new([N_FEATURES, 4, N_CLASSES], seed=0)
    before = model.flat_params.copy()
    for bad in (-1, N_CLASSES):
        y[5] = bad
        with pytest.raises(DomainError):
            train(model, x, y, TrainConfig(epochs=1))
    with pytest.raises(DomainError):
        train(model, x, y.astype(float), TrainConfig(epochs=1))
    assert np.array_equal(model.flat_params, before)


def test_accuracy_on_known_labels():
    model = Model.new([2, 2], seed=0)
    layer = model.dense_layers()[0]
    layer.w[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
    layer.b[:] = 0.0
    x = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    assert accuracy(model, x, np.array([0, 1, 0])) == 1.0
    assert accuracy(model, x, np.array([1, 1, 0])) == pytest.approx(2 / 3)


def test_baseline_reaches_target_accuracy(baseline_model, blobs):
    acc = accuracy(baseline_model, blobs.x_test, blobs.y_test)
    assert acc >= 0.95


def _reference_softmax(logits, labels):
    # The copying loss of the per-parameter training loop.
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels],
                                    1e-300)).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def _reference_gradients(layers, x, y):
    """The copying forward and backward: the loss, every [dw, db] and every
    layer's output."""
    acts = [x]
    for i, (w, b) in enumerate(layers):
        out = acts[-1] @ w + b
        if i < len(layers) - 1:
            out = out * (out > 0.0)
        acts.append(out)
    loss, grad = _reference_softmax(acts[-1], y)
    grads = []
    for i in reversed(range(len(layers))):
        w = layers[i][0]
        grads[:0] = [acts[i].T @ grad, grad.sum(axis=0)]
        grad = grad @ w.T
        if i > 0:
            grad = grad * (acts[i] > 0.0)
    return loss, grads, acts[1:]


def _reference_train(layers, x, y, config, rng, epochs):
    """Per-batch gather, per-parameter Adam over plain [w, b] arrays."""
    m = [np.zeros_like(p) for layer in layers for p in layer]
    v = [np.zeros_like(p) for p in m]
    b1, b2, eps, lr, t = 0.9, 0.999, 1e-8, config.learning_rate, 0
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grads, _ = _reference_gradients(layers, x[idx], y[idx])
            t += 1
            params = [p for layer in layers for p in layer]
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * g * g
                m_hat = mi / (1 - b1 ** t)
                v_hat = vi / (1 - b2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("dims, batch_size", [
    pytest.param([16, 8, 5, 3], 7, id="partial-last-batch"),
    pytest.param([16, 3], 7, id="first-layer-is-last"),
    pytest.param([16, 8, 5, 3], 256, id="one-partial-batch-per-epoch"),
])
def test_training_matches_per_parameter_reference(blobs, dims, batch_size):
    # The flat-buffer step must reproduce the per-parameter loop bit for
    # bit, over two rounds sharing one generator (as clip-and-retrain does).
    x, y = blobs.x_train[:200], blobs.y_train[:200]
    assert (x.shape[1], N_CLASSES) == (dims[0], dims[-1])
    cfg = TrainConfig(learning_rate=1e-2, batch_size=batch_size, seed=4)
    model = Model.new(dims, seed=4)
    layers = [(l.w.copy(), l.b.copy()) for l in model.dense_layers()]
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(2):
        train(model, x, y, cfg, rng=rng, epochs=2)
        _reference_train(layers, x, y, cfg, ref_rng, epochs=2)
    for layer, (w, b) in zip(model.dense_layers(), layers):
        assert np.array_equal(layer.w, w)
        assert np.array_equal(layer.b, b)


@pytest.mark.parametrize("dims", [[16, 8, 5, 3], [16, 1, 3]])
def test_workspaces_follow_the_batch_size(blobs, dims):
    # Rounds at three batch sizes on one model and one generator: batch 7
    # runs the 7-row and 4-row workspaces, 199 a 1-row last batch and 256
    # a 200-row one. A 1-unit layer and 1-row batch give vector shapes.
    x, y = blobs.x_train[:200], blobs.y_train[:200]
    model = Model.new(dims, seed=6)
    layers = [(l.w.copy(), l.b.copy()) for l in model.dense_layers()]
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    for batch_size in (7, 199, 256):
        cfg = TrainConfig(learning_rate=1e-2, batch_size=batch_size, seed=6)
        train(model, x, y, cfg, rng=rng, epochs=2)
        _reference_train(layers, x, y, cfg, ref_rng, epochs=2)
    for layer, (w, b) in zip(model.dense_layers(), layers):
        assert np.array_equal(layer.w, w)
        assert np.array_equal(layer.b, b)


def test_forward_outputs_survive_training(blobs):
    # Inference allocates: the logits, and each layer's input, are the
    # caller's, whatever a later training step writes.
    model = Model.new([16, 8, 3], seed=1)
    x = blobs.x_train[:32]
    *inputs, logits = model.activations(x)
    kept = [(out, out.copy()) for out in (logits, *inputs)]
    train(model, blobs.x_train[:64], blobs.y_train[:64],
          TrainConfig(learning_rate=1e-2, epochs=1))
    for out, copy in kept:
        assert np.array_equal(out, copy)
    assert not np.array_equal(model.activations(x)[-1], logits)


def test_loss_and_gradients_match_the_copying_step(blobs):
    # Bit for bit against the textbook expressions, sign of zero included:
    # the ReLU writes -0.0 for a negative pre-activation.
    model = Model.new([16, 8, 5, 3], seed=3)
    layers = [(l.w, l.b) for l in model.dense_layers()]
    x, y = blobs.x_train[:9].copy(), blobs.y_train[:9]
    want_loss, want, _ = _reference_gradients(layers, x, y)
    assert model.loss_and_gradients(x, y) == want_loss
    assert np.array_equal(model.flat_grads,
                          np.concatenate([g.ravel() for g in want]))
    for nan_row in (False, True):
        x[4, 2] = np.nan if nan_row else x[4, 2]
        ws = _Workspace(model, 9)
        loss = ws.loss_and_gradients(x, np.arange(9) * 3 + y)
        want_loss, want, acts = _reference_gradients(layers, x, y)
        assert np.array_equal(loss, want_loss, equal_nan=True)
        # The hidden outputs; the last output became the logits' gradient.
        for got, ref in [*zip(_grads(model), want), *zip(ws.outs[:-1], acts)]:
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.signbit(ws.outs[0]).any() and np.isnan(loss) == nan_row


def _params(model):
    return [p for l in model.dense_layers() for p in (l.w, l.b)]


def _grads(model):
    return [g for l in model.dense_layers() for g in (l.dw, l.db)]


def test_flat_buffers_back_every_layer(tmp_path):
    model = Model.new([6, 5, 4, 3], seed=2)
    save_checkpoint(tmp_path / "ckpt.json", model)
    for m in (model, Model.from_dict(model.to_dict()),
              load_checkpoint(tmp_path / "ckpt.json").model):
        assert m.flat_params.shape == m.flat_grads.shape == (
            sum(p.size for p in _params(m)),)
        for layer in m.dense_layers():
            for p, buf in ((layer.w, m.flat_params), (layer.b, m.flat_params),
                           (layer.dw, m.flat_grads), (layer.db, m.flat_grads)):
                assert np.shares_memory(p, buf)
        assert np.array_equal(
            m.flat_params, np.concatenate([p.ravel() for p in _params(m)]))
        assert m is model or not np.shares_memory(m.flat_params,
                                                  model.flat_params)
    # Clipping in place must reach the buffer the optimizer updates.
    entries = tuple(ScheduleEntry(i, 0.8, 0.05, 1.0, None) for i in range(3))
    clip_model(model, VgSchedule("homogeneous", (0.8,), entries))
    assert np.abs(model.flat_params[:6 * 5]).max() == 0.05
    assert np.array_equal(
        model.flat_params,
        np.concatenate([p.ravel() for p in _params(model)]))
    # Gradients land in flat_grads, in (w, b) per layer order.
    x = np.random.default_rng(0).normal(size=(4, 6))
    model.loss_and_gradients(x, np.array([0, 1, 2, 0]))
    assert np.array_equal(
        model.flat_grads, np.concatenate([g.ravel() for g in _grads(model)]))
    assert np.any(model.flat_grads != 0.0)
