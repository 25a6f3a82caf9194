import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import xfmr.tensor as T
import xfmr.train
from xfmr import AdamW, ConfigError, RunConfig, Tensor, build_model, toy_spec
from xfmr.data import synth_dataset
from xfmr.tensor import cross_entropy
from xfmr.train import DivergenceError, cosine_lr, train_toy


class TestAdamW:
    def test_first_step_matches_hand_computation(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.25])
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        opt.step()
        # after bias correction the first update is lr * sign-ish g / (|g| + eps)
        m_hat = 0.1 * np.array([0.5, -0.25]) / 0.1
        v_hat = 0.001 * np.array([0.25, 0.0625]) / 0.001
        expect = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, expect, atol=1e-10)

    def test_decoupled_weight_decay(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = AdamW([p], lr=0.5, weight_decay=0.1)
        opt.step()
        # zero gradient: only the decay term moves the parameter
        assert np.isclose(p.data[0], 4.0 - 0.5 * 0.1 * 4.0)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = AdamW([p], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-2

    def test_skips_parameters_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p], lr=1.0)
        opt.step()
        assert p.data[0] == 1.0


class TestSchedule:
    def test_cosine_endpoints(self):
        assert cosine_lr(1.0, 0, 100) == 1.0
        assert abs(cosine_lr(1.0, 100, 100)) < 1e-12
        assert abs(cosine_lr(1.0, 50, 100) - 0.5) < 1e-12

    def test_warmup_ramp(self):
        assert cosine_lr(1.0, 0, 100, warmup=10) == pytest.approx(0.1)
        assert cosine_lr(1.0, 9, 100, warmup=10) == pytest.approx(1.0)
        assert cosine_lr(1.0, 10, 100, warmup=10) == pytest.approx(1.0)


def short_cfg(**kw):
    base = dict(variant="toy", classes=4, lr=1e-2, weight_decay=0.01,
                warmup=5, drop_path=0.0, steps=12, samples=8, batch=8, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestTrainToy:
    def test_initial_loss_near_log_classes(self):
        _, result = train_toy(short_cfg(steps=1), stop_when_perfect=False)
        assert abs(result.losses[0] - math.log(4)) / math.log(4) <= 0.2

    def test_bitwise_deterministic_per_seed(self):
        cfg = short_cfg(dtype="f64", drop_path=0.2)
        _, a = train_toy(cfg, stop_when_perfect=False)
        _, b = train_toy(cfg, stop_when_perfect=False)
        assert a.losses == b.losses
        assert a.accuracies == b.accuracies

    def test_seed_changes_trajectory(self):
        _, a = train_toy(short_cfg(), stop_when_perfect=False)
        _, b = train_toy(short_cfg(seed=1), stop_when_perfect=False)
        assert a.losses != b.losses

    def test_loss_decreases(self):
        _, result = train_toy(short_cfg(steps=40), stop_when_perfect=False)
        assert min(result.losses) < result.losses[0]

    def test_divergence_detected(self):
        # the blown-up weights overflow conv2d's shift-add before the loss turns non-finite
        with pytest.raises(DivergenceError), pytest.warns(RuntimeWarning, match="overflow"):
            train_toy(short_cfg(lr=1e6, steps=60), stop_when_perfect=False)

    def test_minibatch_path(self):
        _, result = train_toy(short_cfg(batch=4, steps=6), stop_when_perfect=False)
        assert result.steps_run == 6

    def test_class_count_refused_before_the_model_is_built(self, monkeypatch):
        # tiny's 1000 classes exceed the synthetic dataset; building its
        # model first would cost seconds and hundreds of MB for nothing
        def no_model(*args, **kwargs):
            raise AssertionError("model built before the dataset check")

        monkeypatch.setattr(xfmr.train, "build_model", no_model)
        with pytest.raises(ConfigError, match="1000 requested"):
            train_toy(RunConfig(variant="tiny"))

    def test_non_square_input_refused_before_the_model_is_built(self, monkeypatch):
        # the synthetic dataset draws square images, so a 64x96 model would
        # be handed 64x64 ones
        def no_model(*args, **kwargs):
            raise AssertionError("model built before the input-size check")

        monkeypatch.setattr(xfmr.train, "build_model", no_model)
        with pytest.raises(ConfigError, match="^input 64x96 must be square"):
            train_toy(short_cfg(input_size=(64, 96)))


class TestGradientLifetime:
    def test_backward_peak_stays_below_forward_graph(self):
        """Interior gradients are released as the pass reaches them, so the
        traced peak backward adds on top of the forward graph (f32 toy,
        batch 8) stays well below the graph's own footprint."""
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        images, labels = synth_dataset(0, 8, 64, 4)
        x = Tensor(images.astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = cross_entropy(model(x, train=True), labels)
            graph = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            extra = tracemalloc.get_traced_memory()[1] - base - graph
        finally:
            tracemalloc.stop()
        assert extra <= 0.6 * graph, f"backward peak {extra} B over a {graph} B forward graph"

    def test_tape_keeps_only_what_backward_reads(self, monkeypatch):
        """A node keeps only the arrays its rule reads: once the toy's loss is
        built (f32, batch 2), the attention residual sums and the scaled
        attention scores are already freed, while every attention softmax
        output lives until backward runs the rule that reads it."""
        residuals, scores, probs = [], [], []

        def recording(name, sink, picks):
            op = getattr(T, name)

            def wrapped(*args):
                out = op(*args)
                if picks(*args):
                    sink.append(weakref.ref(out.data))
                return out

            monkeypatch.setattr(T, name, wrapped)

        recording("add", residuals, lambda a, b: isinstance(b, Tensor) and a.data.ndim == 4 and a.shape == b.shape)
        recording("mul", scores, lambda a, b: isinstance(b, float) and a.data.ndim == 5)
        recording("softmax_lastdim", probs, lambda t: True)
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        images, labels = synth_dataset(0, 2, 64, 4)
        loss = cross_entropy(model(Tensor(images.astype(np.float32))), labels)
        blocks = sum(len(stage) for stage in model.stages)
        assert (len(residuals), len(scores), len(probs)) == (2 * blocks, blocks, blocks)
        assert all(ref() is None for ref in residuals[::2])  # x + attention branch
        assert all(ref() is None for ref in scores)
        assert all(ref() is not None for ref in probs)
        loss.backward()
        assert all(p.grad is not None and p.grad.shape == p.shape for _, p in model.named_parameters())
        del loss
        assert all(ref() is None for ref in probs)

    def test_backward_releases_every_rule(self, monkeypatch):
        """Each rule and the arrays it saved are dropped once backward has
        run it, so with the toy's loss still bound (f32, batch 2) every
        attention softmax output is already freed, and all that stays traced
        is the parameter gradients plus small graph nodes: ≈60 KB measured,
        against ≈1.9 MB of saved arrays when the rules are kept."""
        slack = 128 * 1024
        probs = []
        softmax = T.softmax_lastdim

        def recording(t):
            out = softmax(t)
            probs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "softmax_lastdim", recording)
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        images, labels = synth_dataset(0, 2, 64, 4)
        x = Tensor(images.astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = cross_entropy(model(x, train=True), labels)
            loss.backward()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(probs) == sum(len(stage) for stage in model.stages)
        assert all(ref() is None for ref in probs)
        params = [p for _, p in model.named_parameters()]
        assert all(p.grad is not None and p.grad.shape == p.shape for p in params)
        grad_bytes = sum(p.grad.nbytes for p in params)
        assert grad_bytes <= kept <= grad_bytes + slack, f"{kept} B kept for {grad_bytes} B of gradients"
