"""Evidence network forward/backward and the adaptive-moment optimizer."""

import numpy as np
import pytest

from evifuse.evidential import loss_and_grad, one_hot
from evifuse.fusion import _fuse_alphas, total_loss_alpha_grads
from evifuse.network import (
    BETA1,
    BETA2,
    EPS,
    WEIGHT_DECAY,
    Adam,
    EvidenceNetwork,
    sigmoid,
    softplus,
)


def flat_params(net):
    return np.concatenate([p.ravel() for p in net.params])


def set_flat_params(net, flat):
    offset = 0
    new = []
    for p in net.params:
        new.append(flat[offset:offset + p.size].reshape(p.shape).copy())
        offset += p.size
    net.set_params(new)


class TestForward:
    def test_zero_parameters_give_log2(self):
        net = EvidenceNetwork([3, 4, 2], seed=0)
        net.set_params([np.zeros_like(p) for p in net.params])
        out = net.forward(np.array([[1.0, -2.0, 0.5]]))
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out, np.log(2.0))

    def test_identity_single_layer(self):
        net = EvidenceNetwork([1, 1], seed=0)
        net.set_params([np.array([[1.0]]), np.array([0.0])])
        out = net.forward(np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(np.log1p(np.e), rel=1e-12)  # softplus(1)

    def test_output_never_negative(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            net = EvidenceNetwork([5, 8, 3], seed=trial)
            x = rng.normal(0, 5, (500, 5))
            assert np.all(net.forward(x) >= 0.0)

    def test_dimension_mismatch(self):
        net = EvidenceNetwork([3, 2], seed=0)
        with pytest.raises(ValueError):
            net.forward(np.ones((1, 4)))

    def test_one_dimensional_input_rejected(self):
        net = EvidenceNetwork([3, 2], seed=0)
        for head in (net.forward, net.forward_logits):
            with pytest.raises(ValueError, match=r"\(rows, 3\)"):
                head(np.ones(3))

    def test_batch_matches_single(self):
        # batched and one-row inputs may use different BLAS kernels,
        # so agreement is to rounding, not bit-exact
        net = EvidenceNetwork([4, 6, 3], seed=2)
        x = np.random.default_rng(3).normal(size=(5, 4))
        batch = net.forward(x)
        for i in range(5):
            np.testing.assert_allclose(net.forward(x[i:i + 1])[0], batch[i], rtol=1e-13)

    def test_softplus_stability(self):
        z = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        out = softplus(z)
        assert np.all(np.isfinite(out))
        assert out[-1] == pytest.approx(800.0)
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0

    def test_sigmoid_matches_two_branch_formula(self):
        def two_branch(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([800.0, -800.0, 0.0, -0.0, tiny, -tiny, 3 * tiny, -1e-310,
                          np.inf, -np.inf, np.nan])
        z = np.concatenate([edges, np.random.default_rng(8).normal(0.0, 20.0, 1000)])
        np.testing.assert_array_equal(sigmoid(z), two_branch(z))
        logits = np.random.default_rng(9).normal(size=(128, 10))
        np.testing.assert_array_equal(sigmoid(logits), two_branch(logits))


def loss_through_network(nets, xs, y, lam):
    alphas = [net.forward(x) + 1.0 for net, x in zip(nets, xs)]
    fused, _ = _fuse_alphas([np.atleast_2d(a) for a in alphas])
    total = loss_and_grad(fused, y, lam)[0]
    for a in alphas:
        total = total + loss_and_grad(np.atleast_2d(a), y, lam)[0]
    return float(np.sum(total))


class TestBackward:
    def test_single_view_gradcheck(self):
        rng = np.random.default_rng(4)
        net = EvidenceNetwork([3, 4, 2], seed=5)
        x = rng.normal(size=(6, 3))
        y = one_hot(rng.integers(0, 2, 6), 2)
        lam = 0.3
        evidence, cache = net.forward(x, return_cache=True)
        grads = net.backward(cache, loss_and_grad(evidence + 1.0, y, lam)[1])
        flat_grad = np.concatenate([g.ravel() for g in grads])

        base = flat_params(net)
        h = 1e-5
        for j in range(base.size):
            up, down = base.copy(), base.copy()
            up[j] += h
            down[j] -= h
            set_flat_params(net, up)
            lp = float(np.sum(loss_and_grad(net.forward(x) + 1.0, y, lam)[0]))
            set_flat_params(net, down)
            lm = float(np.sum(loss_and_grad(net.forward(x) + 1.0, y, lam)[0]))
            set_flat_params(net, base)
            fd = (lp - lm) / (2 * h)
            assert abs(flat_grad[j] - fd) <= 1e-7 + 1e-5 * abs(fd)

    def test_gradcheck_through_fusion_three_views(self):
        """Exact gradients for the full multi-task objective across a fold."""
        rng = np.random.default_rng(6)
        dims = [3, 2, 4]
        nets = [EvidenceNetwork([d, 4, 3], seed=10 + i) for i, d in enumerate(dims)]
        xs = [rng.normal(size=(2, d)) for d in dims]
        y = one_hot(rng.integers(0, 3, 2), 3)
        lam = 0.7

        caches, alphas = [], []
        for net, x in zip(nets, xs):
            e, cache = net.forward(x, return_cache=True)
            alphas.append(e + 1.0)
            caches.append(cache)
        _, _, alpha_grads = total_loss_alpha_grads(alphas, y, lam)
        h = 1e-5
        for v, net in enumerate(nets):
            grads = net.backward(caches[v], alpha_grads[v])
            flat_grad = np.concatenate([g.ravel() for g in grads])
            base = flat_params(net)
            check = np.linspace(0, base.size - 1, 12, dtype=int)
            for j in check:
                up, down = base.copy(), base.copy()
                up[j] += h
                down[j] -= h
                set_flat_params(net, up)
                lp = loss_through_network(nets, xs, y, lam)
                set_flat_params(net, down)
                lm = loss_through_network(nets, xs, y, lam)
                set_flat_params(net, base)
                fd = (lp - lm) / (2 * h)
                assert abs(flat_grad[j] - fd) <= 1e-7 + 1e-4 * abs(fd)

    def test_true_class_evidence_gradient_sign(self):
        """With lam=0, adding evidence on the true class lowers the loss."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = 1.0 + rng.uniform(0, 10, (1, 4))
            y = one_hot([2], 4)
            grad = loss_and_grad(alpha, y, 0.0)[1]
            assert grad[0, 2] <= 0.0

    def test_duplicate_inputs_duplicate_gradients(self):
        net = EvidenceNetwork([2, 3, 2], seed=9)
        x = np.array([[0.5, -1.0]])
        y = one_hot([1], 2)
        outs = []
        for _ in range(2):
            e, cache = net.forward(x, return_cache=True)
            grads = net.backward(cache, loss_and_grad(e + 1.0, y, 0.5)[1])
            outs.append(np.concatenate([g.ravel() for g in grads]))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestAdam:
    def test_zero_gradient_only_decays(self):
        net = EvidenceNetwork([2, 2], seed=0)
        before = [p.copy() for p in net.params]
        opt = Adam.over([net], learning_rate=0.1)
        opt.step([np.zeros_like(p) for p in net.params])
        for b, p in zip(before, net.params):
            np.testing.assert_allclose(p, b * (1 - 0.1 * WEIGHT_DECAY), rtol=1e-12)

    def test_constant_gradient_step_magnitude(self):
        """With constant gradient the bias-corrected step approaches lr
        (the weight decay moves |p| <= 0.5 by at most 5e-9 a step)."""
        opt = Adam([np.array([0.0])], learning_rate=1e-3)
        p = opt.params
        g = [np.array([0.123])]
        prev = p[0].copy()
        for _ in range(500):
            prev = p[0].copy()
            opt.step(g)
        assert abs(prev[0] - p[0][0]) == pytest.approx(1e-3, rel=1e-3)

    def test_params_are_views_of_one_copied_buffer(self):
        arrays = [np.ones((2, 3)), np.full(3, 2.0)]
        opt = Adam(arrays)
        assert [p.shape for p in opt.params] == [(2, 3), (3,)]
        assert all(np.shares_memory(p, opt.flat) for p in opt.params)
        np.testing.assert_array_equal(opt.flat, [1.0] * 6 + [2.0] * 3)
        opt.step([np.ones((2, 3)), np.ones(3)])
        np.testing.assert_array_equal(arrays[0], np.ones((2, 3)))
        assert np.all(opt.params[0] < 1.0)

    def test_gradient_of_another_shape_rejected(self):
        opt = Adam([np.ones((2, 3)), np.ones(3)])
        for grads in ([np.ones((3, 2)), np.ones(3)], [np.ones((2, 3))],
                      [np.ones((2, 3)), np.ones(3), np.ones(1)]):
            with pytest.raises(ValueError, match="shapes"):
                opt.step(grads)
        np.testing.assert_array_equal(opt.flat, np.ones(9))

    def test_flat_step_matches_a_per_array_loop(self):
        """The flat step, byte for byte, against a step over each array in turn."""
        rng = np.random.default_rng(8)
        nets = [EvidenceNetwork([3, 5, 2], seed=3), EvidenceNetwork([4, 6, 3, 2], seed=4)]
        params = [p.copy() for net in nets for p in net.params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        opt, lr = Adam.over(nets, learning_rate=0.05), 0.05
        for t in range(1, 7):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
            opt.step(grads)
            bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for p, g, m_i, v_i in zip(params, grads, m, v):
                m_i *= BETA1
                m_i += (1.0 - BETA1) * g
                v_i *= BETA2
                v_i += (1.0 - BETA2) * g * g
                p -= lr * (m_i / bc1) / (np.sqrt(v_i / bc2) + EPS)
                p -= lr * WEIGHT_DECAY * p
            got = [p for net in nets for p in net.params]
            assert [p.tobytes() for p in got] == [p.tobytes() for p in params]
            assert opt.m.tobytes() == np.concatenate([x.ravel() for x in m]).tobytes()
            assert opt.v.tobytes() == np.concatenate([x.ravel() for x in v]).tobytes()

    def test_nan_gradient_raises_with_path(self):
        # layers count on through the heads: the second head's first layer is layer 2
        nets = [EvidenceNetwork([2, 3, 2], seed=0), EvidenceNetwork([4, 3, 2], seed=1)]
        params = [p for net in nets for p in net.params]
        for index, path in ((2, "layer 1 weights"), (5, "layer 2 biases")):
            grads = [np.zeros_like(p) for p in params]
            grads[index][0] = np.nan
            with pytest.raises(FloatingPointError, match=path):
                Adam(params).step(grads)

    def test_one_optimizer_over_two_networks_matches_one_each(self):
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(10, 3)), rng.normal(size=(10, 2))]
        y = one_hot(rng.integers(0, 2, 10), 2)

        def grads(net, x):
            e, cache = net.forward(x, return_cache=True)
            return net.backward(cache, loss_and_grad(e + 1.0, y, 0.1)[1])

        def heads():
            return [EvidenceNetwork([3, 4, 2], seed=1), EvidenceNetwork([2, 5, 2], seed=2)]

        shared, alone = heads(), heads()
        before = flat_params(shared[0])
        joint = Adam.over(shared, learning_rate=0.01)
        each = [Adam.over([net], learning_rate=0.01) for net in alone]
        for _ in range(6):
            joint.step([g for net, x in zip(shared, xs) for g in grads(net, x)])
            for opt, net, x in zip(each, alone, xs):
                opt.step(grads(net, x))
        for a, b in zip(shared, alone):
            np.testing.assert_array_equal(flat_params(a), flat_params(b))
        assert not np.array_equal(flat_params(shared[0]), before)

    def test_deterministic_training_bit_identical(self):
        def run():
            rng = np.random.default_rng(0)
            net = EvidenceNetwork([3, 4, 2], seed=7)
            opt = Adam.over([net])
            x = rng.normal(size=(20, 3))
            y = one_hot(rng.integers(0, 2, 20), 2)
            for _ in range(5):
                e, cache = net.forward(x, return_cache=True)
                opt.step(net.backward(cache, loss_and_grad(e + 1.0, y, 0.1)[1]))
            return flat_params(net)

        first = run()
        np.testing.assert_array_equal(first, run())
        assert not np.array_equal(first, flat_params(EvidenceNetwork([3, 4, 2], seed=7)))


class TestTrainingProgress:
    def test_loss_decreases_on_separable_toy(self):
        """20 full-batch steps on a linearly separable 2-view problem."""
        rng = np.random.default_rng(12)
        n = 50
        labels = rng.integers(0, 2, n)
        x1 = np.where(labels[:, None] == 0, -2.0, 2.0) + rng.normal(0, 0.3, (n, 2))
        x2 = np.where(labels[:, None] == 0, 2.0, -2.0) + rng.normal(0, 0.3, (n, 3))
        y = one_hot(labels, 2)
        nets = [EvidenceNetwork([2, 8, 2], seed=1), EvidenceNetwork([3, 8, 2], seed=2)]
        opt = Adam.over(nets, learning_rate=1e-2)
        losses = []
        for step in range(20):
            caches, alphas = [], []
            for net, x in zip(nets, [x1, x2]):
                e, cache = net.forward(x, return_cache=True)
                alphas.append(e + 1.0)
                caches.append(cache)
            fused_term, view_terms, grads = total_loss_alpha_grads(alphas, y, 0.0)
            losses.append(float(np.sum(fused_term) + sum(np.sum(t) for t in view_terms)))
            opt.step([p for net, cache, g in zip(nets, caches, grads)
                      for p in net.backward(cache, g / n)])
        assert losses[-1] < losses[0]
