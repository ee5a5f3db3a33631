"""Engine-level tests: primitive values, detach semantics, backward sweep, tape ownership."""

import sys
import threading

import numpy as np
import pytest

import lcsb.autodiff as ad
from lcsb.autodiff import Tape, Tensor, backward, detach, finite_difference_grad
from lcsb.errors import DimensionError, DivergenceError, UnsupportedPrimitiveError
from lcsb.gradcheck import micro_config
from lcsb.model import init_model


def test_softmax_uniform_logits():
    out = ad.softmax(Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25])
    assert np.isclose(out.data.sum(), 1.0)


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((3, 32)))
    loss = ad.cross_entropy_logits(logits, np.array([0, 5, 31]))
    assert np.isclose(loss.item(), np.log(32), atol=1e-6)


def test_rms_norm_hand_value():
    # x = (3, 4), unit gain, eps=0: x / sqrt(mean(x^2)) = x / sqrt(12.5)
    out = ad.rms_norm(Tensor([3.0, 4.0]), Tensor([1.0, 1.0]), eps=0.0)
    np.testing.assert_allclose(out.data, [0.84852814, 1.13137085], atol=1e-6)


def test_matmul_shape_mismatch_reports_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_unknown_primitive_kind():
    with pytest.raises(UnsupportedPrimitiveError, match="conv2d"):
        ad.primitive_forward("conv2d", [Tensor(np.ones(2))], {})


def test_primitive_forward_dispatch_matches_direct_call():
    a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    b = Tensor(np.ones((3, 2)))
    via_dispatch = ad.primitive_forward("matmul", [a, b])
    assert np.array_equal(via_dispatch.data, ad.matmul(a, b).data)


class TestDetach:
    def test_values_bit_exact(self):
        t = Tensor(np.random.default_rng(0).standard_normal((5, 3)), requires_grad=True)
        d = detach(t)
        assert d.data.tobytes() == t.data.tobytes()
        assert not d.requires_grad

    def test_gradient_sink(self):
        # loss = sum(detach(t)): t's producers receive nothing
        t = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(detach(t))
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads.get(t, np.zeros(4)), np.zeros(4))

    def test_sum_of_detached_gives_zero_grad(self):
        t = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            tracked = ad.scale(t, 1.0)          # t participates in the graph
            loss = ad.add(ad.sum_all(ad.mul(detach(tracked), tracked)), ad.sum_all(detach(tracked)))
        grads = backward(loss, tape)
        # d/dt [sum(detach(t) * t) + sum(detach(t))] = detach(t) = ones
        np.testing.assert_array_equal(grads[t], np.ones(4, dtype=np.float32))

    def test_residual_identity_jacobian(self):
        # y = x + detach(f(x)): gradient of sum(y) w.r.t. x is all ones
        x = Tensor(np.random.default_rng(1).standard_normal(6), requires_grad=True)
        with Tape() as tape:
            fx = ad.silu(ad.scale(x, 3.0))
            y = ad.add(x, detach(fx))
            loss = ad.sum_all(y)
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], np.ones(6, dtype=np.float32))


class TestBackward:
    def test_linear(self):
        theta = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.scale(theta, 2.0))
        grads = backward(loss, tape)
        assert grads[theta] == pytest.approx(2.0)

    def test_quadratic(self):
        theta = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(theta, theta))
        grads = backward(loss, tape)
        assert grads[theta] == pytest.approx(6.0)

    def test_loss_gradient_is_exactly_one(self):
        theta = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            loss = ad.scale(theta, 5.0)
        # the loss node must seed with exactly 1.0: grad(theta) = 5.0 exactly
        assert backward(loss, tape)[theta] == np.float32(5.0)

    def test_non_scalar_loss_raises(self):
        theta = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = ad.scale(theta, 1.0)
        with pytest.raises(DimensionError, match="scalar"):
            backward(out, tape)

    def test_non_finite_loss_raises_divergence(self):
        theta = Tensor(np.float32(1e38), requires_grad=True)
        with Tape() as tape, np.errstate(over="ignore"):
            loss = ad.mul(ad.scale(theta, 1e5), ad.scale(theta, 1e5))  # overflows to inf
            loss = ad.sum_all(loss)
        with pytest.raises(DivergenceError):
            backward(loss, tape)

    def test_accumulation_parameter_used_twice(self):
        theta = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        with Tape() as tape:
            loss = ad.add(ad.sum_all(ad.mul(theta, theta)), ad.sum_all(ad.scale(theta, 3.0)))
        grads = backward(loss, tape)
        np.testing.assert_allclose(grads[theta], 2.0 * theta.data + 3.0, rtol=1e-6)

    def test_unreachable_parameter_gets_exact_zero(self):
        used = Tensor(np.ones(2), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            ad.sum_all(unused)  # on the tape, but not feeding the loss
            loss = ad.sum_all(used)
        grads = backward(loss, tape)
        assert np.all(grads[unused] == 0.0)
        assert grads[unused].shape == (3,)

    def test_backward_deterministic(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        with Tape() as tape:
            loss = ad.mean_all(ad.silu(ad.matmul(a, b)))
        g1 = backward(loss, tape)
        g2 = backward(loss, tape)
        assert g1[a].tobytes() == g2[a].tobytes()
        assert g1[b].tobytes() == g2[b].tobytes()


class TestFiniteDifference:
    def test_quadratic_exact(self):
        theta = Tensor(3.0)

        def f(t):
            return float(t.data) ** 2

        g = finite_difference_grad(f, theta, 1e-3)
        assert g.item() == pytest.approx(6.0, abs=1e-5)

    def test_linear_all_ones(self):
        theta = Tensor(np.random.default_rng(0).standard_normal(5))
        g = finite_difference_grad(lambda t: float(np.sum(t.data, dtype=np.float64)), theta, 1e-3)
        np.testing.assert_allclose(g.data, np.ones(5), atol=1e-4)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda t: 0.0, Tensor(1.0), 0.0)

    def test_restores_theta(self):
        theta = Tensor(np.array([1.0, 2.0]))
        before = theta.data.copy()
        finite_difference_grad(lambda t: float(np.sum(t.data)), theta, 1e-3)
        assert np.array_equal(theta.data, before)


def test_two_layer_mlp_matches_finite_differences():
    # independent float64 oracle of the same tiny MLP
    rng = np.random.default_rng(11)
    w1 = Tensor(rng.standard_normal((4, 6)) * 0.5, requires_grad=True)
    w2 = Tensor(rng.standard_normal((6, 3)) * 0.5, requires_grad=True)
    x = rng.standard_normal((5, 4)).astype(np.float32)

    with Tape() as tape:
        hidden = ad.silu(ad.matmul(Tensor(x), w1))
        loss = ad.mean_all(ad.matmul(hidden, w2))
    grads = backward(loss, tape)

    def oracle(_):
        h = x.astype(np.float64) @ w1.data.astype(np.float64)
        h = h / (1.0 + np.exp(-h))
        return float(np.mean(h @ w2.data.astype(np.float64)))

    for w in (w1, w2):
        fd = finite_difference_grad(oracle, w, 1e-3)
        scale = np.max(np.abs(fd.data)) + 1e-12
        assert np.max(np.abs(grads[w] - fd.data)) / scale < 1e-3


class TestTapeOwnership:
    def test_interleaved_tapes_sum_every_use(self):
        w = Tensor(1.0, requires_grad=True)
        tape_a, tape_b = Tape(), Tape()
        with tape_a:
            first = ad.scale(w, 2.0)
        with tape_b:
            ad.scale(w, 1.0)
        with tape_a:
            loss = ad.add(first, ad.scale(w, 3.0))
        assert backward(loss, tape_a)[w] == np.float32(5.0)

    def test_other_tapes_intermediate_is_a_leaf_there(self):
        w = Tensor(1.5, requires_grad=True)
        tape_a, tape_b = Tape(), Tape()
        with tape_a:
            x = ad.scale(w, 2.0)
        with tape_b:
            loss_b = ad.sum_all(ad.scale(x, 7.0))
        with tape_a:
            loss_a = ad.sum_all(ad.mul(x, x))
        # d/dw (2w)^2 = 8w
        assert backward(loss_a, tape_a)[w] == np.float32(12.0)
        grads_b = backward(loss_b, tape_b)
        assert list(grads_b) == [x] and grads_b[x] == np.float32(7.0)

    def test_threads_sharing_a_model_match_sequential_grads(self):
        model = init_model(micro_config(), 0)
        rng = np.random.default_rng(1)
        for p in model.trainable_params().values():
            p.data[...] = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
        cfg = model.config
        batches = [(rng.integers(0, cfg.vocab_size, cfg.seq_len),
                    rng.integers(0, cfg.vocab_size, cfg.seq_len)) for _ in range(4)]

        def grads_of(tokens, targets):
            with Tape() as tape:
                loss = ad.cross_entropy_logits(model.forward(tokens), targets)
            return {id(p): g for p, g in backward(loss, tape).items()}

        expected = [grads_of(*batch) for batch in batches]
        results = [[] for _ in batches]

        def work(i):
            for _ in range(10):
                results[i].append(grads_of(*batches[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert len(got) == 10
            for grads in got:
                assert grads.keys() == want.keys()
                assert all(np.array_equal(grads[k], want[k]) for k in want)
