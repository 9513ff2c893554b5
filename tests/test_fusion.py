"""Tests for the branch fusion strategies."""

import math

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast.autodiff import Tensor, grad_check
from exoforecast.fusion import (
    AttentionParams,
    BalancerParams,
    attention_enhance,
    context_balance,
    context_combine,
    fuse_attention,
    fuse_learnable,
    fuse_simple,
    init_attention,
    init_balancer,
    init_learnable_weights,
)
from helpers import sigmoid


def context_oracle(yp, yf, p):
    """Scalar-loop evaluation of the balancer equations."""
    n, t, _ = yp.shape
    ysum = yp + yf
    d = [sum(ysum[i, s, 0] for i in range(n)) / n for s in range(t)]
    width = p.w1.shape[1]
    hidden = [max(0.0, sum(d[s] * p.w1.values[s, j] for s in range(t))
                   + p.b1.values[j]) for j in range(width)]
    alpha = [sigmoid(sum(hidden[j] * p.w2.values[j, s] for j in range(width))
                     + p.b2.values[s]) for s in range(t)]
    yhat = np.zeros_like(yp)
    for i in range(n):
        for s in range(t):
            yhat[i, s, 0] = (alpha[s] * yp[i, s, 0]
                             + (1 - alpha[s]) * yf[i, s, 0] + ysum[i, s, 0])
    return yhat, np.array(alpha)


def attention_oracle(sp, sf, p):
    """Loop evaluation of the bidirectional attention fusion."""
    n, t, c = sp.shape

    def enhance(query_src, target):
        q = query_src @ p.w_q.values
        k = target @ p.w_k.values
        v = target @ p.w_v.values
        out = target.copy()
        for i in range(n):
            scores = [sum(q[i, s, d] * k[i, s, d] for d in range(c)) / math.sqrt(c)
                      for s in range(t)]
            m = max(scores)
            exps = [math.exp(x - m) for x in scores]
            z = sum(exps)
            for s in range(t):
                out[i, s] = target[i, s] + (exps[s] / z) * v[i, s]
        return out

    enh_p = enhance(sf, sp)
    enh_f = enhance(sp, sf)
    return 0.5 * enh_p + 0.5 * enh_f


def rand_branches(seed, n=3, t=4):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(n, t, 1))),
            Tensor(rng.normal(size=(n, t, 1))), rng)


class TestContextBalance:
    def test_equal_branches_triple_bit_exact(self):
        # zero balancer params give alpha = 0.5 exactly; dyadic values keep
        # every intermediate product exact
        y0 = np.array([[[1.5], [-0.75]], [[2.0], [0.25]]])
        p = init_balancer(2, np.random.default_rng(0))
        for t in p.parameters("b").values():
            t.values[...] = 0.0
        y_hat, alpha = context_balance(Tensor(y0), Tensor(y0.copy()), p)
        np.testing.assert_array_equal(y_hat.values, 3.0 * y0)
        np.testing.assert_array_equal(alpha.values, np.full(2, 0.5))

    def test_equal_branches_triple_any_balancer(self):
        yp, _, rng = rand_branches(1)
        p = init_balancer(4, rng)
        y_hat, _ = context_balance(yp, Tensor(yp.values.copy()), p)
        np.testing.assert_allclose(y_hat.values, 3.0 * yp.values, atol=1e-12)

    def test_zero_params_give_three_halves_sum(self):
        yp, yf, rng = rand_branches(2)
        p = init_balancer(4, rng)
        for t in p.parameters("b").values():
            t.values[...] = 0.0
        y_hat, alpha = context_balance(yp, yf, p)
        np.testing.assert_allclose(alpha.values, np.full(4, 0.5))
        np.testing.assert_allclose(y_hat.values, 1.5 * (yp.values + yf.values),
                                   atol=1e-12)

    def test_alpha_pinned_to_one(self):
        yp, yf, _ = rand_branches(3)
        out = context_combine(yp, yf, Tensor(np.ones(1)))
        np.testing.assert_allclose(out.values, 2 * yp.values + yf.values,
                                   atol=1e-12)

    def test_alpha_strictly_inside_unit_interval(self):
        # float64 sigmoid stays strictly inside (0, 1) for |logit| < ~36.7;
        # z-scored descriptors never get near that
        for seed in range(10):
            yp, yf, rng = rand_branches(seed, n=4, t=6)
            p = init_balancer(6, rng)
            _, alpha = context_balance(Tensor(yp.values * 5), yf, p)
            assert (alpha.values > 0).all() and (alpha.values < 1).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        yp, yf, rng = rand_branches(seed)
        p = init_balancer(4, rng)
        y_hat, alpha = context_balance(yp, yf, p)
        expected, expected_alpha = context_oracle(yp.values, yf.values, p)
        np.testing.assert_allclose(y_hat.values, expected, atol=1e-9)
        np.testing.assert_allclose(alpha.values, expected_alpha, atol=1e-9)

    def test_not_commutative_witness(self):
        yp, yf, rng = rand_branches(5)
        p = init_balancer(4, rng)
        a, _ = context_balance(yp, yf, p)
        b, _ = context_balance(yf, yp, p)
        assert np.abs(a.values - b.values).max() > 1e-6

    def test_gradcheck(self):
        yp, yf, rng = rand_branches(6, n=2, t=3)
        p = init_balancer(3, rng)
        wrt = [yp, yf] + list(p.parameters("b").values())

        def f():
            y_hat, _ = context_balance(yp, yf, p)
            return ad.reduce_sum(y_hat)

        assert grad_check(f, wrt, step=1e-5) < 1e-4

    @pytest.mark.parametrize("t_future, width", [(1, 4), (16, 4), (24, 6)])
    def test_bottleneck_width(self, t_future, width):
        # max(t_future // 4, 4) units between the T_f-wide descriptor and alpha
        p = init_balancer(t_future, np.random.default_rng(0))
        assert p.w1.shape == (t_future, width) and p.b1.shape == (width,)
        assert p.w2.shape == (width, t_future) and p.b2.shape == (t_future,)

    def test_shape_mismatch(self):
        p = init_balancer(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shapes differ"):
            context_balance(Tensor(np.zeros((2, 3, 1))),
                            Tensor(np.zeros((2, 4, 1))), p)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(8)
        yp = rng.normal(size=(5, 3, 4, 1))
        yf = rng.normal(size=(5, 3, 4, 1))
        p = init_balancer(4, rng)
        batch, alpha = context_balance(Tensor(yp), Tensor(yf), p)
        assert alpha.values.shape == (5, 4)
        for b in range(5):
            one, _ = context_balance(Tensor(yp[b]), Tensor(yf[b]), p)
            np.testing.assert_allclose(batch.values[b], one.values, atol=1e-12)


class TestSimple:
    def test_small_example(self):
        out = fuse_simple(Tensor(np.array([[[2.0]]])), Tensor(np.array([[[4.0]]])))
        np.testing.assert_array_equal(out.values, [[[3.0]]])

    def test_equal_branches_identity(self):
        yp, _, _ = rand_branches(0)
        out = fuse_simple(yp, Tensor(yp.values.copy()))
        np.testing.assert_array_equal(out.values, yp.values)

    def test_commutative_bit_level(self):
        yp, yf, _ = rand_branches(1)
        np.testing.assert_array_equal(fuse_simple(yp, yf).values,
                                      fuse_simple(yf, yp).values)

    @pytest.mark.parametrize("seed", range(20))
    def test_elementwise_mean_oracle(self, seed):
        yp, yf, _ = rand_branches(seed)
        out = fuse_simple(yp, yf)
        expected = np.zeros_like(yp.values)
        for idx in np.ndindex(yp.values.shape):
            expected[idx] = 0.5 * yp.values[idx] + 0.5 * yf.values[idx]
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


class TestLearnable:
    def test_zero_logits(self):
        yp, yf, _ = rand_branches(2)
        out = fuse_learnable(yp, yf, init_learnable_weights())
        np.testing.assert_allclose(out.values, 1.5 * (yp.values + yf.values),
                                   atol=1e-12)

    def test_saturated_logits(self):
        yp, yf, _ = rand_branches(3)
        out = fuse_learnable(yp, yf, Tensor(np.array([50.0, 0.0])))
        np.testing.assert_allclose(out.values, 2 * yp.values + yf.values,
                                   atol=1e-9)

    def test_weights_sum_to_one(self):
        for seed in range(10):
            w_init = np.random.default_rng(seed).normal(size=2) * 5
            w = ad.softmax(Tensor(w_init), axis=-1)
            assert abs(w.values.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_formula(self, seed):
        yp, yf, rng = rand_branches(seed)
        w_init = rng.normal(size=2)
        out = fuse_learnable(yp, yf, Tensor(w_init))
        e = np.exp(w_init - w_init.max())
        w = e / e.sum()
        expected = w[0] * yp.values + w[1] * yf.values + yp.values + yf.values
        np.testing.assert_allclose(out.values, expected, atol=1e-9)

    def test_matches_context_with_alpha_half(self):
        yp, yf, rng = rand_branches(4)
        p = init_balancer(4, rng)
        for t in p.parameters("b").values():
            t.values[...] = 0.0
        via_context, _ = context_balance(yp, yf, p)
        via_learnable = fuse_learnable(yp, yf, init_learnable_weights())
        np.testing.assert_allclose(via_context.values, via_learnable.values,
                                   atol=1e-12)

    def test_gradcheck(self):
        yp, yf, _ = rand_branches(5, n=2, t=3)
        w_init = Tensor(np.array([0.3, -0.2]))

        def f():
            return ad.reduce_sum(fuse_learnable(yp, yf, w_init))

        assert grad_check(f, [yp, yf, w_init], step=1e-5) < 1e-4


class TestAttention:
    def _states(self, seed, n=2, t=3, c=4):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(n, t, c))),
                Tensor(rng.normal(size=(n, t, c))), rng)

    def test_zero_projections_reduce_to_mean(self):
        sp, sf, _ = self._states(0)
        params = AttentionParams(w_q=Tensor(np.zeros((4, 4))),
                                 w_k=Tensor(np.zeros((4, 4))),
                                 w_v=Tensor(np.zeros((4, 4))))
        out = fuse_attention(sp, sf, params)
        np.testing.assert_allclose(out.values, 0.5 * (sp.values + sf.values),
                                   atol=1e-12)

    def test_equal_branches_symmetric(self):
        sp, _, rng = self._states(1)
        params = init_attention(4, rng)
        enh_p, enh_f = attention_enhance(sp, Tensor(sp.values.copy()), params)
        np.testing.assert_allclose(enh_p.values, enh_f.values, atol=1e-12)
        fused = fuse_attention(sp, Tensor(sp.values.copy()), params)
        np.testing.assert_allclose(fused.values, enh_p.values, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_oracle(self, seed):
        sp, sf, rng = self._states(seed)
        params = init_attention(4, rng)
        out = fuse_attention(sp, sf, params)
        np.testing.assert_allclose(
            out.values, attention_oracle(sp.values, sf.values, params), atol=1e-9)

    def test_gradcheck(self):
        sp, sf, rng = self._states(2, n=2, t=2, c=2)
        params = init_attention(2, rng)
        wrt = [sp, sf] + list(params.parameters("a").values())

        def f():
            return ad.reduce_sum(fuse_attention(sp, sf, params))

        assert grad_check(f, wrt, step=1e-5) < 1e-4

    def test_shape_mismatch(self):
        params = init_attention(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shapes differ"):
            attention_enhance(Tensor(np.zeros((2, 3, 3))),
                              Tensor(np.zeros((2, 4, 3))), params)
