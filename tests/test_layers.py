"""Fast layer kernels against the slow paths they replaced (tests/oracles.py).

Every comparison but the linear kernels' is bit for bit: outputs, every
gradient and the BatchNorm running buffers must have the same shape, dtype
and bytes, so a +0.0 / -0.0 difference fails too. The linear kernels hand
BLAS transposed views where their slow paths copied, and match within
rel_error <= 1e-5.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ntfusion import layers
from ntfusion import network as nw
from ntfusion.data import BatchPlan, Dataset
from ntfusion.losses import cross_entropy
from ntfusion.tensor import RngStream
from ntfusion.training import TrainConfig, train


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def tie_heavy(rng, shape):
    """Small integers with random signs: many ties, including +0.0 vs -0.0."""
    vals = rng.integers(-2, 3, size=shape).astype(np.float32)
    return vals * rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=shape)


def check_maxpool(x, window, rng):
    out, cache = layers.maxpool_forward(x, window)
    want, want_cache = oracles.maxpool_forward(x, window)
    assert_bits_equal(out, want)
    assert out.flags.c_contiguous
    dout = rng.standard_normal(out.shape).astype(np.float32)
    assert_bits_equal(layers.maxpool_backward(dout, cache),
                      oracles.maxpool_backward(dout, want_cache))


def check_conv(x, w, b, stride, padding, rng):
    out, cache = layers.conv_forward(x, w, b, stride, padding)
    want, want_cache = oracles.conv_forward(x, w, b, stride, padding)
    assert_bits_equal(out, want)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    want_grads = oracles.conv_backward(dout, want_cache)
    for got, exp in zip(layers.conv_backward(dout, cache), want_grads):
        assert_bits_equal(got, exp)
    dx, dw, db = layers.conv_backward(dout, cache, input_grad=False)
    assert dx is None
    assert_bits_equal(dw, want_grads[1])
    assert_bits_equal(db, want_grads[2])


def check_bn(x, mode, rng):
    c = x.shape[1]
    weight = rng.uniform(0.5, 1.5, c).astype(np.float32)
    bias = rng.standard_normal(c).astype(np.float32)
    mean0 = rng.standard_normal(c).astype(np.float32)
    var0 = rng.uniform(0.5, 2.0, c).astype(np.float32)
    rm, rv = mean0.copy(), var0.copy()
    want_rm, want_rv = mean0.copy(), var0.copy()
    out, cache = layers.bn_forward(x, weight, bias, rm, rv, mode)
    want, want_cache = oracles.bn_forward(x, weight, bias, want_rm, want_rv, mode)
    assert_bits_equal(out, want)
    assert_bits_equal(rm, want_rm)
    assert_bits_equal(rv, want_rv)
    if mode == "eval":
        assert_bits_equal(rm, mean0)
        assert_bits_equal(rv, var0)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    want_grads = oracles.bn_backward(dout, want_cache)
    for got, exp in zip(layers.bn_backward(dout, cache), want_grads):
        assert_bits_equal(got, exp)
    owned = dout.copy()
    got = layers.bn_backward(owned, cache, overwrite_dout=True)
    assert got[0] is owned
    for g, exp in zip(got, want_grads):
        assert_bits_equal(g, exp)


class TestMaxpool:
    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("hw", [(8, 8), (7, 9), (12, 6)])
    def test_random_input(self, window, hw):
        rng = np.random.default_rng(window * 100 + hw[0])
        x = rng.standard_normal((3, 4, *hw)).astype(np.float32)
        check_maxpool(x, window, rng)

    @pytest.mark.parametrize("window", [2, 3])
    def test_cropped_border_gets_zero_gradient(self, window):
        x = np.random.default_rng(1).standard_normal((2, 2, 7, 9)).astype(np.float32)
        out, cache = layers.maxpool_forward(x, window)
        dx = layers.maxpool_backward(np.ones_like(out), cache)
        assert not dx[:, :, (7 // window) * window :].any()
        assert not dx[:, :, :, (9 // window) * window :].any()

    @pytest.mark.parametrize("fill", [0.0, -0.0, 1.5, -3.0])
    @pytest.mark.parametrize("window", [2, 3])
    def test_constant_windows(self, fill, window):
        x = np.full((2, 3, 7, 9), fill, dtype=np.float32)
        check_maxpool(x, window, np.random.default_rng(2))
        _, cache = layers.maxpool_forward(x, window)
        dx = layers.maxpool_backward(np.ones((2, 3, 7 // window, 9 // window), np.float32), cache)
        # Only the first element of each window takes the gradient.
        assert dx.sum() == 2 * 3 * (7 // window) * (9 // window)
        assert dx[:, :, :: window, :: window][:, :, : 7 // window, : 9 // window].all()

    @pytest.mark.parametrize("window", [2, 3])
    def test_repeated_max_and_signed_zero_ties(self, window):
        rng = np.random.default_rng(3)
        for _ in range(5):
            check_maxpool(tie_heavy(rng, (3, 4, 7, 9)), window, rng)
        # A window that holds -0.0 before +0.0 and one the other way round.
        x = np.full((1, 1, window, 2 * window), -1.0, dtype=np.float32)
        x[0, 0, 0, 0], x[0, 0, window - 1, window - 1] = -0.0, 0.0
        x[0, 0, 0, window], x[0, 0, window - 1, 2 * window - 1] = 0.0, -0.0
        check_maxpool(x, window, rng)
        out, _ = layers.maxpool_forward(x, window)
        assert np.signbit(out).tolist() == [[[[True, False]]]]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 10), st.integers(1, 10), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, seed, b, c, h, w, window, ties):
        rng = np.random.default_rng(seed)
        x = (tie_heavy(rng, (b, c, h, w)) if ties
             else rng.standard_normal((b, c, h, w)).astype(np.float32))
        check_maxpool(x, window, rng)


class TestLinear:
    WIDTHS = (1, 2, 10, 16, 64, 100, 256, 512, 784)

    @pytest.mark.parametrize("batch", [1, 2, 64, 256])
    def test_grid_matches_copying_oracle(self, batch):
        """Every (in, out) pair of WIDTHS, head widths 10 and 16 included:
        output and gradients within 1e-5 of the kernels that copied w.T and
        dout.T, and the same bits on a second call."""
        rng = np.random.default_rng(batch)
        for n_in in self.WIDTHS:
            for n_out in self.WIDTHS:
                x = rng.standard_normal((batch, n_in)).astype(np.float32)
                w = (rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)).astype(np.float32)
                b = rng.standard_normal(n_out).astype(np.float32)
                dout = rng.standard_normal((batch, n_out)).astype(np.float32)
                out, cache = layers.linear_forward(x, w, b)
                want, _ = oracles.linear_forward(x, w, b)
                got = (out, *layers.linear_backward(dout, cache))
                want = (want, *oracles.linear_backward(dout, cache))
                again = (layers.linear_forward(x, w, b)[0], *layers.linear_backward(dout, cache))
                for g, wv, a in zip(got, want, again):
                    assert g.shape == wv.shape and g.dtype == wv.dtype == np.float32
                    assert oracles.rel_error(g, wv) <= 1e-5, (batch, n_in, n_out)
                    assert_bits_equal(g, a)


class TestConv:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_oracle(self, stride, padding):
        rng = np.random.default_rng(10 * stride + padding)
        x = rng.standard_normal((3, 2, 7, 9)).astype(np.float32)
        w = rng.standard_normal((5, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        check_conv(x, w, b, stride, padding, rng)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 2), st.integers(0, 2), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_random_shapes(self, seed, b, cin, cout, kh, kw, stride, padding, dh, dw):
        rng = np.random.default_rng(seed)
        h = max(1, kh - 2 * padding) + dh
        w_ = max(1, kw - 2 * padding) + dw
        x = rng.standard_normal((b, cin, h, w_)).astype(np.float32)
        w = rng.standard_normal((cout, cin, kh, kw)).astype(np.float32)
        bias = rng.standard_normal(cout).astype(np.float32)
        check_conv(x, w, bias, stride, padding, rng)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("hw", [(5, 5), (8, 7), (15, 15), (16, 16)])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_grid(self, k, stride, padding, hw, cin):
        """Every stride/padding/kernel pairing at batch 1, on odd, even and
        pool-cropped sizes; one input channel with k=1 makes w.T one row."""
        rng = np.random.default_rng(k * 100 + stride * 10 + padding)
        x = rng.standard_normal((1, cin, *hw)).astype(np.float32)
        w = rng.standard_normal((4, cin, k, k)).astype(np.float32)
        check_conv(x, w, rng.standard_normal(4).astype(np.float32), stride, padding, rng)


class TestRelu:
    def test_matches_oracle(self):
        rng = np.random.default_rng(20)
        x = tie_heavy(rng, (5, 3, 4, 4))
        out, cache = layers.relu_forward(x)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        want = oracles.relu_backward(dout, cache)
        assert_bits_equal(layers.relu_backward(dout, cache), want)
        owned = dout.copy()
        got = layers.relu_backward(owned, cache, overwrite_dout=True)
        assert got is owned
        assert_bits_equal(got, want)


class TestBatchNorm:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", [(16, 8, 8, 8), (3, 4, 7, 9), (1, 2, 1, 1)])
    def test_matches_oracle(self, mode, shape):
        rng = np.random.default_rng(sum(shape))
        x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        check_bn(x, mode, rng)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
           st.integers(1, 6), st.integers(1, 6), st.sampled_from(["train", "eval"]))
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, seed, b, c, h, w, mode):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.01, 100.0)
        x = (rng.standard_normal((b, c, h, w)) * scale).astype(np.float32)
        check_bn(x, mode, rng)


def arrays_in(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item)


def assert_inputs_kept(fn, *args, **kwargs):
    """Call fn and check that no array among its arguments (caches
    included) changed a byte."""
    arrays = list(arrays_in(args))
    before = [a.tobytes() for a in arrays]
    out = fn(*args, **kwargs)
    assert [a.tobytes() for a in arrays] == before
    return out


class TestBufferOwnership:
    """Every public kernel reads its inputs and writes only new arrays;
    only an explicit overwrite_x or overwrite_dout hands x's or dout's
    buffer over, and only train-mode batch norm updates the running
    buffers."""

    KERNELS = {"linear_forward", "linear_backward", "conv_forward", "conv_backward",
               "bn_forward", "bn_backward", "maxpool_forward", "maxpool_backward",
               "flatten_forward", "flatten_backward", "relu_forward", "relu_backward"}

    def test_every_public_kernel_is_covered(self):
        public = {name for name, fn in vars(layers).items()
                  if inspect.isfunction(fn) and fn.__module__ == layers.__name__
                  and not name.startswith("_")}
        assert public == self.KERNELS

    @staticmethod
    def normal(rng, *shape):
        return rng.standard_normal(shape).astype(np.float32)

    def test_linear(self):
        rng = np.random.default_rng(30)
        x, w, b = self.normal(rng, 5, 4), self.normal(rng, 3, 4), self.normal(rng, 3)
        out, cache = assert_inputs_kept(layers.linear_forward, x, w, b)
        dout = self.normal(rng, *out.shape)
        assert_inputs_kept(layers.linear_backward, dout, cache)
        assert_inputs_kept(layers.linear_backward, dout, cache, input_grad=False)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 2)])
    def test_conv(self, stride, padding):
        rng = np.random.default_rng(31)
        x, w, b = self.normal(rng, 2, 3, 7, 9), self.normal(rng, 4, 3, 3, 3), self.normal(rng, 4)
        out, cache = assert_inputs_kept(layers.conv_forward, x, w, b, stride, padding)
        dout = self.normal(rng, *out.shape)
        assert_inputs_kept(layers.conv_backward, dout, cache)
        assert_inputs_kept(layers.conv_backward, dout, cache, input_grad=False)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm(self, mode):
        rng = np.random.default_rng(32)
        x, weight, bias = self.normal(rng, 4, 3, 5, 5), self.normal(rng, 3), self.normal(rng, 3)
        running_mean, running_var = self.normal(rng, 3), rng.uniform(0.5, 2, 3).astype(np.float32)
        stats = [running_mean.copy(), running_var.copy()]
        out, cache = assert_inputs_kept(
            lambda *a: layers.bn_forward(*a, *stats, mode), x, weight, bias)
        if mode == "eval":
            assert_bits_equal(stats[0], running_mean)
            assert_bits_equal(stats[1], running_var)
        assert_inputs_kept(layers.bn_backward, self.normal(rng, *out.shape), cache)

    def test_maxpool(self):
        rng = np.random.default_rng(33)
        out, cache = assert_inputs_kept(layers.maxpool_forward, tie_heavy(rng, (2, 3, 7, 9)), 2)
        assert_inputs_kept(layers.maxpool_backward, self.normal(rng, *out.shape), cache)

    def test_flatten_and_relu(self):
        rng = np.random.default_rng(34)
        x = tie_heavy(rng, (2, 3, 4, 4))
        out, cache = assert_inputs_kept(layers.flatten_forward, x)
        assert_inputs_kept(layers.flatten_backward, self.normal(rng, *out.shape), cache)
        out, cache = assert_inputs_kept(layers.relu_forward, x)
        assert_inputs_kept(layers.relu_backward, self.normal(rng, *out.shape), cache)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_overwrite_x(self, mode):
        """With overwrite_x, batch norm and relu return x's own buffer holding
        the bits the allocating call returns; batch norm then keeps no cache
        and moves its running buffers as the allocating call does, and relu's
        cache is that buffer."""
        rng = np.random.default_rng(35)
        x, weight, bias = self.normal(rng, 4, 3, 5, 5), self.normal(rng, 3), self.normal(rng, 3)
        stats = [self.normal(rng, 3), rng.uniform(0.5, 2, 3).astype(np.float32)]
        want_stats = [s.copy() for s in stats]
        want, _ = layers.bn_forward(x, weight, bias, *want_stats, mode)
        owned = x.copy()
        got, cache = layers.bn_forward(owned, weight, bias, *stats, mode, overwrite_x=True)
        assert got is owned and cache is None
        assert_bits_equal(got, want)
        for s, w in zip(stats, want_stats):
            assert_bits_equal(s, w)

        x = tie_heavy(rng, (2, 3, 4, 4))
        want, want_cache = layers.relu_forward(x)
        assert want_cache is want
        owned = x.copy()
        got, cache = layers.relu_forward(owned, overwrite_x=True)
        assert got is owned and cache is owned
        assert_bits_equal(got, want)


BACKPROP_NETS = {
    "bench-like-16": [nw.conv(1, 4, 3, padding=1), nw.batchnorm(4), nw.relu(), nw.maxpool(2),
                      nw.conv(4, 6, 3, padding=1), nw.batchnorm(6), nw.relu(), nw.maxpool(2),
                      nw.flatten(), nw.linear(6 * 4 * 4, 8), nw.relu(), nw.linear(8, 3)],
    "cropped-15": [nw.conv(1, 5, 3, padding=1), nw.batchnorm(5), nw.relu(), nw.maxpool(2),
                   nw.conv(5, 7, 3, padding=1), nw.batchnorm(7), nw.relu(), nw.maxpool(2),
                   nw.flatten(), nw.linear(7 * 3 * 3, 9), nw.relu(), nw.linear(9, 3)],
    "strided-no-bn": [nw.conv(1, 3, 5, stride=2, padding=2), nw.relu(), nw.maxpool(2),
                      nw.flatten(), nw.linear(3 * 4 * 4, 3)],
    "mlp": [nw.flatten(), nw.linear(16 * 16, 8), nw.relu(), nw.linear(8, 3)],
}


@pytest.mark.parametrize("name", sorted(BACKPROP_NETS))
@pytest.mark.parametrize("batch", [1, 37])
def test_backprop_matches_oracle(name, batch):
    """Every parameter gradient bit-identical to the slow `backprop`, which
    computes the first layer's input gradient and allocates every buffer;
    the logits gradient is only read."""
    specs = BACKPROP_NETS[name]
    hw = 15 if name == "cropped-15" else 16
    rng = np.random.default_rng(batch)
    net = nw.init_network(specs, RngStream(6, "init"))
    x = rng.standard_normal((batch, 1, hw, hw)).astype(np.float32)
    logits, caches = nw.forward_cached(net, x, "train")
    _, dlogits = cross_entropy(logits, rng.integers(0, 3, size=batch))
    kept = dlogits.copy()
    want = oracles.backprop(net, caches, dlogits)
    got = nw.backprop(net, caches, dlogits)
    assert_bits_equal(dlogits, kept)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            assert_bits_equal(g[key], w[key])


ORACLE_KERNELS = ("conv_forward", "conv_backward", "bn_forward", "bn_backward",
                  "maxpool_forward", "maxpool_backward", "relu_backward")


def test_sgd_steps_match_oracle_kernels(monkeypatch):
    """A few epochs of SGD on a conv+BN+pool net give bit-identical
    parameters, running buffers and logits with the slow kernels and the
    slow `backprop` patched in."""
    specs = [
        nw.conv(1, 4, 3, stride=1, padding=1), nw.batchnorm(4), nw.relu(), nw.maxpool(2),
        nw.conv(4, 6, 3, stride=2, padding=1), nw.batchnorm(6), nw.relu(), nw.maxpool(2),
        nw.flatten(), nw.linear(6, 8), nw.relu(), nw.linear(8, 3),
    ]
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 1, 7, 9)).astype(np.float32)
    ds = Dataset(x, rng.integers(0, 3, size=40), 3)
    net = nw.init_network(specs, RngStream(5, "init"))
    cfg = TrainConfig(epochs=3, lr=0.05, batch=BatchPlan(batch_size=8, shuffle_seed=1))

    fast, _ = train(net, ds, ds, cfg)
    for name in ORACLE_KERNELS:
        monkeypatch.setattr(layers, name, getattr(oracles, name))
    monkeypatch.setattr(nw, "backprop", oracles.backprop)
    slow, _ = train(net, ds, ds, cfg)
    slow_logits = nw.forward(slow, x)
    monkeypatch.undo()

    for pf, ps in zip(fast.params, slow.params):
        assert pf.keys() == ps.keys()
        for key in pf:
            assert_bits_equal(pf[key], ps[key])
    assert_bits_equal(nw.forward(fast, x), slow_logits)
