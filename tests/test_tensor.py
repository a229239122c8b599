"""Tensor op tests against brute-force loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntfusion.errors import NonFiniteTensor, ShapeMismatch
from ntfusion.tensor import RngStream, _conv2d_cols, conv2d, matmul, row_l2_norms

from oracles import conv2d_oracle, matmul_oracle, rel_error


class TestMatmul:
    def test_identity(self):
        out = matmul([[1, 0], [0, 1]], [[5, 6], [7, 8]])
        np.testing.assert_array_equal(out, np.array([[5, 6], [7, 8]], dtype=np.float32))

    def test_hand_arithmetic(self):
        out = matmul([[1, 2]], [[3], [4]])
        np.testing.assert_array_equal(out, np.array([[11]], dtype=np.float32))

    def test_against_triple_loop_oracle(self):
        rng = RngStream(11, "test/matmul")
        a = rng.normal((7, 5))
        b = rng.normal((5, 3))
        assert rel_error(matmul(a, b), matmul_oracle(a, b)) <= 1e-6

    def test_many_random_instances(self):
        rng = RngStream(12, "test/matmul-batch")
        for i in range(100):
            m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
            a = rng.normal((m, k))
            b = rng.normal((k, n))
            assert rel_error(matmul(a, b), matmul_oracle(a, b)) <= 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))

    def test_strided_operands_match_their_contiguous_copies(self):
        """Operands neither C- nor F-contiguous give the bits of the product
        of their C-contiguous copies."""
        rng = np.random.default_rng(13)
        big = rng.standard_normal((64, 96)).astype(np.float32)
        other = rng.standard_normal((96, 48)).astype(np.float32)
        cases = [(big[:, ::2], other[::2]), (big[::2, ::3], other[::3, ::2]),
                 (big[::2, ::2].T, big[:32, :16]), (other[:32, :16], big[:16, ::3])]
        for a, b in cases:
            assert not (a.flags.c_contiguous or a.flags.f_contiguous)
            want = matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
            np.testing.assert_array_equal(matmul(a, b), want)

    def test_non_finite_rejected(self):
        a = np.array([[np.float32(3e38)]], dtype=np.float32)
        with pytest.raises(NonFiniteTensor):
            matmul(a, a)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        k = np.ones((1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_array_equal(conv2d(x, k, 1, 0), x)

    def test_sum_kernel(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        k = np.ones((1, 1, 2, 2), dtype=np.float32)
        np.testing.assert_array_equal(conv2d(x, k, 1, 0), np.full((1, 1, 1, 1), 10, np.float32))

    def test_against_loop_oracle(self):
        rng = RngStream(13, "test/conv")
        x = rng.normal((2, 3, 6, 5))
        k = rng.normal((4, 3, 3, 3))
        for stride, padding in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            got = conv2d(x, k, stride, padding)
            want = conv2d_oracle(x, k, stride, padding)
            assert rel_error(got, want) <= 1e-5

    def test_random_instances_vs_oracle(self):
        rng = RngStream(14, "test/conv-batch")
        for i in range(25):
            b, c, o = (int(v) for v in rng.integers(1, 4, size=3))
            h, w = (int(v) for v in rng.integers(3, 7, size=2))
            kh = int(rng.integers(1, min(h, 4)))
            kw = int(rng.integers(1, min(w, 4)))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            x = rng.normal((b, c, h, w))
            k = rng.normal((o, c, kh, kw))
            assert rel_error(conv2d(x, k, stride, padding),
                             conv2d_oracle(x, k, stride, padding)) <= 1e-5

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("cin,cout,k,stride,padding,hw", [
        (16, 32, 3, 1, 1, 8),  # the benchmark convnet's second conv
        (3, 1, 3, 2, 0, 7),    # one filter: a GEMV per row
        (2, 3, 4, 1, 0, 4),    # one output pixel per row
    ])
    def test_row_slices_bit_identical_to_whole_batch(self, rows, cin, cout, k, stride, padding,
                                                      hw):
        """conv2d unfolds 64 rows at a time; _conv2d_cols unfolds the whole batch."""
        rng = RngStream(15, "test/conv-rows")
        x = rng.normal((rows, cin, hw, hw))
        kernel = rng.normal((cout, cin, k, k))
        got = conv2d(x, kernel, stride, padding)
        want = _conv2d_cols(x, kernel, stride, padding)[0]
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_channel_disagreement(self):
        with pytest.raises(ShapeMismatch):
            conv2d(np.zeros((1, 2, 4, 4), np.float32), np.zeros((1, 3, 2, 2), np.float32))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeMismatch):
            conv2d(np.zeros((1, 1, 2, 2), np.float32), np.zeros((1, 1, 5, 5), np.float32))


class TestRowL2Norms:
    def test_three_four_five(self):
        np.testing.assert_allclose(row_l2_norms(np.array([[3.0, 4.0]])), [5.0])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(row_l2_norms(np.zeros((4, 6))), np.zeros(4, np.float32))

    def test_matches_scalar_loop_oracle(self):
        rng = RngStream(15, "test/norms")
        w = rng.normal((8, 6))
        b = rng.normal((8,))
        got = row_l2_norms(w, b)
        want = [np.sqrt(sum(float(v) ** 2 for v in w[i]) + float(b[i]) ** 2) for i in range(8)]
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_bias_excluded_when_flagged(self):
        w = np.array([[3.0, 4.0]], dtype=np.float32)
        b = np.array([12.0], dtype=np.float32)
        np.testing.assert_allclose(row_l2_norms(w), [5.0])
        np.testing.assert_allclose(row_l2_norms(w, b), [13.0])

    def test_conv_filter_rows(self):
        w = np.ones((2, 1, 3, 3), dtype=np.float32)
        np.testing.assert_allclose(row_l2_norms(w), [3.0, 3.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = RngStream(seed, "test/perm")
        w = rng.normal((6, 5))
        perm = rng.permutation(6)
        np.testing.assert_array_equal(row_l2_norms(w)[perm], row_l2_norms(w[perm]))


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = RngStream(42, "init/member-3").normal((4, 4))
        b = RngStream(42, "init/member-3").normal((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, "a").normal((16,))
        b = RngStream(42, "b").normal((16,))
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(1, "x").normal((16,))
        b = RngStream(2, "x").normal((16,))
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        a = RngStream(7).split("epoch-3").permutation(10)
        b = RngStream(7).split("epoch-3").permutation(10)
        np.testing.assert_array_equal(a, b)

    def test_draws_are_float32(self):
        assert RngStream(1).normal((2, 2)).dtype == np.float32
        assert RngStream(1).uniform((2, 2)).dtype == np.float32
