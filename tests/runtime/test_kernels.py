"""NumPy kernels against independent references (scipy / manual math)."""

import numpy as np
import pytest
from scipy import signal

from repro.exceptions import ExecutionError
from repro.runtime.kernels import (
    KERNELS,
    OUT_KERNELS,
    avg_pool2d,
    conv2d,
    depthwise_conv2d,
    max_pool2d,
    pad_same,
)

rng = np.random.default_rng(42)


def _scipy_conv2d_valid(x, w):
    """Reference conv via scipy.correlate2d, 'valid' padding."""
    m, c = w.shape[0], w.shape[1]
    oh = x.shape[1] - w.shape[2] + 1
    ow = x.shape[2] - w.shape[3] + 1
    out = np.zeros((m, oh, ow))
    for i in range(m):
        for j in range(c):
            out[i] += signal.correlate2d(x[j], w[i, j], mode="valid")
    return out


class TestConv2d:
    def test_matches_scipy_valid(self):
        x = rng.standard_normal((3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        ours = conv2d(x, w, padding="valid")
        np.testing.assert_allclose(ours, _scipy_conv2d_valid(x, w), atol=1e-12)

    def test_same_padding_shape(self):
        x = rng.standard_normal((3, 9, 9))
        w = rng.standard_normal((2, 3, 3, 3))
        assert conv2d(x, w, padding="same").shape == (2, 9, 9)

    def test_same_equals_manual_pad_valid(self):
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((2, 2, 3, 3))
        same = conv2d(x, w, padding="same")
        manual = conv2d(np.pad(x, ((0, 0), (1, 1), (1, 1))), w, padding="valid")
        np.testing.assert_allclose(same, manual, atol=1e-12)

    def test_stride(self):
        x = rng.standard_normal((1, 8, 8))
        w = rng.standard_normal((1, 1, 1, 1))
        strided = conv2d(x, w, stride=2, padding="valid")
        np.testing.assert_allclose(strided[0], x[0, ::2, ::2] * w[0, 0, 0, 0])

    def test_bias(self):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((3, 2, 1, 1))
        bias = np.array([1.0, -2.0, 0.5])
        with_b = conv2d(x, w, bias)
        without = conv2d(x, w)
        np.testing.assert_allclose(
            with_b - without, np.broadcast_to(bias[:, None, None], with_b.shape)
        )

    def test_pointwise_is_matmul(self):
        x = rng.standard_normal((5, 4, 4))
        w = rng.standard_normal((3, 5, 1, 1))
        ours = conv2d(x, w)
        ref = np.einsum("mc,chw->mhw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(ours, ref, atol=1e-12)


class TestDepthwise:
    def test_per_channel_independence(self):
        x = rng.standard_normal((3, 6, 6))
        w = rng.standard_normal((3, 1, 3, 3))
        full = depthwise_conv2d(x, w, padding="valid")
        for c in range(3):
            alone = depthwise_conv2d(x[c : c + 1], w[c : c + 1], padding="valid")
            np.testing.assert_allclose(full[c], alone[0], atol=1e-12)

    def test_equals_grouped_scipy(self):
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((2, 1, 3, 3))
        ours = depthwise_conv2d(x, w, padding="valid")
        for c in range(2):
            ref = signal.correlate2d(x[c], w[c, 0], mode="valid")
            np.testing.assert_allclose(ours[c], ref, atol=1e-12)

    def test_multiplier_layout(self):
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        out = depthwise_conv2d(x, w, padding="valid")
        assert out.shape == (6, 3, 3)
        # channel c*mult+t convolves x[c] with w[c, t]
        ref = signal.correlate2d(x[1], w[1, 2], mode="valid")
        np.testing.assert_allclose(out[1 * 3 + 2], ref, atol=1e-12)


class TestPooling:
    def test_max_pool_manual(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = max_pool2d(x, {"kernel": 2})
        np.testing.assert_allclose(out[0], [[5, 7], [13, 15]])

    def test_avg_pool_manual(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = avg_pool2d(x, {"kernel": 2})
        np.testing.assert_allclose(out[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_same_padding_max_pool(self):
        x = rng.standard_normal((1, 5, 5))
        out = max_pool2d(x, {"kernel": 3, "stride": 1, "padding": "same"})
        assert out.shape == (1, 5, 5)
        # padding uses -inf so borders are true maxima of real elements
        assert out.max() == pytest.approx(x.max())

    def test_pad_same_noop_for_valid(self):
        x = rng.standard_normal((1, 5, 5))
        assert pad_same(x, (3, 3), (1, 1), "valid") is x


# per op: (attrs, parameter shapes, per-sample input shapes). Every key
# of KERNELS has a row, including the ops no suite cell reaches.
_CONV = {"weight": (4, 3, 3, 3), "bias": (4,)}
_DW = {"weight": (3, 2, 3, 3), "bias": (6,)}
CONTRACT_CASES = {
    "conv2d": ({"stride": 2, "padding": "same"}, _CONV, [(3, 7, 7)]),
    "partial_conv2d": (
        {"accumulate": True, "padding": "valid"},
        {"weight": (4, 3, 3, 3)},
        [(3, 6, 6), (4, 4, 4)],
    ),
    "depthwise_conv2d": ({"padding": "same"}, _DW, [(3, 6, 6)]),
    "partial_depthwise_conv2d": ({"stride": 2, "padding": "valid"}, _DW, [(3, 7, 7)]),
    "fused_sep_conv3x3": (
        {},
        {"dw_weight": (3, 1, 3, 3), "pw_weight": (5, 3, 1, 1), "bias": (5,)},
        [(3, 6, 6)],
    ),
    "concat": ({}, {}, [(2, 4, 4), (3, 4, 4), (1, 4, 4)]),
    "add": ({}, {}, [(3, 4, 4)] * 3),
    "mul": ({}, {}, [(3, 4, 4)] * 3),
    "relu": ({}, {}, [(3, 4, 4)]),
    "relu6": ({}, {}, [(3, 4, 4)]),
    "sigmoid": ({}, {}, [(3, 4, 4)]),
    "tanh": ({}, {}, [(3, 4, 4)]),
    "identity": ({}, {}, [(3, 4, 4)]),
    "batch_norm": ({}, {"scale": (3,), "shift": (3,)}, [(3, 4, 4)]),
    "max_pool2d": ({"kernel": 3, "stride": 2, "padding": "same"}, {}, [(3, 7, 7)]),
    "avg_pool2d": ({"kernel": 3, "stride": 1, "padding": "same"}, {}, [(3, 5, 5)]),
    "global_avg_pool": ({}, {}, [(3, 5, 5)]),
    "flatten": ({}, {}, [(3, 2, 2)]),
    "dense": ({}, {"weight": (5, 12), "bias": (5,)}, [(12,)]),
    "slice_channels": ({"range": (1, 3)}, {}, [(4, 3, 3)]),
}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestKernelContract:
    """One leading batch axis, per-sample bitwise: the contract every
    table entry is held to, whatever the executor does with it."""

    def test_every_table_key_has_a_case(self):
        assert set(CONTRACT_CASES) == set(KERNELS) - {"input"}
        assert set(OUT_KERNELS) <= set(CONTRACT_CASES)
        with pytest.raises(ExecutionError, match="fed, not executed"):
            KERNELS["input"]([], {}, {})

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("op", sorted(CONTRACT_CASES))
    def test_rows_are_independent_and_out_kernels_agree(self, op, width):
        attrs, param_shapes, in_shapes = CONTRACT_CASES[op]
        gen = np.random.default_rng(7)
        params = {k: gen.standard_normal(s) for k, s in param_shapes.items()}
        stack = [gen.standard_normal((width,) + s) * 3.0 for s in in_shapes]
        full = KERNELS[op](stack, attrs, params)
        assert full.shape[0] == width
        for b in range(width):
            alone = KERNELS[op]([x[b : b + 1] for x in stack], attrs, params)
            assert alone.shape == (1,) + full.shape[1:]
            assert _bits(full[b]) == _bits(alone[0])
        if op in OUT_KERNELS:
            out = np.full(full.shape, np.nan)
            OUT_KERNELS[op](stack, attrs, params, out)
            assert _bits(out) == _bits(full)
