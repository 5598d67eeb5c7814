"""NumPy kernels against independent references (scipy / manual math)."""

import numpy as np
import pytest
from scipy import signal

from repro.exceptions import ExecutionError
from repro.runtime.kernels import (
    CONV_OPS,
    KERNELS,
    OUT_KERNELS,
    avg_pool2d,
    conv2d,
    depthwise_conv2d,
    max_pool2d,
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

# the conv family again at the shapes the suite really runs (plus the
# padding modes it does not; several exceed COLS_BLOCK_ELEMS and run as
# two to four blocks of output rows): id -> (op, attrs, parameter
# shapes, per-sample input shapes)
SUITE_CONV_CASES = {
    "swiftnet-a stem 1x1 stride 2": (
        "conv2d", {"stride": 2}, {"weight": (28, 8, 1, 1), "bias": (28,)}, [(8, 56, 56)]
    ),
    "swiftnet-a merge 3x3 stride 2": (
        "conv2d", {"stride": 2}, {"weight": (32, 35, 3, 3), "bias": (32,)}, [(35, 28, 28)]
    ),
    "swiftnet-b merge 3x3": (
        "conv2d", {}, {"weight": (24, 40, 3, 3), "bias": (24,)}, [(40, 14, 14)]
    ),
    "darts pointwise": (
        "conv2d", {}, {"weight": (48, 48, 1, 1), "bias": (48,)}, [(48, 28, 28)]
    ),
    "conv valid": (
        "conv2d", {"padding": "valid"}, {"weight": (5, 4, 3, 3)}, [(4, 9, 8)]
    ),
    "conv int padding": (
        "conv2d", {"padding": 2, "stride": 2}, {"weight": (5, 4, 3, 3)}, [(4, 9, 8)]
    ),
    "swiftnet-a depthwise": (
        "depthwise_conv2d", {}, {"weight": (28, 1, 3, 3), "bias": (28,)}, [(28, 28, 28)]
    ),
    "swiftnet-b depthwise mult 2": (
        "depthwise_conv2d", {}, {"weight": (35, 2, 3, 3), "bias": (70,)}, [(35, 14, 14)]
    ),
    "swiftnet-c depthwise mult 2": (
        "depthwise_conv2d", {}, {"weight": (24, 2, 3, 3), "bias": (48,)}, [(24, 7, 7)]
    ),
    "depthwise stride 2": (
        "depthwise_conv2d", {"stride": 2}, {"weight": (6, 2, 3, 3)}, [(6, 9, 9)]
    ),
    "partial depthwise int padding": (
        "partial_depthwise_conv2d", {"padding": (1, 2)}, {"weight": (4, 1, 3, 3)}, [(4, 6, 7)]
    ),
    "partial conv first of a chain": (
        "partial_conv2d", {"stride": 2}, {"weight": (6, 5, 3, 3), "bias": (6,)}, [(5, 8, 8)]
    ),
    "partial conv accumulating": (
        "partial_conv2d", {"accumulate": True}, {"weight": (6, 5, 1, 1)}, [(5, 8, 8), (6, 8, 8)]
    ),
    "randwire-c10-b unit": (
        "fused_sep_conv3x3",
        {},
        {"dw_weight": (32, 1, 3, 3), "pw_weight": (32, 32, 1, 1), "bias": (32,)},
        [(32, 16, 16)],
    ),
    "randwire-c10-a unit": (  # three uneven blocks of output rows
        "fused_sep_conv3x3",
        {},
        {"dw_weight": (16, 1, 3, 3), "pw_weight": (16, 16, 1, 1), "bias": (16,)},
        [(16, 32, 32)],
    ),
    "rw-micro unit": (
        "fused_sep_conv3x3",
        {},
        {"dw_weight": (8, 1, 3, 3), "pw_weight": (8, 8, 1, 1), "bias": (8,)},
        [(8, 2, 2)],
    ),
}
ALL_CASES = {
    **{op: (op, *case) for op, case in CONTRACT_CASES.items()},
    **SUITE_CONV_CASES,
}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _case_arrays(case, width, seed=7):
    op, attrs, param_shapes, in_shapes = ALL_CASES[case]
    gen = np.random.default_rng(seed)
    params = {k: gen.standard_normal(s) for k, s in param_shapes.items()}
    stack = [gen.standard_normal((width,) + s) * 3.0 for s in in_shapes]
    return op, attrs, params, stack


def _channel_slice(x):
    """``x`` as channels 1..C+1 of a two-channels-wider NaN buffer."""
    wide = np.full((x.shape[0], x.shape[1] + 2) + x.shape[2:], np.nan)
    wide[:, 1:-1] = x
    return wide[:, 1:-1]


def _staged_window(x):
    """``x`` the way the executor binds a staged tensor: an element run
    inside longer per-sample rows of a wider arena."""
    elems = x[0].size
    arena = np.full((x.shape[0] + 1, elems + 11), np.nan)
    view = arena[: x.shape[0], 5 : 5 + elems].reshape(x.shape)
    view[...] = x
    return view


class TestKernelContract:
    """One leading batch axis, per-sample bitwise: the contract every
    table entry is held to, whatever the executor does with it."""

    def test_every_table_key_has_a_case(self):
        assert set(CONTRACT_CASES) == set(KERNELS) - {"input"}
        assert set(OUT_KERNELS) <= set(CONTRACT_CASES)
        assert CONV_OPS <= set(OUT_KERNELS)
        assert {case[0] for case in SUITE_CONV_CASES.values()} == CONV_OPS
        with pytest.raises(ExecutionError, match="fed, not executed"):
            KERNELS["input"]([], {}, {})

    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("case", sorted(ALL_CASES))
    def test_rows_are_independent_and_out_kernels_agree(self, case, width):
        op, attrs, params, stack = _case_arrays(case, width)
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

    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("layout", [_channel_slice, _staged_window])
    @pytest.mark.parametrize("case", sorted(SUITE_CONV_CASES))
    def test_conv_operand_and_destination_layouts(self, case, layout, width):
        """Operands and destinations that are views into wider buffers
        (what an arena hands a kernel) change no bit, on either table."""
        op, attrs, params, stack = _case_arrays(case, width)
        want = KERNELS[op](stack, attrs, params)
        views = [layout(x) for x in stack]
        assert not any(v.flags.c_contiguous for v in views[:1] if width > 1)
        assert _bits(KERNELS[op](views, attrs, params)) == _bits(want)
        dest = layout(np.full(want.shape, np.nan))
        OUT_KERNELS[op](views, attrs, params, dest)
        assert _bits(dest) == _bits(want)

    def test_pointwise_conv_over_a_column_strided_operand(self):
        """A 1x1 conv feeds its operand to the GEMM as is only when BLAS
        can take it; every other layout goes through the column copy,
        so the product never falls to NumPy's differently-ordered loop."""
        op, attrs, params, stack = _case_arrays("darts pointwise", 2)
        want = KERNELS[op](stack, attrs, params)
        wide = np.repeat(stack[0], 2, axis=-1)
        assert _bits(KERNELS[op]([wide[..., ::2]], attrs, params)) == _bits(want)

    def test_out_kernel_rejects_a_destination_it_cannot_view(self):
        op, attrs, params, stack = _case_arrays("conv2d", 2)
        shape = KERNELS[op](stack, attrs, params).shape
        strided = np.empty(shape[:-1] + (2 * shape[-1],))[..., ::2]
        with pytest.raises(ExecutionError, match="contiguous over each"):
            OUT_KERNELS[op](stack, attrs, params, strided)


def _same_pads(size, k, s):
    total = max((-(-size // s) - 1) * s + k - size, 0)
    return total // 2, total - total // 2


def _oracle_pad(x, kernel, stride, padding):
    """Zero-pad ``(C, H, W)`` by TensorFlow's rules, computed here."""
    if padding == "valid":
        return x
    if padding == "same":
        ph = _same_pads(x.shape[1], kernel[0], stride[0])
        pw = _same_pads(x.shape[2], kernel[1], stride[1])
    else:
        a, b = (padding, padding) if isinstance(padding, int) else padding
        ph, pw = (a, a), (b, b)
    return np.pad(x, ((0, 0), ph, pw))


def _oracle_conv(x, w, stride, padding, depthwise):
    """One sample through scipy's ``correlate2d``, channel by channel."""
    stride = (stride, stride) if isinstance(stride, int) else stride
    xp = _oracle_pad(x, w.shape[2:], stride, padding)
    maps = []
    if depthwise:
        for c in range(w.shape[0]):
            for t in range(w.shape[1]):
                maps.append(signal.correlate2d(xp[c], w[c, t], mode="valid"))
    else:
        for m in range(w.shape[0]):
            maps.append(
                sum(
                    signal.correlate2d(xp[c], w[m, c], mode="valid")
                    for c in range(w.shape[1])
                )
            )
    return np.stack(maps)[:, :: stride[0], :: stride[1]]


class TestConvOracle:
    """The GEMM lowerings against scipy at every suite shape."""

    @pytest.mark.parametrize("case", sorted(SUITE_CONV_CASES))
    def test_matches_scipy(self, case):
        op, attrs, params, stack = _case_arrays(case, 2)
        got = KERNELS[op](stack, attrs, params)
        stride = attrs.get("stride", 1)
        padding = attrs.get("padding", "same")
        for b in range(2):
            x = stack[0][b]
            if op == "fused_sep_conv3x3":
                mid = _oracle_conv(x, params["dw_weight"], stride, padding, True)
                want = _oracle_conv(mid, params["pw_weight"], 1, "same", False)
            else:
                want = _oracle_conv(
                    x, params["weight"], stride, padding, "depthwise" in op
                )
            if "bias" in params:
                want = want + params["bias"][:, None, None]
            if attrs.get("accumulate"):
                want = want + stack[1][b]
            np.testing.assert_allclose(got[b], want, atol=1e-12)
