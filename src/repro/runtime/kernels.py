"""NumPy reference kernels for every operator.

These are *correctness* kernels: vectorised over the spatial dimensions
(per the NumPy-idiom guidance — the inner loops run only over kernel
taps, never pixels) but written for clarity, not throughput. They give
the rewriting rules an executable semantics so identity preservation is
testable with ``allclose`` rather than argued on paper.

The one kernel contract
-----------------------
Every activation carries **one leading batch axis**: feature maps are
``(N, C, H, W)``, dense activations ``(N, features)``; a solo run is
the batch of one. Convolution weights are ``(M, C, kh, kw)``, depthwise
weights ``(C, mult, kh, kw)``, dense weights ``(units, features)``.
Computing all ``N`` samples in a single NumPy call amortises per-call
dispatch overhead, which on the paper's micro cells dominates kernel
compute.

Stacking is held to a *per-sample bitwise* contract: row ``b`` of a
kernel's result over a stack equals the kernel applied to row ``b``
alone, bit for bit (the serving layer scatters a stacked run back to
individual requests that are verified against the reference executor).
Reductions therefore keep one contraction order per sample whatever
the width: einsum contracts the channel axis, pooling reduces the tap
axis, and dense stays a broadcast stack of matrix–vector products
rather than one reassociated GEMM. ``tests/runtime/test_kernels.py``
asserts the contract over every key of both tables.

The spatial building blocks (:func:`conv2d`, :func:`depthwise_conv2d`,
the pools, :func:`pad_same`) index only trailing axes, so they also
accept a bare ``(C, H, W)`` map.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ExecutionError
from repro.ops.base import conv_output_hw, normalize_pair

__all__ = [
    "pad_same",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "KERNELS",
    "OUT_KERNELS",
]


def _padding_amounts(
    h: int, w: int, kernel: tuple[int, int], stride: tuple[int, int], padding
) -> tuple[tuple[int, int], tuple[int, int]]:
    """TensorFlow-convention padding: asymmetric ``same``, zero ``valid``,
    symmetric explicit."""
    kh, kw = kernel
    sh, sw = stride
    if padding == "same":
        oh, ow = conv_output_hw(h, w, kernel, stride, "same")
        ph = max((oh - 1) * sh + kh - h, 0)
        pw = max((ow - 1) * sw + kw - w, 0)
        return (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)
    if padding == "valid":
        return (0, 0), (0, 0)
    ph, pw = (padding, padding) if isinstance(padding, int) else normalize_pair(
        padding, "padding"
    )
    return (ph, ph), (pw, pw)


def _padded(x: np.ndarray, pt: int, pb: int, pl: int, pr: int, fill: float):
    """Constant-pad the two spatial axes of a (..., H, W) map (cheaper
    than ``np.pad`` on the micro feature maps these networks run on;
    same bytes out)."""
    h, w = x.shape[-2:]
    shape = x.shape[:-2] + (h + pt + pb, w + pl + pr)
    if fill == 0.0:
        xp = np.zeros(shape, dtype=x.dtype)
    else:
        xp = np.full(shape, fill, dtype=x.dtype)
    xp[..., pt : pt + h, pl : pl + w] = x
    return xp


def pad_same(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """Zero-pad a (..., H, W) map for the requested padding mode."""
    (pt, pb), (pl, pr) = _padding_amounts(
        x.shape[-2], x.shape[-1], kernel, stride, padding
    )
    if pt == pb == pl == pr == 0:
        return x
    return _padded(x, pt, pb, pl, pr, 0.0)


def _tap_view(xp: np.ndarray, u: int, v: int, oh: int, ow: int, sh: int, sw: int):
    """The (..., oh, ow) input window hitting kernel tap (u, v)."""
    return xp[..., u : u + oh * sh : sh, v : v + ow * sw : sw]


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride=1,
    padding="same",
) -> np.ndarray:
    """Standard convolution: ``(...,C,H,W) x (M,C,kh,kw) -> (...,M,oh,ow)``."""
    kernel = weight.shape[2], weight.shape[3]
    stride = normalize_pair(stride, "stride")
    oh, ow = conv_output_hw(x.shape[-2], x.shape[-1], kernel, stride, padding)
    xp = pad_same(x, kernel, stride, padding)
    out = np.zeros(
        x.shape[:-3] + (weight.shape[0], oh, ow), dtype=np.result_type(x, weight)
    )
    for u in range(kernel[0]):
        for v in range(kernel[1]):
            window = _tap_view(xp, u, v, oh, ow, *stride)
            out += np.einsum("...chw,mc->...mhw", window, weight[:, :, u, v])
    if bias is not None:
        out += bias[:, None, None]
    return out


def depthwise_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride=1,
    padding="same",
) -> np.ndarray:
    """Depthwise convolution:
    ``(...,C,H,W) x (C,mult,kh,kw) -> (...,C*mult,oh,ow)``.

    Output channel ``c*mult + t`` convolves input channel ``c`` with
    kernel ``weight[c, t]`` (the TensorFlow depthwise layout).
    """
    c, mult = weight.shape[0], weight.shape[1]
    kernel = weight.shape[2], weight.shape[3]
    stride = normalize_pair(stride, "stride")
    oh, ow = conv_output_hw(x.shape[-2], x.shape[-1], kernel, stride, padding)
    xp = pad_same(x, kernel, stride, padding)
    lead = x.shape[:-3]
    out = np.zeros(lead + (c, mult, oh, ow), dtype=np.result_type(x, weight))
    for u in range(kernel[0]):
        for v in range(kernel[1]):
            window = _tap_view(xp, u, v, oh, ow, *stride)  # (..., C, oh, ow)
            out += window[..., None, :, :] * weight[:, :, u, v][:, :, None, None]
    out = out.reshape(lead + (c * mult, oh, ow))
    if bias is not None:
        out += bias[:, None, None]
    return out


def _pool(x: np.ndarray, attrs: dict[str, Any], reducer) -> np.ndarray:
    kernel = normalize_pair(attrs.get("kernel", 2), "kernel")
    stride = normalize_pair(attrs.get("stride", kernel), "stride")
    padding = attrs.get("padding", "valid")
    oh, ow = conv_output_hw(x.shape[-2], x.shape[-1], kernel, stride, padding)
    if padding == "valid":
        xp = x
    else:
        fill = -np.inf if reducer is np.maximum else 0.0
        (pt, pb), (pl, pr) = _padding_amounts(
            x.shape[-2], x.shape[-1], kernel, stride, padding
        )
        xp = _padded(x, pt, pb, pl, pr, fill)
    taps = [
        _tap_view(xp, u, v, oh, ow, *stride)
        for u in range(kernel[0])
        for v in range(kernel[1])
    ]
    stacked = np.stack(taps)  # (taps, ...): one reduction axis at any width
    if reducer is np.maximum:
        return stacked.max(axis=0)
    # average pooling divides by the window size (zero-padded taps count,
    # matching TF's ``avg_pool`` with padding='SAME' semantics on counts
    # only for 'valid'; models here pool with 'valid')
    return stacked.mean(axis=0)


def max_pool2d(x: np.ndarray, attrs: dict[str, Any]) -> np.ndarray:
    return _pool(x, attrs, np.maximum)


def avg_pool2d(x: np.ndarray, attrs: dict[str, Any]) -> np.ndarray:
    return _pool(x, attrs, np.add)


# ----------------------------------------------------------------------
# dispatch table: op name -> fn(inputs, attrs, params) -> (N, ...) ndarray
# ----------------------------------------------------------------------
# Positionwise ops are indifferent to the leading batch axis; the
# axis-relative ones (concat, flatten, slice_channels, global_avg_pool)
# count the channel axis as axis 1.
def _k_input(inputs, attrs, params):
    raise ExecutionError("input nodes must be fed, not executed")


def _k_conv2d(inputs, attrs, params):
    return conv2d(
        inputs[0],
        params["weight"],
        params.get("bias"),
        stride=attrs.get("stride", 1),
        padding=attrs.get("padding", "same"),
    )


def _k_partial_conv2d(inputs, attrs, params):
    out = conv2d(
        inputs[0],
        params["weight"],
        params.get("bias"),
        stride=attrs.get("stride", 1),
        padding=attrs.get("padding", "same"),
    )
    if attrs.get("accumulate", False):
        out = out + inputs[1]
    return out


def _k_depthwise(inputs, attrs, params):
    return depthwise_conv2d(
        inputs[0],
        params["weight"],
        params.get("bias"),
        stride=attrs.get("stride", 1),
        padding=attrs.get("padding", "same"),
    )


def _k_add(inputs, attrs, params):
    out = inputs[0]
    for x in inputs[1:]:
        out = out + x
    return out


def _k_mul(inputs, attrs, params):
    out = inputs[0]
    for x in inputs[1:]:
        out = out * x
    return out


def _k_batch_norm(inputs, attrs, params):
    # (C, 1, 1) factors broadcast across the batch axis
    scale = params["scale"][:, None, None]
    shift = params["shift"][:, None, None]
    return inputs[0] * scale + shift


def _k_fused_sep(inputs, attrs, params):
    mid = depthwise_conv2d(
        inputs[0],
        params["dw_weight"],
        None,
        stride=attrs.get("stride", 1),
        padding=attrs.get("padding", "same"),
    )
    return conv2d(mid, params["pw_weight"], params.get("bias"), stride=1, padding="same")


def _k_dense(inputs, attrs, params):
    # (units, features) @ (N, features, 1) broadcasts to N independent
    # matrix-vector products — bitwise ``weight @ x`` per sample, which
    # one reassociated (N, features) GEMM would not be
    out = np.matmul(params["weight"], inputs[0][..., None])[..., 0]
    bias = params.get("bias")
    return out + bias if bias is not None else out


# ----------------------------------------------------------------------
# destination-write variants: fn(inputs, attrs, params, out) -> None
# ----------------------------------------------------------------------
# These write their result directly into ``out`` (an arena view) instead
# of materialising a temporary that the executor then copies. Each one
# reproduces its KERNELS counterpart's float operations in the same
# order, so results are bitwise-identical to the copy path — the
# PlanExecutor parity suite depends on that. Only ops whose ufunc chain
# can target ``out`` safely are here; everything else (convs, pools,
# dense) keeps the temporary-then-copy fallback.


def _o_add(inputs, attrs, params, out):
    if len(inputs) == 1:
        np.copyto(out, inputs[0])
        return
    np.add(inputs[0], inputs[1], out=out)
    for x in inputs[2:]:
        np.add(out, x, out=out)


def _o_mul(inputs, attrs, params, out):
    if len(inputs) == 1:
        np.copyto(out, inputs[0])
        return
    np.multiply(inputs[0], inputs[1], out=out)
    for x in inputs[2:]:
        np.multiply(out, x, out=out)


def _o_sigmoid(inputs, attrs, params, out):
    # same op sequence as 1.0 / (1.0 + np.exp(-x)), step by step
    np.negative(inputs[0], out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)


def _o_batch_norm(inputs, attrs, params, out):
    np.multiply(inputs[0], params["scale"][:, None, None], out=out)
    np.add(out, params["shift"][:, None, None], out=out)


def _o_concat(inputs, attrs, params, out):
    lo = 0
    for x in inputs:
        out[:, lo : lo + x.shape[1]] = x
        lo += x.shape[1]
    if lo != out.shape[1]:
        raise ExecutionError(
            f"concat operands fill {lo} of {out.shape[1]} output channels"
        )


def _o_flatten(inputs, attrs, params, out):
    np.copyto(out, inputs[0].reshape(out.shape))


def _o_slice_channels(inputs, attrs, params, out):
    lo, hi = attrs["range"]
    np.copyto(out, inputs[0][:, lo:hi])


OUT_KERNELS = {
    "add": _o_add,
    "mul": _o_mul,
    "relu": lambda i, a, p, out: np.maximum(i[0], 0.0, out=out),
    "relu6": lambda i, a, p, out: np.clip(i[0], 0.0, 6.0, out=out),
    "sigmoid": _o_sigmoid,
    "tanh": lambda i, a, p, out: np.tanh(i[0], out=out),
    "identity": lambda i, a, p, out: np.copyto(out, i[0]),
    "batch_norm": _o_batch_norm,
    "concat": _o_concat,
    "flatten": _o_flatten,
    "slice_channels": _o_slice_channels,
}


KERNELS = {
    "input": _k_input,
    "conv2d": _k_conv2d,
    "partial_conv2d": _k_partial_conv2d,
    "depthwise_conv2d": _k_depthwise,
    "partial_depthwise_conv2d": _k_depthwise,
    "fused_sep_conv3x3": _k_fused_sep,
    "concat": lambda i, a, p: np.concatenate(i, axis=1),
    "add": _k_add,
    "mul": _k_mul,
    "relu": lambda i, a, p: np.maximum(i[0], 0.0),
    "relu6": lambda i, a, p: np.clip(i[0], 0.0, 6.0),
    "sigmoid": lambda i, a, p: 1.0 / (1.0 + np.exp(-i[0])),
    "tanh": lambda i, a, p: np.tanh(i[0]),
    "identity": lambda i, a, p: i[0],
    "batch_norm": _k_batch_norm,
    "max_pool2d": lambda i, a, p: max_pool2d(i[0], a),
    "avg_pool2d": lambda i, a, p: avg_pool2d(i[0], a),
    "global_avg_pool": lambda i, a, p: i[0].mean(axis=(2, 3), keepdims=True),
    "flatten": lambda i, a, p: i[0].reshape(i[0].shape[0], -1),
    "dense": _k_dense,
    "slice_channels": lambda i, a, p: i[0][:, a["range"][0] : a["range"][1]],
}
