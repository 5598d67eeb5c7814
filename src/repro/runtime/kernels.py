"""NumPy kernels for every operator.

These give the graph an executable semantics — the rewriting rules'
identity preservation is tested with ``allclose`` rather than argued on
paper — and they are what a served request spends its time in, so the
convolutions are lowered to BLAS: im2col columns and one GEMM per
sample (:class:`ConvLowering`). Pooling stays vectorised over the
spatial dimensions with a loop over kernel taps only.

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
the width. A convolution is ``np.matmul`` of a 2-D weight with an
``(N, K, oh·ow)`` column stack — a broadcast stack of ``N`` identically
shaped GEMM calls, never one GEMM reassociated over the batch — and
dense is the same argument with matrix–vector products; pooling reduces
the tap axis. Every GEMM operand is laid out so that it reaches BLAS
(see :func:`_view`): ``np.matmul`` has a second, differently-ordered
loop for layouts BLAS cannot take, and the contract only holds while
every caller lands in the same one.
``tests/runtime/test_kernels.py`` asserts the contract over every key
of both tables at widths 1, 3 and 8, over views into wider buffers,
and checks the convolutions against scipy.

:func:`conv2d`, :func:`depthwise_conv2d` and the pools also accept a
bare ``(C, H, W)`` map.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ExecutionError
from repro.ops.base import conv_output_hw, normalize_pair

__all__ = [
    "ConvLowering",
    "CONV_OPS",
    "lower_conv",
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


def _tap_view(xp: np.ndarray, u: int, v: int, oh: int, ow: int, sh: int, sw: int):
    """The (..., oh, ow) input window hitting kernel tap (u, v)."""
    return xp[..., u : u + oh * sh : sh, v : v + ow * sw : sw]


def _view(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | None:
    """``x`` reshaped to ``shape`` if that is a view whose rows BLAS can
    take (unit stride along the last axis), else ``None``. The second
    condition is part of the bitwise contract: ``np.matmul`` sends any
    other layout through its own non-BLAS loop, which sums in another
    order."""
    v = x.reshape(shape)
    if v.strides[-1] == v.itemsize and np.may_share_memory(v, x):
        return v
    return None


#: most im2col column elements (plus fused intermediate) produced at
#: once per sample: 64 KiB of float64. Whole-map columns fall out of L2
#: on the suite's larger maps; of the block sizes measured end to end
#: (64 KiB ... 512 KiB: larger is 7-20% faster) this is the one that
#: keeps ``compile-suite`` ``peak_rss_mb`` well inside its bound
#: (CHANGES.md, PR 14, has the numbers)
COLS_BLOCK_ELEMS = 1 << 13


class ConvLowering:
    """One conv-family operator lowered to GEMM for one input geometry.

    Construction resolves what the shapes alone decide: the 2-D
    weight(s), the pad amounts, the output shape and how much scratch a
    sample needs. :meth:`bind` resolves what the arrays decide and
    returns the operator as a flat sequence of NumPy calls over
    preresolved views — nothing is allocated, looked up or reshaped
    when it runs:

    1. copy the input into the interior of a zero-bordered map (skipped
       when nothing is padded; only the interior is ever written, so
       one border serves every call);
    2. im2col — **one** strided copy of the ``(N, C, kh, kw, oh, ow)``
       window view into columns (skipped when every output pixel reads
       exactly its own input pixel: 1x1, stride 1, unpadded);
    3. ``np.matmul(weight, columns, out)``: a full convolution is
       ``(M, C·kh·kw) @ (N, C·kh·kw, oh·ow)``, a depthwise one
       ``(C, mult, kh·kw) @ (N, C, kh·kw, oh·ow)``, a fused separable
       one the two chained through a scratch intermediate;
    4. bias, then a partial convolution's accumulator, added in place.

    Steps 2 and 3 run a block of output rows at a time when the columns
    of the whole map would exceed :data:`COLS_BLOCK_ELEMS`: the columns
    are ``kh·kw`` times the input, and blocking bounds the scratch a
    sample needs by a constant instead of by its feature map. The
    blocking depends on the shapes alone, so it is the same at every
    batch width.
    """

    def __init__(
        self,
        x_shape: tuple[int, ...],
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        stride=1,
        padding="same",
        depthwise: bool = False,
        pointwise: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> None:
        c, h, w = x_shape
        if weight.ndim != 4 or weight.shape[0 if depthwise else 1] != c:
            raise ExecutionError(
                f"weight of shape {weight.shape} does not convolve a "
                f"{c}-channel input"
            )
        kh, kw = weight.shape[2], weight.shape[3]
        self.x_shape = (c, h, w)
        self._stride = normalize_pair(stride, "stride")
        oh, ow = conv_output_hw(h, w, (kh, kw), self._stride, padding)
        (pt, pb), (pl, pr) = _padding_amounts(h, w, (kh, kw), self._stride, padding)
        #: per-sample zero-bordered map the input is copied into, and
        #: where its interior sits (``None``: the input is read as is)
        self.pad_shape = (
            (c, h + pt + pb, w + pl + pr) if pt or pb or pl or pr else None
        )
        self._interior = (..., slice(pt, pt + h), slice(pl, pl + w))
        #: lowerings with equal keys can share one pad map
        self.pad_key = (self.x_shape, self.pad_shape, pt, pl)
        self._window = (kh, kw, oh, ow)
        self._im2col = (
            kh * kw > 1 or self._stride != (1, 1) or self.pad_shape is not None
        )
        weight = np.ascontiguousarray(weight)
        if depthwise:
            self._weight = weight.reshape(c, weight.shape[1], kh * kw)
            channels = c * weight.shape[1]
        else:
            self._weight = weight.reshape(weight.shape[0], c * kh * kw)
            channels = weight.shape[0]
        self._depthwise = depthwise
        self._pointwise: np.ndarray | None = None
        #: channels of the scratch map between a fused pair's two GEMMs
        self._mid = 0
        if pointwise is not None:
            self._pointwise = np.ascontiguousarray(pointwise).reshape(
                pointwise.shape[0], channels
            )
            self._mid, channels = channels, pointwise.shape[0]
        self._bias = None if bias is None else bias[:, None, None]
        self._accumulate = accumulate
        self.out_shape = (channels, oh, ow)
        #: output rows per block of columns (+ fused intermediate)
        per_row = ow * (c * kh * kw + self._mid)
        blocks = -(-oh * per_row // COLS_BLOCK_ELEMS)
        self._rows = -(-oh // blocks)
        #: upper bound on the scratch elements :meth:`bind` takes per
        #: sample (a block of columns + accumulate staging)
        self.scratch_elems = self._rows * per_row + (
            channels * oh * ow if accumulate else 0
        )

    def bind(self, inputs, out: np.ndarray, pad: np.ndarray | None, take):
        """The zero-argument callable that executes the operator over
        these arrays.

        ``inputs`` are the ``(N, C, H, W)`` operand (plus the
        accumulator of an accumulating partial convolution), ``out`` the
        ``(N, M, oh, ow)`` destination, ``pad`` an ``(N, *pad_shape)``
        map whose border is zero (``None`` without padding) and
        ``take(shape)`` hands out uninitialised ``(N, *shape)`` scratch.
        All of them must outlive the callable, which reads the operands'
        *current* contents each time it runs. Its views are resolved by
        the first call and replayed by every later one, so an executor
        that is built but never run pays for none of them (resolving
        here doubles an executor's build time, ~15 us per conv per
        compiled width).
        """
        calls: list[tuple] | None = None

        def run() -> None:
            nonlocal calls
            if calls is None:
                calls = self._resolve(inputs, out, pad, take)
            for fn, operands in calls:
                fn(*operands)

        return run

    def _resolve(self, inputs, out, pad, take) -> list[tuple]:
        x = inputs[0]
        n = x.shape[0]
        c = self.x_shape[0]
        kh, kw, oh, ow = self._window
        p = oh * ow
        if x.shape[1:] != self.x_shape or out.shape != (n,) + self.out_shape:
            raise ExecutionError(
                f"convolution lowered for {self.x_shape} -> {self.out_shape} "
                f"bound to {x.shape[1:]} -> {out.shape[1:]}"
            )
        calls: list[tuple] = []
        if pad is not None:
            calls.append((np.copyto, (pad[self._interior], x)))
            x = pad
        # the last GEMM lands in ``out`` unless an accumulator has to be
        # added to the finished product first
        last = take(self.out_shape) if self._accumulate else out
        flat = _view(last, (n, self.out_shape[0], p))
        if flat is None:
            raise ExecutionError(
                "convolution destination must be contiguous over each "
                "output channel's (oh, ow) map"
            )
        whole = None if self._im2col else _view(x, (n, c, 1, p))
        if whole is not None:
            spans = [(0, oh)]  # the operand is its own columns
        else:
            sn, sc, sh, sw = x.strides
            window = np.lib.stride_tricks.as_strided(
                x,
                (n, c, kh, kw, oh, ow),
                (sn, sc, sh, sw, sh * self._stride[0], sw * self._stride[1]),
            )
            scratch = take((c * kh * kw * self._rows * ow,))
            spans = [
                (r0, min(r0 + self._rows, oh)) for r0 in range(0, oh, self._rows)
            ]
        mid = take((self._mid * self._rows * ow,)) if self._mid else None
        for r0, r1 in spans:
            pb = (r1 - r0) * ow
            dst = flat[:, :, r0 * ow : r1 * ow]
            if whole is not None:
                cols = whole
            else:
                cols = scratch[:, : c * kh * kw * pb].reshape(n, c, kh * kw, pb)
                calls.append(
                    (
                        np.copyto,
                        (
                            cols.reshape(n, c, kh, kw, r1 - r0, ow),
                            window[..., r0:r1, :],
                        ),
                    )
                )
            if not self._depthwise:
                calls.append(
                    (np.matmul, (self._weight, cols.reshape(n, -1, pb), dst))
                )
                continue
            stage = dst
            if mid is not None:
                stage = mid[:, : self._mid * pb].reshape(n, self._mid, pb)
            calls.append(
                (np.matmul, (self._weight, cols, stage.reshape(n, c, -1, pb)))
            )
            if mid is not None:
                calls.append((np.matmul, (self._pointwise, stage, dst)))
        if self._bias is not None:
            calls.append((np.add, (last, self._bias, last)))
        if self._accumulate:
            calls.append((np.add, (last, inputs[1], out)))
        return calls


#: ops :func:`lower_conv` lowers
CONV_OPS = frozenset(
    {
        "conv2d",
        "partial_conv2d",
        "depthwise_conv2d",
        "partial_depthwise_conv2d",
        "fused_sep_conv3x3",
    }
)


def lower_conv(op: str, x_shape, attrs, params) -> ConvLowering:
    """The GEMM lowering of conv-family node ``op`` over one
    ``(C, H, W)`` input."""
    fused = op == "fused_sep_conv3x3"
    return ConvLowering(
        x_shape,
        params["dw_weight" if fused else "weight"],
        params.get("bias"),
        stride=attrs.get("stride", 1),
        padding=attrs.get("padding", "same"),
        depthwise=fused or "depthwise" in op,
        pointwise=params["pw_weight"] if fused else None,
        accumulate=op == "partial_conv2d" and attrs.get("accumulate", False),
    )


def _run_lowered(low: ConvLowering, inputs, out: np.ndarray | None = None):
    """Bind ``low`` to freshly allocated scratch and run it once — the
    allocating form of exactly the calls a prebound executor replays."""
    bare = inputs[0].ndim == 3  # one (C, H, W) map: a batch of one
    if bare:
        inputs = [x[None] for x in inputs]
    n = inputs[0].shape[0]
    dtype = np.result_type(inputs[0], low._weight)
    if out is None:
        out = np.empty((n,) + low.out_shape, dtype)
    pad = None
    if low.pad_shape is not None:
        pad = np.zeros((n,) + low.pad_shape, dtype)
    low.bind(inputs, out, pad, lambda shape: np.empty((n,) + shape, dtype))()
    return out[0] if bare else out


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride=1,
    padding="same",
) -> np.ndarray:
    """Standard convolution: ``(N,C,H,W) x (M,C,kh,kw) -> (N,M,oh,ow)``
    (or one bare ``(C,H,W)`` map)."""
    low = ConvLowering(x.shape[-3:], weight, bias, stride=stride, padding=padding)
    return _run_lowered(low, [x])


def depthwise_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride=1,
    padding="same",
) -> np.ndarray:
    """Depthwise convolution:
    ``(N,C,H,W) x (C,mult,kh,kw) -> (N,C*mult,oh,ow)`` (or one bare
    ``(C,H,W)`` map).

    Output channel ``c*mult + t`` convolves input channel ``c`` with
    kernel ``weight[c, t]`` (the TensorFlow depthwise layout).
    """
    low = ConvLowering(
        x.shape[-3:], weight, bias, stride=stride, padding=padding, depthwise=True
    )
    return _run_lowered(low, [x])


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


def _conv_kernel(op: str):
    """One entry for both tables: with ``out`` it is the
    destination-write form, without it the allocating one."""
    return lambda i, a, p, out=None: _run_lowered(
        lower_conv(op, i[0].shape[1:], a, p), i, out
    )


_CONV_KERNELS = {op: _conv_kernel(op) for op in sorted(CONV_OPS)}


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
# PlanExecutor parity suite depends on that. Only ops whose NumPy calls
# can target ``out`` safely are here; pools and dense keep the
# temporary-then-copy fallback. The conv family runs the same lowered
# calls either way; an executor that binds :func:`lower_conv` itself
# also skips their per-call set-up and scratch allocation.


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
    **_CONV_KERNELS,
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
    **_CONV_KERNELS,
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
