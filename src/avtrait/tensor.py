"""Dense float tensors: the shape error, the rectifier and a validated op set.

The layer stack uses ``ShapeMismatchError`` and ``max0``; the other ops
are called only by their own tests.

Values are plain numpy arrays in row-major order. float32 is the working
precision for training and inference; float64 is reserved for
finite-difference gradient checks. Arrays are treated as immutable once
built: every op returns a fresh array. (Batch-norm running statistics are
the one documented exception, owned by the training loop.)

There is no implicit broadcasting beyond scalars; binary ops on mismatched
shapes are rejected so shape bugs surface early.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32
F64 = np.float64


class ShapeMismatchError(ValueError):
    """Operand shapes do not line up; message reports both shapes."""

    def __init__(self, what: str, a_shape, b_shape):
        self.a_shape = tuple(a_shape)
        self.b_shape = tuple(b_shape)
        super().__init__(f"{what}: shapes {self.a_shape} vs {self.b_shape}")


def tensor(data, dtype=F32) -> np.ndarray:
    """Build a dense tensor (contiguous, given float dtype)."""
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.size == 0:
        raise ValueError("tensors must have at least one element")
    return arr


def _is_scalar(x) -> bool:
    return np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)


def _binary(name, fn, a, b):
    if not _is_scalar(b) and not _is_scalar(a):
        if a.shape != b.shape:
            raise ShapeMismatchError(name, a.shape, b.shape)
    return fn(a, b)


def add(a, b):
    return _binary("add", np.add, a, b)


def sub(a, b):
    return _binary("sub", np.subtract, a, b)


def mul(a, b):
    return _binary("mul", np.multiply, a, b)


def max0(a):
    """Rectifier: elementwise max(a, 0)."""
    return np.maximum(a, np.asarray(0, dtype=a.dtype))


def reduce_mean(a: np.ndarray, axes) -> np.ndarray:
    """Arithmetic mean over `axes`; reduced extents are removed.

    An empty axis set is an identity copy, not an error.
    """
    axes = tuple(sorted({int(ax) for ax in axes}))
    if not axes:
        return a.copy()
    for ax in axes:
        if not 0 <= ax < a.ndim:
            raise ValueError(f"axis {ax} invalid for rank-{a.ndim} tensor")
    return a.mean(axis=axes)
