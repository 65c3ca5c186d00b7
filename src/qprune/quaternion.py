"""Quaternion scalars and plane-stacked quaternion tensors.

A quaternion is stored as four real components (r, i, j, k).  Quaternion
feature maps are stored structure-of-planes: one real array per component,
stacked along a leading axis of size 4.  With this layout every quaternion
network operation reduces to signed combinations of plane-level real
operations, which is what the rest of the package builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError

# Component indices into the plane axis.
R, I, J, K = 0, 1, 2, 3

# Hamilton product in tabular form.  Row ``o`` lists, for each input
# component ``o'`` in order (R, I, J, K), the pair (weight component, sign)
# such that  out[o] = sum_{o'} sign * w[comp] * x[o'].  This is exactly the
# signed 4x4 matrix of quaternion multiplication:
#
#     [ r  -i  -j  -k ]
#     [ i   r  -k   j ]
#     [ j   k   r  -i ]
#     [ k  -j   i   r ]
HAMILTON_ROWS = (
    ((R, 1.0), (I, -1.0), (J, -1.0), (K, -1.0)),
    ((I, 1.0), (R, 1.0), (K, -1.0), (J, 1.0)),
    ((J, 1.0), (K, 1.0), (R, 1.0), (I, -1.0)),
    ((K, 1.0), (J, -1.0), (I, 1.0), (R, 1.0)),
)


@dataclass(frozen=True)
class Quaternion:
    """A single quaternion r + i*i + j*j + k*k with finite real components."""

    r: float
    i: float
    j: float
    k: float

    def __post_init__(self):
        for name in ("r", "i", "j", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"quaternion component {name!r} is not finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.i, self.j, self.k], dtype=float)

    def __iter__(self):
        return iter((self.r, self.i, self.j, self.k))


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
UNIT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
UNIT_J = Quaternion(0.0, 0.0, 1.0, 0.0)
UNIT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def hamilton_product(m: Quaternion, q: Quaternion) -> Quaternion:
    """Multiply two quaternions (non-commutative).

    Returns m * q with the usual basis rules i^2 = j^2 = k^2 = ijk = -1.
    """
    return Quaternion(
        m.r * q.r - m.i * q.i - m.j * q.j - m.k * q.k,
        m.i * q.r + m.r * q.i - m.k * q.j + m.j * q.k,
        m.j * q.r + m.k * q.i + m.r * q.j - m.i * q.k,
        m.k * q.r - m.j * q.i + m.i * q.j + m.r * q.k,
    )


class QTensor:
    """A quaternion-valued feature map stored as four aligned real planes.

    ``data`` has shape (4, channels, height, width); the leading axis holds
    the (R, I, J, K) planes, which always share one shape.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.asarray(data)
        if data.ndim != 4 or data.shape[0] != 4:
            raise ShapeError(
                f"QTensor data must have shape (4, C, H, W), got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("QTensor components must be finite")
        self.data = data

    @classmethod
    def from_planes(cls, r, i, j, k) -> "QTensor":
        planes = [np.asarray(p) for p in (r, i, j, k)]
        shapes = {p.shape for p in planes}
        if len(shapes) != 1:
            raise ShapeError(f"plane shapes differ: {sorted(shapes)}")
        stacked = np.stack(planes, axis=0)
        if stacked.ndim == 3:  # (4, H, W): single implicit channel
            stacked = stacked[:, None]
        return cls(stacked)

    @classmethod
    def zeros(cls, channels, height, width, dtype=np.float32) -> "QTensor":
        return cls(np.zeros((4, channels, height, width), dtype=dtype))

    def __repr__(self):
        c, h, w = self.data.shape[1:]
        return f"QTensor(channels={c}, height={h}, width={w}, dtype={self.data.dtype})"


def qtensor_add(a: QTensor, b: QTensor) -> QTensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    return QTensor(a.data + b.data)


def qtensor_scale(a: QTensor, s: float) -> QTensor:
    return QTensor(a.data * float(s))


def qtensor_abs_sum(a: QTensor) -> float:
    """Sum of |x| over all four planes (the l1 mass of the tensor)."""
    return float(np.abs(a.data).sum())


def qtensor_elementwise(op: str, a: QTensor, b=None):
    """Dispatch elementwise ops: 'add' (QTensor), 'scale' (scalar), 'abs_sum'."""
    if op == "add":
        return qtensor_add(a, b)
    if op == "scale":
        return qtensor_scale(a, b)
    if op == "abs_sum":
        if b is not None:
            raise ValueError("abs_sum takes a single tensor")
        return qtensor_abs_sum(a)
    raise ValueError(f"unknown op {op!r}")
