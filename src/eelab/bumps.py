"""Smooth compactly supported test functions with closed-form gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]


def _bump(u: FloatArray) -> FloatArray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def _bump_d(u: FloatArray) -> FloatArray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2)) * (-2.0 * ui / (1.0 - ui**2) ** 2)
    return out


@dataclass(frozen=True)
class RadialBump:
    """exp(1 - 1/(1 - ((r - r0)/width)^2)) on |r - r0| < width, else 0.

    With r0 = 0 this is the standard bump on a disk; with r0 > 0 it is an
    annular collar, useful on vortex annuli.
    """

    center: tuple[float, float] = (0.0, 0.0)
    r0: float = 0.0
    width: float = 1.0

    def _u(self, x: FloatArray, y: FloatArray) -> tuple[FloatArray, FloatArray]:
        r = np.hypot(x - self.center[0], y - self.center[1])
        return (r - self.r0) / self.width, r

    def __call__(self, x, y) -> FloatArray:
        u, _ = self._u(np.asarray(x, float), np.asarray(y, float))
        return _bump(u)

    def reach(self) -> tuple[float, float]:
        """Half-sizes of the support's bounding box about ``center``."""
        return (self.r0 + self.width,) * 2

    def gradient(self, x, y) -> tuple[FloatArray, FloatArray]:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u, r = self._u(x, y)
        d = _bump_d(u) / self.width
        rs = np.maximum(r, 1e-300)
        return d * (x - self.center[0]) / rs, d * (y - self.center[1]) / rs


@dataclass(frozen=True)
class TensorBump:
    """Product of two 1-D bumps, supported on a coordinate rectangle."""

    center: tuple[float, float] = (0.0, 0.0)
    halfwidth: tuple[float, float] = (1.0, 1.0)

    def __call__(self, x, y) -> FloatArray:
        u = (np.asarray(x, float) - self.center[0]) / self.halfwidth[0]
        v = (np.asarray(y, float) - self.center[1]) / self.halfwidth[1]
        return _bump(u) * _bump(v)

    def reach(self) -> tuple[float, float]:
        """Half-sizes of the support about ``center``."""
        return self.halfwidth

    def gradient(self, x, y) -> tuple[FloatArray, FloatArray]:
        u = (np.asarray(x, float) - self.center[0]) / self.halfwidth[0]
        v = (np.asarray(y, float) - self.center[1]) / self.halfwidth[1]
        return (
            _bump_d(u) * _bump(v) / self.halfwidth[0],
            _bump(u) * _bump_d(v) / self.halfwidth[1],
        )
