"""S^1-valued fields on rectangular grids: construction, mollification, differences.

Fields live on cell centers x_ij = origin + ((i+1/2) h, (j+1/2) h) of a
rectangular grid; arrays are indexed [row, col] = [y, x].  Divergence-free
unit test fields (constant, vortex, half-plane jump) are sampled from their
exact analytic formulas, and every derived field carries the interior mask on
which downstream operators may evaluate.  This module owns the lattice
difference conventions: a shift D^z is taken where both x and x + z lie in
the grid and is zero elsewhere, and central stencils lose a one-cell rim.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, IO

import numpy as np
from numpy.typing import NDArray
from scipy import fft as sp_fft

from .schema import ConfigError, key, read_keys

FloatArray = NDArray[np.float64]
BoolArray = NDArray[np.bool_]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid2:
    """Uniform rectangular grid of cell centers."""

    nx: int
    ny: int
    spacing: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid too small: need nx, ny >= 4, got {self.nx}x{self.ny}")
        if not (self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def extent(self) -> tuple[float, float]:
        return self.nx * self.spacing, self.ny * self.spacing

    def xs(self) -> FloatArray:
        return self.origin[0] + (np.arange(self.nx) + 0.5) * self.spacing

    def ys(self) -> FloatArray:
        return self.origin[1] + (np.arange(self.ny) + 0.5) * self.spacing

    def meshgrid(self) -> tuple[FloatArray, FloatArray]:
        return np.meshgrid(self.xs(), self.ys())

    def cell_area(self) -> float:
        return self.spacing**2

    def interior_mask(self, margin: float) -> BoolArray:
        """Cells at distance >= margin from the domain boundary."""
        x, y = self.meshgrid()
        lx, ly = self.extent
        eps = 1e-9 * self.spacing
        return (
            (x - self.origin[0] >= margin - eps)
            & (self.origin[0] + lx - x >= margin - eps)
            & (y - self.origin[1] >= margin - eps)
            & (self.origin[1] + ly - y >= margin - eps)
        )

    def contains(self, x, y):
        """Whether each point (x, y) lies in the closed domain box."""
        (x0, y0), (lx, ly) = self.origin, self.extent
        return (x0 <= x) & (x <= x0 + lx) & (y0 <= y) & (y <= y0 + ly)

    def rect_mask(self, x0: float, x1: float, y0: float, y1: float) -> BoolArray:
        x, y = self.meshgrid()
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def centered_grid(n: int, extent: float) -> Grid2:
    """Square grid of n x n cells covering [-extent/2, extent/2]^2."""
    return Grid2(n, n, extent / n, (-extent / 2, -extent / 2))


@dataclass(frozen=True)
class AngleField:
    """Unit field m = e^{i theta} stored through its angle in [0, 2pi)."""

    grid: Grid2
    theta: FloatArray
    theta_fn: Callable[[FloatArray, FloatArray], FloatArray] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("theta shape does not match the grid")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta contains non-finite values")
        object.__setattr__(self, "theta", np.mod(th, TWO_PI))

    def unit_vectors(self) -> "VecField":
        return VecField(
            self.grid, np.stack([np.cos(self.theta), np.sin(self.theta)], axis=-1)
        )

    def theta_at(self, x: FloatArray, y: FloatArray) -> FloatArray:
        """Angle at arbitrary points: analytic when available, else nearest cell."""
        if self.theta_fn is not None:
            return np.mod(self.theta_fn(np.asarray(x, float), np.asarray(y, float)), TWO_PI)
        g = self.grid
        i = np.clip(np.round((np.asarray(x) - g.origin[0]) / g.spacing - 0.5).astype(int), 0, g.nx - 1)
        j = np.clip(np.round((np.asarray(y) - g.origin[1]) / g.spacing - 0.5).astype(int), 0, g.ny - 1)
        return self.theta[j, i]


@dataclass(frozen=True)
class VecField:
    grid: Grid2
    values: FloatArray
    mask: BoolArray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ny, self.grid.nx, 2):
            raise ValueError("vector values must have shape (ny, nx, 2)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector field contains non-finite values")
        object.__setattr__(self, "values", v)

    def magnitude(self) -> FloatArray:
        return np.hypot(self.values[..., 0], self.values[..., 1])


@dataclass(frozen=True)
class ScalarField:
    grid: Grid2
    values: FloatArray
    mask: BoolArray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("scalar values must have shape (ny, nx)")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")
        object.__setattr__(self, "values", v)

    def effective_mask(self) -> BoolArray:
        if self.mask is None:
            return np.ones((self.grid.ny, self.grid.nx), dtype=bool)
        return self.mask


def combine_masks(*masks: BoolArray | None) -> BoolArray | None:
    out = None
    for m in masks:
        if m is None:
            continue
        out = m.copy() if out is None else (out & m)
    return out


# ---------------------------------------------------------------------------
# analytic field specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSpec:
    theta0: float = key(0.0)
    kind: str = "constant"


@dataclass(frozen=True)
class VortexSpec:
    """m(x) = orientation * i (x - center)/|x - center|; center must avoid cell centers."""

    center: tuple[float, float] = key((0.0, 0.0))
    orientation: int = key(1, within=("be 1 or -1", lambda v: v in (1, -1)))
    kind: str = "vortex"


@dataclass(frozen=True)
class JumpSpec:
    """Half-plane jump across the line (x - point).normal = 0.

    The traces must satisfy the divergence-free matching condition
    normal . (e^{i theta_plus} - e^{i theta_minus}) = 0.
    """

    normal: tuple[float, float] = key((0.0, 1.0), within=("be nonzero", any))
    theta_plus: float = key(np.pi / 4)
    theta_minus: float = key(3 * np.pi / 4)
    point: tuple[float, float] = key((0.0, 0.0))
    kind: str = "jump"

    def unit_normal(self) -> FloatArray:
        n = np.asarray(self.normal, dtype=float)
        norm = float(np.hypot(*n))
        if norm == 0.0:
            raise ValueError("jump normal must be nonzero")
        return n / norm

    def trace_residual(self) -> float:
        n = self.unit_normal()
        dm = np.array(
            [
                np.cos(self.theta_plus) - np.cos(self.theta_minus),
                np.sin(self.theta_plus) - np.sin(self.theta_minus),
            ]
        )
        return float(abs(n @ dm))

    def traces(self) -> tuple[FloatArray, FloatArray]:
        mp = np.array([np.cos(self.theta_plus), np.sin(self.theta_plus)])
        mm = np.array([np.cos(self.theta_minus), np.sin(self.theta_minus)])
        return mp, mm


FieldSpec = ConstantSpec | VortexSpec | JumpSpec


def _vortex_theta(cx: float, cy: float, orientation: int):
    def fn(x: FloatArray, y: FloatArray) -> FloatArray:
        return np.arctan2(y - cy, x - cx) + orientation * np.pi / 2

    return fn


def build_field(spec: FieldSpec, grid: Grid2) -> AngleField:
    """Sample the exact analytic field of the given spec at cell centers."""
    x, y = grid.meshgrid()
    if isinstance(spec, ConstantSpec):
        fn = lambda a, b: np.full_like(np.asarray(a, float), spec.theta0)  # noqa: E731
        return AngleField(grid, fn(x, y), theta_fn=fn)
    if isinstance(spec, VortexSpec):
        cx, cy = spec.center
        d = np.hypot(x - cx, y - cy)
        if float(d.min()) < 0.1 * grid.spacing:
            raise ValueError("vortex center too close to a cell center; offset it")
        fn = _vortex_theta(cx, cy, spec.orientation)
        return AngleField(grid, fn(x, y), theta_fn=fn)
    if isinstance(spec, JumpSpec):
        res = spec.trace_residual()
        if res > 1e-12:
            raise ValueError(
                f"jump traces violate the divergence-free matching condition: "
                f"normal.(m+ - m-) = {res:.3e} > 1e-12"
            )
        n = spec.unit_normal()
        px, py = spec.point

        def fn(a: FloatArray, b: FloatArray) -> FloatArray:
            s = (np.asarray(a, float) - px) * n[0] + (np.asarray(b, float) - py) * n[1]
            return np.where(s >= 0.0, spec.theta_plus, spec.theta_minus)

        return AngleField(grid, fn(x, y), theta_fn=fn)
    raise TypeError(f"unknown field spec {spec!r}")


_SPECS = {cls.kind: cls for cls in (ConstantSpec, VortexSpec, JumpSpec)}


def spec_from_json(obj: dict, where: str = "field") -> FieldSpec:
    """The field spec ``obj`` declares at config path ``where``; ConfigError names
    every bad key and value."""
    if not isinstance(obj, dict):
        raise ConfigError([f"config {where} must be an object, got {obj!r}"])
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _SPECS:
        raise ConfigError([f"config {where}.kind is an unknown field kind {kind!r}; "
                           f"valid: {list(_SPECS)}"])
    cls = _SPECS[kind]
    return cls(**read_keys(cls, {k: v for k, v in obj.items() if k != "kind"}, where))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _bump_profile(r: FloatArray) -> FloatArray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


#: the mollifier profile's name, recorded in every result bundle
MOLLIFIER_PROFILE = "bump-exp"

#: the bump's unit-mass factor 1 / (2 pi int_0^1 bump(r) r dr); a quadrature test pins its bits
_BUMP_NORMALIZATION = float.fromhex("0x1.12605d03ed212p+1")


@dataclass(frozen=True)
class Mollifier:
    """Radial C-infinity bump of unit mass (``MOLLIFIER_PROFILE``), scaled to radius eps."""

    eps: float

    def __post_init__(self) -> None:
        if not (self.eps > 0):
            raise ValueError("mollifier scale must be positive")

    def discrete_weights(self, spacing: float) -> FloatArray:
        """Kernel sampled on lattice offsets, renormalized to unit discrete mass.

        Renormalization keeps convolution of a constant exact and bounds
        |m_eps| <= max|m| up to rounding.
        """
        if self.eps < 2.0 * spacing - 1e-12 * spacing:
            raise ValueError(
                f"mollifier scale {self.eps} under-resolved: need eps >= 2 spacing = {2*spacing}"
            )
        radius = int(np.ceil(self.eps / spacing))
        k = np.arange(-radius, radius + 1) * spacing
        zx, zy = np.meshgrid(k, k)
        w = _BUMP_NORMALIZATION * _bump_profile(np.hypot(zx, zy) / self.eps)
        return w / w.sum() / spacing**2  # sum(w) * spacing^2 == 1


def _convolve_same(a: FloatArray, w: FloatArray) -> FloatArray:
    """Linear convolution a * w on its centred ``a.shape`` window, bit for bit what
    ``fftconvolve(a, w, mode="same")`` returns: same real FFTs, padded shape and window."""
    full = [n1 + n2 - 1 for n1, n2 in zip(a.shape, w.shape)]
    fshape = [sp_fft.next_fast_len(n, True) for n in full]
    out = sp_fft.irfftn(sp_fft.rfftn(a, fshape) * sp_fft.rfftn(w, fshape), fshape)
    start = [(n - n1) // 2 for n, n1 in zip(full, a.shape)]
    return out[tuple(slice(s, s + n1) for s, n1 in zip(start, a.shape))].copy()


def mollify(m: AngleField, kernel: Mollifier) -> VecField:
    """Discrete convolution m * rho_eps on the eps-interior of the grid."""
    w = kernel.discrete_weights(m.grid.spacing) * m.grid.cell_area()
    vec = m.unit_vectors().values
    out = np.stack([_convolve_same(vec[..., c], w) for c in range(2)], axis=-1)
    mask = m.grid.interior_mask(kernel.eps)
    return VecField(m.grid, out, mask=mask)


# ---------------------------------------------------------------------------
# shifted differences and discrete operators
# ---------------------------------------------------------------------------


def _overlap(grid: Grid2, ox: int, oy: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """Index pairs (at, to) of the cells x and x + (ox, oy) where both lie in the grid.

    ``values[to] - values[at]`` is D^z on that overlap; it is empty when
    |ox| >= nx or |oy| >= ny.
    """
    ky, kx = max(0, grid.ny - abs(oy)), max(0, grid.nx - abs(ox))
    y0, x0 = max(0, -oy), max(0, -ox)
    at = (slice(y0, y0 + ky), slice(x0, x0 + kx))
    to = (slice(y0 + oy, y0 + oy + ky), slice(x0 + ox, x0 + ox + kx))
    return at, to


def central_partials(values: FloatArray, spacing: float) -> tuple[FloatArray, FloatArray]:
    """(d/dx, d/dy) by second-order central differences; one-cell rim is zeroed."""
    dx = np.zeros_like(values)
    dy = np.zeros_like(values)
    dx[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2 * spacing)
    dy[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2 * spacing)
    return dx, dy


def stencil_mask(grid: Grid2, mask: BoolArray | None) -> BoolArray:
    """Cells whose five-point central stencil lies in the grid and in ``mask``, if given."""
    inside = np.ones((grid.ny, grid.nx), dtype=bool) if mask is None else mask
    rim = np.zeros((grid.ny, grid.nx), dtype=bool)
    rim[1:-1, 1:-1] = (
        inside[1:-1, 1:-1]
        & inside[:-2, 1:-1]
        & inside[2:, 1:-1]
        & inside[1:-1, :-2]
        & inside[1:-1, 2:]
    )
    return rim


def divergence(v: VecField) -> ScalarField:
    """Central-difference divergence on the stencil mask of ``v``.

    Bit for bit ``dx + dy`` of :func:`central_partials`, computing only the
    two partials it needs.
    """
    vx, vy = v.values[..., 0], v.values[..., 1]
    h2 = 2 * v.grid.spacing
    div = np.zeros_like(vx)
    div[:, 1:-1] = (vx[:, 2:] - vx[:, :-2]) / h2
    div[1:-1, :] += (vy[2:, :] - vy[:-2, :]) / h2
    # dx + 0.0 on the rows where dy is zero: turns a -0.0 x-difference into +0.0
    div[[0, -1], :] += 0.0
    return ScalarField(v.grid, div, mask=stencil_mask(v.grid, v.mask))


# ---------------------------------------------------------------------------
# norms over subdomains
# ---------------------------------------------------------------------------


def lp_norm(values: FloatArray, grid: Grid2, p: float, where: BoolArray) -> float:
    """Midpoint-quadrature L^p norm over the masked cells."""
    if not np.any(where):
        raise ValueError("empty subdomain after masking")
    v = np.abs(values[where])
    if np.isinf(p):
        return float(v.max())
    return float((np.sum(v**p) * grid.cell_area()) ** (1.0 / p))


# ---------------------------------------------------------------------------
# field dump format
# ---------------------------------------------------------------------------

_MAGIC = b"EELF"
_VERSION = 2


def write_field(fh: IO[bytes], grid: Grid2, *payloads: FloatArray) -> None:
    """Binary dump: magic, version, nx, ny, component count, spacing, origin,
    then that many row-major float64 payloads, each one (ny, nx) component."""
    if not payloads:
        raise ValueError("a field dump needs at least one payload")
    for i, p in enumerate(payloads):
        if np.shape(p) != (grid.ny, grid.nx):
            raise ValueError(
                f"payload {i} has shape {np.shape(p)}, expected (ny, nx) = {(grid.ny, grid.nx)}"
            )
    fh.write(_MAGIC)
    fh.write(struct.pack("<Q", _VERSION))
    fh.write(struct.pack("<QQQ", grid.nx, grid.ny, len(payloads)))
    fh.write(struct.pack("<ddd", grid.spacing, grid.origin[0], grid.origin[1]))
    for p in payloads:
        fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def _read_header(fh: IO[bytes], fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated header: expected {size} more bytes, got {len(raw)}")
    return struct.unpack(fmt, raw)


def read_field(fh: IO[bytes]) -> tuple[Grid2, list[FloatArray]]:
    magic = fh.read(4)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    (version,) = _read_header(fh, "<Q")
    if version != _VERSION:
        raise ValueError(f"unsupported dump version {version}")
    nx, ny, count, spacing, ox, oy = _read_header(fh, "<QQQddd")
    grid = Grid2(int(nx), int(ny), spacing, (ox, oy))
    raw = fh.read()
    per = nx * ny * 8
    if not raw or count == 0:
        raise ValueError("field dump has a header but no payload")
    if len(raw) != count * per:
        raise ValueError(f"payload holds {len(raw)} bytes, the header declares {count * per}")
    return grid, [
        np.frombuffer(raw[i * per : (i + 1) * per], dtype="<f8").reshape(ny, nx).copy()
        for i in range(count)
    ]
