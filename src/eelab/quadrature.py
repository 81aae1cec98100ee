"""Breakpoint-exact quadrature for products of the interaction weight with arcs.

The double integrals over [0,2pi]^2 appearing in the interaction functional
and its flux all have the shape

    iint_{S x T} w_alpha(s - t) * g(s, t) ds dt

over rectangles S x T (products of indicator arcs), with w_alpha the odd
pi-periodic power weight and g a product of sines/cosines.  Substituting
u = s - t, v = s + t turns each of them into a single u-integral with an
explicit inner antiderivative; the integrand is then analytic between
breakpoints (quarter-pi kinks of the weight, plus the two corners of the
overlap window), and the |u - k pi|^alpha endpoint behavior is resolved by
grading the quadrature pieces geometrically toward the singular endpoint.
Everything is vectorized over arrays of rectangles.

Layout invariant: the bits of a rectangle's value depend on the layout group
it is evaluated in.  A group is _CHUNK consecutive rows of a 1-d batch (any
other shape is one group); the group's widest u-span sets the segment count S,
and each row is summed by one ``np.sum`` over an (S, _PIECES, n) array whose
zero-width segments hold zeros.  How the nodes are computed (in _BLOCK-row
blocks, live segments only, branch-masked weight) does not change any bit;
changing _CHUNK, _PIECES, _NODES, _SNAP or the segment split does, and is an
output change to be reviewed as drift, not a speed setting.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

QUARTER = np.pi / 4.0


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


#: geometric grading pieces per segment and Gauss nodes per piece
_PIECES = 8
_NODES = 24
#: slivers closer to a singular point than this are dropped (error ~ SNAP^{1+alpha})
_SNAP = 1e-8


def _segment_nodes(lo: np.ndarray, hi: np.ndarray, weight, n: int = _NODES):
    """Quadrature nodes U and effective weights W (phi factor included) for
    int_lo^hi w_alpha(u) G(u) du, vectorized over segment arrays.

    Segments must not cross quarter-pi grid lines; the caller guarantees this
    by splitting at them.  Inside the quarter cells adjacent to a multiple of
    pi the weight behaves like dist^alpha, so the piece boundaries are graded
    geometrically toward that endpoint; elsewhere they are uniform.  Output
    arrays have shape lo.shape + (_PIECES, n); W is zero on zero-width
    segments.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    width = np.maximum(hi - lo, 0.0)
    live = width > 0
    cell = np.floor(mid / QUARTER + 1e-15).astype(int)
    cat = np.mod(cell, 4)  # 0: just right of a pi-multiple, 3: just left of one

    base_lo = np.pi * np.floor(mid / np.pi + 1e-15)   # singular point for cat 0
    base_hi = np.pi * np.ceil(mid / np.pi - 1e-15)    # singular point for cat 3

    frac = np.arange(_PIECES + 1) / _PIECES
    # uniform boundaries (categories 1, 2)
    bnd = lo[..., None] + width[..., None] * frac
    # geometric toward the left base (category 0)
    d1 = np.maximum(hi - base_lo, _SNAP)
    d0 = np.minimum(np.maximum(lo - base_lo, _SNAP), d1)
    geo_l = base_lo[..., None] + d0[..., None] * (d1 / d0)[..., None] ** frac
    # geometric toward the right base (category 3)
    e1 = np.maximum(base_hi - lo, _SNAP)
    e0 = np.minimum(np.maximum(base_hi - hi, _SNAP), e1)
    geo_r = base_hi[..., None] - e0[..., None] * (e1 / e0)[..., None] ** frac[::-1]
    is0 = (cat == 0)[..., None]
    is3 = (cat == 3)[..., None]
    bnd = np.where(is0, geo_l, np.where(is3, geo_r, bnd))

    a = bnd[..., :-1]
    b = bnd[..., 1:]
    half = 0.5 * np.maximum(b - a, 0.0)
    center = 0.5 * (a + b)
    glx, glw = gauss_legendre(n)
    # every product and sum below is a single IEEE operation, so writing
    # center + half*glx as U += center (and so on) keeps the bits
    U = half[..., None] * glx
    U += center[..., None]
    W = weight.value(U)
    W *= half[..., None] * glw
    W[~live] = 0.0
    return U, W


def _split_segments(ulo: np.ndarray, uhi: np.ndarray, extra: list[np.ndarray]):
    """Sorted per-row segment endpoints: quarter-pi grid plus extra breakpoints."""
    ulo = np.asarray(ulo, dtype=float)
    uhi = np.asarray(uhi, dtype=float)
    span = float(np.max(uhi - ulo, initial=0.0))
    nquarters = int(np.ceil(span / QUARTER)) + 1
    k0 = np.ceil(ulo / QUARTER - 1e-13)
    grid = (k0[..., None] + np.arange(nquarters)) * QUARTER
    cands = [np.clip(grid, ulo[..., None], uhi[..., None])]
    for e in extra:
        cands.append(np.clip(np.asarray(e, dtype=float)[..., None], ulo[..., None], uhi[..., None]))
    cands.append(ulo[..., None])
    cands.append(uhi[..., None])
    pts = np.sort(np.concatenate(cands, axis=-1), axis=-1)
    return pts[..., :-1], pts[..., 1:]


def phi_weighted_integral(g, lo, hi, weight):
    """int_lo^hi w_alpha(u) g(u) du, vectorized over lo/hi arrays, _NODES nodes per piece.

    g must accept arrays and be smooth on [lo, hi].
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    seg_lo, seg_hi = _split_segments(lo, hi, [])
    U, W = _segment_nodes(seg_lo, seg_hi, weight, _NODES)
    return np.sum(W * g(U), axis=(-1, -2, -3))


_KINDS = ("sin_diff", "sin_cos", "sin_sin")


#: Layout group.  The rows of one group share the segment count S, set by the
#: group's widest u-span, and S fixes the shape of every row's node sum and so
#: its pairwise-summation tree: changing _CHUNK moves low-order bits of every
#: rectangle (16 moved the vortex identity ``lhs`` from ...212207 to ...212126).
#: Treat a change as an output change, not a tuning knob.
_CHUNK = 128
#: Rows per node block inside a group.  Any value gives the same bits; about
#: 16 keeps the node arrays in cache.
_BLOCK = 16


def _live_products(kind: str, lo, hi, slo, shi, tlo, thi, weight, n: int):
    """Summands W * (0.5 * iv) on live segments [lo, hi] of rectangles
    [slo, shi] x [tlo, thi].

    With the v-window vlo = 2 max(slo, tlo + U) - U, vhi = 2 min(shi, thi + U) - U
    and wid = max(vhi - vlo, 0), iv is sin(U) wid for ``sin_diff``,
    ((cos vlo - cos vhi)[wid > 0] + sin(U) wid) / 2 for ``sin_cos`` and
    (cos(U) wid - (sin vhi - sin vlo)[wid > 0]) / 2 for ``sin_sin``.  The
    in-place steps keep every operation and its operands (max/min argument
    order included), so the bits are those of the formulas.  All arguments
    are 1-d of one length L; the result has shape (L, _PIECES, n).
    """
    U, W = _segment_nodes(lo, hi, weight, n)
    ex = lambda a: a[:, None, None]  # noqa: E731
    vlo = np.add(ex(tlo), U)
    np.maximum(ex(slo), vlo, out=vlo)
    vlo *= 2.0
    vlo -= U
    vhi = np.add(ex(thi), U)
    np.minimum(ex(shi), vhi, out=vhi)
    vhi *= 2.0
    vhi -= U
    wid = np.subtract(vhi, vlo)
    np.maximum(wid, 0.0, out=wid)
    if kind == "sin_diff":
        iv = np.sin(U, out=U)
        iv *= wid
    elif kind == "sin_cos":
        iv = np.cos(vlo, out=vlo)
        iv -= np.cos(vhi, out=vhi)
        iv *= wid > 0
        sin_u = np.sin(U, out=U)
        sin_u *= wid
        iv += sin_u
        iv *= 0.5
    else:
        iv = np.cos(U, out=U)
        iv *= wid
        dsin = np.sin(vhi, out=vhi)
        dsin -= np.sin(vlo, out=vlo)
        dsin *= wid > 0
        iv -= dsin
        iv *= 0.5
    iv *= 0.5
    iv *= W
    return iv


def _arc_rectangle_chunk(kind: str, slo, shi, tlo, thi, weight, n: int):
    """Rectangle integrals of one layout group (see _CHUNK).

    Only live (nonzero-width) segments are evaluated, _BLOCK rows at a time.
    Their summands are scattered into a zeroed (rows, S, _PIECES, n) block
    and each row is summed over the same shape as a full evaluation, whose
    zero-width segments contribute zeros, so every nonzero row keeps its bits.
    """
    ulo = slo - thi
    uhi = shi - tlo
    seg_lo, seg_hi = _split_segments(ulo, uhi, [slo - tlo, shi - thi])
    shape = slo.shape
    rows = slo.size
    nseg = seg_lo.shape[-1]
    seg_lo = seg_lo.reshape(rows, nseg)
    seg_hi = seg_hi.reshape(rows, nseg)
    slo, shi, tlo, thi = (a.reshape(rows) for a in (slo, shi, tlo, thi))
    live = seg_hi - seg_lo > 0
    out = np.empty(rows)
    buf = np.empty((min(rows, _BLOCK), nseg, _PIECES, n))
    for i in range(0, rows, _BLOCK):
        sl = slice(i, i + _BLOCK)
        mask = live[sl]
        r = np.nonzero(mask)[0] + i
        block = buf[: mask.shape[0]]
        flat = block.reshape(-1, _PIECES, n)
        flat_mask = mask.ravel()
        flat[~flat_mask] = 0.0
        flat[flat_mask] = _live_products(
            kind, seg_lo[sl][mask], seg_hi[sl][mask], slo[r], shi[r], tlo[r], thi[r], weight, n
        )
        out[sl] = np.sum(block, axis=(-1, -2, -3))
    return out.reshape(shape)[()]


def arc_rectangle_integral(kind: str, slo, shi, tlo, thi, weight, n: int = _NODES):
    """iint over [slo,shi] x [tlo,thi] of w_alpha(s-t) * g, vectorized.

    kind selects g: ``sin_diff`` -> sin(s-t), ``sin_cos`` -> sin(s)cos(t),
    ``sin_sin`` -> sin(s)sin(t).  A 1-d batch is split into layout groups of
    _CHUNK rows; any other shape is one group.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    slo, shi, tlo, thi = np.broadcast_arrays(
        *[np.asarray(a, dtype=float) for a in (slo, shi, tlo, thi)]
    )
    if slo.ndim != 1 or slo.size <= _CHUNK:
        return _arc_rectangle_chunk(kind, slo, shi, tlo, thi, weight, n)
    out = np.empty(slo.shape)
    for i in range(0, slo.size, _CHUNK):
        sl = slice(i, i + _CHUNK)
        out[sl] = _arc_rectangle_chunk(kind, slo[sl], shi[sl], tlo[sl], thi[sl], weight, n)
    return out


def interaction_pair_value(theta0, theta1, weight):
    """The interaction functional of the value pair (theta0, theta1).

    Expands the product of indicator differences into four signed rectangles
    of arcs (theta - pi/2, theta + pi/2) against the kernel w_alpha(s-t)sin(s-t).
    """
    theta0, theta1 = np.broadcast_arrays(
        np.asarray(theta0, dtype=float), np.asarray(theta1, dtype=float)
    )
    arcs = (theta1, theta0)
    signs = (1.0, -1.0)
    total = np.zeros(theta0.shape)
    for ta, wa in zip(arcs, signs):
        for tb, wb in zip(arcs, signs):
            total = total + wa * wb * arc_rectangle_integral(
                "sin_diff", ta - np.pi / 2, ta + np.pi / 2, tb - np.pi / 2, tb + np.pi / 2, weight
            )
    return total


def interaction_pair_flux(theta0, theta1, weight):
    """The two flux components of the interaction identity at a value pair.

    With chi the arc indicator of theta0 and chi^h that of theta1,

        A_1 = 2 iint w(s-t) sin(s)cos(t) chi^h(s) (chi^h - chi)(t),
        A_2 = 2 iint w(s-t) sin(s)sin(t) chi(s) chi^h(t).
    """
    theta0, theta1 = np.broadcast_arrays(
        np.asarray(theta0, dtype=float), np.asarray(theta1, dtype=float)
    )
    h = np.pi / 2
    a1 = 2.0 * (
        arc_rectangle_integral("sin_cos", theta1 - h, theta1 + h, theta1 - h, theta1 + h, weight)
        - arc_rectangle_integral("sin_cos", theta1 - h, theta1 + h, theta0 - h, theta0 + h, weight)
    )
    a2 = 2.0 * arc_rectangle_integral(
        "sin_sin", theta0 - h, theta0 + h, theta1 - h, theta1 + h, weight
    )
    return a1, a2
