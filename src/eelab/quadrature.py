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
blocks, live segments only, each whole quarter cell once per _CHUNK rows and
gathered into its rows, branch-masked weight, into reused buffers) and which
worker thread evaluates a group do not change any bit; changing _CHUNK,
_PIECES, _NODES, _SNAP or the segment split does, and is an output change to
be reviewed as drift, not a speed setting.

_run_tasks below runs the layout groups here, the Besov ladder's offsets and
the cubic difference average's row bands on worker threads.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

QUARTER = np.pi / 4.0


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; shared between calls and threads, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


#: geometric grading pieces per segment and Gauss nodes per piece
_PIECES = 8
_NODES = 24
#: slivers closer to a singular point than this are dropped (error ~ SNAP^{1+alpha})
_SNAP = 1e-8
#: piece boundaries as fractions of a segment, forward and reversed.  The
#: reversed ones are a contiguous copy: numpy 2.4 on AVX-512 raises to a strided
#: ``frac[::-1]`` with another pow loop for one or two segments than for three
#: or more, so a view makes a segment's bits depend on how many share its call.
_FRAC = np.arange(_PIECES + 1) / _PIECES
_FRAC_REV = _FRAC[::-1].copy()


def _segment_nodes(lo: np.ndarray, hi: np.ndarray, weight, n: int = _NODES, out=None):
    """Quadrature nodes U and effective weights W (phi factor included) for
    int_lo^hi w_alpha(u) G(u) du, vectorized over segment arrays.

    Segments must not cross quarter-pi grid lines; the caller guarantees this
    by splitting at them.  Inside the quarter cells adjacent to a multiple of
    pi the weight behaves like dist^alpha, so the piece boundaries are graded
    geometrically toward that endpoint; elsewhere they are uniform.  Output
    arrays have shape lo.shape + (_PIECES, n), written into ``out`` = (U, W,
    scratch) when given; W is zero on zero-width segments.
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

    # uniform boundaries (categories 1, 2)
    bnd = lo[..., None] + width[..., None] * _FRAC
    # geometric toward the left base (category 0)
    d1 = np.maximum(hi - base_lo, _SNAP)
    d0 = np.minimum(np.maximum(lo - base_lo, _SNAP), d1)
    geo_l = base_lo[..., None] + d0[..., None] * (d1 / d0)[..., None] ** _FRAC
    # geometric toward the right base (category 3)
    e1 = np.maximum(base_hi - lo, _SNAP)
    e0 = np.minimum(np.maximum(base_hi - hi, _SNAP), e1)
    geo_r = base_hi[..., None] - e0[..., None] * (e1 / e0)[..., None] ** _FRAC_REV
    is0 = (cat == 0)[..., None]
    is3 = (cat == 3)[..., None]
    bnd = np.where(is0, geo_l, np.where(is3, geo_r, bnd))

    a = bnd[..., :-1]
    b = bnd[..., 1:]
    half = 0.5 * np.maximum(b - a, 0.0)
    center = 0.5 * (a + b)
    glx, glw = gauss_legendre(n)
    U, W, scratch = np.empty((3,) + half.shape + (n,)) if out is None else out
    # every product and sum below is a single IEEE operation, so writing
    # center + half*glx as U += center (and so on) keeps the bits
    np.multiply(half[..., None], glx, out=U)
    U += center[..., None]
    weight.value(U, out=W, work=scratch)
    W *= np.multiply(half[..., None], glw, out=scratch)
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
#: Rows per node block inside a group; any value gives the same bits.  With
#: 2 workers the n=96 vortex identity took 10.6, 9.1, 9.5 and 9.7 s at 8, 16,
#: 32 and 64 rows (medians of 3, 2 vCPU); 32 and 64 doubled the page faults.
_BLOCK = 16
#: Worker threads per call: the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_tasks(task, n: int, buffers=lambda: None) -> None:
    """``task(j, buf)`` for j < n on up to _WORKERS threads, each taking the next
    j when free, with a ``buf = buffers()`` each, made here so that its memory
    returns to this thread's heap.  A task's exception is raised once all
    threads are joined.  A lone buffer set runs on the calling thread."""
    bufs = [buffers() for _ in range(min(_WORKERS, n))]
    taken = itertools.count()   # next() on it is one atomic step under the GIL

    def work(buf):
        while (j := next(taken)) < n:
            task(j, buf)

    if len(bufs) < 2:
        list(map(work, bufs))
        return
    with ThreadPoolExecutor(len(bufs)) as pool:
        list(pool.map(work, bufs))


def _whole_cells(lo: np.ndarray, hi: np.ndarray):
    """(cell_lo, cell_hi, src): live segment i of [lo, hi] gets the nodes of
    segment src[i] of [cell_lo, cell_hi].

    A whole quarter cell [k QUARTER, (k + 1) QUARTER] gets the same endpoint
    bits, and so the same nodes, in every row (_split_segments builds its grid
    lines as k * QUARTER), so each distinct k is listed once, ahead of the
    partial cells.
    """
    k = np.rint(lo / QUARTER)
    whole = (lo == k * QUARTER) & (hi == (k + 1.0) * QUARTER)
    cells, row = np.unique(k[whole], return_inverse=True)
    part = ~whole
    src = np.empty(lo.size, dtype=np.intp)
    src[whole] = row
    src[part] = np.arange(cells.size, cells.size + np.count_nonzero(part))
    return (np.concatenate((cells * QUARTER, lo[part])),
            np.concatenate(((cells + 1.0) * QUARTER, hi[part])), src)


def _live_nodes(kind: str, lo: np.ndarray, hi: np.ndarray, weight, n: int, out):
    """Nodes U, weights W and trig factor T (cos U for ``sin_sin``, else sin U)
    of the segments [lo, hi], written into out = (U, W, T).  The whole and the
    partial cells of _whole_cells share this _segment_nodes and trig call."""
    U, W = _segment_nodes(lo, hi, weight, n, out)
    return U, W, (np.cos if kind == "sin_sin" else np.sin)(U, out=out[2])


def _live_products(kind: str, U, W, T, slo, shi, tlo, thi, work):
    """Summands W * (0.5 * iv) at nodes U of live segments of rectangles
    [slo, shi] x [tlo, thi]; T is the trig factor of _live_nodes, overwritten.

    With the v-window vlo = 2 max(slo, tlo + U) - U, vhi = 2 min(shi, thi + U) - U
    and wid = max(vhi - vlo, 0), iv is sin(U) wid for ``sin_diff``,
    ((cos vlo - cos vhi)[wid > 0] + sin(U) wid) / 2 for ``sin_cos`` and
    (cos(U) wid - (sin vhi - sin vlo)[wid > 0]) / 2 for ``sin_sin``.  The
    in-place steps keep every operation and its operands (max/min argument
    order included), so the bits are those of the formulas.  The rectangle
    arguments are 1-d of one length L, the node arrays have shape
    (L, _PIECES, n) and so has the result; vlo, vhi and wid go into ``work``.
    """
    ex = lambda a: a[:, None, None]  # noqa: E731
    vlo, vhi, wid = (a[: len(U)] for a in work)
    np.add(ex(tlo), U, out=vlo)
    np.maximum(ex(slo), vlo, out=vlo)
    vlo *= 2.0
    vlo -= U
    np.add(ex(thi), U, out=vhi)
    np.minimum(ex(shi), vhi, out=vhi)
    vhi *= 2.0
    vhi -= U
    np.subtract(vhi, vlo, out=wid)
    np.maximum(wid, 0.0, out=wid)
    if kind == "sin_diff":
        iv = T
        iv *= wid
    elif kind == "sin_cos":
        iv = np.cos(vlo, out=vlo)
        iv -= np.cos(vhi, out=vhi)
        iv *= wid > 0
        sin_u = T
        sin_u *= wid
        iv += sin_u
        iv *= 0.5
    else:
        iv = T
        iv *= wid
        dsin = np.sin(vhi, out=vhi)
        dsin -= np.sin(vlo, out=vlo)
        dsin *= wid > 0
        iv -= dsin
        iv *= 0.5
    iv *= 0.5
    iv *= W
    return iv


#: What _evaluate does for _CHUNK rows of a group, from the first row i0 on:
#: the group's segment count S, the row and flat (row, segment) index of each
#: live segment, the bounds of each _BLOCK-row block in those, and the node
#: table segments of _whole_cells.
_Plan = namedtuple("_Plan", "i0 rows nseg row at ends cell_lo cell_hi src")


def _plan(rect, groups):
    """The _Plan entries of the layout groups ``groups``, (start, stop) ranges
    of the 1-d rectangle arrays ``rect``.

    A group of another shape than 1-d can be large: its node tables are built
    _CHUNK rows at a time, so their memory stays that of one 1-d group.
    """
    plans = []
    for g0, g1 in groups:
        slo, shi, tlo, thi = (a[g0:g1] for a in rect)
        seg_lo, seg_hi = _split_segments(slo - thi, shi - tlo, [slo - tlo, shi - thi])
        nseg = seg_lo.shape[-1]
        for i0 in range(g0, g1, _CHUNK):
            lo, hi = seg_lo[i0 - g0:i0 - g0 + _CHUNK], seg_hi[i0 - g0:i0 - g0 + _CHUNK]
            r, c = np.nonzero(hi - lo > 0)      # row-major, so a block is one range
            ends = np.searchsorted(r, range(0, len(lo) + _BLOCK, _BLOCK)).tolist()
            plans.append(_Plan(i0, len(lo), nseg, i0 + r, r * nseg + c, ends,
                               *_whole_cells(lo[r, c], hi[r, c])))
    return plans


def _buffers(plans, n: int):
    """The node table, the gathered nodes and v-window, and the block array
    that _evaluate writes into, each sized for the largest of ``plans``."""
    cells = max((len(p.cell_lo) for p in plans), default=0)
    live = max((max(np.diff(p.ends)) for p in plans), default=0)
    rows = max((min(_BLOCK, p.rows) * p.nseg for p in plans), default=0)
    return np.empty((3, cells, _PIECES, n)), np.empty((6, live, _PIECES, n)), np.empty(rows * _PIECES * n)


def _evaluate(kind: str, rect, plan: _Plan, buffers, weight, n: int, out) -> None:
    """Rectangle integrals of the rows of ``plan``, written into ``out``.

    Only live (nonzero-width) segments are evaluated: their nodes once per
    _CHUNK rows (see _whole_cells), their summands _BLOCK rows at a time.
    Each block's summands are scattered into a zeroed (rows, S, _PIECES, n)
    array and each row is summed over the same shape as a full evaluation,
    whose zero-width segments contribute zeros, so every row keeps its bits.
    """
    i0, rows, nseg, row, at, ends, cell_lo, cell_hi, src = plan
    table, work, buf = buffers
    nodes = _live_nodes(kind, cell_lo, cell_hi, weight, n, table[:, : len(cell_lo)])
    for i, s, e in zip(range(i0, i0 + rows, _BLOCK), ends, ends[1:]):
        gathered = [np.take(a, src[s:e], axis=0, out=g[: e - s], mode="clip")
                    for a, g in zip(nodes, work[:3])]
        block = buf[: min(_BLOCK, i0 + rows - i) * nseg * _PIECES * n].reshape(-1, nseg, _PIECES, n)
        block.fill(0.0)
        block.reshape(-1, _PIECES, n)[at[s:e] - (i - i0) * nseg] = _live_products(
            kind, *gathered, *(a[row[s:e]] for a in rect), work[3:]
        )
        out[i:i + len(block)] = np.sum(block, axis=(-1, -2, -3))


def arc_rectangle_integral(kind: str, slo, shi, tlo, thi, weight, n: int = _NODES):
    """iint over [slo,shi] x [tlo,thi] of w_alpha(s-t) * g, vectorized.

    kind selects g: ``sin_diff`` -> sin(s-t), ``sin_cos`` -> sin(s)cos(t),
    ``sin_sin`` -> sin(s)sin(t).  A 1-d batch is split into layout groups of
    _CHUNK rows, any other shape is one group; _run_tasks takes their plans in
    order, each as soon as a worker is free.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    slo, shi, tlo, thi = np.broadcast_arrays(
        *[np.asarray(a, dtype=float) for a in (slo, shi, tlo, thi)]
    )
    rect = [a.reshape(-1) for a in (slo, shi, tlo, thi)]
    size = slo.size
    groups = [(i, min(i + _CHUNK, size)) for i in range(0, size, _CHUNK)] if slo.ndim == 1 else [(0, size)]
    plans = _plan(rect, groups)
    out = np.empty(size)
    _run_tasks(lambda j, buffers: _evaluate(kind, rect, plans[j], buffers, weight, n, out),
               len(plans), lambda: _buffers(plans, n))
    return out.reshape(slo.shape)[()]


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
