"""Bitwise oracle for the arc-rectangle kernel and the interaction weight.

The oracle is the plain full-array evaluation of the same quadrature: every
segment of every row is evaluated, zero-width ones included, both branches of
the weight are computed on the whole array and the sign is applied by a
multiply with +-1.  The library kernel evaluates only live segments, in row
blocks, with branch-masked ufuncs; it must reproduce the oracle bit for bit
(``tobytes`` equality), which is what keeps the run bundles byte-identical.

The module runs with warnings as errors, so a ``where=`` ufunc call without
``out=`` (numpy warns that the output is uninitialised) fails the tests.
"""

import numpy as np
import pytest

from eelab.quadrature import (
    QUARTER,
    _arc_rectangle_chunk,
    _segment_nodes,
    _split_segments,
    arc_rectangle_integral,
    gauss_legendre,
    interaction_pair_flux,
    interaction_pair_value,
)
from eelab.regularity import make_interaction_weight

pytestmark = pytest.mark.filterwarnings("error")

ALPHAS = (0.15, 0.5, 1.0)
KINDS = ("sin_diff", "sin_cos", "sin_sin")
SHAPES = ((), (1,), (127,), (128,), (129,), (300,), (7, 5))


# ---------------------------------------------------------------------------
# the oracle: the full-array kernel, kept verbatim with its own layout constants
# ---------------------------------------------------------------------------

_PIECES = 8
_NODES = 16
_SNAP = 1e-8
_CHUNK = 128


class OracleWeight:
    """The interaction weight evaluated on the whole array, both branches."""

    def __init__(self, weight):
        self.alpha = weight.alpha
        self._a = weight._a
        self._b = weight._b

    def value(self, t):
        t = np.asarray(t, dtype=float)
        u = np.mod(t, np.pi)
        sign = np.where(u <= np.pi / 2, 1.0, -1.0)
        v = np.where(u <= np.pi / 2, u, np.pi - u)
        power = np.power(np.where(v <= np.pi / 4, v, 1.0), self.alpha)
        blend = (self._a + self._b * (v - np.pi / 4)) * (np.pi / 2 - v)
        return sign * np.where(v <= np.pi / 4, power, blend)


def oracle_segment_nodes(lo, hi, weight, n=_NODES):
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
    U = center[..., None] + half[..., None] * glx
    W = half[..., None] * glw * weight.value(U)
    W = np.where(live[..., None, None], W, 0.0)
    return U, W


def oracle_arc_rectangle_chunk(kind, slo, shi, tlo, thi, weight, n):
    ulo = slo - thi
    uhi = shi - tlo
    seg_lo, seg_hi = _split_segments(ulo, uhi, [slo - tlo, shi - thi])
    U, W = oracle_segment_nodes(seg_lo, seg_hi, weight, n)

    ex = lambda a: a[..., None, None, None]  # noqa: E731
    vlo = 2.0 * np.maximum(ex(slo), ex(tlo) + U) - U
    vhi = 2.0 * np.minimum(ex(shi), ex(thi) + U) - U
    wid = np.maximum(vhi - vlo, 0.0)
    pos = wid > 0
    if kind == "sin_diff":
        iv = np.sin(U) * wid
    elif kind == "sin_cos":
        iv = 0.5 * ((np.cos(vlo) - np.cos(vhi)) * pos + np.sin(U) * wid)
    else:
        iv = 0.5 * (np.cos(U) * wid - (np.sin(vhi) - np.sin(vlo)) * pos)
    return np.sum(W * (0.5 * iv), axis=(-1, -2, -3))


def oracle_arc_rectangle_integral(kind, slo, shi, tlo, thi, weight, n=_NODES):
    slo, shi, tlo, thi = np.broadcast_arrays(
        *[np.asarray(a, dtype=float) for a in (slo, shi, tlo, thi)]
    )
    if slo.ndim != 1 or slo.size <= _CHUNK:
        return oracle_arc_rectangle_chunk(kind, slo, shi, tlo, thi, weight, n)
    out = np.empty(slo.shape)
    for i in range(0, slo.size, _CHUNK):
        sl = slice(i, i + _CHUNK)
        out[sl] = oracle_arc_rectangle_chunk(kind, slo[sl], shi[sl], tlo[sl], thi[sl], weight, n)
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def theta_pairs(shape, seed):
    """Random (theta0, theta1) with adversarial rows mixed in: theta1 = theta0,
    theta1 = theta0 + pi, and both on multiples of pi/4."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    th0 = rng.uniform(-2 * np.pi, 2 * np.pi, size)
    th1 = rng.uniform(-2 * np.pi, 2 * np.pi, size)
    case = np.arange(size) % 4 if size > 1 else np.array([seed % 4])
    th1 = np.where(case == 1, th0, th1)
    th1 = np.where(case == 2, th0 + np.pi, th1)
    k = rng.integers(-12, 13, size=(2, size)) * QUARTER
    th0 = np.where(case == 3, k[0], th0)
    th1 = np.where(case == 3, k[1], th1)
    return th0.reshape(shape), th1.reshape(shape)


def rectangles(kind, th0, th1):
    """Arc rectangles of the shapes the value and flux pairs integrate ``kind`` over."""
    h = np.pi / 2
    pairs = ((th0, th1),) if kind == "sin_sin" else ((th1, th1), (th1, th0))
    for ta, tb in pairs:
        yield ta - h, ta + h, tb - h, tb + h


def assert_bits(new, old):
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind", KINDS)
def test_arc_rectangle_integral_matches_oracle_bitwise(kind, alpha):
    weight = make_interaction_weight(alpha)
    oracle = OracleWeight(weight)
    # the (300,) batch, three groups with a short last one, is covered by the
    # value/flux test below, which integrates the same rectangles
    for seed, shape in enumerate(SHAPES[:-2] + SHAPES[-1:]):
        for rect in rectangles(kind, *theta_pairs(shape, seed)):
            for n in (24, _NODES) if shape in ((), (129,)) else (24,):
                assert_bits(
                    arc_rectangle_integral(kind, *rect, weight, n=n),
                    oracle_arc_rectangle_integral(kind, *rect, oracle, n=n),
                )


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind", KINDS)
def test_arc_rectangle_chunk_matches_oracle_bitwise(kind, alpha):
    weight = make_interaction_weight(alpha)
    oracle = OracleWeight(weight)
    for seed, shape in enumerate(SHAPES):
        th0, th1 = theta_pairs(shape, 100 + seed)
        # unequal arcs, so the extra breakpoints differ from the rectangle corners
        rect = (th0 - 1.0, th0 + 0.5, th1 - 0.25, th1 + 2.0)
        assert_bits(
            _arc_rectangle_chunk(kind, *rect, weight, 24),
            oracle_arc_rectangle_chunk(kind, *rect, oracle, 24),
        )


@pytest.mark.parametrize("kind", KINDS)
def test_layout_groups_match_oracle_bitwise(kind):
    """Arcs of random width, zero included: the u-span, and so the segment
    count, varies between rows, so each 128-row group gets its own layout."""
    weight = make_interaction_weight(0.5)
    rng = np.random.default_rng(21)
    c0, c1 = rng.uniform(-7, 7, (2, 300))
    half = rng.uniform(0, np.pi, (4, 300))
    half[:, ::3] = 0.0
    half[:2, 1::5] = 0.0
    rect = (c0 - half[0], c0 + half[1], c1 - half[2], c1 + half[3])
    assert_bits(
        arc_rectangle_integral(kind, *rect, weight, n=24),
        oracle_arc_rectangle_integral(kind, *rect, OracleWeight(weight), n=24),
    )


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pair_value_and_flux_match_oracle_bitwise(alpha):
    weight = make_interaction_weight(alpha)
    oracle = OracleWeight(weight)
    h = np.pi / 2
    th0, th1 = theta_pairs((300,), 7)

    def rect(kind, ta, tb):
        return oracle_arc_rectangle_integral(kind, ta - h, ta + h, tb - h, tb + h, oracle, n=24)

    arcs, signs = (th1, th0), (1.0, -1.0)
    total = np.zeros(th0.shape)
    for ta, wa in zip(arcs, signs):
        for tb, wb in zip(arcs, signs):
            total = total + wa * wb * rect("sin_diff", ta, tb)
    assert_bits(interaction_pair_value(th0, th1, weight), total)
    a1, a2 = interaction_pair_flux(th0, th1, weight)
    assert_bits(a1, 2.0 * (rect("sin_cos", th1, th1) - rect("sin_cos", th1, th0)))
    assert_bits(a2, 2.0 * rect("sin_sin", th0, th1))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_segment_nodes_match_oracle_bitwise(alpha):
    weight = make_interaction_weight(alpha)
    rng = np.random.default_rng(11)
    cell = rng.integers(-16, 16, 400)
    lo = (cell + rng.uniform(0, 1, 400)) * QUARTER
    hi = np.minimum(lo + rng.uniform(0, QUARTER, 400), (cell + 1) * QUARTER)
    hi[::5] = lo[::5]                                 # zero-width segments
    lo[1::7] = np.round(lo[1::7] / np.pi) * np.pi     # start on a singular point
    hi[1::7] = lo[1::7] + rng.uniform(0, 1e-7, hi[1::7].size)
    hi[2::7] = cell[2::7] * QUARTER + 0.5 * _SNAP     # slivers below the snap distance
    lo[2::7] = cell[2::7] * QUARTER
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    for shape in ((400,), (20, 20)):
        U, W = _segment_nodes(lo.reshape(shape), hi.reshape(shape), weight, 24)
        U0, W0 = oracle_segment_nodes(lo.reshape(shape), hi.reshape(shape), OracleWeight(weight), 24)
        assert_bits(U, U0)
        assert_bits(W, W0)


def weight_arguments(seed):
    rng = np.random.default_rng(seed)
    k = np.arange(-24, 25) * QUARTER
    return np.concatenate([
        k,
        np.nextafter(k, np.inf),
        np.nextafter(k, -np.inf),
        [0.0, -0.0, 2 * np.pi + 1.0, 50.0, -50.0, 1e6, -1e6],
        rng.uniform(-20, 20, 1000),
    ])


@pytest.mark.parametrize("alpha", ALPHAS)
def test_weight_value_matches_oracle_bitwise(alpha):
    weight = make_interaction_weight(alpha)
    oracle = OracleWeight(weight)
    t = weight_arguments(3)
    assert_bits(weight.value(t), oracle.value(t))
    assert_bits(weight.value(t[:35].reshape(7, 5)), oracle.value(t[:35].reshape(7, 5)))
    assert_bits(weight.value(t[::3]), oracle.value(t[::3]))         # strided input
    for x in (0.0, -0.0, QUARTER, np.nextafter(QUARTER, 1.0), -3.0, 7.0, np.float64(2.0), 1):
        assert_bits(weight(x), oracle.value(x))                     # scalar in, scalar out
    assert_bits(weight.value(np.empty(0)), oracle.value(np.empty(0)))
