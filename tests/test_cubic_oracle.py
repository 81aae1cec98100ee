"""Bitwise oracle for the cubic difference average P_eps.

The oracle is the plain per-offset loop: every offset of the disk sums
|D^z m|^3 over its whole overlap, zero differences included.  The library
skips the row and column pairs whose difference is exactly zero (uniform
lines with equal values) and adds the term of a pair of uniform lines as one
vector; it must reproduce the oracle bit for bit
(``tobytes`` equality), which is what keeps the jump bundle byte-identical.
"""

import hashlib
import json
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings, strategies as st

from eelab import quadrature
from eelab.cli import _JUMP_CUBIC_CELLS, config_from_json
from eelab.grids import AngleField, Grid2, ScalarField, _overlap, build_field, centered_grid
from eelab.production import cubic_difference_average

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# the oracle: the full per-offset loop, kept verbatim
# ---------------------------------------------------------------------------


def oracle_cubic_difference_average(m: AngleField, eps: float) -> ScalarField:
    grid = m.grid
    h = grid.spacing
    radius = int(np.ceil(eps / h))
    vec = m.unit_vectors().values
    acc = np.zeros((grid.ny, grid.nx))
    for oy in range(-radius, radius + 1):
        for ox in range(-radius, radius + 1):
            if (ox == 0 and oy == 0) or (ox * h) ** 2 + (oy * h) ** 2 >= eps**2:
                continue
            at, to = _overlap(grid, ox, oy)
            d = vec[to] - vec[at]
            acc[at] += np.hypot(d[..., 0], d[..., 1]) ** 3
    mask = grid.interior_mask(eps)
    return ScalarField(grid, acc * h * h / eps**3, mask=mask)


def assert_bitwise(m: AngleField, eps: float) -> None:
    got = cubic_difference_average(m, eps)
    want = oracle_cubic_difference_average(m, eps)
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.mask, want.mask)


# ---------------------------------------------------------------------------
# fields: random, and piecewise constant with uniform rows or columns
# ---------------------------------------------------------------------------

# a few repeated angles, so that equal and unequal neighbouring lines both occur
ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 4, 3 * np.pi / 4, np.pi]),
                   st.floats(0.0, 2 * np.pi))
KINDS = ("random", "constant", "horizontal", "vertical", "diagonal", "two-parallel", "stripes",
         "partly-uniform")


@st.composite
def angle_fields(draw) -> AngleField:
    nx, ny = draw(st.integers(4, 24)), draw(st.integers(4, 24))
    grid = Grid2(nx, ny, draw(st.sampled_from([0.1, 1.0 / 16, 0.3])))
    kind = draw(st.sampled_from(KINDS))
    j, i = np.indices((ny, nx))
    a, b = draw(ANGLES), draw(ANGLES)
    if kind == "random":
        theta = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 2 * np.pi, (ny, nx))
    elif kind == "constant":
        theta = np.full((ny, nx), a)
    elif kind == "horizontal":
        theta = np.where(j < draw(st.integers(0, ny)), a, b)
    elif kind == "vertical":
        theta = np.where(i < draw(st.integers(0, nx)), a, b)
    elif kind == "diagonal":
        sign = draw(st.sampled_from([1, -1]))
        theta = np.where(i + sign * j < draw(st.integers(-ny, nx + ny)), a, b)
    elif kind == "two-parallel":
        line, n = (j, ny) if draw(st.booleans()) else (i, nx)
        r0, r1 = sorted((draw(st.integers(0, n)), draw(st.integers(0, n))))
        c = draw(ANGLES)
        theta = np.where(line < r0, a, np.where(line < r1, b, c))
    elif kind == "stripes":  # uniform rows (or columns) whose values differ from line to line
        rows = draw(st.booleans())
        vals = np.array(draw(st.lists(ANGLES, min_size=ny if rows else nx,
                                      max_size=ny if rows else nx)))
        theta = vals[j] if rows else vals[i]
    else:  # stripes on one side of a line and random angles on the other, so that
        # one offset's box holds uniform and non-uniform line pairs
        line, n = (j, ny) if draw(st.booleans()) else (i, nx)
        vals = np.array(draw(st.lists(ANGLES, min_size=n, max_size=n)))
        rand = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 2 * np.pi, (ny, nx))
        theta = np.where(line < draw(st.integers(0, n)), vals[line], rand)
    return AngleField(grid, theta)


# uniform rows on both sides of a horizontal line, with unequal values (the
# rows across the line must be summed, not skipped for being uniform) and
# with equal ones (every pair is skipped)
_ROWS = np.indices((10, 12))[0]
_JUMP_ROWS = AngleField(Grid2(12, 10, 0.1), np.where(_ROWS < 5, np.pi / 4, 3 * np.pi / 4))
_EQUAL_ROWS = AngleField(Grid2(12, 10, 0.1), np.where(_ROWS < 5, 0.5, 0.5))
# stripes of unequal values in rows 0-4 and random angles below: the boxes of
# small oy hold both kinds of row pair, and a band edge of three workers falls
# among the stripes; and the same with columns
_PARTLY = np.where(_ROWS < 5, 0.4 * _ROWS, np.random.default_rng(3).uniform(0, 2 * np.pi, (10, 12)))
_PARTLY_ROWS = AngleField(Grid2(12, 10, 0.1), _PARTLY)
_PARTLY_COLS = AngleField(Grid2(10, 12, 0.1), _PARTLY.T.copy())
# uniform columns on both sides of a vertical line: every box adds a row of terms
_JUMP_COLS = AngleField(Grid2(10, 12, 0.1), _JUMP_ROWS.theta.T.copy())


@settings(max_examples=150, deadline=None)
@given(angle_fields(), st.floats(0.0, 1.0))
@example(_JUMP_ROWS, 0.125)
@example(_EQUAL_ROWS, 0.125)
@example(_PARTLY_ROWS, 0.125)
@example(_PARTLY_COLS, 0.125)
@example(_JUMP_COLS, 0.125)
def test_cubic_difference_average_matches_oracle_bitwise(m, frac):
    # from the smallest resolved scale, 2 cells, up to a disk wider than the grid,
    # with the default worker count and with three workers, which split the
    # rows more finely than a small machine does
    cells = 2.0 + frac * max(m.grid.nx, m.grid.ny)
    assert_bitwise(m, cells * m.grid.spacing)
    with patch.object(quadrature, "_WORKERS", 3):
        assert_bitwise(m, cells * m.grid.spacing)


# ---------------------------------------------------------------------------
# golden bits of the shipped jump config
# ---------------------------------------------------------------------------

# sha256 of cubic_difference_average(m, 32 h).values on the finest field of
# configs/jump.json, recorded from the full per-offset loop; the jump bundle's
# cubic-average numbers are read from this array
JUMP_CUBIC_SHA256 = "d9f740580fa0313eabc4e34d7e3ed63555ade091b03154eb8746de87de771519"


def test_jump_config_cubic_average_bits_unchanged():
    cfg = config_from_json(json.loads((ROOT / "configs" / "jump.json").read_text()))
    m = build_field(cfg.field, centered_grid(cfg.n, cfg.extent))
    pm = cubic_difference_average(m, _JUMP_CUBIC_CELLS * m.grid.spacing)
    assert hashlib.sha256(pm.values.tobytes()).hexdigest() == JUMP_CUBIC_SHA256
