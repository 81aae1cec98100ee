"""The Besov ladder and the cubic difference average on worker threads.

``besov_seminorm`` spreads its (h, offset) norms over the worker threads of
``quadrature._run_tasks`` and ``cubic_difference_average`` gives each worker a
band of accumulator rows.  Neither may change a bit at any worker count.  The
Besov oracle below is the per-offset loop that preceded the threads, kept
verbatim; every comparison is of ``tobytes()`` or ``repr``, so any change in
rounding fails.  The pool must join every thread it starts, also when a task
raises, and hand the error to the caller.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eelab import quadrature
from eelab.grids import AngleField, Grid2, _overlap
from eelab.production import cubic_difference_average
from eelab.quadrature import _run_tasks
from eelab.regularity import besov_seminorm, direction_offsets
from test_cubic_oracle import angle_fields

QS = (3, 3.5, 4, np.inf)


# ---------------------------------------------------------------------------
# the oracle: one offset at a time, on the calling thread
# ---------------------------------------------------------------------------


def oracle_per_h(m: AngleField, q: float, h_ladder, region, n_directions: int = 16) -> list[float]:
    grid = m.grid
    vec = m.unit_vectors().values
    per_h = []
    for h in sorted(float(h) for h in h_ladder):
        sup = 0.0
        for off in direction_offsets(grid, h, n_directions):
            at, to = _overlap(grid, *off)
            valid = region[at] & region[to]
            if not np.any(valid):
                norm = 0.0
            else:
                diff = vec[to] - vec[at]
                mag = np.hypot(diff[..., 0], diff[..., 1])[valid]
                if np.isinf(q):
                    norm = float(mag.max())
                else:
                    norm = float((np.sum(mag**q) * grid.cell_area()) ** (1.0 / q))
            sup = max(sup, norm)
        per_h.append(sup)
    return per_h


# ---------------------------------------------------------------------------
# fields and regions
# ---------------------------------------------------------------------------


def jump_field(nx: int, ny: int, horizontal: bool, line: int) -> AngleField:
    j, i = np.indices((ny, nx))
    return AngleField(Grid2(nx, ny, 1.0 / 16), np.where((j if horizontal else i) < line, 0.3, 2.1))


def fields() -> list[AngleField]:
    """Random, constant and horizontal/vertical jump fields on non-square grids."""
    rng = np.random.default_rng(8)
    return [
        AngleField(Grid2(37, 23, 1.0 / 16), rng.uniform(0, 2 * np.pi, (23, 37))),
        AngleField(Grid2(24, 41, 1.0 / 16), np.full((41, 24), 1.2)),
        jump_field(40, 29, True, 13),
        jump_field(27, 44, False, 20),
    ]


def regions(grid: Grid2) -> list[np.ndarray]:
    """The whole grid, a rectangle, an annulus and a scattered mask."""
    j, i = np.indices((grid.ny, grid.nx))
    rect = (j > 3) & (j < grid.ny - 5) & (i > 6) & (i < grid.nx - 2)
    r = np.hypot(j - grid.ny / 2, i - grid.nx / 2)
    annulus = (r > 4) & (r < 11)
    scattered = np.random.default_rng(grid.nx).random((grid.ny, grid.nx)) < 0.6
    return [np.ones((grid.ny, grid.nx), dtype=bool), rect, annulus, scattered]


def hs(grid: Grid2) -> list[float]:
    return [grid.spacing * c for c in (1, 2, 3.5, 8, 40)]


def same_floats(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# bits: against the oracle, and at any worker count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_besov_matches_oracle_at_any_worker_count(q, monkeypatch):
    for m in fields():
        for region in regions(m.grid):
            want = oracle_per_h(m, q, hs(m.grid), region)
            [default] = besov_seminorm(m, 1 / 3, [q], hs(m.grid), region)
            assert same_floats(default.per_h, want)
            for workers in (1, 3):
                monkeypatch.setattr(quadrature, "_WORKERS", workers)
                assert repr(besov_seminorm(m, 1 / 3, [q], hs(m.grid), region)) == repr([default])
            monkeypatch.undo()


def test_one_besov_pass_matches_oracle_for_every_exponent(monkeypatch):
    """One call with every exponent of QS: the magnitudes each offset shares
    between the exponents give each report the bits of its exponent alone."""
    for m in fields():
        for region in regions(m.grid):
            want = [oracle_per_h(m, q, hs(m.grid), region) for q in QS]
            default = besov_seminorm(m, 1 / 3, QS, hs(m.grid), region)
            assert [rep.q for rep in default] == list(QS)
            for rep, per_h in zip(default, want, strict=True):
                assert same_floats(rep.per_h, per_h)
            for workers in (1, 3):
                monkeypatch.setattr(quadrature, "_WORKERS", workers)
                assert repr(besov_seminorm(m, 1 / 3, QS, hs(m.grid), region)) == repr(default)
            monkeypatch.undo()


@settings(max_examples=60, deadline=None)
@given(angle_fields(), st.sampled_from(QS), st.integers(0, 2**32 - 1))
@example(jump_field(40, 29, True, 13), 3.5, 0)
def test_besov_matches_oracle_on_random_fields(m, q, seed):
    """Scattered regions leave some offsets with no valid cell and others with
    zero magnitudes only, which the library does not raise to q."""
    region = np.random.default_rng(seed).random((m.grid.ny, m.grid.nx)) < 0.7
    region[0, 0] = True
    want = oracle_per_h(m, q, hs(m.grid), region)
    assert same_floats(besov_seminorm(m, 1 / 3, [q], hs(m.grid), region)[0].per_h, want)


@settings(max_examples=40, deadline=None)
@given(angle_fields(), st.integers(0, 2**32 - 1))
@example(jump_field(40, 29, True, 13), 0)
def test_one_besov_pass_matches_oracle_on_random_fields(m, seed):
    region = np.random.default_rng(seed).random((m.grid.ny, m.grid.nx)) < 0.7
    region[0, 0] = True
    reps = besov_seminorm(m, 1 / 3, QS, hs(m.grid), region)
    for q, rep in zip(QS, reps, strict=True):
        assert same_floats(rep.per_h, oracle_per_h(m, q, hs(m.grid), region))


def test_cubic_average_is_the_same_at_any_worker_count(monkeypatch):
    for m in fields():
        for cells in (2.0, 3.5, 7.0):
            eps = cells * m.grid.spacing
            default = cubic_difference_average(m, eps).values
            for workers in (1, 3):
                monkeypatch.setattr(quadrature, "_WORKERS", workers)
                assert cubic_difference_average(m, eps).values.tobytes() == default.tobytes()
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# the pool: every thread joined, errors raised in the caller
# ---------------------------------------------------------------------------


def test_every_call_joins_its_threads(monkeypatch):
    monkeypatch.setattr(quadrature, "_WORKERS", 3)
    m = fields()[0]
    before = threading.enumerate()
    besov_seminorm(m, 1 / 3, [3.5], hs(m.grid), regions(m.grid)[1])
    assert threading.enumerate() == before
    cubic_difference_average(m, 4 * m.grid.spacing)
    assert threading.enumerate() == before


def test_a_raising_task_reaches_the_caller_after_the_join(monkeypatch):
    monkeypatch.setattr(quadrature, "_WORKERS", 3)
    before = threading.enumerate()
    done = []

    def task(j, buf):
        if j == 4:
            raise RuntimeError("task 4 failed")
        done.append(j)

    with pytest.raises(RuntimeError, match="task 4 failed"):
        _run_tasks(task, 12)
    assert threading.enumerate() == before
    assert 4 not in done

    def bad_overlap(grid, ox, oy):
        raise ValueError(f"offset {ox, oy}")

    monkeypatch.setattr("eelab.regularity._overlap", bad_overlap)
    m = fields()[0]
    with pytest.raises(ValueError, match="offset"):
        besov_seminorm(m, 1 / 3, [3.5], hs(m.grid), regions(m.grid)[0])
    assert threading.enumerate() == before


def test_more_workers_than_cpus_under_frequent_thread_switches(monkeypatch):
    """Eight workers, with the interpreter switching threads every 10 us: the
    norms each worker stores and the row bands each worker adds into keep the
    bits of one worker, on every repetition."""
    m = fields()[2]
    region, eps = regions(m.grid)[3], 6 * m.grid.spacing
    monkeypatch.setattr(quadrature, "_WORKERS", 1)
    besov = repr(besov_seminorm(m, 1 / 3, [4], hs(m.grid), region))
    cubic = cubic_difference_average(m, eps).values.tobytes()
    monkeypatch.setattr(quadrature, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert repr(besov_seminorm(m, 1 / 3, [4], hs(m.grid), region)) == besov
            assert cubic_difference_average(m, eps).values.tobytes() == cubic
    finally:
        sys.setswitchinterval(interval)
