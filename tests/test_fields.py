"""Field construction, mollification, differences, and the dump format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eelab.grids import (
    AngleField,
    ConstantSpec,
    Grid2,
    JumpSpec,
    Mollifier,
    ScalarField,
    VecField,
    VortexSpec,
    build_field,
    central_partials,
    centered_grid,
    divergence,
    lp_norm,
    mollify,
    read_field,
    shift_diff,
    stencil_mask,
    write_field,
)
from eelab.production import cubic_difference_average


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2(3, 10, 0.1)
    with pytest.raises(ValueError):
        Grid2(10, 10, -0.1)


def test_constant_field():
    g = centered_grid(16, 1.0)
    m = build_field(ConstantSpec(0.0), g)
    assert np.all(m.theta == 0.0)


def test_vortex_cell_value():
    # vortex at origin: at (1, 0) the field points straight up
    g = Grid2(8, 8, 0.25, (0.875, -1.125))
    m = build_field(VortexSpec(center=(0.0, 0.0)), g)
    i = int(np.argmin(np.abs(g.xs() - 1.0)))
    j = int(np.argmin(np.abs(g.ys() - 0.0)))
    assert abs(g.xs()[i] - 1.0) < 1e-12 and abs(g.ys()[j]) < 1e-12
    assert m.theta[j, i] == pytest.approx(np.pi / 2)


def test_unit_modulus_exact():
    g = centered_grid(32, 2.0)
    m = build_field(VortexSpec(), g)
    mag = m.unit_vectors().magnitude()
    assert np.max(np.abs(mag - 1.0)) < 1e-15


def test_jump_trace_condition_enforced():
    good = JumpSpec(normal=(0, 1), theta_plus=np.pi / 4, theta_minus=3 * np.pi / 4)
    assert good.trace_residual() < 1e-12
    bad = JumpSpec(normal=(0, 1), theta_plus=np.pi / 4, theta_minus=np.pi / 3)
    with pytest.raises(ValueError, match="matching condition"):
        build_field(bad, centered_grid(16, 2.0))


def test_jump_half_planes():
    g = centered_grid(16, 2.0)
    m = build_field(JumpSpec(), g)
    y = g.meshgrid()[1]
    assert np.all(m.theta[y >= 0] == pytest.approx(np.pi / 4))
    assert np.all(m.theta[y < 0] == pytest.approx(3 * np.pi / 4))


def test_vortex_center_rejected_on_cell():
    g = centered_grid(16, 2.0)
    x0 = float(g.xs()[8])
    y0 = float(g.ys()[8])
    with pytest.raises(ValueError, match="center"):
        build_field(VortexSpec(center=(x0, y0)), g)


def test_mollifier_mass_and_resolution():
    mo = Mollifier(0.1)
    assert mo.quadrature_mass() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="under-resolved"):
        mo.discrete_weights(0.06)


def test_mollify_constant_is_identity():
    g = centered_grid(32, 2.0)
    m = build_field(ConstantSpec(1.1), g)
    v = mollify(m, Mollifier(0.2))
    sel = v.effective_mask()
    dev = np.abs(v.values - m.unit_vectors().values)[sel]
    assert dev.max() < 1e-13
    assert np.max(v.magnitude()[sel]) <= 1 + 1e-10


def test_mollify_jump_line_value():
    # on the jump line the two traces average, up to O(spacing/eps)
    spec = JumpSpec()
    eps = 0.25
    errs = []
    for n in (64, 128):
        g = centered_grid(n, 2.0)
        yrow = float(g.ys()[n // 2])  # nearest row above the line
        m = build_field(JumpSpec(point=(0.0, yrow)), g)
        v = mollify(m, Mollifier(eps))
        mp, mm = spec.traces()
        mid = (mp + mm) / 2
        errs.append(np.abs(v.values[n // 2, n // 2] - mid).max())
        assert errs[-1] < 2.0 * g.spacing / eps
    assert errs[1] < 0.6 * errs[0]


def test_mollify_vortex_second_order():
    g = centered_grid(256, 2.0)
    m = build_field(VortexSpec(), g)
    devs = []
    for eps in (0.08, 0.04):
        v = mollify(m, Mollifier(eps))
        r = np.hypot(*g.meshgrid())
        sel = v.effective_mask() & (r >= 0.35)
        devs.append(np.abs(v.values - m.unit_vectors().values)[sel].max())
        # Hessian of the vortex is bounded by 3/r^2 on r >= 0.35
        assert devs[-1] <= 0.5 * (3.0 / 0.35**2) * eps**2
    assert devs[1] < 0.35 * devs[0]  # ~ eps^2


def test_mollify_rotation_covariance():
    g = centered_grid(48, 2.0)
    m = build_field(VortexSpec(), g)
    c = 0.9
    rot = AngleField(g, m.theta + c)
    v = mollify(m, Mollifier(0.15)).values
    vr = mollify(rot, Mollifier(0.15)).values
    expect = np.stack(
        [np.cos(c) * v[..., 0] - np.sin(c) * v[..., 1],
         np.sin(c) * v[..., 0] + np.cos(c) * v[..., 1]], axis=-1
    )
    assert np.abs(vr - expect).max() < 1e-12


def test_shift_diff_constant_and_zero():
    g = centered_grid(16, 2.0)
    m = build_field(ConstantSpec(0.3), g)
    d = shift_diff(m, (3 * g.spacing, -2 * g.spacing))
    assert np.abs(d.values).max() == 0.0
    d0 = shift_diff(m, (0.0, 0.0))
    assert np.abs(d0.values).max() == 0.0


def test_shift_diff_jump_strip():
    g = centered_grid(64, 2.0)
    m = build_field(JumpSpec(), g)
    h = 4 * g.spacing
    d = shift_diff(m, (0.0, h))
    mag = np.hypot(d.values[..., 0], d.values[..., 1])
    y = g.meshgrid()[1]
    strip = (y < 0) & (y + h >= 0)
    outside = ~strip
    outside[-4:, :] = False  # top rim leaves the domain: zero convention there
    mp, mm = JumpSpec().traces()
    assert np.all(mag[strip] == pytest.approx(float(np.linalg.norm(mp - mm))))
    assert np.abs(mag[outside]).max() < 1e-15


def test_shift_diff_telescoping():
    g = centered_grid(32, 2.0)
    m = build_field(VortexSpec(), g)
    z1 = (2 * g.spacing, g.spacing)
    z2 = (-g.spacing, 3 * g.spacing)
    z12 = (z1[0] + z2[0], z1[1] + z2[1])
    lhs = shift_diff(m, z12).values
    a = shift_diff(m, z1)
    # D^{z1} evaluated at x + z2: shift the array by the z2 offset
    ox, oy = round(z2[0] / g.spacing), round(z2[1] / g.spacing)
    shifted = np.zeros_like(a.values)
    ny, nx = 32, 32
    sy = slice(max(0, -oy), min(ny, ny - oy))
    sx = slice(max(0, -ox), min(nx, nx - ox))
    ty = slice(max(0, oy), min(ny, ny + oy))
    tx = slice(max(0, ox), min(nx, nx + ox))
    shifted[sy, sx] = a.values[ty, tx]
    rhs = shifted + shift_diff(m, z2).values
    # both-points-in-domain region for the combined displacement
    valid = np.zeros((ny, nx), dtype=bool)
    oxx, oyy = round(z12[0] / g.spacing), round(z12[1] / g.spacing)
    valid[max(0, -oyy): ny - max(0, oyy), max(0, -oxx): nx - max(0, oxx)] = True
    inner = valid.copy()
    inner[:, :] = False
    inner[max(0, -oyy, -oy): ny - max(0, oyy, oy), max(0, -oxx, -ox): nx - max(0, oxx, ox)] = True
    assert np.abs((lhs - rhs)[inner]).max() < 1e-14


def _offset(n):
    # every offset in [-(n+2), n+2], with the ones that leave the grid drawn often
    return st.one_of(st.integers(-(n + 2), n + 2), st.sampled_from([-(n + 2), -n, n, n + 2]))


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12), st.integers(4, 12), st.data())
def test_shift_diff_matches_naive_loop(nx, ny, data):
    ox, oy = data.draw(_offset(nx)), data.draw(_offset(ny))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = Grid2(nx, ny, 0.1)
    for fld in (VecField(g, rng.normal(size=(ny, nx, 2))), ScalarField(g, rng.normal(size=(ny, nx)))):
        want = np.zeros_like(fld.values)
        for j in range(ny):
            for i in range(nx):
                if 0 <= j + oy < ny and 0 <= i + ox < nx:
                    want[j, i] = fld.values[j + oy, i + ox] - fld.values[j, i]
        got = shift_diff(fld, (ox * g.spacing, oy * g.spacing))
        assert type(got) is type(fld)
        assert np.array_equal(got.values, want)


def test_cubic_average_matches_naive_sum():
    g = Grid2(8, 8, 0.25)
    m = AngleField(g, np.random.default_rng(3).uniform(0.0, 2 * np.pi, (8, 8)))
    h = g.spacing
    eps = 2.5 * h
    vec = m.unit_vectors().values
    want = np.zeros((8, 8))
    for j in range(8):
        for i in range(8):
            for oy in range(-3, 4):
                for ox in range(-3, 4):
                    inside = 0 <= j + oy < 8 and 0 <= i + ox < 8
                    if (ox, oy) != (0, 0) and (ox * h) ** 2 + (oy * h) ** 2 < eps**2 and inside:
                        d = vec[j + oy, i + ox] - vec[j, i]
                        want[j, i] += np.hypot(d[0], d[1]) ** 3
    got = cubic_difference_average(m, eps)
    np.testing.assert_allclose(got.values, want * h * h / eps**3, rtol=1e-14, atol=0)


def test_stream_field_divergence_second_order():
    errs = []
    for n in (64, 128, 256):
        g = centered_grid(n, 2.0)
        m = build_field(VortexSpec(center=(0.0, 0.0), orientation=-1), g)
        dv = divergence(m.unit_vectors())
        r = np.hypot(*g.meshgrid())
        sel = dv.effective_mask() & (r > 0.3)
        errs.append(lp_norm(dv.values * sel, g, 2, sel))
    order = np.polyfit(np.log([2.0 / n for n in (64, 128, 256)]), np.log(errs), 1)[0]
    assert order > 1.9


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.integers(4, 12), st.integers(0, 2**32 - 1))
def test_divergence_matches_central_partials_bitwise(nx, ny, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(ny, nx, 2))
    zeros = rng.random((ny, nx, 2)) < 0.3
    vals[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)  # signed zeros
    mask = rng.random((ny, nx)) < 0.8
    g = Grid2(nx, ny, rng.uniform(0.01, 1.0))
    v = VecField(g, vals, mask=mask)
    dx, _ = central_partials(vals[..., 0], g.spacing)
    _, dy = central_partials(vals[..., 1], g.spacing)
    got = divergence(v)
    assert got.values.tobytes() == (dx + dy).tobytes()
    assert np.array_equal(got.mask, stencil_mask(g, mask))


def test_field_dump_roundtrip(tmp_path):
    g = centered_grid(16, 2.0)
    m = build_field(VortexSpec(), g)
    buf = io.BytesIO()
    write_field(buf, g, m.theta)
    buf.seek(0)
    g2, payloads = read_field(buf)
    assert g2 == g
    assert len(payloads) == 1
    assert np.array_equal(payloads[0], m.theta)
    # header layout: magic, three little-endian u64/f64 blocks
    raw = buf.getvalue()
    assert raw[:4] == b"EELF"
    assert int.from_bytes(raw[4:12], "little") == 1
    assert int.from_bytes(raw[12:20], "little") == 16


def test_field_dump_two_components():
    g = centered_grid(8, 1.0)
    m = build_field(ConstantSpec(0.2), g)
    v = m.unit_vectors()
    buf = io.BytesIO()
    write_field(buf, g, v.values[..., 0], v.values[..., 1])
    buf.seek(0)
    _, payloads = read_field(buf)
    assert len(payloads) == 2
    assert np.array_equal(payloads[1], v.values[..., 1])
    # an interleaved (ny, nx, 2) stack is not one component
    stacked = io.BytesIO()
    with pytest.raises(ValueError, match=r"payload 0 has shape \(8, 8, 2\)"):
        write_field(stacked, g, v.values)
    assert stacked.getvalue() == b""


@settings(max_examples=30, deadline=None)
@given(
    st.integers(4, 9), st.integers(4, 9), st.integers(1, 3),
    st.floats(1e-3, 10.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_field_dump_roundtrip_random(nx, ny, k, spacing, x0, y0, seed):
    g = Grid2(nx, ny, spacing, (x0, y0))
    rng = np.random.default_rng(seed)
    comps = [rng.normal(size=(ny, nx)) for _ in range(k)]
    buf = io.BytesIO()
    write_field(buf, g, *comps)
    buf.seek(0)
    g2, payloads = read_field(buf)
    assert g2 == g
    assert len(payloads) == k
    assert all(np.array_equal(a, b) for a, b in zip(payloads, comps))


def test_field_dump_truncated_anywhere_is_value_error():
    # one payload: the component count is inferred from the size, so a cut
    # exactly between two payloads would read as a shorter valid dump
    g = Grid2(4, 5, 0.5, (-1.0, 2.0))
    buf = io.BytesIO()
    write_field(buf, g, np.arange(20.0).reshape(5, 4))
    raw = buf.getvalue()
    for cut in range(len(raw)):
        with pytest.raises(ValueError):
            read_field(io.BytesIO(raw[:cut]))
    with pytest.raises(ValueError, match="truncated header"):
        read_field(io.BytesIO(raw[:20]))
    with pytest.raises(ValueError, match="no payload"):
        read_field(io.BytesIO(raw[:52]))
