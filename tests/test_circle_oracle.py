"""Shared Fourier bases against one basis per function, bit for bit.

``evaluate_all`` builds one basis per band for several circle functions on one
angle array; ``arc_integral``/``chi_pairing`` and ``radial_values`` evaluate
through it.  The oracles below are the per-function evaluation paths that
preceded it: ``CircleFunction.__call__`` as it built its own basis on every
call, and ``arc_integral`` and the radial extension's value closure with each
function evaluated on its own through that call.  Every comparison is of
``tobytes()``, so any change in rounding fails.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from decomposition_oracle import radial_extension
from eelab import circle
from eelab.circle import CircleFunction, evaluate_all, fourier_basis
from eelab.cli import config_from_json, run_config
from eelab.entropy import EntropyMap, RadialCutoff, generated_entropy, radial_values
from eelab.kinetic import arc_integral, chi_pairing

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# oracles: one basis per function and call
# ---------------------------------------------------------------------------


def oracle_call(f: CircleFunction, t):
    """``f(t)`` with the basis built in place, as ``__call__`` did."""
    t = np.asarray(t, dtype=float)
    ks = np.arange(-f.band, f.band + 1)
    out = np.tensordot(np.exp(1j * np.multiply.outer(t, ks)), f.coeffs, axes=([-1], [0]))
    return out if t.ndim else complex(out)


def oracle_fourier_basis(t, band: int):
    """The basis as one expression, before it was built in place."""
    t = np.asarray(t, dtype=float)
    ks = np.arange(-band, band + 1)
    return np.exp(1j * np.multiply.outer(t, ks))


def oracle_arc_integral(q: CircleFunction, lo, hi):
    """int_lo^hi q(s) ds for one q, each primitive evaluated on its own."""
    mean = q.mean
    osc = q - CircleFunction.constant(mean)
    prim = osc.antiderivative()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    vals = oracle_call(prim, hi) - oracle_call(prim, lo) + mean * (hi - lo)
    return np.real(vals) if q.is_real() else vals


def oracle_radial_value(phi: EntropyMap, v):
    """eta(|v|) Phi(v/|v|) for one Phi, each component evaluated on its own."""
    eta = RadialCutoff()
    f1, f2 = phi.comp1, phi.comp2
    r = np.hypot(v[..., 0], v[..., 1])
    omega = np.arctan2(v[..., 1], v[..., 0])
    e = eta(r)
    return np.stack([e * np.real(oracle_call(f1, omega)), e * np.real(oracle_call(f2, omega))], axis=-1)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def circle_functions(draw, real: bool | None = None):
    """Band 0-9; some outer coefficient pairs may be zero, so the stored band trims down."""
    band = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if real if real is not None else draw(st.booleans()):
        return CircleFunction.random_real(band, rng)
    c = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    cut = draw(st.integers(0, band))
    c[:cut] = 0.0
    c[c.size - cut:] = 0.0
    return CircleFunction(c)


@st.composite
def angle_arrays(draw):
    """A 0-d, 1-d, (ny, nx) or strided 2-d array of angles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["0d", "1d", "2d", "strided"]))
    ny, nx = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if kind == "0d":
        return np.array(rng.uniform(-10.0, 10.0))
    if kind == "1d":
        return rng.uniform(-10.0, 10.0, ny * nx)
    if kind == "2d":
        return rng.uniform(-10.0, 10.0, (ny, nx))
    t = rng.uniform(-10.0, 10.0, (2 * ny + 1, 3 * nx + 2))[1::2, ::3]
    assert not t.flags.c_contiguous
    return t


# angles where the sign of a zero, a subnormal or a multiple of pi could flip a bit
SPECIAL_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                  np.pi, -np.pi, 2 * np.pi, -3 * np.pi, 1e4, -1e4, 1e4 * np.pi / 4]


@st.composite
def wide_angle_arrays(draw):
    """Like angle_arrays, with |t| up to 1e4 and special angles written in."""
    t = draw(angle_arrays())
    t *= draw(st.sampled_from([1.0, 2.0, 1e3]))   # in place, so a strided view stays one
    if t.flags.c_contiguous:
        picks = draw(st.lists(st.sampled_from(SPECIAL_ANGLES), max_size=t.size))
        t.reshape(-1)[: len(picks)] = picks
    return t


# ---------------------------------------------------------------------------
# bitwise equality
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(wide_angle_arrays(), st.integers(0, 13))
@example(np.array(SPECIAL_ANGLES), 13)
@example(np.array(SPECIAL_ANGLES).reshape(1, -1)[:, ::2], 7)
@example(np.array(-0.0), 0)
@example(np.array(5e-324), 1)
@example(np.pi * np.arange(-20.0, 21.0), 13)
def test_fourier_basis_matches_one_expression_bitwise(t, band):
    """Every value and zero sign of the basis built in place, for 0-d, 1-d, 2-d
    and strided angles."""
    got = fourier_basis(t, band)
    assert got.flags.c_contiguous
    assert same_bits(got, oracle_fourier_basis(t, band))


def _padded(coeffs, pad: int) -> CircleFunction:
    """A function given with ``pad`` zero outer coefficient pairs, which trim away."""
    return CircleFunction(np.pad(np.asarray(coeffs, dtype=np.complex128), pad))


@settings(max_examples=200, deadline=None)
@given(st.lists(circle_functions(), min_size=1, max_size=7), angle_arrays())
@example(  # a band-2 function given at band 6 joins band 2's group; band 0 twice
    [CircleFunction.random_real(6, np.random.default_rng(3)), _padded([1.0, -2.0j, 0.5, 3.0, 1.0j], 4),
     CircleFunction.constant(1.5 - 0.5j), CircleFunction.cosine(2), CircleFunction.zero()],
    np.random.default_rng(4).uniform(-7.0, 7.0, (5, 6)),
)
def test_evaluate_all_matches_each_function_alone(fs, t):
    got = evaluate_all(fs, t)
    assert len(got) == len(fs)
    for f, g in zip(fs, got):
        want = oracle_call(f, t)
        assert type(g) is type(want)
        assert same_bits(g, want)
        assert same_bits(f(t), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(circle_functions(), min_size=1, max_size=6), angle_arrays(), st.floats(0.0, 3.0))
def test_arc_integral_list_matches_oracle(qs, lo, width):
    hi = lo + width
    for q, got in zip(qs, arc_integral(qs, lo, hi), strict=True):
        assert same_bits(got, oracle_arc_integral(q, lo, hi))


@settings(max_examples=100, deadline=None)
@given(st.lists(circle_functions(), min_size=1, max_size=6), angle_arrays())
def test_chi_pairing_list_matches_oracle(qs, theta):
    for q, got in zip(qs, chi_pairing(qs, theta), strict=True):
        assert same_bits(got, oracle_arc_integral(q, theta - np.pi / 2, theta + np.pi / 2))


@st.composite
def entropy_maps(draw):
    """A generated entropy, or an arbitrary pair of real components of unequal bands."""
    if draw(st.booleans()):
        return generated_entropy(draw(circle_functions(real=True)))
    return EntropyMap(draw(circle_functions(real=True)), draw(circle_functions(real=True)))


@settings(max_examples=100, deadline=None)
@given(st.lists(entropy_maps(), min_size=1, max_size=7), angle_arrays(), st.integers(0, 2**32 - 1))
def test_radial_values_match_oracle(phis, t, seed):
    r = np.random.default_rng(seed).uniform(0.0, 2.5, t.shape)
    v = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    for phi, got in zip(phis, radial_values(phis, v), strict=True):
        want = oracle_radial_value(phi, v)
        assert same_bits(got, want)
        assert same_bits(radial_extension(phi).value(v), want)


# ---------------------------------------------------------------------------
# memory: one basis alive at a time
# ---------------------------------------------------------------------------


def _traced(fn) -> tuple[int, int]:
    """(peak, retained) bytes traced while ``fn()`` runs and after it returns."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return peak - base, current - base
    finally:
        tracemalloc.stop()


def test_evaluate_all_holds_one_basis_at_a_time():
    """Seven functions in bands 9 and 6 on 256 x 256 angles peak no higher than
    the widest alone plus the two other band-9 values held with its basis, and
    keep nothing once their values are dropped.  Keeping the band-9 basis while
    the band-6 one is built would fail the first bound, and a cache between
    calls fail the second bound.  (The bound was 1.1 times the widest alone
    while a basis cost twice its size to build; built in place, the two held
    values alone take the widest alone's peak up by 10.0 %.)"""
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2 * np.pi, (256, 256))
    fs = [CircleFunction.random_real(9 if i % 2 else 6, rng) for i in range(7)]
    widest = max(fs, key=lambda f: f.band)
    assert {f.band for f in fs} == {6, 9}
    alone, _ = _traced(lambda: widest(t))
    shared, retained = _traced(lambda: evaluate_all(fs, t))
    value = t.size * np.dtype(np.complex128).itemsize
    assert shared <= 1.01 * alone + 2 * value, (shared, alone)
    assert retained < t.nbytes, retained


def test_fourier_basis_allocates_only_its_output():
    """The band-9 basis of 256 x 256 angles peaks at most 2 % above its own
    size; the one-expression build held a second array of the same size."""
    t = np.random.default_rng(12).uniform(0.0, 2 * np.pi, (256, 256))
    fourier_basis(t, 9)
    peak, _ = _traced(lambda: fourier_basis(t, 9))
    assert peak <= 1.02 * t.size * 19 * np.dtype(np.complex128).itemsize, peak


def test_evaluate_all_builds_one_basis_per_band(monkeypatch):
    """Each distinct band gets a basis of exactly that band: no wider basis is
    sliced or zero-padded, and no band is built twice."""
    built = []

    def spy(t, band):
        built.append(band)
        return fourier_basis(t, band)

    monkeypatch.setattr(circle, "fourier_basis", spy)
    rng = np.random.default_rng(5)
    fs = [CircleFunction.random_real(b, rng) for b in (4, 1, 4, 0, 7, 1)]
    evaluate_all(fs, rng.uniform(0.0, 6.0, 50))
    assert sorted(built) == [0, 1, 4, 7]


# ---------------------------------------------------------------------------
# golden artifacts
# ---------------------------------------------------------------------------

# sha256 of the kinetic and factorize artifacts of the shipped configs at seed
# 20240, recorded with one basis per function and call; each check draws from
# its own random stream, so running only these two checks leaves them as in a
# full run
GOLDEN_SHA256 = {
    ("constant", "kinetic/kinetic_residuals.csv"):
        "dcfeeedf1b8ff8416d4f477e945d88b0f71f4d0b7f02e79af117ceee45f0d32b",
    ("constant", "factorize/factorization.csv"):
        "1684030a8eb1237c4ed5212669c63012067ff22b11cf58b0ba9f49fceb458b0d",
    ("jump", "kinetic/kinetic_residuals.csv"):
        "e0a306583c3e99b8aac8b65a6d092ae1776e239c475c778262a4c54150b8bacb",
    ("jump", "factorize/factorization.csv"):
        "4153cb6bc62d187ee8bc3338ebdb72565f44fd224b84ce842779c393e1e0ecd4",
}


def test_kinetic_and_factorize_artifacts_unchanged(tmp_path):
    for name in ("constant", "jump"):
        obj = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        obj.update(checks=["kinetic", "factorize"], seed=20240, out=str(tmp_path / name))
        bundle, code = run_config(config_from_json(obj))
        assert code == 0
        for (config, rel), digest in GOLDEN_SHA256.items():
            if config == name:
                assert hashlib.sha256((tmp_path / name / rel).read_bytes()).hexdigest() == digest, rel
                assert bundle["manifest"][rel] == digest
