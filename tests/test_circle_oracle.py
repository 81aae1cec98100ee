"""Blocked evaluation of circle functions against one-shot Fourier bases, bit for bit.

Every evaluation (``CircleFunction.__call__``, ``real_values``,
``evaluate_all``, ``arc_integral``/``chi_pairing`` and ``radial_values``) runs
one loop that builds each band's basis once per block of ``circle._ROWS``
rows of the flattened angles.  The oracles below are the evaluation paths
that preceded it: ``CircleFunction.__call__`` as it built one basis over all
of ``t`` on every call, and ``arc_integral`` and the radial extension's value
closure with each function evaluated on its own through that call.  Every
comparison is of ``tobytes()``, so any change in rounding fails.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decomposition_oracle import radial_extension
from eelab import circle, entropy, kinetic
from eelab.circle import _ROWS, CircleFunction, evaluate_all, fourier_basis
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
# row blocks: lengths around the block size, 2-d and strided angles
# ---------------------------------------------------------------------------

#: one row, two rows, a block less one, one block, one block and a one-row tail
#: (which joins the block before it), two blocks and a one-row tail
LENGTHS = [1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1]


#: angles that repeat, as on piecewise constant fields: all equal; two values, as
#: across a jump; -0.0 mixed with +0.0; one odd angle among equal ones; and the last
#: row equal to the row before it, so a one-row tail adds no angle to its block
REPEATS = ["equal", "two", "zeros", "odd", "tail"]


def _angles(kind: str, n: int, pattern: str = "random"):
    """``n`` angles as a 0-d (n = 1), 1-d, 2-d or strided 2-d array: random with the
    special angles first, or one of the ``REPEATS``."""
    rng = np.random.default_rng(n)
    if kind == "0d":
        return np.array(rng.uniform(-10.0, 10.0))
    flat = rng.uniform(-10.0, 10.0, n)
    if pattern == "random":
        flat[: len(SPECIAL_ANGLES)] = SPECIAL_ANGLES[:n]
    elif pattern == "equal":
        flat[:] = 1.234
    elif pattern == "two":
        flat = np.where(flat < 0.0, 0.3, 0.3 + np.pi)
    elif pattern == "zeros":
        flat = np.where(flat < 0.0, -0.0, 0.0)
    elif pattern == "odd":
        flat[:] = -2.5
        flat[rng.integers(n)] = 0.75
    else:
        assert pattern == "tail"
        flat[-1] = flat[-2]
    if kind == "1d":
        return flat
    if kind == "2d":
        return flat.reshape(n, 1) if n % 2 else flat.reshape(2, n // 2)
    base = np.zeros((2 * n, 3))
    base[::2, 1] = flat
    t = base[::2, 1:2]
    assert not t.flags.c_contiguous
    return t


BLOCK_INPUTS = [("0d", 1), ("1d", 1), ("2d", 1)] + [
    (kind, n) for n in LENGTHS[1:] for kind in ("1d", "2d", "strided")]


def _block_functions() -> list[CircleFunction]:
    """Real and complex functions of bands 0, 1, 2, 9 and 12."""
    rng = np.random.default_rng(21)
    wide = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    return [CircleFunction.random_real(9, rng), CircleFunction(wide), CircleFunction.constant(0.5 - 2j),
            CircleFunction.random_real(1, rng), CircleFunction.cosine(2)]


@pytest.mark.parametrize("kind, n", BLOCK_INPUTS)
def test_blocked_evaluation_matches_one_shot_basis(kind, n):
    t = _angles(kind, n)
    fs = _block_functions()
    for f, got in zip(fs, evaluate_all(fs, t), strict=True):
        want = oracle_call(f, t)
        assert type(got) is type(want)
        assert same_bits(got, want)
        assert same_bits(f(t), want)
        real = f.real_values(t)
        assert type(real) is type(np.real(want))
        assert same_bits(real, np.real(want))


@pytest.mark.parametrize("kind, n", BLOCK_INPUTS)
def test_blocked_arc_integrals_match_one_shot_basis(kind, n):
    t = _angles(kind, n)
    qs = _block_functions()
    for q, got in zip(qs, arc_integral(qs, t, t + 0.75), strict=True):
        assert same_bits(got, oracle_arc_integral(q, t, t + 0.75))
    for q, got in zip(qs, chi_pairing(qs, t), strict=True):
        assert same_bits(got, oracle_arc_integral(q, t - np.pi / 2, t + np.pi / 2))


@pytest.mark.parametrize("kind, n", BLOCK_INPUTS)
def test_blocked_radial_values_match_one_shot_basis(kind, n):
    t = _angles(kind, n)
    rng = np.random.default_rng(22)
    phis = [generated_entropy(CircleFunction.random_real(8, rng)),
            EntropyMap(CircleFunction.random_real(12, rng), CircleFunction.cosine(1))]
    r = rng.uniform(0.0, 2.5, t.shape)
    v = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    for phi, got in zip(phis, radial_values(phis, v), strict=True):
        assert same_bits(got, oracle_radial_value(phi, v))


#: two rows with one odd angle repeat none, so that pair is left out
REPEAT_INPUTS = [(pattern, kind, n) for pattern in REPEATS for n in LENGTHS[1:]
                 for kind in ("1d", "2d", "strided") if (pattern, n) != ("odd", 2)]


@pytest.mark.parametrize("pattern, kind, n", REPEAT_INPUTS)
def test_repeated_angles_match_one_shot_basis(pattern, kind, n):
    """Each block's basis is built over its distinct angles only; every entry point,
    and the one-pass ``atom_mean`` and ``EntropyMap.values``, still gives the bits of
    one basis over all rows."""
    t = _angles(kind, n, pattern)
    assert np.unique(t).size < t.size
    fs = _block_functions()
    for f, got in zip(fs, evaluate_all(fs, t), strict=True):
        want = oracle_call(f, t)
        assert same_bits(got, want)
        assert same_bits(f(t), want)
        assert same_bits(f.real_values(t), np.real(want))
    for q, got in zip(fs, arc_integral(fs, t, t + 0.75), strict=True):
        assert same_bits(got, oracle_arc_integral(q, t, t + 0.75))
    for q, got in zip(fs, chi_pairing(fs, t), strict=True):
        assert same_bits(got, oracle_arc_integral(q, t - np.pi / 2, t + np.pi / 2))
        plus, minus = (np.real(oracle_call(q, t + s * np.pi / 2)) for s in (1, -1))
        assert same_bits(kinetic.atom_mean(q, t), 0.5 * (plus + minus))
    rng = np.random.default_rng(23)
    phis = [generated_entropy(CircleFunction.random_real(8, rng)),
            EntropyMap(CircleFunction.random_real(12, rng), CircleFunction.cosine(1))]
    for phi in phis:
        want = np.stack([np.real(oracle_call(phi.comp1, t)), np.real(oracle_call(phi.comp2, t))], axis=-1)
        assert same_bits(phi.values(t), want)
    r = rng.choice([0.4, 1.1, 2.3], t.shape)
    v = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    for phi, got in zip(phis, radial_values(phis, v), strict=True):
        assert same_bits(got, oracle_radial_value(phi, v))


@pytest.mark.parametrize("kind, n", BLOCK_INPUTS)
def test_no_one_row_block_unless_one_element(monkeypatch, kind, n):
    """numpy contracts a one-row basis through another BLAS routine, whose bits
    differ; every basis built, and so contracted, has two or more rows (at most a
    block and its one-row tail), unless the angles are a single element (as are
    the scalar evaluations inside ``antiderivative``).  The bases are watched, not
    the gathered values, so a block of equal angles built as one row would show."""
    block_values, basis = circle._block_values, circle.fourier_basis
    sizes, built = [], []

    def loop_spy(fs, *ts):
        sizes.append(np.size(ts[0]))
        yield from block_values(fs, *ts)

    def basis_spy(t, band):
        built.append((sizes[-1], np.size(t)))
        return basis(t, band)

    for module in (circle, kinetic, entropy):
        monkeypatch.setattr(module, "_block_values", loop_spy)
    monkeypatch.setattr(circle, "fourier_basis", basis_spy)
    fs = _block_functions()
    for t in [_angles(kind, n)] + ([_angles(kind, n, "equal")] if n > 1 else []):
        fs[0](t)
        fs[1].real_values(t)
        evaluate_all(fs, t)
        chi_pairing(fs, t)
        radial_values([EntropyMap(fs[0], fs[3])], np.stack([np.cos(t), np.sin(t)], axis=-1))
    assert n in {size for size, _ in built}
    for size, rows in built:
        assert 2 <= rows <= _ROWS + 1 or size == rows == 1, (size, rows)


# ---------------------------------------------------------------------------
# memory: one block basis alive at a time
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


def _block_basis_peak(t, band: int) -> int:
    """Traced peak of building one block's basis of ``band`` on ``t``."""
    block = np.ravel(t)[:_ROWS].copy()
    fourier_basis(block, band)
    return _traced(lambda: fourier_basis(block, band))[0]


def test_evaluate_all_holds_one_basis_at_a_time():
    """Seven functions in bands 9 and 6 on 256 x 256 angles peak no higher than
    their seven outputs plus one band-9 block basis, +2 %, and keep nothing once
    their values are dropped.  A basis over all 65,536 angles would fail the
    first bound by about 10 MB, and a cache between calls the second.  (The
    bound was relative to the widest function alone while each function built
    its basis over all angles: 1.01 times that plus two values, about 23.3 MB;
    blocked, the outputs dominate and the peak is 8.9 MB.)"""
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2 * np.pi, (256, 256))
    fs = [CircleFunction.random_real(9 if i % 2 else 6, rng) for i in range(7)]
    assert {f.band for f in fs} == {6, 9}
    shared, retained = _traced(lambda: evaluate_all(fs, t))
    value = t.size * np.dtype(np.complex128).itemsize
    assert shared <= 1.02 * (len(fs) * value + _block_basis_peak(t, 9)), shared
    assert retained < t.nbytes, retained


def test_equal_angles_peak_at_their_outputs():
    """Seven functions in bands 9 and 6 on 256 x 256 equal angles, as on a constant
    field, peak no higher than their seven outputs +5 %: each block's basis has two
    rows, and what is left is the block's index and gathered values.  With a basis
    row per angle the peak was 21.5 % above the outputs; it is 3.7 %."""
    rng = np.random.default_rng(11)
    t = np.full((256, 256), 1.234)
    fs = [CircleFunction.random_real(9 if i % 2 else 6, rng) for i in range(7)]
    peak, retained = _traced(lambda: evaluate_all(fs, t))
    assert peak <= 1.05 * len(fs) * t.size * np.dtype(np.complex128).itemsize, peak
    assert retained < t.nbytes, retained


def test_radial_values_hold_one_block_basis():
    """Seven radial extensions on 256 x 256 points peak no higher than their
    outputs, the angle and cutoff arrays they are made from, and one block basis
    of the widest component, +2 %."""
    rng = np.random.default_rng(13)
    phis = [generated_entropy(CircleFunction.random_real(8 if i % 2 else 5, rng)) for i in range(7)]
    t = rng.uniform(0.0, 2 * np.pi, (256, 256))
    r = rng.uniform(0.4, 2.2, t.shape)
    v = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    band = max(f.band for phi in phis for f in (phi.comp1, phi.comp2))
    peak, retained = _traced(lambda: radial_values(phis, v))
    outputs = len(phis) * v.nbytes
    assert peak <= 1.02 * (outputs + 2 * t.nbytes + _block_basis_peak(t, band)), peak
    assert retained < t.nbytes, retained


def test_chi_pairing_holds_one_block_basis_per_arc_end():
    """Six real arc pairings on 256 x 256 angles peak no higher than their real
    outputs, the two arc ends, and one block basis of the primitives' band per
    arc end, +2 %; no complex value array of the whole level is held."""
    rng = np.random.default_rng(14)
    qs = [CircleFunction.random_real(7, rng) for _ in range(6)]
    theta = rng.uniform(0.0, 2 * np.pi, (256, 256))
    peak, retained = _traced(lambda: chi_pairing(qs, theta))
    outputs = len(qs) * theta.nbytes
    assert peak <= 1.02 * (outputs + 2 * theta.nbytes + 2 * _block_basis_peak(theta, 7)), peak
    assert retained < theta.nbytes, retained


def test_fourier_basis_allocates_only_its_output():
    """The band-9 basis of 256 x 256 angles peaks at most 2 % above its own
    size; the one-expression build held a second array of the same size."""
    t = np.random.default_rng(12).uniform(0.0, 2 * np.pi, (256, 256))
    fourier_basis(t, 9)
    peak, _ = _traced(lambda: fourier_basis(t, 9))
    assert peak <= 1.02 * t.size * 19 * np.dtype(np.complex128).itemsize, peak


def test_evaluate_all_builds_one_basis_per_band(monkeypatch):
    """Each distinct band gets a basis of exactly that band, once per row block:
    no wider basis is sliced or zero-padded, and no band is built twice in a
    block.  2 * _ROWS + 1 angles are two blocks, the second with the one-row
    tail; 2 * _ROWS + 2 are three."""
    built = []

    def spy(t, band):
        built.append(band)
        return fourier_basis(t, band)

    monkeypatch.setattr(circle, "fourier_basis", spy)
    rng = np.random.default_rng(5)
    fs = [CircleFunction.random_real(b, rng) for b in (4, 1, 4, 0, 7, 1)]
    for n, blocks in [(50, 1), (2 * _ROWS + 1, 2), (2 * _ROWS + 2, 3)]:
        built.clear()
        evaluate_all(fs, rng.uniform(0.0, 6.0, n))
        assert sorted(built) == sorted([0, 1, 4, 7] * blocks), n


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


#: basis terms (angles x modes k = 1..band, one complex exp each) that the constant
#: config's kinetic and factorize checks build at seed 20240: 4,688,109 with a basis
#: row per angle, 23,645 over each block's distinct angles
CONSTANT_BASIS_TERMS = 50_000


def test_constant_builds_bases_over_distinct_angles(monkeypatch, tmp_path):
    terms = []

    def spy(t, band):
        terms.append(np.size(t) * band)
        return fourier_basis(t, band)

    monkeypatch.setattr(circle, "fourier_basis", spy)
    obj = json.loads((ROOT / "configs" / "constant.json").read_text())
    obj.update(checks=["kinetic", "factorize"], seed=20240, out=str(tmp_path))
    _, code = run_config(config_from_json(obj))
    assert code == 0
    assert sum(terms) <= CONSTANT_BASIS_TERMS, sum(terms)


#: traced peak bytes of the constant config's kinetic and factorize checks:
#: 38.3 MB with each evaluation building its basis over all 65,536 angles of a
#: level, 18.4 MB in row blocks; a whole basis built again would exceed this
KINETIC_FACTORIZE_PEAK = 21_000_000


def test_kinetic_and_factorize_peak_memory(tmp_path):
    obj = json.loads((ROOT / "configs" / "constant.json").read_text())
    obj.update(checks=["kinetic", "factorize"], seed=20240, out=str(tmp_path))
    cfg = config_from_json(obj)
    peak, _ = _traced(lambda: run_config(cfg))
    assert peak <= KINETIC_FACTORIZE_PEAK, peak
