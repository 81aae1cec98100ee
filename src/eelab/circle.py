"""Trigonometric polynomials on R/2piZ with exact coefficient calculus.

A CircleFunction stores complex Fourier coefficients c_k for |k| <= band and
represents t -> sum_k c_k e^{ikt}.  Every operation needed downstream
(derivative, antiderivative, products, shifts) is exact coefficient
arithmetic.

Evaluation contracts a Fourier basis exp(i t k), k = -band..band, with the
coefficients; :func:`fourier_basis` is the one place that basis is built (in
place, from its k > 0 half).  Every evaluation -- ``f(t)``, ``real_values``,
:func:`evaluate_all`, and through ``_block_values`` the arc integrals of
``kinetic`` and the radial extensions of ``entropy`` -- runs the one loop
``_block_values``: the angles are flattened and cut into blocks of ``_ROWS``
rows, each band's basis is built once per block over the block's distinct
angles only, contracted with every function of that band by the same
``tensordot``, gathered back to the block's rows, and each block's values go
straight into preallocated outputs.  On a piecewise constant field almost
every angle repeats, so a block's basis has a few rows, not one per cell.
No call holds more than one block's basis per angle array, nor a complex
value array it does not return.

The blocks give the bits of one contraction over all rows, with one rule.
numpy contracts a one-row basis through another BLAS routine than a basis of
several rows, and that moves values by up to a few ulps; so a one-row tail
joins the block before it, a block of two or more rows whose angles are all
equal is contracted as two equal rows, and only an input of exactly one
element (0-d included) is contracted as one row, as it always was.  Each row
of a basis of several rows contracts to the same bits wherever it stands, so
the distinct angles may come sorted.  Equal angles have equal bits but for
the sign of a zero, and ``fourier_basis`` adds +0.0 before ``exp``, so -0.0
and +0.0 share a row; NaNs are never merged.  Each function meets a
basis of exactly its own band.  Contracting it with a wider basis, its
coefficients padded with zeros, sums over a longer row and rounds
differently.  A column slice of a wider basis would hold the same entries,
but ``tensordot`` has to copy it first, and the bits would then rest on that
copy reaching BLAS as a fresh basis does.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

ComplexArray = NDArray[np.complex128]

#: Rows of the flattened angle array per evaluation block; any block of two or
#: more rows gives the same bits.  A band-12 block basis is 1.6 MB, against
#: 26 MB for the 65,536 angles of a 256 x 256 level in one piece.  Constant
#: with --jobs 2, 10 runs each (2 vCPU): peak RSS 85.3, 88.3 and 94.3 MB at
#: 4096, 8192 and 16384 rows (131.8 MB unblocked), run_s 0.76, 0.73 and
#: 0.71 s (0.75 s unblocked), inside a run-to-run spread of 0.17 s; in one
#: process, its kinetic and factorize checks took 0.249, 0.245 and 0.255 s
#: (0.267 s unblocked).  So the smallest block.
_ROWS = 4096


def fourier_basis(t, band: int) -> ComplexArray:
    """exp(i t k) for k = -band..band, as an array of shape t.shape + (2 band + 1,), built
    in place from k > 0 with the bits of ``np.exp(1j * np.multiply.outer(t, ks))``: ``1j *
    x`` is (+-0, x + 0.0), and exp(-i x) is (cos x, 0.0 - sin x), keeping the +0 at x = 0
    that ``conj`` would flip; ``np.positive`` copies without a temporary."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (2 * band + 1,), dtype=np.complex128)
    out[..., band] = 1.0
    pos, neg = out[..., band + 1:], out[..., :band][..., ::-1]
    pos.real = 0.0
    np.multiply.outer(t, np.arange(1.0, band + 1), out=pos.imag)
    pos.imag += 0.0
    np.exp(pos, out=pos)
    np.positive(pos.real, out=neg.real)
    np.subtract(0.0, pos.imag, out=neg.imag)
    return out


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop zero outer coefficients, keeping the array length odd (2K+1)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 1 or coeffs.size % 2 != 1:
        raise ValueError("coefficient array must be 1-D with odd length 2K+1")
    k = coeffs.size // 2
    while k > 0 and coeffs[0] == 0 and coeffs[-1] == 0:
        coeffs = coeffs[1:-1]
        k -= 1
    return coeffs


@dataclass(frozen=True)
class CircleFunction:
    """Band-limited function on the circle, stored as coefficients c_{-K..K}."""

    coeffs: ComplexArray = field(default_factory=lambda: np.zeros(1, dtype=np.complex128))

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    # ---------------- constructors ----------------

    @staticmethod
    def zero() -> "CircleFunction":
        return CircleFunction(np.zeros(1, dtype=np.complex128))

    @staticmethod
    def constant(c: complex) -> "CircleFunction":
        return CircleFunction(np.array([c], dtype=np.complex128))

    @staticmethod
    def from_modes(modes: dict[int, complex]) -> "CircleFunction":
        if not modes:
            return CircleFunction.zero()
        band = max(abs(k) for k in modes)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        for k, v in modes.items():
            c[k + band] = v
        return CircleFunction(c)

    @staticmethod
    def harmonic(k: int, amplitude: complex = 1.0) -> "CircleFunction":
        """The single mode t -> amplitude * e^{ikt}."""
        return CircleFunction.from_modes({k: amplitude})

    @staticmethod
    def cosine(k: int, amplitude: float = 1.0) -> "CircleFunction":
        if k == 0:
            return CircleFunction.constant(amplitude)
        return CircleFunction.from_modes({k: amplitude / 2, -k: amplitude / 2})

    @staticmethod
    def sine(k: int, amplitude: float = 1.0) -> "CircleFunction":
        if k == 0:
            return CircleFunction.zero()
        return CircleFunction.from_modes({k: amplitude / 2j, -k: -amplitude / 2j})

    @staticmethod
    def random_real(band: int, rng: np.random.Generator) -> "CircleFunction":
        """Random real-valued trigonometric polynomial of the given band."""
        a = rng.standard_normal(band + 1)
        b = rng.standard_normal(band + 1)
        f = CircleFunction.constant(a[0])
        for k in range(1, band + 1):
            f = f + CircleFunction.cosine(k, a[k]) + CircleFunction.sine(k, b[k])
        return f

    # ---------------- basic queries ----------------

    @property
    def band(self) -> int:
        return self.coeffs.size // 2

    def coeff(self, k: int) -> complex:
        if abs(k) > self.band:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.band])

    @property
    def mean(self) -> complex:
        """The mode-0 coefficient <f, 1>."""
        return self.coeff(0)

    def is_real(self, tol: float = 1e-12) -> bool:
        """True when c_{-k} = conj(c_k) within tol (the function is real-valued)."""
        return bool(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))) <= tol)

    def cos_coeff(self, k: int) -> float:
        """a_k = (1/pi) int f cos(kt) dt for real f (a_0 returns 2*mean)."""
        return float(np.real(self.coeff(k) + self.coeff(-k)))

    def sin_coeff(self, k: int) -> float:
        """b_k = (1/pi) int f sin(kt) dt for real f."""
        return float(np.real(1j * (self.coeff(k) - self.coeff(-k))))

    # ---------------- evaluation ----------------

    def __call__(self, t) -> np.ndarray | complex:
        return evaluate_all([self], t)[0]

    def real_values(self, t) -> np.ndarray | float:
        """The real part of ``f(t)``, written block by block into a float array."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        flat = out.reshape(-1)
        for rows, _, (vals,) in _block_values([self], t):
            flat[rows] = vals.real
        return out if t.ndim else float(out)

    # ---------------- coefficient calculus ----------------

    def derivative(self, order: int = 1) -> "CircleFunction":
        ks = np.arange(-self.band, self.band + 1)
        return CircleFunction(self.coeffs * (1j * ks) ** order)

    def antiderivative(self) -> "CircleFunction":
        """Primitive F with F(0) = 0; requires zero mean."""
        if abs(self.mean) > 1e-13:
            raise ValueError(f"antiderivative needs zero mean, got {self.mean!r}")
        ks = np.arange(-self.band, self.band + 1)
        c = np.zeros_like(self.coeffs)
        nz = ks != 0
        c[nz] = self.coeffs[nz] / (1j * ks[nz])
        out = CircleFunction(c)
        return out + CircleFunction.constant(-out(0.0))

    def mul_mode(self, n: int, amplitude: complex = 1.0) -> "CircleFunction":
        """Multiply by amplitude * e^{int} (band grows by |n|)."""
        band = self.band + abs(n)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        ks = np.arange(-self.band, self.band + 1)
        c[ks + n + band] = self.coeffs * amplitude
        return CircleFunction(c)

    def conjugate(self) -> "CircleFunction":
        return CircleFunction(np.conj(self.coeffs[::-1]))

    def real_part(self) -> "CircleFunction":
        return (self + self.conjugate()) * 0.5

    def imag_part(self) -> "CircleFunction":
        return (self - self.conjugate()) * (-0.5j)

    def drop_modes(self, kill: set[int]) -> "CircleFunction":
        c = self.coeffs.copy()
        for k in kill:
            if abs(k) <= self.band:
                c[k + self.band] = 0.0
        return CircleFunction(c)

    # ---------------- arithmetic ----------------

    def __add__(self, other: "CircleFunction") -> "CircleFunction":
        band = max(self.band, other.band)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        c[band - self.band : band + self.band + 1] += self.coeffs
        c[band - other.band : band + other.band + 1] += other.coeffs
        return CircleFunction(c)

    def __sub__(self, other: "CircleFunction") -> "CircleFunction":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, CircleFunction):
            c = np.convolve(self.coeffs, other.coeffs)
            return CircleFunction(c)
        return CircleFunction(self.coeffs * complex(other))

    __rmul__ = __mul__

    # ---------------- norms ----------------

    def sup_norm(self, samples: int = 2048) -> float:
        t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        return float(np.max(np.abs(self(t))))

    # ---------------- serialization ----------------

    def to_json(self) -> dict:
        return {
            "band": self.band,
            "re": [float(x) for x in self.coeffs.real],
            "im": [float(x) for x in self.coeffs.imag],
            "kind": "circle-function",
        }


def _row_blocks(size: int) -> list[slice]:
    """Consecutive slices of ``_ROWS`` rows covering ``range(size)``.  A one-row tail
    joins the block before it: only an input of one element is contracted as one row."""
    starts = list(range(0, size, _ROWS))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [size])]


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct angles of one row block, by the rules of ``_block_values``, and the
    index that gathers them back to its rows."""
    u, inv = np.unique(x, return_inverse=True, equal_nan=False)
    if u.size == 1 < x.size:
        u = np.repeat(u, 2)
    return u, inv


def _block_values(fs: Sequence[CircleFunction], *ts: np.ndarray):
    """The one evaluation loop: yield ``(rows, i, values)`` for each row block of the
    flattened angle arrays ``ts`` (all of one size) and each ``fs[i]``, where
    ``values[j]`` is ``fs[i]`` on ``ts[j].ravel()[rows]``.  Each band's basis is
    built once per block and angle array, over the block's distinct angles only
    (``_distinct``), widest band first, and released before the next band's; each
    contraction is gathered back to the block's rows.  Equal angles have equal
    bits but for the sign of a zero, which the basis drops, and NaNs stay apart,
    so the gathered values are those of the basis over every row.  A block of two
    or more rows whose angles are all equal is contracted as two equal rows: only
    an input of one element is contracted as one row."""
    flat = [np.ravel(t) for t in ts]
    bands = sorted({f.band for f in fs}, reverse=True)
    for rows in _row_blocks(flat[0].size):
        distinct = [_distinct(x[rows]) for x in flat]
        for band in bands:
            bases = [fourier_basis(u, band) for u, _ in distinct]
            for i, f in enumerate(fs):
                if f.band == band:
                    yield rows, i, [np.tensordot(b, f.coeffs, axes=([-1], [0]))[inv]
                                    for b, (_, inv) in zip(bases, distinct)]
            del bases


def evaluate_all(fs: Sequence[CircleFunction], t) -> list[np.ndarray | complex]:
    """``[f(t) for f in fs]``, bit for bit, one Fourier basis per band and row block.

    The functions are grouped by their own (trimmed) band.  For each block of
    ``_ROWS`` rows of the flattened ``t`` (a one-row tail joins the block before
    it), each band's basis is built over the block's distinct angles,
    contracted with every function of that band, gathered back to the block's
    rows, written into that function's output and released, so at most one
    block basis is alive at a time besides the outputs.  A 0-d ``t`` gives
    Python complex values.
    """
    t = np.asarray(t, dtype=float)
    out = [np.empty(t.shape, dtype=np.complex128) for _ in fs]
    flat = [o.reshape(-1) for o in out]
    for rows, i, (vals,) in _block_values(fs, t):
        flat[i][rows] = vals
    return out if t.ndim else [complex(o) for o in out]
