"""Negative-type machinery for finite metrics.

The central question about a finite metric d is whether the quadratic energy
gamma(omega) = sum over pairs of omega(x) omega(y) d(x,y) stays nonpositive on
all zero-sum weightings.  This module decides that exactly via a rational
symmetric elimination of the basepoint Gram matrix, brackets the supremum of
gamma over the normalized polytope, and provides the square-root Euclidean
embedding plus the eigenvalue-count diagnostic that accompany the decision.

Exactness policy: verdicts and certificates are rational end to end; floating
point appears only inside searches and estimates whose outputs are re-checked
or outward-rounded exactly before being reported.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np
import scipy.linalg

from .core import FiniteMetric, as_rational
from .errors import InternalCheckError, PreconditionError

Rational = Union[int, str, Fraction]


# ---------------------------------------------------------------------------
# weightings and gamma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weighting:
    """A finitely supported rational weight function on point indices.

    Only nonzero entries are stored, sorted by index."""

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        last = -1
        for idx, val in self.entries:
            if not isinstance(idx, int) or idx < 0:
                raise PreconditionError(f"bad weighting index {idx!r}")
            if idx <= last:
                raise PreconditionError("weighting entries must be sorted and distinct")
            if not isinstance(val, Fraction) or val == 0:
                raise PreconditionError("weighting values must be nonzero rationals")
            last = idx

    @classmethod
    def from_map(cls, values: Mapping[int, Rational]) -> "Weighting":
        entries = tuple(
            (i, as_rational(v)) for i, v in sorted(values.items()) if as_rational(v) != 0
        )
        return cls(entries)

    @classmethod
    def from_values(cls, values: Sequence[Rational]) -> "Weighting":
        return cls.from_map({i: v for i, v in enumerate(values)})

    @cached_property
    def total(self) -> Fraction:
        return sum((v for _, v in self.entries), Fraction(0))

    @cached_property
    def total_mass(self) -> Fraction:
        return sum((abs(v) for _, v in self.entries), Fraction(0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def value(self, index: int) -> Fraction:
        for i, v in self.entries:
            if i == index:
                return v
        return Fraction(0)

    def as_dense(self, n: int) -> list[Fraction]:
        out = [Fraction(0)] * n
        for i, v in self.entries:
            if i >= n:
                raise PreconditionError(f"weighting index {i} out of range for n={n}")
            out[i] = v
        return out


def gamma(m: FiniteMetric, w: Weighting) -> Fraction:
    """Quadratic energy of a weighting: sum over unordered distinct pairs.

    Computed on integers: with ``q`` the common denominator of the weights
    and ``a = q * w``, gamma is sum a_i a_j D_ij / (q^2 den) over the metric's
    integer matrix ``D`` and denominator ``den``.
    """
    n = m.size
    for i, _ in w.entries:
        if i >= n:
            raise PreconditionError(f"weighting index {i} outside metric of size {n}")
    q = math.lcm(*(v.denominator for _, v in w.entries))
    a = [(i, v.numerator * (q // v.denominator)) for i, v in w.entries]
    D = m.D
    total = 0
    for t, (i, ai) in enumerate(a):
        Di = D[i]
        total += ai * sum(aj * Di[j] for j, aj in a[t + 1 :])
    return Fraction(total, q * q * m.den)


# ---------------------------------------------------------------------------
# exact positive semidefiniteness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PSDTranscript:
    """Pivoted rational LDL^T factorization certifying semidefiniteness.

    ``perm`` maps factor position to original index: with P the permutation
    matrix sending original index perm[i] to position i, P A P^T = L D L^T,
    where L is unit lower triangular and D is the nonnegative diagonal."""

    perm: tuple[int, ...]
    diag: tuple[Fraction, ...]
    lower: tuple[tuple[Fraction, ...], ...]

    def verify(self, matrix: Sequence[Sequence[Fraction]]) -> bool:
        n = len(self.perm)
        if len(matrix) != n or any(d < 0 for d in self.diag):
            return False
        for i in range(n):
            row = self.lower[i]
            if len(row) != n or row[i] != 1 or any(row[j] != 0 for j in range(i + 1, n)):
                return False
        for i in range(n):
            for j in range(i + 1):
                lhs = matrix[self.perm[i]][self.perm[j]]
                rhs = sum(
                    self.lower[i][k] * self.diag[k] * self.lower[j][k]
                    for k in range(j + 1)
                )
                if lhs != rhs:
                    return False
        return True


def gram_matrix(m: FiniteMetric, basepoint: Optional[int] = None) -> list[list[Fraction]]:
    """Basepoint Gram matrix: G_jk = (d(j,b) + d(k,b) - d(j,k)) / 2.

    Rows and columns run over the points other than ``basepoint`` (default:
    the last point), in index order."""
    n = m.size
    b = n - 1 if basepoint is None else basepoint
    if not 0 <= b < n:
        raise PreconditionError(f"basepoint {b} out of range")
    others = [i for i in range(n) if i != b]
    D, den2 = m.D, 2 * m.den
    return [
        [Fraction(D[j][b] + D[k][b] - D[j][k], den2) for k in others]
        for j in others
    ]


def _solve_from_factors(
    lower: list[list[Fraction]], diag: list[Fraction], k: int, rhs: list[Fraction]
) -> list[Fraction]:
    # Solve (L11 D1 L11^T) u = rhs using the first k pivots.
    w = rhs[:]
    for i in range(k):
        for j in range(i):
            w[i] -= lower[i][j] * w[j]
    for i in range(k):
        w[i] /= diag[i]
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k):
            w[i] -= lower[j][i] * w[j]
    return w


def psd_decompose(
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[bool, Union[PSDTranscript, tuple[Fraction, ...]]]:
    """Exact semidefiniteness test by elimination with full diagonal pivoting.

    Returns ``(True, transcript)`` when the symmetric rational matrix is
    positive semidefinite, else ``(False, x)`` with an exact vector x (in the
    matrix's own coordinates) satisfying x^T A x < 0.
    """
    n = len(matrix)
    S = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        if len(S[i]) != n:
            raise PreconditionError("matrix is not square")
        for j in range(i):
            if S[i][j] != S[j][i]:
                raise PreconditionError("matrix is not symmetric")
    perm = list(range(n))
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n

    def violating(direction: dict[int, Fraction], k: int) -> tuple[Fraction, ...]:
        # Lift a bad direction of the trailing Schur block to full coordinates:
        # with B the permuted input, solve B11 u = -B12 y; x = (u, y) has
        # x^T B x = y^T S_trailing y < 0.
        y = [direction.get(i, Fraction(0)) for i in range(k, n)]
        rhs = [
            -sum(matrix[perm[i]][perm[k + t]] * y[t] for t in range(n - k))
            for i in range(k)
        ]
        u = _solve_from_factors(lower, diag, k, rhs)
        x = [Fraction(0)] * n
        for pos, val in enumerate(u + y):
            x[perm[pos]] = val
        value = sum(
            x[a] * x[b] * matrix[a][b] for a in range(n) for b in range(n) if x[a] and x[b]
        )
        if value >= 0:
            raise InternalCheckError("reconstructed direction is not violating")
        return tuple(x)

    for k in range(n):
        pivot_val, pivot_at = max((S[i][i], -i) for i in range(k, n))
        pivot_at = -pivot_at
        if pivot_val <= 0:
            negatives = [(S[i][i], i) for i in range(k, n) if S[i][i] < 0]
            if negatives:
                _, p = min(negatives)
                return False, violating({p: Fraction(1)}, k)
            off = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if S[i][j] != 0
                ),
                None,
            )
            if off is None:
                break
            p, q = off
            sign = Fraction(-1) if S[p][q] > 0 else Fraction(1)
            return False, violating({p: Fraction(1), q: sign}, k)
        if pivot_at != k:
            for i in range(n):
                S[i][k], S[i][pivot_at] = S[i][pivot_at], S[i][k]
            S[k], S[pivot_at] = S[pivot_at], S[k]
            for j in range(k):
                lower[k][j], lower[pivot_at][j] = lower[pivot_at][j], lower[k][j]
            perm[k], perm[pivot_at] = perm[pivot_at], perm[k]
        d = S[k][k]
        diag[k] = d
        for i in range(k + 1, n):
            lower[i][k] = S[i][k] / d
        for i in range(k + 1, n):
            fi = lower[i][k]
            if fi == 0:
                continue
            for j in range(k + 1, i + 1):
                S[i][j] -= fi * d * lower[j][k]
                S[j][i] = S[i][j]
    transcript = PSDTranscript(
        perm=tuple(perm),
        diag=tuple(diag),
        lower=tuple(tuple(row) for row in lower),
    )
    return True, transcript


@dataclass(frozen=True)
class NegativeTypeResult:
    """Verdict of the exact negative-type decision, with its certificate."""

    verdict: bool
    basepoint: int
    transcript: Optional[PSDTranscript]
    violation: Optional[Weighting]


def is_negative_type(m: FiniteMetric) -> NegativeTypeResult:
    """Decide exactly whether gamma is nonpositive on all zero-sum weightings.

    Equivalent to positive semidefiniteness of the basepoint Gram matrix; on
    failure the bad elimination direction is converted into a weighting with
    zero sum, total mass one, and strictly positive energy.
    """
    n = m.size
    b = n - 1
    G = gram_matrix(m, b)
    ok, payload = psd_decompose(G)
    if ok:
        assert isinstance(payload, PSDTranscript)
        return NegativeTypeResult(verdict=True, basepoint=b, transcript=payload, violation=None)
    x = list(payload)
    omega = {i: x[i] for i in range(n - 1)}
    omega[b] = -sum(x, Fraction(0))
    raw = Weighting.from_map(omega)
    if raw.total != 0 or raw.total_mass == 0:
        raise InternalCheckError("violating direction did not yield a zero-sum weighting")
    w = Weighting.from_map({i: v / raw.total_mass for i, v in raw.entries})
    if gamma(m, w) <= 0:
        raise InternalCheckError("violating weighting has nonpositive energy")
    return NegativeTypeResult(verdict=False, basepoint=b, transcript=None, violation=w)


# ---------------------------------------------------------------------------
# bracketing the supremum of gamma
# ---------------------------------------------------------------------------

_SNAP_DENOMINATORS = tuple(range(2, 25)) + (36, 48, 60, 120, 720, 10**4, 10**6)
_SLACK_LADDER = (
    (Fraction(0), Fraction(0)),
    (Fraction(1, 10**12), Fraction(1, 10**12)),
    (Fraction(1, 10**9), Fraction(1, 10**9)),
    (Fraction(1, 10**6), Fraction(1, 10**6)),
    (Fraction(1, 10**3), Fraction(1, 10**3)),
)


@dataclass(frozen=True)
class GapBracket:
    """Certified two-sided estimate of sup gamma over the weighting polytope.

    ``lower`` is attained by ``weighting`` (re-evaluated exactly on
    construction); ``upper`` is the smaller of a certified spectral bound and
    the diameter bound."""

    metric: FiniteMetric
    lower: Fraction
    weighting: Weighting
    upper: Fraction
    upper_spectral: Fraction
    upper_diameter: Fraction
    spectral_mu: Fraction

    def __post_init__(self) -> None:
        if self.weighting.total != 0 or self.weighting.total_mass != 1:
            raise InternalCheckError("bracket weighting is not normalized")
        if gamma(self.metric, self.weighting) != self.lower:
            raise InternalCheckError("bracket lower bound is not certified")
        if self.lower > self.upper:
            raise InternalCheckError("bracket is empty")
        if self.upper != min(self.upper_spectral, self.upper_diameter):
            raise InternalCheckError("bracket upper bound inconsistent")


def _exact_project(values: Sequence[Fraction]) -> Optional[Weighting]:
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    centered = [v - mean for v in values]
    mass = sum(abs(v) for v in centered)
    if mass == 0:
        return None
    return Weighting.from_values([v / mass for v in centered])


def _float_project(v: np.ndarray) -> Optional[np.ndarray]:
    v = v - v.mean()
    mass = np.abs(v).sum()
    if mass < 1e-300:
        return None
    return v / mass


def _snap_candidates(v: np.ndarray) -> Iterable[Weighting]:
    exact = [Fraction(float(x)) for x in v]
    w = _exact_project(exact)
    if w is not None:
        yield w
    for q in _SNAP_DENOMINATORS:
        snapped = [Fraction(round(float(x) * q), q) for x in v]
        w = _exact_project(snapped)
        if w is not None:
            yield w


def _certified_mu(m: FiniteMetric) -> Fraction:
    """Exact upper bound on x^T D x / x^T x over the zero-sum subspace.

    A floating-point generalized eigenvalue estimate is inflated along a
    slack ladder until the exact semidefiniteness test accepts; the bound
    n * diameter always passes, so the ladder terminates.
    """
    n = m.size
    others = range(n - 1)
    # basis columns e_i - e_{n-1}: quadratic forms restricted to the subspace,
    # a2 = A2 / den on the integer matrix (the diagonal is -2 D_{i,n-1})
    D, den = m.D, m.den
    A2 = [[D[i][j] - D[i][n - 1] - D[j][n - 1] for j in others] for i in others]
    a2 = [[Fraction(x, den) for x in row] for row in A2]
    m2 = [[Fraction(2) if i == j else Fraction(1) for j in others] for i in others]
    # int / int rounds correctly, so these are the floats of the entries of a2
    a_f = np.array([[x / den for x in row] for row in A2])
    m_f = np.array([[float(v) for v in row] for row in m2])
    est = float(scipy.linalg.eigh(a_f, m_f, eigvals_only=True)[-1])
    if not np.isfinite(est):
        est = float(n * m.diameter())
    candidates = [
        Fraction(est) + abs(Fraction(est)) * rel + absolute
        for rel, absolute in _SLACK_LADDER
    ]
    candidates.append(Fraction(n) * m.diameter())
    for mu in candidates:
        shifted = [
            [mu * m2[i][j] - a2[i][j] for j in range(n - 1)] for i in range(n - 1)
        ]
        ok, _ = psd_decompose(shifted)
        if ok:
            return mu
    raise InternalCheckError("spectral slack ladder failed to certify")


def _ascend(d_norm: np.ndarray, start: np.ndarray, iters: int) -> Optional[np.ndarray]:
    w = _float_project(start)
    if w is None:
        return None

    def value(v: np.ndarray) -> float:
        return float(v @ (d_norm @ v)) / 2

    best, best_val = w, value(w)
    step = 0.25
    for _ in range(iters):
        nxt = _float_project(w + step * (d_norm @ w))
        if nxt is None:
            break
        w = nxt
        got = value(w)
        if got > best_val:
            best, best_val = w, got
        else:
            # shrink once the fixed step starts overshooting the optimum
            step *= 0.9
    return best


def gap_bracket(
    m: FiniteMetric,
    starts: int = 24,
    iters: int = 200,
    seed: int = 0,
    seeds: Sequence[Weighting] = (),
) -> GapBracket:
    """Bracket sup of gamma over {sum = 0, total mass = 1} weightings.

    The lower bound is the exact maximum of gamma over a deterministic
    candidate set: all two-point weightings (e_j - e_k)/2, every supplied
    seed weighting, and rational snaps of multi-start projected gradient
    ascent runs.  The upper bound combines a certified spectral bound with
    the diameter bound diam/4.
    """
    n = m.size
    if n < 2:
        raise PreconditionError("gap bracketing needs at least two points")
    if starts < 0 or iters < 0:
        raise PreconditionError("starts and iters must be nonnegative")

    candidates: list[Weighting] = []
    half = Fraction(1, 2)
    for j, k in itertools.combinations(range(n), 2):
        candidates.append(Weighting.from_map({j: half, k: -half}))
    for s in seeds:
        if s.total != 0 or s.total_mass != 1:
            raise PreconditionError("seed weightings must sum to 0 with total mass 1")
        candidates.append(s)

    diameter = m.diameter()
    if diameter > 0:
        # Scale-free search matrix: gamma is positively homogeneous in d, so
        # searching d / diam and evaluating exactly on d changes nothing.
        # int / int rounds correctly, as float(Fraction) does.
        top = max(map(max, m.D))
        d_norm = np.array([[x / top for x in row] for row in m.D])
        rng = random.Random(seed)
        start_vectors = [np.array(s.as_dense(n), dtype=float) for s in seeds]
        for _ in range(starts):
            start_vectors.append(np.array([rng.uniform(-1, 1) for _ in range(n)]))
        for v in start_vectors:
            end = _ascend(d_norm, v, iters)
            if end is None:
                continue
            candidates.extend(_snap_candidates(end))

    best: Optional[tuple[Fraction, Weighting]] = None
    for w in candidates:
        value = gamma(m, w)
        if best is None or value > best[0] or (value == best[0] and w.entries < best[1].entries):
            best = (value, w)
    assert best is not None
    lower, argmax = best

    mu = _certified_mu(m)
    spectral = mu / 2 if mu >= 0 else mu / (2 * n)
    diam_bound = diameter / 4
    return GapBracket(
        metric=m,
        lower=lower,
        weighting=argmax,
        upper=min(spectral, diam_bound),
        upper_spectral=spectral,
        upper_diameter=diam_bound,
        spectral_mu=mu,
    )


# ---------------------------------------------------------------------------
# embeddings and spectra
# ---------------------------------------------------------------------------


def sqrt_embedding(m: FiniteMetric) -> np.ndarray:
    """Euclidean coordinates realizing sqrt(d), one row per point.

    Requires the metric to be of negative type (checked exactly).  The last
    point sits at the origin; coordinates have n - 1 dimensions.  Pairwise
    Euclidean distances reproduce sqrt(d) within 1e-9 relative tolerance.
    """
    n = m.size
    if not is_negative_type(m).verdict:
        raise PreconditionError("metric is not of negative type")
    G = np.array([[float(v) for v in row] for row in gram_matrix(m)])
    if n == 1:
        return np.zeros((1, 0))
    vals, vecs = np.linalg.eigh(G)
    vals = np.clip(vals, 0.0, None)
    X = vecs * np.sqrt(vals)
    coords = np.vstack([X, np.zeros((1, n - 1))])
    for i, j in itertools.combinations(range(n), 2):
        want = float(m.distance(i, j)) ** 0.5
        got = float(np.linalg.norm(coords[i] - coords[j]))
        if abs(got - want) > 1e-9 * (1.0 + want):
            raise InternalCheckError("embedding distances drifted beyond tolerance")
    return coords


def positive_eigenvalue_count(m: FiniteMetric) -> int:
    """Number of distance-matrix eigenvalues above 1e-9 times the largest |.|."""
    n = m.size
    dist = np.array([[float(m.distance(i, j)) for j in range(n)] for i in range(n)])
    vals = np.linalg.eigvalsh(dist)
    if len(vals) == 0:
        return 0
    tau = 1e-9 * float(np.max(np.abs(vals)))
    return int(np.sum(vals > tau))


# ---------------------------------------------------------------------------
# implication chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Joint status of the embeddability conditions on one metric.

    ``l1_embeddable`` is None when the metric exceeds the cut LP size cap.
    ``violations`` lists broken implications; any entry signals a bug."""

    size: int
    l1_embeddable: Optional[bool]
    negative_type: bool
    positive_eigenvalues: Optional[int]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_chain(m: FiniteMetric, max_points: int = 14) -> ChainReport:
    """Evaluate l1-embeddability, negative type, and the eigenvalue count.

    l1-embeddable metrics must be of negative type, and negative-type metrics
    with a nonzero distance must have exactly one positive eigenvalue; any
    breach is reported (and is a bug, never an expected outcome).
    """
    from .l1cut import CutDecomposition, is_l1_embeddable

    n = m.size
    l1: Optional[bool] = None
    if n <= max_points:
        l1 = isinstance(is_l1_embeddable(m, max_points=max_points), CutDecomposition)
    neg = is_negative_type(m).verdict
    count = positive_eigenvalue_count(m) if n >= 2 else None
    violations = []
    if l1 and not neg:
        violations.append("l1-embeddable metric failed the negative-type test")
    if neg and n >= 2 and m.diameter() > 0 and count != 1:
        violations.append(
            f"negative-type metric has {count} positive eigenvalues instead of 1"
        )
    return ChainReport(
        size=n,
        l1_embeddable=l1,
        negative_type=neg,
        positive_eigenvalues=count,
        violations=tuple(violations),
    )
