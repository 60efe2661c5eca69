"""Negative-type machinery for finite metrics.

The central question about a finite metric d is whether the quadratic energy
gamma(omega) = sum over pairs of omega(x) omega(y) d(x,y) stays nonpositive on
all zero-sum weightings.  This module decides that exactly, by a
float-proposed violation checked on integers or else a symmetric
elimination of the basepoint Gram matrix, brackets the supremum of gamma
over the normalized polytope, and cross-checks the decision against the
exact count of positive eigenvalues of the distance matrix.

``is_negative_type`` first lets floats propose a refutation: the rounded
eigenvector of the Gram matrix's smallest float eigenvalue, scaled by 2^k
for k = 0..20 (``_float_directions``); the first x with x^T G x < 0 on
Python ints (``_form``) becomes the violation (x, -sum x) / mass
(``_violation_of``).  Only what no proposal refutes, every semidefinite
Gram matrix among it, goes to the elimination.

One exact kernel does every symmetric elimination: ``_eliminate``, a
fraction-free (Bareiss) elimination on Python integers with full diagonal
pivoting, which reads and writes only the lower triangle.  Every matrix it
sees is integer, over one scale: the basepoint Gram matrix of a metric is
D[j][b] + D[k][b] - D[j][k] over 2 den (``_gram_array``, and
``_scaled_gram`` as lists).  ``psd_decompose`` runs it and turns its
factors into rationals once, and ``is_negative_type`` decides through it
what the proposal leaves open; ``PSDTranscript.verify`` replays its update
along a transcript's own order; the ``GapBracket`` constructor asks it for
the verdict of the mu test only where the integer factor cannot decide.
``_solve`` carries a right-hand side through a full-rank elimination and
back-substitutes on integers, sharing ``_back_substitute`` with ``_lift``:
``l1cut`` solves the normal equations of independent cut columns with it.

The certified spectral bound starts from a float eigenvalue estimate
(``numpy.linalg``) rounded up to a dyadic rational, so its exact test runs
on small integers.  That test is the ``GapBracket`` constructor's:
``gap_bracket`` builds the bracket of each rung of the ladder in turn, so
``gap`` and ``verify`` run one test, once per rung tried.  The test proves
semidefiniteness by an integer Cholesky factor with a diagonally dominant
residual (``_factor_certifies``), the rational sum-of-squares rounding of
Peyrl and Parrilo computed on Python ints; only a matrix the factor leaves
undecided goes to the elimination, so the verdict is always the one the
elimination gives.

The gap search proposes weightings in floats and scores them on integers.
``_ascend_all`` runs every projected gradient ascent in lockstep as the rows
of one block, each row bit for bit the run its start would make alone: its
products are stacked matmuls, which numpy runs as one gemv and one dot per
row, and the loop works in two row buffers that swap roles every step, with
no array allocated.  Every candidate is an integer vector c for the
weighting c / sum|c|.  The snaps of all ascent ends to every snap
denominator form one int64 block, made by one broadcast (``_snap_block``)
and scored by one product with the distance matrix while the energies fit
int64 (``_block_scorer``); the best pair is scored on Python ints.  The
snap of an end's raw floats is scored on Python ints only where a float
estimate of its ratio, plus a proven error bound, reaches the best exact
ratio so far (``_raw_snap_bounds``).  ``_best_vector`` compares the
candidates by their integer energies and makes Fractions only for an exact
tie and the winner.

Exactness policy: verdicts and certificates are rational end to end; floating
point appears only inside searches, estimates and proposals whose outputs are
re-checked or outward-rounded exactly before being reported.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .core import _INT64_SAFE, FiniteMetric, as_rational
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

    @cached_property
    def total(self) -> Fraction:
        return sum((v for _, v in self.entries), Fraction(0))

    @cached_property
    def total_mass(self) -> Fraction:
        return sum((abs(v) for _, v in self.entries), Fraction(0))

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


def _bareiss_update(S: list[list[int]], k: int, prev: int) -> None:
    """Eliminate position k from the trailing block of the symmetric matrix S.

    Only the lower triangle is read and written: row i holds entries j <= i,
    and anything stored beyond column i is left alone.  Fraction-free
    (Bareiss) step with pivot p = S[k][k] and previous pivot ``prev``:
    S_ij <- (p S_ij - S_ik S_jk) // prev for all k < j <= i.  If the trailing
    entries were the exact Schur complement times prev * scale, they become
    the next Schur complement times p * scale; Sylvester's identity makes
    the division exact.  Column k below the pivot is kept: it holds the
    numerators of column k of L, over p.
    """
    n, p = len(S), S[k][k]
    column = [S[i][k] for i in range(k + 1, n)]
    for i in range(k + 1, n):
        row = S[i]
        f = row[k]
        part = row[k + 1 : i + 1]
        if f:
            row[k + 1 : i + 1] = [(p * a - f * b) // prev for a, b in zip(part, column)]
        else:
            row[k + 1 : i + 1] = [p * a // prev for a in part]


@dataclass(frozen=True)
class _Elimination:
    """Where the integer elimination of a symmetric matrix stopped.

    The first ``len(pivots)`` positions were eliminated with the positive
    pivots p_0, p_1, ...: below the diagonal, S[i][j] / p_j is entry (i, j)
    of L.  ``direction`` is None when the trailing block is zero (the matrix
    is semidefinite), else a direction y, by position, with y^T S y < 0 on
    the trailing block.  Only the lower triangle of S is meaningful.
    """

    perm: list[int]
    pivots: list[int]
    S: list[list[int]]
    direction: Optional[dict[int, int]]


def _swap_positions(S: list[list[int]], k: int, t: int) -> None:
    """Exchange positions k < t of the symmetric matrix held as the lower
    triangle S: rows and columns k and t trade places, (t, k) stays."""
    S[k][:k], S[t][:k] = S[t][:k], S[k][:k]
    for j in range(k + 1, t):
        S[j][k], S[t][j] = S[t][j], S[j][k]
    for j in range(t + 1, len(S)):
        S[j][k], S[j][t] = S[j][t], S[j][k]
    S[k][k], S[t][t] = S[t][t], S[k][k]


def _eliminate(S: list[list[int]]) -> _Elimination:
    """Symmetric Bareiss elimination of an integer matrix, in place.

    S holds the matrix by its lower triangle (row i needs entries j <= i;
    longer rows are accepted and their upper part is ignored).  Full
    diagonal pivoting: the largest trailing diagonal entry, the lowest
    index on ties.  At every step the trailing block is the exact Schur
    complement times one positive integer, so each choice (the pivot, the
    most negative diagonal entry, the first nonzero off-diagonal entry) is
    the one an elimination over the rationals makes.
    """
    n = len(S)
    perm = list(range(n))
    pivots: list[int] = []
    prev = 1
    for k in range(n):
        pivot_val, pivot_at = max((S[i][i], -i) for i in range(k, n))
        pivot_at = -pivot_at
        if pivot_val <= 0:
            negatives = [(S[i][i], i) for i in range(k, n) if S[i][i] < 0]
            if negatives:
                _, p = min(negatives)
                return _Elimination(perm, pivots, S, {p: 1})
            # entry (i, j), i < j, of the trailing block is stored at S[j][i]
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if S[j][i] != 0),
                None,
            )
            if off is None:
                break
            p, q = off
            return _Elimination(perm, pivots, S, {p: 1, q: -1 if S[q][p] > 0 else 1})
        if pivot_at != k:
            _swap_positions(S, k, pivot_at)
            perm[k], perm[pivot_at] = perm[pivot_at], perm[k]
        _bareiss_update(S, k, prev)
        prev = pivot_val
        pivots.append(pivot_val)
    return _Elimination(perm, pivots, S, None)


@dataclass(frozen=True)
class PSDTranscript:
    """Pivoted rational LDL^T factorization certifying semidefiniteness.

    ``perm`` maps factor position to original index: with P the permutation
    matrix sending original index perm[i] to position i, P A P^T = L D L^T,
    where L is unit lower triangular and D is the nonnegative diagonal.

    ``verify`` checks that equation for A / scale, A a symmetric integer
    matrix, without forming L D L^T: it replays the elimination of P A P^T
    on integers in the order ``perm`` gives and compares each d_k and
    column k of L with the exact Schur complement by cross-multiplication.
    Where d_k = 0 the rest of column k of the Schur complement must be zero
    and column k of L is free, as in the product.
    """

    perm: tuple[int, ...]
    diag: tuple[Fraction, ...]
    lower: tuple[tuple[Fraction, ...], ...]

    def verify(self, A: Sequence[Sequence[int]], scale: int) -> bool:
        if len(A) != len(self.perm) or not self._well_formed():
            return False
        # the product check reads entry (i, j) of P A P^T for i >= j only
        perm = self.perm
        return self._replay([[A[p][q] for q in perm[: i + 1]] for i, p in enumerate(perm)], scale)

    def _well_formed(self) -> bool:
        n = len(self.perm)
        if (
            sorted(self.perm) != list(range(n))
            or len(self.diag) != n
            or len(self.lower) != n
            or any(d < 0 for d in self.diag)
        ):
            return False
        return all(
            len(row) == n and row[i] == 1 and not any(row[i + 1 :])
            for i, row in enumerate(self.lower)
        )

    def _replay(self, S: list[list[int]], scale: int) -> bool:
        """Whether the factors match S / scale, the permuted matrix given by
        its lower triangle; S is eliminated in place."""
        n = len(S)
        prev = 1
        for k in range(n):
            # trailing entries are the Schur complement times prev * scale
            s, d = S[k][k], self.diag[k]
            if d.numerator * prev * scale != s * d.denominator:
                return False
            column = [(S[i][k], self.lower[i][k]) for i in range(k + 1, n)]
            if s == 0:
                if any(v for v, _ in column):
                    return False
                continue
            if any(v * l.denominator != l.numerator * s for v, l in column):
                return False
            _bareiss_update(S, k, prev)
            prev = s
        return True


def _gram_array(m: FiniteMetric, basepoint: Optional[int] = None) -> np.ndarray:
    """The basepoint Gram matrix G_jk = (d(j,b) + d(k,b) - d(j,k)) / 2 times
    2 den, as the integer array D[j][b] + D[k][b] - D[j][k]: int64 while
    twice the largest distance fits below ``_INT64_SAFE``, else Python ints
    (dtype object), so every entry is exact.  Rows and columns run over the
    points other than the basepoint b (default: the last point), in index
    order."""
    n = m.size
    b = n - 1 if basepoint is None else basepoint
    if not 0 <= b < n:
        raise PreconditionError(f"basepoint {b} out of range")
    try:
        D = np.array(m.D, dtype=np.int64)
        if 2 * int(D.max()) >= _INT64_SAFE:
            raise OverflowError
    except OverflowError:
        D = np.array(m.D, dtype=object)
    if b != n - 1:
        order = [i for i in range(n) if i != b] + [b]
        D = D[np.ix_(order, order)]
    column = D[:-1, -1]
    return column[:, None] + column[None, :] - D[:-1, :-1]


def _scaled_gram(m: FiniteMetric, basepoint: Optional[int]) -> tuple[list[list[int]], int]:
    """The basepoint Gram matrix of ``_gram_array`` as lists of Python ints
    A, and its scale 2 den."""
    return _gram_array(m, basepoint).tolist(), 2 * m.den


def _form(A: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    """x^T A x on Python ints, over the support of x."""
    support = [i for i, v in enumerate(x) if v]
    xs = [x[i] for i in support]
    return sum(
        xi * sum(map(operator.mul, xs, [A[i][j] for j in support]))
        for i, xi in zip(support, xs)
    )


def _back_substitute(el: _Elimination, X: list[int], top: Sequence[int]) -> list[int]:
    """X_j = (top_j - sum_{i>j} S_ij X_i) / p_j for each eliminated
    position j, from the last one down, given X past them; every division
    must be exact.  Returns X in the matrix's own coordinates."""
    S, pivots, n = el.S, el.pivots, len(el.S)
    for j in range(len(pivots) - 1, -1, -1):
        q, r = divmod(top[j] - sum(S[i][j] * X[i] for i in range(j + 1, n) if X[i]), pivots[j])
        if r:
            raise InternalCheckError("back substitution is not exact")
        X[j] = q
    x = [0] * n
    for pos, val in enumerate(X):
        x[el.perm[pos]] = val
    return x


def _lift(el: _Elimination, A: list[list[int]]) -> tuple[Fraction, ...]:
    # Lift the bad direction y of the trailing block at step k to the
    # matrix's coordinates: with B the permuted input, x = (u, y) with
    # u = -L11^-T L21^T y solves B11 u = -B12 y, so x^T B x = y^T S y < 0.
    # Scaled by den = det of the integer B11, x is an integer vector X and
    # the back substitution X_j = -sum_{i>j} S_ij X_i / p_j divides exactly.
    n, k = len(el.S), len(el.pivots)
    den = el.pivots[-1] if el.pivots else 1
    X = [0] * k + [den * el.direction.get(i, 0) for i in range(k, n)]
    x = _back_substitute(el, X, [0] * k)
    if _form(A, x) >= 0:
        raise InternalCheckError("reconstructed direction is not violating")
    return tuple(Fraction(v, den) for v in x)


def _solve(el: _Elimination, b: Sequence[int]) -> list[int]:
    """det B times the solution x of B x = b, on integers, for the matrix B
    that ``el`` eliminated with as many positive pivots as it has rows, so
    det B = p_last > 0.  The forward pass takes b, in pivot order, through
    the elimination's own Bareiss steps, b_i <- (p_j b_i - S_ij b_j) / p_(j-1),
    the update of one more column, so every division is exact.  Then
    p_j x_j + sum_{i>j} S_ij x_i = b_j, and back substitution on X = det x,
    an integer vector since det B^-1 is the adjugate, divides exactly."""
    S, pivots = el.S, el.pivots
    b = [b[p] for p in el.perm]
    prev = 1
    for j, p in enumerate(pivots):
        bj = b[j]
        for i in range(j + 1, len(b)):
            b[i] = (p * b[i] - S[i][j] * bj) // prev
        prev = p
    det = pivots[-1]
    return _back_substitute(el, [0] * len(b), [det * v for v in b])


def psd_decompose(
    A: Sequence[Sequence[int]], scale: int
) -> tuple[bool, Union[PSDTranscript, tuple[Fraction, ...]]]:
    """Exact semidefiniteness test of A / scale, for a symmetric integer
    matrix A and an integer scale > 0, by elimination with full diagonal
    pivoting.

    Returns ``(True, transcript)`` when the matrix is positive semidefinite,
    else ``(False, x)`` with an exact vector x (in the matrix's own
    coordinates) satisfying x^T A x < 0.

    ``_eliminate`` runs on a copy of the lower triangle of A; the factors
    become rationals once, at the end, as d_k = p_k / (p_{k-1} scale) and
    L_ik = S_ik / p_k.
    """
    n = len(A)
    for i in range(n):
        if len(A[i]) != n:
            raise PreconditionError("matrix is not square")
        for j in range(i):
            if A[i][j] != A[j][i]:
                raise PreconditionError("matrix is not symmetric")
    el = _eliminate([list(row[: i + 1]) for i, row in enumerate(A)])
    if el.direction is not None:
        return False, _lift(el, A)
    S, pivots = el.S, el.pivots
    r = len(pivots)
    zero, one = Fraction(0), Fraction(1)  # shared by every unit-triangular entry
    diag = [Fraction(p, prev * scale) for p, prev in zip(pivots, [1] + pivots)]
    diag += [zero] * (n - r)
    lower = tuple(
        tuple(
            Fraction(S[i][j], pivots[j]) if j < min(i, r) else one if i == j else zero
            for j in range(n)
        )
        for i in range(n)
    )
    return True, PSDTranscript(perm=tuple(el.perm), diag=tuple(diag), lower=lower)


@dataclass(frozen=True)
class NegativeTypeResult:
    """Verdict of the exact negative-type decision, with its certificate.

    A refutation carries its ``violation`` and that weighting's ``energy``
    gamma > 0, checked exactly whether the float proposal or the elimination
    found it; a proof carries the elimination's ``transcript``."""

    verdict: bool
    basepoint: int
    transcript: Optional[PSDTranscript]
    violation: Optional[Weighting]
    energy: Optional[Fraction] = None


# The float proposal tries the rounded eigenvector scaled by 2^k, k = 0..this.
_PROPOSAL_BITS = 20


def _float_directions(G: np.ndarray) -> list[list[int]]:
    """Integer directions that may violate the symmetric integer matrix G,
    proposed in floats: rint(2^k v) for k = 0.._PROPOSAL_BITS in order, with
    v the unit eigenvector of the smallest float eigenvalue, its entry of
    largest magnitude made positive (the lowest index on ties).

    By Schoenberg the negative directions of the Gram matrix are those of
    the metric's energy, and v is the most negative.  None is proposed
    unless that eigenvalue is below -2^-44 times the largest magnitude
    lambda_max: a semidefinite matrix with a null space, such as the Gram
    matrix of repeated points or of the 2-subdivision of K4, can show a
    float eigenvalue of about -n 2^-53 lambda_max, which no rounding at
    k <= 20 turns into a violation, so its 21 exact checks would all fail.
    The eigenvalues come first, without vectors, so a semidefinite matrix
    (every held verdict) pays for no eigenvectors.  An array of Python ints
    is divided by its largest magnitude first, so no float overflows;
    scaling by 2^k is exact, so each direction is a function of v alone.
    Floats only propose: the caller checks x^T G x < 0 on integers."""
    if not len(G):
        return []
    if G.dtype == object:
        G = G / max(np.abs(G).max(), 1)
    F = G.astype(float)
    values = np.linalg.eigvalsh(F)
    if not values[0] < -abs(values[-1]) * 2.0**-44:
        return []
    v = np.linalg.eigh(F)[1][:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    scaled = np.ldexp(v, np.arange(_PROPOSAL_BITS + 1)[:, None])
    return np.rint(scaled).astype(np.int64).tolist()


def _violation_of(x: Sequence[int]) -> Weighting:
    """The weighting (x, -sum x) / mass of a nonzero integer direction x of
    the Gram matrix at the last point: it sums to zero and has mass one."""
    return _weighting_of([*x, -sum(x)])


def _proposed_violation(G: np.ndarray, A: Sequence[Sequence[int]]) -> Optional[Weighting]:
    """The violation of the first float-proposed direction x of the Gram
    array G (``_float_directions``) with x^T A x < 0 on Python ints, where
    A is G as lists; None when no proposal passes that check."""
    for x in _float_directions(G):
        if _form(A, x) < 0:
            return _violation_of(x)
    return None


def is_negative_type(m: FiniteMetric) -> NegativeTypeResult:
    """Decide exactly whether gamma is nonpositive on all zero-sum weightings.

    Equivalent to positive semidefiniteness of the basepoint Gram matrix at
    the last point.  Floats propose a refutation first: a rounded eigenvector
    of the smallest eigenvalue (``_float_directions``), accepted only if its
    quadratic form is negative on integers.  What no proposal refutes, such
    as a semidefinite or nearly singular Gram matrix, goes to the
    elimination (``psd_decompose``), which gives the transcript of a held
    verdict or a lifted direction of its own.  Either direction becomes a
    weighting with zero sum, total mass one and strictly positive energy,
    checked exactly by ``violation_energy``.
    """
    if m.size == 0:
        raise PreconditionError("negative-type decision needs at least one point")
    b = m.size - 1
    G = _gram_array(m)
    A = G.tolist()
    w = _proposed_violation(G, A)
    if w is None:
        ok, payload = psd_decompose(A, 2 * m.den)
        if ok:
            assert isinstance(payload, PSDTranscript)
            return NegativeTypeResult(verdict=True, basepoint=b, transcript=payload, violation=None)
        q = math.lcm(*(v.denominator for v in payload))
        w = _violation_of([v.numerator * (q // v.denominator) for v in payload])
    return NegativeTypeResult(
        verdict=False, basepoint=b, transcript=None, violation=w, energy=violation_energy(m, w)
    )


def violation_energy(m: FiniteMetric, w: Weighting) -> Fraction:
    """gamma(w) of a violation: w must sum to zero, have total mass one and
    have positive energy, else ``InternalCheckError``."""
    if w.total != 0 or w.total_mass != 1:
        raise InternalCheckError("violation is not normalized")
    value = gamma(m, w)
    if value <= 0:
        raise InternalCheckError("violation energy is not positive")
    return value


# ---------------------------------------------------------------------------
# bracketing the supremum of gamma
# ---------------------------------------------------------------------------

_SNAP_DENOMINATORS = tuple(range(2, 25)) + (36, 48, 60, 120, 720, 10**4, 10**6)
_SNAP_Q = np.array(_SNAP_DENOMINATORS, dtype=float)[:, None, None]
# The certified-mu ladder: rung r adds the slack 2^(8r - 26) (|est| + diameter)
# to the float estimate and rounds up to _MU_BITS significant bits.
_MU_RUNGS = 4
_MU_BITS = 32


class _MuNotCertified(InternalCheckError):
    """``spectral_mu`` failed the exact semidefiniteness test; ``gap_bracket``
    then tries the next rung of the ladder."""


@dataclass(frozen=True)
class GapBracket:
    """Certified two-sided estimate of sup gamma over the weighting polytope.

    Construction re-derives exactly that ``weighting`` attains ``lower``,
    that ``upper`` is the smaller of diam/4 and the bound ``spectral_mu``
    gives, and that ``spectral_mu`` M2 + G / den is positive semidefinite
    (``_mu_certifies``: an integer factor, or an exact elimination where the
    factor is undecided), so a bracket read back from a certificate is
    checked exactly as the one ``gap_bracket`` builds.  Fewer than two
    points are refused, as ``gap_bracket`` refuses them."""

    metric: FiniteMetric
    lower: Fraction
    weighting: Weighting
    upper: Fraction
    upper_spectral: Fraction
    upper_diameter: Fraction
    spectral_mu: Fraction

    def __post_init__(self) -> None:
        if self.metric.size < 2:
            raise PreconditionError("gap bracketing needs at least two points")
        if self.weighting.total != 0 or self.weighting.total_mass != 1:
            raise InternalCheckError("bracket weighting is not normalized")
        if gamma(self.metric, self.weighting) != self.lower:
            raise InternalCheckError("bracket lower bound is not certified")
        G, _ = _scaled_gram(self.metric, None)
        if not _mu_certifies(G, self.metric.den, self.spectral_mu):
            raise _MuNotCertified("spectral_mu does not bound the spectrum")
        if self.lower > self.upper:
            raise InternalCheckError("bracket is empty")
        if self.upper != min(self.upper_spectral, self.upper_diameter):
            raise InternalCheckError("bracket upper bound inconsistent")
        if self.upper_diameter != self.metric.diameter() / 4:
            raise InternalCheckError("diameter bound is not diam/4")
        if self.upper_spectral != _spectral_bound(self.spectral_mu, self.metric.size):
            raise InternalCheckError("spectral bound does not follow from spectral_mu")


def _spectral_bound(mu: Fraction, n: int) -> Fraction:
    """The bound on sup gamma over n points that a certified ``mu`` gives."""
    return mu / 2 if mu >= 0 else mu / (2 * n)


def _float_snap(v: np.ndarray) -> list[int]:
    """The integer vector c of the raw floats of v, centred as in
    ``_snap_block`` with a the floats times the lcm of their power-of-two
    denominators.  Its entries can be far past int64, so it is built and
    scored on Python ints."""
    ratios = [x.as_integer_ratio() for x in v.tolist()]
    lcm = math.lcm(*(d for _, d in ratios))
    a = [p * (lcm // d) for p, d in ratios]
    total = sum(a)
    return [len(a) * x - total for x in a]


def _snap_block(E: np.ndarray) -> np.ndarray:
    """The integer vectors c whose weightings c / sum|c| are the snaps of the
    rows of E to every snap denominator, as the int64 rows of one block: the
    rows of E snapped to the first denominator, then to the next, and so on.

    Centring and normalising a / q, for integers a and any q > 0, gives
    c / sum|c| with c_i = n a_i - sum a, so q drops out.  Here a = round(q v),
    taken by ``np.rint`` on the float products of one broadcast, each the
    IEEE product of v_i and q, so the round half to even of Python's
    ``round(v_i * q)``.  A row that centres to zero gives no vector; the
    scorer drops it.  The rows of E are projected, so |q v_i| <= q.
    """
    A = np.rint(E[None] * _SNAP_Q).astype(np.int64)
    return (A * E.shape[1] - A.sum(axis=2, keepdims=True)).reshape(-1, E.shape[1])


def _weighting_of(c: Sequence[int]) -> Weighting:
    """The weighting c / sum|c| of a nonzero integer vector."""
    mass = sum(map(abs, c))
    return Weighting(tuple((i, Fraction(ci, mass)) for i, ci in enumerate(c) if ci))


# (c^T D c, sum|c|, c) of a candidate c reduced by its gcd, on Python ints
_Score = tuple[int, int, tuple[int, ...]]


def _score(D: Sequence[Sequence[int]], raw: Sequence[int]) -> _Score:
    """The score of one nonzero integer vector, on Python ints."""
    g = math.gcd(*raw)
    c = tuple(x // g for x in raw)
    energy = sum(map(operator.mul, c, [sum(map(operator.mul, row, c)) for row in D]))
    return energy, sum(map(abs, c)), c


def _ahead(a: _Score, b: _Score) -> int:
    """Positive, zero or negative as the ratio c^T D c / (sum|c|)^2 of the
    score a is above, at or below that of b."""
    return a[0] * b[1] ** 2 - b[0] * a[1] ** 2


def _block_scorer(D: Sequence[Sequence[int]]) -> Callable[[np.ndarray], Iterator[_Score]]:
    """Scores of the rows of an int64 block that can be its best candidate.

    The block's zero rows are dropped and the rest reduced by their gcds.  A
    row c with sum|c|^2 max D < 2^62 bounds every partial sum of c^T D c
    below 2^62, so its energy comes from one int64 product C @ D; any other
    row is scored by ``_score`` and always yielded.  Of the int64 rows only
    the distinct ones whose float ratio energy / sum|c|^2 is within a
    relative 2^-45 of the block's largest are yielded.  Floats only propose
    here: each ratio is within a relative 2^-51 of the exact one (the mass
    is exact, and the energy, the square and the quotient are rounded once
    each), so every row holding the exact maximum is within 2^-49 of the
    largest float and is yielded; ``_best_vector`` decides on integers.
    """
    top = max(map(max, D), default=0)
    limit = math.isqrt((_INT64_SAFE - 1) // max(top, 1))
    D64 = np.array(D, dtype=np.int64) if limit else None

    def score(C: np.ndarray) -> Iterator[_Score]:
        C = C[C.any(axis=1)]
        C //= np.gcd.reduce(C, axis=1)[:, None]
        mass = np.abs(C).sum(axis=1)
        fits = mass <= limit
        for c in C[~fits].tolist():
            yield _score(D, c)
        C, mass = C[fits], mass[fits]
        if len(C):
            energy = np.einsum("ij,ij->i", C @ D64, C)
            ratio = energy / mass.astype(float) ** 2
            best = ratio.max()
            r = np.flatnonzero(ratio >= best - abs(best) * 2.0**-45)
            yield from dict.fromkeys(
                zip(energy[r].tolist(), mass[r].tolist(), map(tuple, C[r].tolist()))
            )

    return score


def _raw_snap_bounds(d_norm: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Per row v of E, a float above rho / top, or inf where none is proven,
    where rho is the ratio c^T D c / (sum|c|)^2 of the snap c of v's raw
    floats (``_float_snap``), top = max D > 0, and d_norm is D / top, each
    entry within a relative 2u of its value (u = 2^-53).

    Proof.  Write A = D / top, whose entries lie in [0, 1], S = sum v,
    V = sum|v|, |x| for the l1 norm, gamma_k = k u / (1 - k u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3), and
    primes for the floats computed here.  The raw snap is a positive
    multiple of y = v - (S / n) 1, so rho / top = y^T A y / |y|^2.
    - If |x - y| <= eps |y| with eps < 1, the ratios of x and y differ by
      at most 4 eps / (1 - eps)^2: (x - y)^T A (x + y) is at most
      (2 + eps) eps |y|^2, |y^T A y| at most |y|^2, and |x| lies within
      eps |y| of |y|.  Here x = v, |v - y| = |S| and |y| >= V - |S|.
    - e' = v . (d_norm v), summed in any order with or without fma, is
      within gamma_(2n+2) V^2 of v^T A v; V' and S' = fl(sum v) are within
      gamma_(n-1) V of V and S; so r' = e' / V'^2 is within gamma_(4n+2)
      of a = v^T A v / V^2, as |a| <= 1.
    Where 8 |S'| <= V' and 1/2 <= V' <= 2, as for every ascent end, which
    was just divided by its mass, these give eps < 1/6 and, for any
    n < 2^30, rho / top <= r' + 7 |S'| / V' + 11 n u.  The bound takes
    8 |S'| / V', which stays above 7 |S'| / V' after its rounding, and adds
    (n + 1) 2^-48 = 32 (n + 1) u, which covers the two roundings of its
    sum, the rounding of the float of the exact ratio it is compared with
    (at most 1 in size, so within u) and underflow, which moves no sum by
    more than n^3 2^-1070.  So a bound below the float of an exact ratio
    proves rho strictly below that ratio.
    """
    n = E.shape[1]
    energy = np.einsum("ij,ij->i", E @ d_norm, E)
    mass = np.add.reduce(np.abs(E), axis=1)
    drift = np.abs(np.add.reduce(E, axis=1)) / mass
    bound = energy / (mass * mass) + 8 * drift + (n + 1) * 2.0**-48
    proven = (8 * drift <= 1) & (mass >= 0.5) & (mass <= 2)
    return np.where(proven, bound, np.inf)


def _snap_scores(
    D: Sequence[Sequence[int]], d_norm: np.ndarray, ends: list[np.ndarray], pair: _Score
) -> Iterator[_Score]:
    """Scores of the snaps of the ascent ends that can win against ``pair``.

    The snaps to every denominator form one int64 block, so the scorer's
    filter keeps only those near the best of them all.  The snap of an
    end's raw floats, on Python ints, is scored only where its float bound
    (``_raw_snap_bounds``) reaches the best exact ratio so far, of the pair,
    the block and the raw snaps scored before it.  A raw snap passed over
    is provably below a candidate that ``_best_vector`` also sees, and that
    order is total, so the winner is the one scoring every snap gives.
    """
    E = np.array(ends).reshape(len(ends), len(D))
    best = pair
    for s in _block_scorer(D)(_snap_block(E)):
        yield s
        if _ahead(s, best) > 0:
            best = s
    top = max(map(max, D))
    for v, bound in zip(E, _raw_snap_bounds(d_norm, E).tolist()):
        # int / int rounds correctly
        if bound < best[0] / (best[1] ** 2 * top):
            continue
        c = _float_snap(v)
        if any(c):
            s = _score(D, c)
            yield s
            if _ahead(s, best) > 0:
                best = s


def _best_vector(m: FiniteMetric, scores: Iterable[_Score]) -> tuple[Fraction, Weighting]:
    """gamma and weighting of the best scored candidate c / sum|c|.

    With M = sum|c|, gamma(c / M) is c^T D c / (2 M^2 den), so two candidates
    compare by cross-multiplying c^T D c with the other's M^2.  An exact tie
    goes to the smaller ``Weighting.entries``, made once per vector that
    ties; they and the winner's are the only Fractions made.  This is a total
    order on candidates, so the order of ``scores`` does not matter.
    """
    entries = cache(lambda c: _weighting_of(c).entries)
    best: Optional[_Score] = None
    for s in scores:
        if best is not None:
            ahead = _ahead(s, best)
            if ahead < 0 or (ahead == 0 and not entries(s[2]) < entries(best[2])):
                continue
        best = s
    assert best is not None
    energy, mass, c = best
    return Fraction(energy, 2 * mass * mass * m.den), _weighting_of(c)


def _factor_certifies(S: list[list[int]]) -> bool:
    """Whether an integer factor proves the symmetric integer matrix S, held
    by its lower triangle, positive semidefinite; False means undecided.

    With t = max diag S, sigma = max(t >> 30, 1) and f the bit length of
    8 n^2 (isqrt(t) + 1) // sigma, R is the Cholesky factor of
    4^f (S - sigma I) taken row by row on integers:
    R_ii = isqrt of what the earlier entries of row i leave of the diagonal,
    R_ij the nearest integer to what they leave of entry (i, j) over R_jj.
    The residual E = 4^f S - R R^T falls out of the same pass, exactly: E_ij
    is the remainder of that rounding, at most R_jj / 2 in size, and E_ii
    is 4^f sigma plus the remainder of the isqrt.  If every E_ii is at least
    sum_{j != i} |E_ij|, E is positive semidefinite (Gershgorin), and so is
    S = (R R^T + E) / 4^f.  The check is exact, so any sigma and f are sound.
    These make the rounding small against 4^f sigma: every R_jj is below
    2^f (isqrt(t) + 1), so once every pivot is positive the check
    holds, and the factor is undecided only where S - sigma I has a
    nonpositive pivot.  A mu rung's slack keeps the smallest eigenvalue of S
    well above sigma.
    """
    n = len(S)
    top = max((S[i][i] for i in range(n)), default=0)
    if top <= 0:
        # empty, or no positive pivot to start from: left to the elimination
        return not n
    sigma = max(top >> 30, 1)
    f = (8 * n * n * (math.isqrt(top) + 1) // sigma).bit_length()
    scale = 4**f
    R: list[list[int]] = []
    diag: list[int] = []
    spill = [0] * n  # sum over j != i of |E_ij|
    for i, row in enumerate(S):
        Ri: list[int] = []
        for j, Rj in enumerate(R):
            left = scale * row[j] - sum(map(operator.mul, Ri, Rj))
            p = Rj[j]
            q = (2 * left + p) // (2 * p)
            e = abs(left - q * p)
            spill[i] += e
            spill[j] += e
            Ri.append(q)
        left = scale * (row[i] - sigma) - sum(map(operator.mul, Ri, Ri))
        if left <= 0:
            return False
        p = math.isqrt(left)
        Ri.append(p)
        R.append(Ri)
        diag.append(scale * sigma + left - p * p)
    return all(map(operator.ge, diag, spill))


def _mu_certifies(G: list[list[int]], den: int, mu: Fraction) -> bool:
    """Whether mu M2 + G / den is positive semidefinite, with M2 = I + J and
    G the integer Gram matrix at the last point (``_scaled_gram(m, None)``).

    In the basis e_i - e_{n-1} of the zero-sum subspace, x = (y, -sum y),
    the quadratic form of D is x^T D x = -y^T (G / den) y and x^T x is
    y^T M2 y.  With mu = a / b the tested matrix is the integer matrix
    a den M2 + b G over b den.  An integer factor (``_factor_certifies``)
    proves it semidefinite; where the factor is undecided, the verdict of
    its elimination decides, so the answer never depends on the factor.
    """
    a, b = mu.numerator * den, mu.denominator
    shifted = [[a + b * x for x in row[: i + 1]] for i, row in enumerate(G)]
    for i, row in enumerate(shifted):
        row[i] += a
    return _factor_certifies(shifted) or _eliminate(shifted).direction is None


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    """The least multiple of a power of two at least x, with about ``bits``
    significant bits."""
    unit = Fraction(2) ** (abs(x.numerator).bit_length() - x.denominator.bit_length() - bits)
    return math.ceil(x / unit) * unit


def _mu_ladder(m: FiniteMetric, G: list[list[int]]) -> Iterator[Fraction]:
    """Candidates for mu: float proposals with growing slack, then n * diameter.

    The float estimate is the largest eigenvalue of the pencil (-G / den, M2).
    With k = n - 1, M2^(-1/2) = T = I + c J for c = (1/sqrt(k+1) - 1) / k
    (since J^2 = k J), so it is the largest eigenvalue of the symmetric
    T (-G / den) T.  Rung r adds the slack 2^(8r - 26) (|est| + diameter) and
    rounds up to a dyadic rational, whose small denominator keeps the exact
    test on small integers.  The slack is the margin the test's integer
    factor needs to decide without the elimination; the bound n * diameter
    always passes, by the elimination if not by the factor.
    """
    n, den, diameter = m.size, m.den, m.diameter()
    k = n - 1
    # int / int rounds correctly, so these are the floats of the entries of -G / den
    T = np.eye(k) + (1 / math.sqrt(k + 1) - 1) / k
    est = float(np.linalg.eigvalsh(T @ np.array([[-x / den for x in row] for row in G]) @ T)[-1])
    if math.isfinite(est):
        scale = abs(Fraction(est)) + diameter
        for r in range(_MU_RUNGS):
            slack = scale * Fraction(2) ** (8 * r - 26)
            yield _dyadic_ceil(Fraction(est) + slack, _MU_BITS)
    yield n * diameter


def _ascend_all(
    d_norm: np.ndarray, starts: np.ndarray, iters: int
) -> list[Optional[np.ndarray]]:
    """Projected gradient ascent of w^T d_norm w / 2 from each row of ``starts``.

    All runs advance in lockstep as the rows of one block, and each row takes
    bit for bit the steps a run from it alone would: step 0.25 along the
    gradient, projection back to {sum = 0, total mass = 1}, and the step
    shrunk by 0.9 whenever the energy fails to improve on the best so far.
    A row is centred by its sum, taken by the same reduction a single vector
    gets, and divided by its mass, one operation per entry.  The products
    are stacked matmuls, which numpy runs one row at a time with the kernel
    a single vector gets: a gemv for the gradient d_norm @ w, a dot for
    w^T g.  One gemm of the whole block would round differently in the last
    bits and move the snaps of the raw floats.

    The loop allocates no array.  The iterate W and its gradient G are two
    row buffers that swap roles every step: W + step G and its projection
    are formed in G's buffer, which becomes the next iterate, and W's buffer
    takes the absolute values for the mass, then the next gradient.  Their
    3-D matmul views are made with the buffers, and every ufunc writes to an
    ``out`` buffer.  A row whose mass falls below 1e-300 has no direction:
    its run ends before the division, with its best iterate, and the
    buffers are made again for the rows left.  One ``np.fmin`` reduction
    tests every row, as it skips NaN as ``mass < 1e-300`` does.
    Returns, per start, the best iterate, or None if the start itself does
    not project.
    """
    ends: list[Optional[np.ndarray]] = [None] * len(starts)
    rows = np.arange(len(starts))
    D3, n = d_norm[None], len(d_norm)
    # a Python scalar operand is converted on every call, a 0-d array is not
    size, two, shrink = np.array(float(n)), np.array(2.0), np.array(0.9)
    # the starts, centred, waiting for the division by their masses
    G = np.array(starts, dtype=float)
    G -= (np.add.reduce(G, axis=1) / n)[:, None]
    mass = np.add.reduce(np.abs(G), axis=1)
    step = np.full(len(rows), 0.25)
    best: Optional[np.ndarray] = None
    for it in range(iters + 1):
        if best is None or np.fmin.reduce(mass) < 1e-300:
            kept = ~(mass < 1e-300)
            if best is not None:
                for r in np.flatnonzero(~kept):
                    ends[rows[r]] = best[r]
                best, best_energy = best[kept], best_energy[kept]
            rows, G, mass, step = rows[kept], G[kept], mass[kept], step[kept]
            if not len(rows):
                break
            W = np.empty_like(G)
            W_row, W_col, G_row, G_col = W[:, None, :], W[:, :, None], G[:, None, :], G[:, :, None]
            total, energy, better = np.empty(len(G)), np.empty(len(G)), np.empty(len(G), dtype=bool)
            total_col, mass_col, step_col, better_col = (
                total[:, None], mass[:, None], step[:, None], better[:, None]
            )
            energy3 = energy[:, None, None]
        np.divide(G, mass_col, G)
        W, W_row, W_col, G, G_row, G_col = G, G_row, G_col, W, W_row, W_col
        np.matmul(D3, W_col, G_col)
        np.matmul(W_row, G_col, energy3)
        np.divide(energy, two, energy)
        if best is None:
            best, best_energy = W.copy(), energy.copy()
        else:
            np.greater(energy, best_energy, better)
            np.copyto(best, W, where=better_col)
            np.copyto(best_energy, energy, where=better)
            # shrink once the fixed step starts overshooting the optimum
            np.logical_not(better, better)
            np.multiply(step, shrink, step, where=better)
        if it == iters:
            break
        # W + step G, centred, in G's buffer; W's buffer takes |G| for the mass
        np.multiply(G, step_col, G)
        np.add(G, W, G)
        np.add.reduce(G, 1, None, total)
        np.divide(total, size, total)
        np.subtract(G, total_col, G)
        np.absolute(G, W)
        np.add.reduce(W, 1, None, mass)
    for r, i in enumerate(rows):
        ends[i] = best[r]
    return ends


def gap_bracket(
    m: FiniteMetric,
    starts: int = 24,
    iters: int = 200,
    seed: int = 0,
) -> GapBracket:
    """Bracket sup of gamma over {sum = 0, total mass = 1} weightings.

    The lower bound is the exact maximum of gamma over a deterministic
    candidate set: all two-point weightings (e_j - e_k)/2 and rational snaps
    of multi-start projected gradient ascent runs.  The upper bound combines
    a certified spectral bound with the diameter bound diam/4.
    """
    n = m.size
    if n < 2:
        raise PreconditionError("gap bracketing needs at least two points")
    if starts < 0 or iters < 0:
        raise PreconditionError("starts and iters must be nonnegative")

    # Every candidate is an integer vector c standing for c / sum|c|.  Of the
    # pairs e_j - e_k (gamma = -D_jk / 4 den) only the best can win; ties
    # among them go to the first (j, k), whose entries are smallest.
    D = m.D
    j, k = min(itertools.combinations(range(n), 2), key=lambda jk: D[jk[0]][jk[1]])
    pair = [int(i == j) - int(i == k) for i in range(n)]

    snaps: Iterable[_Score] = ()
    pair_score = _score(D, pair)
    diameter = m.diameter()
    if diameter > 0:
        # Scale-free search matrix: gamma is positively homogeneous in d, so
        # searching d / diam and evaluating exactly on d changes nothing.
        # int / int rounds correctly, as float(Fraction) does.
        top = max(map(max, D))
        d_norm = np.array([[x / top for x in row] for row in D])
        rng = random.Random(seed)
        rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(starts)]
        ends = _ascend_all(d_norm, np.array(rows).reshape(starts, n), iters)
        snaps = _snap_scores(D, d_norm, [e for e in ends if e is not None], pair_score)

    lower, argmax = _best_vector(m, itertools.chain([pair_score], snaps))
    diam_bound = diameter / 4
    # the bracket of the first rung whose mu passes the constructor's test
    ladder = list(_mu_ladder(m, _scaled_gram(m, None)[0]))
    for rung, mu in enumerate(ladder):
        spectral = _spectral_bound(mu, n)
        try:
            return GapBracket(
                metric=m,
                lower=lower,
                weighting=argmax,
                upper=min(spectral, diam_bound),
                upper_spectral=spectral,
                upper_diameter=diam_bound,
                spectral_mu=mu,
            )
        except _MuNotCertified:
            if rung == len(ladder) - 1:
                raise


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def positive_eigenvalue_count(m: FiniteMetric) -> int:
    """Number of positive eigenvalues of the distance matrix, counted exactly.

    The characteristic polynomial of the integer matrix ``m.D`` comes from
    the Faddeev-LeVerrier recursion M_k = D M_(k-1) + c_(k-1) I with
    c_k = -tr(D M_k) / k, whose divisions are exact on integers.  Its roots,
    the eigenvalues of a real symmetric matrix, are all real, so by
    Descartes' rule of signs the sign changes among its nonzero
    coefficients are exactly the positive roots.
    """
    D, n = m.D, m.size
    coeffs = [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        M = [[sum(map(operator.mul, row, col)) for col in zip(*M)] for row in D]
        c, rem = divmod(-sum(M[i][i] for i in range(n)), k)
        if rem:
            raise InternalCheckError("characteristic polynomial has a non-integer coefficient")
        coeffs.append(c)
        for i in range(n):
            M[i][i] += c
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in itertools.pairwise(signs))


# ---------------------------------------------------------------------------
# implication chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Joint status of the embeddability conditions on one metric.

    ``l1_embeddable`` is None when the metric exceeds the cut LP size cap.
    ``positive_eigenvalues`` is the exact count of positive eigenvalues of
    the distance matrix, None below two points.  ``violations`` lists broken
    implications; any entry signals a bug."""

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
    with a nonzero distance must have exactly one positive eigenvalue
    (Schoenberg); any breach is reported (and is a bug, never an expected
    outcome).  All three are decided exactly: the count comes from the
    characteristic polynomial, independently of the negative-type decision,
    where floats only propose.
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
