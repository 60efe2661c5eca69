"""Exact l1-embeddability via cut-cone membership.

A finite metric embeds isometrically in some l1 space exactly when it is a
nonnegative combination of cut metrics.  With points indexed 0..n-1 and cuts
canonicalized to contain point 0, that is a rational feasibility LP with
2^(n-1) - 1 columns.  The solver here is an exact revised simplex whose
verdicts are certificates: feasibility returns the combination itself
(re-verified on construction), infeasibility returns a separating pair-weight
vector checked against every cut.

Cheap exact certificates come first.  A metric that is not of negative type
is refuted by the pair functional omega_i omega_j of its violating weighting
(CUT_n is inside NEG_n), with no LP at all.  Otherwise the equality face
decides, at every size: the cuts that keep every equality d(i, k) =
d(i, j) + d(j, k) hold every decomposition (Deza and Laurent, Geometry of
Cuts and Metrics, 1997), so the exact simplex on the face alone decides
membership, whether or not the face's columns are independent.  Objective
0 gives a decomposition.  A positive objective gives the face LP's dual y,
and with w the summed equality functionals, which vanish on the metric and
are positive exactly on the cuts off the face, y - lambda w separates the
metric from every cut for the least such lambda.  A face that is every cut
makes that the full exact problem.  Face columns that are linearly
independent hold at most one decomposition (the l1-rigid case), so a face
of at most one cut per pair first has one exact solve of its normal
equations on integers find it, and the simplex runs only where that
fails.  A face of more cuts than pairs, such as every cut of a star's
leaves, first has a float64 run of the same phase-1 simplex, priced by
the same recurrence, propose a small support for that one exact solve.
The face's size alone picks the route, whatever the number of points.
Floats only ever propose or screen: every verdict is a certificate that
passed its exact constructor.

The exact simplex is fraction-free: each row of B^-1 is a sparse dict of
integers over its own positive denominator, a row a pivot rewrites is the
adjugate row over the determinant of B, and a row the entering column
misses is left as it is.  Every division is exact, so it makes the
comparisons a simplex over the rationals would make, on Python ints.
Pricing, over a face or over every cut, the equality face itself, lambda
and the all-cuts check of a separating vector go through one routine,
``_cut_scores``: each pair's integer weight is split into signed limbs
small enough that one limb's crossing sums fit in int64, and each limb is
summed over every cut by a subset-sum recurrence over the masks, O(2^n)
int64 operations in O(n) numpy calls, or over a face of at most one cut
per pair by one int64 product with that face's crossing block; more than
one limb is recombined exactly on Python ints.  Which pairs a cut crosses
is read from its two sides: a ``Cut``'s members against the rest, or its
mask's column of ``_crossing_block``.  No route builds the crossing matrix
of every cut.  A decomposition is checked on integers at any size:
its weights over one denominator are added into an n x n matrix, one
inside x outside block per cut, and compared with the metric's integers.
Metrics above 20 points, and separating vectors over more than 20 points,
are refused before any cut is enumerated.  The float proposal needs
numpy alone: a dense B^-1 of at most 190 x 190.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .analysis import _eliminate, _solve, is_negative_type
from .core import _INT64_SAFE, FiniteMetric, Vertex, distance_matrix, subdivide
from .errors import InternalCheckError, PreconditionError
from .families import FamilySpec, from_spec


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cut:
    """A bipartition of n points, stored as the side containing point 0."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise PreconditionError("cuts need at least two points")
        m = self.members
        if not m or m[0] != 0:
            raise PreconditionError("canonical cuts contain point 0")
        if len(m) >= self.n:
            raise PreconditionError("cut complement must be nonempty")
        last = -1
        for i in m:
            if not isinstance(i, int) or i <= last or i >= self.n:
                raise PreconditionError(f"bad cut members {m!r}")
            last = i

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "Cut":
        side = set(members)
        if 0 not in side:
            side = set(range(n)) - side
        return cls(n=n, members=tuple(sorted(side)))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Cut":
        # Bit t of the mask puts point t + 1 on point 0's side.
        members = [0] + [t + 1 for t in range(n - 1) if mask >> t & 1]
        return cls(n=n, members=tuple(members))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends i < j of every pair of n points, in itertools.combinations
    order (read-only)."""
    ends = np.triu_indices(n, 1)
    for a in ends:
        a.flags.writeable = False
    return ends


def _crossing_block(n: int, masks) -> np.ndarray:
    """Bool pairs x masks matrix: entry (k, c) is true when pair k (in
    itertools.combinations order) crosses the cut of canonical mask
    ``masks[c]``."""
    masks = np.asarray(masks, dtype=np.int64)
    side = np.ones((n, len(masks)), dtype=bool)  # side[v]: v on point 0's side
    side[1:] = (masks >> np.arange(n - 1)[:, None]) & 1
    i, j = _pair_index(n)
    return side[i] != side[j]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _primitive_integers(values: Sequence[Fraction]) -> list[int]:
    """The integer vector with gcd 1 that is a positive multiple of ``values``
    (all zeros for a zero vector)."""
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _subset_sums(n: int, limb: np.ndarray) -> np.ndarray:
    """Crossing sums of one int64 limb of pair weights, or of the float64
    dual of the float proposal, over every proper canonical cut, indexed by
    mask, in O(2^n) element operations and O(n) numpy calls, in the dtype of
    ``limb``.

    Bit t of a mask puts point p = t + 1 on point 0's side, so the masks
    below 2^(t+1) are those below 2^t and the same with p added.  Adding p
    to a side S changes the cut's sum by gain(S, p) = rowsum_p - 2 sum over
    i in S of w_ip, and then each later point's gain by -2 w_pv.  So each
    step doubles the score vector with p's gains and the gain matrix
    (later points x masks so far) with its rows less 2 w_pv, dropping p's
    row.  A cut's sum has at most 190 limb terms and rowsum_p - 2 sum_S w_ip
    at most 3 * 19 limb terms' worth, so every partial sum stays below
    (190 + 3 * 19) * 2^_LIMB_BITS < 2^62."""
    W = np.zeros((n, n), dtype=limb.dtype)
    W[_pair_index(n)] = limb
    W += W.T
    rowsum, twice = W.sum(axis=1), 2 * W
    scores = np.empty(1 << (n - 1), dtype=limb.dtype)
    scores[0] = rowsum[0]
    gain = (rowsum[1:] - twice[0, 1:])[:, None]  # row v - 1 - t: point v
    for t in range(n - 1):
        h = 1 << t
        np.add(scores[:h], gain[0], out=scores[h : 2 * h])
        if t + 2 < n:
            rest = gain[1:]
            gain = np.empty((len(rest), 2 * h), dtype=limb.dtype)
            gain[:, :h] = rest
            np.subtract(rest, twice[t + 1, t + 2 :, None], out=gain[:, h:])
    return scores[:-1]


def _cut_scores(
    n: int, pair_weights: Sequence[int], block: Optional[np.ndarray] = None
) -> np.ndarray:
    """Crossing sums of every proper canonical cut, indexed by mask, or of
    the columns of ``block``, an int64 ``_crossing_block``; exact for
    integer weights of any size.

    Each weight is split into signed limbs below 2^_LIMB_BITS, so one limb's
    sums fit in int64.  A limb is summed over every cut by ``_subset_sums``,
    or over the block by one int64 product.  One limb gives the int64 vector
    itself; more are combined from the top one down into an object vector
    of Python ints.  Above MAX_CUT_POINTS points this refuses before any
    cut is scored.
    """
    if n > MAX_CUT_POINTS:
        raise PreconditionError(f"{n} points; cut sums stop at {MAX_CUT_POINTS}")
    bits = max((abs(w).bit_length() for w in pair_weights), default=0)
    low = (1 << _LIMB_BITS) - 1
    scores = None
    for shift in reversed(range(0, max(bits, 1), _LIMB_BITS)):
        limb = np.array(
            pair_weights  # one limb: the weights themselves
            if bits <= _LIMB_BITS
            else [(abs(w) >> shift & low) * (1 if w > 0 else -1) for w in pair_weights],
            dtype=np.int64,
        )
        part = _subset_sums(n, limb) if block is None else limb @ block
        scores = part if scores is None else (scores.astype(object) << _LIMB_BITS) + part
    return scores


def _gray_rank(masks):
    """Position in the Gray-code walk of a mask, or of each mask of an int64
    array: the inverse Gray code, exact for masks below 2^32 (cut masks
    have at most MAX_CUT_POINTS - 1 bits)."""
    rank = masks
    for shift in (1, 2, 4, 8, 16):
        rank = rank ^ (rank >> shift)
    return rank


def _lowest_gray_rank(masks: np.ndarray) -> int:
    """The mask that the Gray-code walk reaches first among ``masks``."""
    return int(masks[np.argmin(_gray_rank(masks))])


@dataclass(frozen=True)
class FarkasCertificate:
    """Pair weights separating a metric from the cut cone.

    Invariants (checked exactly on construction): the weighted crossing sum
    is nonpositive for every canonical cut, while the weighted sum against
    the metric's own distances is strictly positive.  Both are tested on
    the primitive integer multiple z of the weights, z . D against the
    metric's integers and every cut by one ``_cut_scores`` recurrence.  A
    failure names the first failing cut of the Gray-code walk.  Above
    MAX_CUT_POINTS points the check, which visits 2^(n-1) - 1 cuts, is
    refused before it starts."""

    metric: FiniteMetric
    pair_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = self.metric.size
        if n < 1:
            raise PreconditionError("l1 decision needs at least one point")
        if n > MAX_CUT_POINTS:
            raise PreconditionError(
                f"separating vector over {n} points; cut checks stop at {MAX_CUT_POINTS}"
            )
        pairs = list(itertools.combinations(range(n), 2))
        if len(self.pair_values) != len(pairs):
            raise PreconditionError("certificate has the wrong number of pair weights")
        z = _primitive_integers(self.pair_values)
        D = self.metric.D
        if sum(v * D[i][j] for v, (i, j) in zip(z, pairs)) <= 0:
            raise InternalCheckError("separating vector does not cut off the metric")
        positive = np.flatnonzero(_cut_scores(n, z) > 0)
        if len(positive):
            raise InternalCheckError(
                f"separating vector fails on the cut with mask {_lowest_gray_rank(positive)}"
            )


@dataclass(frozen=True)
class CutDecomposition:
    """A nonnegative cut combination reproducing a metric exactly.

    Checked on construction, on integers and at any size: with the weights
    over one denominator q, each cut's integer weight is added over its
    inside x outside block of an n x n matrix M, and every pair i < j, in
    ``itertools.combinations`` order, must have M[i][j] + M[j][i] over q
    equal to D[i][j] over den.  The arithmetic is int64 while every product
    it forms stays below ``_INT64_SAFE``, and on Python ints past that."""

    metric: FiniteMetric
    entries: tuple[tuple[Cut, Fraction], ...]

    def __post_init__(self) -> None:
        m = self.metric
        n = m.size
        if n < 1:
            raise PreconditionError("l1 decision needs at least one point")
        for cut, weight in self.entries:
            if cut.n != n:
                raise PreconditionError("cut size does not match the metric")
            if weight <= 0:
                raise PreconditionError("decomposition weights must be positive")
        fault = _reproduction_fault(m, self.entries)
        if fault is not None:
            raise InternalCheckError(fault)


def _reproduction_fault(
    m: FiniteMetric, entries: Sequence[tuple[Cut, Fraction]]
) -> Optional[str]:
    """None when the weighted cuts ``entries`` reproduce the metric exactly,
    else what they reproduce on the first pair that is wrong: the check of
    a ``CutDecomposition``, on integers and at any size, for cuts of the
    metric's size."""
    n = m.size
    q = lcm(*(w.denominator for _, w in entries))
    weights = [w.numerator * (q // w.denominator) for _, w in entries]
    safe = max(sum(weights) * m.den, max(map(max, m.D)) * q) < _INT64_SAFE
    dtype = np.int64 if safe else object
    M = np.zeros((n, n), dtype=dtype)
    for (cut, _), w in zip(entries, weights):
        inside = np.zeros(n, dtype=bool)
        inside[list(cut.members)] = True
        M[np.ix_(inside, ~inside)] += w
    wrong = np.triu((M + M.T) * m.den != np.array(m.D, dtype=dtype) * q, 1)
    if not wrong.any():
        return None
    i, j = (int(k) for k in np.argwhere(wrong)[0])
    return (
        f"decomposition reproduces {Fraction(int(M[i, j] + M[j, i]), q)} "
        f"instead of {Fraction(m.D[i][j], m.den)} on pair ({i}, {j})"
    )


# ---------------------------------------------------------------------------
# exact simplex (phase 1 feasibility)
# ---------------------------------------------------------------------------

_DEGENERATE_STREAK_LIMIT = 30
# No cut is scored above this many points: the int64 limbs below are sized
# for the cut sums of its pairs.
MAX_CUT_POINTS = 20
# The point bound ``is_l1_embeddable``, ``analysis.check_chain`` and the l1
# command apply unless told otherwise.
DEFAULT_MAX_POINTS = 14
# Signed limbs of this many bits: a cut sum of the at most 190 pairs of
# MAX_CUT_POINTS points plus a subset-sum gain of at most 3 * 19 limb terms
# stays below (190 + 3 * 19) * 2^54 < 2^62, inside int64.
_LIMB_BITS = 62 - (MAX_CUT_POINTS * (MAX_CUT_POINTS - 1) // 2).bit_length()
# The float proposal: values and prices above this count as nonzero, and it
# gives up after this many pivots.  The leaves of a star with edge lengths
# 1..k take 2 011 at k = 14 and 12 718 at k = 18, so the bound leaves room
# up to MAX_CUT_POINTS.  The float screen of ``_unique_decomposition`` turns
# away residuals and negative weights beyond the same tolerance.
_FLOAT_TOL = 1e-9
_FLOAT_PIVOTS = 100_000


class _Phase1:
    """Revised phase-1 simplex for {lambda >= 0 : sum lambda_S d_S = d}.

    ``is_l1_embeddable`` runs it on an equality face only where
    ``_unique_decomposition`` finds no decomposition: dependent columns,
    more cuts than pairs, no solution or a negative one.

    Starts from an all-artificial basis.  The columns are ``masks``, the
    sorted int64 array of the cut masks ``columns``.  Each pricing scan
    scores the gcd-reduced integer dual of any size with ``_cut_scores``,
    the routine that also checks a ``FarkasCertificate``: over the columns'
    int64 ``_crossing_block`` when there are at most as many columns as
    pairs, and otherwise over every cut by the subset-sum recurrence,
    indexed by ``masks``.  It zeroes the basic cuts.  The entering cut's
    pairs are its own ``_crossing_block`` column.  Pricing is steepest
    (largest positive crossing sum, ties to the lowest Gray-code rank),
    except that a run of ``_DEGENERATE_STREAK_LIMIT`` degenerate pivots
    switches to Bland's lowest-rank pricing, the positive cut of lowest
    Gray-code rank, until the next nondegenerate pivot.  Bland's rule cannot cycle, so every
    degenerate run ends, and the objective falls at every other pivot: the
    solve terminates.  An empty column set prices no cut.

    The arithmetic is fraction-free.  Row r of B^-1 is ``adj[r] / dens[r]``:
    a dict from column to its nonzero int entries over one positive integer
    per row.  Cut bases stay very sparse (685 nonzeros of 14 400 entries
    after the 12 pivots of the 16-point K4 solve), so the pivot update
    touches only stored nonzeros, and the entering direction, per row, the
    fewer of its stored nonzeros and the crossing pairs.  The basic value of
    row r is ``xs[r] / (dens[r] * m.den)`` with ``xs`` integers.  ``det`` is
    the determinant of B; it starts at 1 and stays positive, because each
    pivot multiplies it by a positive direction entry, and
    ``det * adj[r] / dens[r]`` is row r of the integer adjugate, so every
    rescaling by ``det / dens[r]`` divides exactly.  With sigma_r the
    entering column's crossing sum over ``adj[r]``, the direction is
    sigma_r / dens[r] and the ratio test compares xs_r / sigma_r.  A pivot
    on row ``row`` keeps that row's integers over s = sigma_row, sets each
    row r with sigma_r != 0 to its new adjugate row over the new determinant
    det' = det * s / dens[row], that is (s adj_r - sigma_r adj_row) * det
    divided by dens[r] * dens[row], and leaves every row with sigma_r = 0
    as it is.  The dual ``y`` is integers over ``det``, updated like a row:
    the entering cut costs 0, so y' = y - (y . a / direction_row) B^-1_row.
    Every sign test and ratio comparison is the one a simplex over the
    rationals makes, so are the pivots; ``Fraction``s appear only in
    ``solve``'s result and in ``decomposition``.  ``pivots``,
    ``degenerate_pivots`` and ``pricing_scans`` count the work done.
    """

    def __init__(self, m: FiniteMetric, columns: Sequence[int]):
        self.m = m
        self.n = m.size
        self.pairs = list(itertools.combinations(range(self.n), 2))
        self.rows = len(self.pairs)
        self.full_mask = (1 << (self.n - 1)) - 1
        if self.n > MAX_CUT_POINTS:
            raise PreconditionError(f"{self.n} points; cut LPs stop at {MAX_CUT_POINTS}")
        # sorted, as pricing assumes
        self.masks = np.array(sorted(set(columns)), dtype=np.int64)
        bad = self.masks[(self.masks < 0) | (self.masks >= self.full_mask)]
        if len(bad):
            raise PreconditionError(f"bad cut masks {bad.tolist()!r}")
        # a face of at most one cut per pair is priced over its own crossing
        # rows; a larger one over every cut, by the subset-sum recurrence
        self._block = (
            _crossing_block(self.n, self.masks).astype(np.int64)
            if len(self.masks) <= self.rows
            else None
        )
        # variable ids: cut masks, then artificials at full_mask + row
        self.art0 = self.full_mask
        self.basis = [self.art0 + r for r in range(self.rows)]
        self.adj: list[dict[int, int]] = [{r: 1} for r in range(self.rows)]
        self.dens = [1] * self.rows
        self.det = 1
        self.y = [1] * self.rows  # the dual times det: the artificials' costs
        self.xs = [m.D[i][j] for i, j in self.pairs]
        self.bland = False
        self.streak = 0
        self.pivots = 0
        self.degenerate_pivots = 0
        self.pricing_scans = 0

    # -- column geometry ----------------------------------------------------

    def _var_rank(self, var: int) -> int:
        # the fixed variable order of the anti-cycling rule: cuts by their
        # position in the Gray-code walk, then the artificials
        if var >= self.art0:
            return (1 << self.n) + (var - self.art0)
        return _gray_rank(var)

    # -- pricing ------------------------------------------------------------

    def _price(self, y: list[int]) -> Optional[int]:
        # det > 0, so the integer dual prices like the rational one
        self.pricing_scans += 1
        g = gcd(*y) or 1  # a zero dual prices no cut positive
        weights = [v // g for v in y]
        if self._block is None:
            scores = _cut_scores(self.n, weights)[self.masks]
        else:
            scores = _cut_scores(self.n, weights, self._block)
        scores[np.searchsorted(self.masks, [v for v in self.basis if v < self.art0])] = 0
        positive = np.flatnonzero(scores > 0)
        if not self.bland and len(positive):
            positive = positive[scores[positive] == scores[positive].max()]
        return _lowest_gray_rank(self.masks[positive]) if len(positive) else None

    # -- pivoting -----------------------------------------------------------

    def _ratio_test(self, direction: list[int]) -> int:
        # min x_r / D_r over D_r > 0 by cross-multiplying, ties to lowest
        # rank; row r's value and direction share the denominator dens[r]
        best_row, best_x, best_d, best_rank = -1, 0, 1, 0
        for r, d in enumerate(direction):
            if d <= 0:
                continue
            x, rank = self.xs[r], self._var_rank(self.basis[r])
            if best_row >= 0:
                lhs, rhs = x * best_d, best_x * d
                if lhs > rhs or (lhs == rhs and rank > best_rank):
                    continue
            best_row, best_x, best_d, best_rank = r, x, d, rank
        if best_row < 0:
            raise InternalCheckError("phase-1 ratio test found no leaving row")
        return best_row

    def _pivot(self, row: int, entering: int, direction: list[int], price: int) -> None:
        p, det, prow_den = direction[row], self.det, self.dens[row]
        prow, px = self.adj[row], self.xs[row]
        new_det = det * p // prow_den
        y = [p * v for v in self.y]
        for k, v in prow.items():
            y[k] -= price * v
        self.y = y if prow_den == 1 else [v // prow_den for v in y]
        for r, d in enumerate(direction):
            if r == row or d == 0:
                continue
            # (p adj_r - d adj_row) * det / (dens[r] * prow_den), in lowest terms
            q = self.dens[r] * prow_den
            g = det if self.dens[r] == det else gcd(det, q)
            mul, div = det // g, q // g
            pm, dm = p * mul, d * mul
            scaled = {k: pm * v for k, v in self.adj[r].items()}
            for k, v in prow.items():
                value = scaled.get(k, 0) - dm * v
                if value:
                    scaled[k] = value
                else:
                    scaled.pop(k, None)
            self.adj[r] = scaled if div == 1 else {k: v // div for k, v in scaled.items()}
            self.xs[r] = (pm * self.xs[r] - dm * px) // div
            self.dens[r] = new_det
        self.dens[row] = p
        self.det = new_det
        self.basis[row] = entering

    def objective(self) -> Fraction:
        total = sum(
            self.xs[r] * self.det // self.dens[r]
            for r, v in enumerate(self.basis)
            if v >= self.art0
        )
        return Fraction(total, self.det * self.m.den)

    def solve(self) -> tuple[Fraction, list[Fraction]]:
        """Run to optimality; returns (objective, dual y at optimum)."""
        while True:
            entering = self._price(self.y)
            if entering is None:
                return self.objective(), [Fraction(v, self.det) for v in self.y]
            crossing = np.flatnonzero(_crossing_block(self.n, [entering])).tolist()
            # each row walks the shorter of its entries and the crossing
            # pairs; a row looks the pairs up in C, a missing one as 0
            members, zeros = set(crossing), itertools.repeat(0)
            direction = [
                sum(map(arow.get, crossing, zeros))
                if len(arow) > len(crossing)
                else sum(v for k, v in arow.items() if k in members)
                for arow in self.adj
            ]
            row = self._ratio_test(direction)
            degenerate = self.xs[row] == 0
            self._pivot(row, entering, direction, sum(map(self.y.__getitem__, crossing)))
            self.pivots += 1
            if degenerate:
                self.degenerate_pivots += 1
                self.streak += 1
                if self.streak >= _DEGENERATE_STREAK_LIMIT:
                    self.bland = True
            else:
                self.streak = 0
                self.bland = False

    def decomposition(self) -> CutDecomposition:
        entries = tuple(
            (Cut.from_mask(self.n, var), Fraction(self.xs[r], self.dens[r] * self.m.den))
            for var, r in sorted((var, r) for r, var in enumerate(self.basis))
            if var < self.art0 and self.xs[r] > 0
        )
        return CutDecomposition(metric=self.m, entries=entries)


def _float_proposal(m: FiniteMetric, face: np.ndarray) -> Optional[list[int]]:
    """Candidate cut columns from a float64 phase-1 simplex on the face, or None.

    ``_Phase1``'s LP over the sorted masks ``face``, in float64: a dense
    B^-1 from the all-artificial basis, updated by a rank-one step per
    pivot.  Pricing is ``_Phase1``'s too: the dual is scored over every cut
    by ``_subset_sums`` and read on the face, the largest score above
    ``_FLOAT_TOL`` enters, ties to the lowest Gray-code rank, and a run of
    ``_DEGENERATE_STREAK_LIMIT`` degenerate pivots switches to Bland's
    pricing until the next nondegenerate one.  The entering column comes
    from ``_crossing_block``.  Returns the basic cuts worth more than
    ``_FLOAT_TOL`` once the artificials sum to at most ``_FLOAT_TOL``, and
    None when no cut prices positive first, when the ratio test finds no
    row or after ``_FLOAT_PIVOTS`` pivots.  The answer is only a proposal:
    ``_unique_decomposition`` decides on its columns, and the face LP
    decides alone where that finds nothing.
    """
    n = m.size
    rows = n * (n - 1) // 2
    art0 = (1 << (n - 1)) - 1  # variable ids as in _Phase1
    b = np.array([m.D[i][j] / m.den for i, j in zip(*_pair_index(n))])
    Binv = np.eye(rows)
    basis = art0 + np.arange(rows)
    rank = (1 << n) + np.arange(rows)  # _Phase1._var_rank of each basic variable
    streak = 0
    for _ in range(_FLOAT_PIVOTS):
        x = Binv @ b
        artificial = basis >= art0
        if x[artificial].sum() <= _FLOAT_TOL:
            return sorted(int(v) for v in basis[~artificial & (x > _FLOAT_TOL)])
        scores = _subset_sums(n, Binv[artificial].sum(axis=0))[face]
        scores[np.searchsorted(face, basis[~artificial])] = 0
        positive = np.flatnonzero(scores > _FLOAT_TOL)
        if not len(positive):
            return None
        if streak < _DEGENERATE_STREAK_LIMIT:
            positive = positive[scores[positive] == scores[positive].max()]
        entering = _lowest_gray_rank(face[positive])
        direction = Binv[:, _crossing_block(n, [entering])[:, 0]].sum(axis=1)
        # min x_r / direction_r over direction_r > 0, ties to the lowest rank
        eligible = np.flatnonzero(direction > _FLOAT_TOL)
        if not len(eligible):
            return None
        ratios = np.where(x[eligible] > _FLOAT_TOL, x[eligible], 0) / direction[eligible]
        tied = eligible[ratios == ratios.min()]
        row = tied[np.argmin(rank[tied])]
        streak = streak + 1 if x[row] <= _FLOAT_TOL else 0
        pivot_row = Binv[row] / direction[row]
        Binv -= np.outer(direction, pivot_row)
        Binv[row] = pivot_row
        basis[row], rank[row] = entering, _gray_rank(entering)
    return None


def _unique_decomposition(
    m: FiniteMetric, masks: Sequence[int]
) -> Optional[CutDecomposition]:
    """The decomposition over the sorted cut masks ``masks`` when their
    columns are linearly independent and it is nonnegative, else None.

    With C the 0/1 ``_crossing_block`` of the masks, independent columns
    hold at most one solution of C lambda = d, so this is the decomposition
    the exact simplex on the same columns finds: the positive lambda, in
    mask order.  Floats only screen: a least-squares solve on the distances
    over the largest one turns away columns of float rank below their
    count, a residual norm above ``_FLOAT_TOL`` or a weight below
    -``_FLOAT_TOL``, and whatever it turns away goes to the face LP, which
    finds the same decomposition where there is one.  Integers decide:
    ``_eliminate`` on the integer C^T C proves full column rank by one
    positive pivot per column, ``_solve`` on that elimination gives
    det(C^T C) lambda from the integer C^T d, its signs are tested exactly,
    and the ``CutDecomposition`` constructor tests C lambda = d once; a
    lambda it rejects goes to the face LP as well."""
    n, k = m.size, len(masks)
    if not k:
        return None
    crossing = _crossing_block(n, masks)
    dist = [m.D[i][j] for i, j in itertools.combinations(range(n), 2)]
    top = max(dist) or 1
    C, d = crossing.astype(float), np.array([v / top for v in dist])
    x, residual, rank, _ = np.linalg.lstsq(C, d, rcond=None)
    if rank < k or x.min() < -_FLOAT_TOL or residual.sum() > _FLOAT_TOL**2:
        return None
    block = crossing.astype(np.int64)
    el = _eliminate((block.T @ block).tolist())
    if len(el.pivots) < k:
        return None
    X = _solve(el, _cut_scores(n, dist, block).tolist())
    if min(X) < 0:
        return None
    den = el.pivots[-1] * m.den
    entries = tuple(
        (Cut.from_mask(n, int(mask)), Fraction(v, den)) for mask, v in zip(masks, X) if v
    )
    try:
        return CutDecomposition(metric=m, entries=entries)
    except InternalCheckError:
        return None


def _equality_face(m: FiniteMetric) -> tuple[list[int], np.ndarray]:
    """The tight-triple pair weights w of the metric and every cut's score
    w . delta_S by ``_cut_scores``, indexed by mask.  The equality face, the
    cuts that keep every equality d(i, k) = d(i, j) + d(j, k) with j
    distinct from i and k, is the set of masks scoring 0.

    Each equality adds e_ij + e_jk - e_ik to w, so w . d = 0.  Every cut
    semimetric satisfies the triangle inequality, so every cut scores
    w . delta_S >= 0, an integer that is positive exactly when the cut
    separates j from both i and k of some equality.  The equalities are
    integer tests on ``m.D``, in int64 while every sum stays below
    ``_INT64_SAFE`` and on Python ints past it."""
    n = m.size
    safe = 2 * max(map(max, m.D)) < _INT64_SAFE
    D = np.array(m.D, dtype=np.int64 if safe else object)
    tight = D[:, :, None] + D[None, :, :] == D[:, None, :]  # [i, j, k]
    # ordered weights: legs (i, j) and (j, k) count +1, the span (i, k) -1;
    # the trivial triples, j = i or j = k, add e_ik - e_ik = 0 off the diagonal
    W = tight.sum(axis=2) + tight.sum(axis=0) - tight.sum(axis=1)
    weights = [int(W[i, j] + W[j, i]) for i, j in itertools.combinations(range(n), 2)]
    return weights, _cut_scores(n, weights)


def _separating_vector(
    face_lp: _Phase1, w: Sequence[int], ws: np.ndarray
) -> tuple[Fraction, ...]:
    """z = y - lambda w from the dual y of an equality-face LP that ended
    with a positive objective, where w and ws come from ``_equality_face``.

    y . d > 0 and y . delta_S <= 0 on every face cut, while w . d = 0 and
    w . delta_S = ws_S > 0 off the face.  With lambda the largest
    (y . delta_S) / ws_S over the off-face cuts where y . delta_S > 0 (or 0
    if there are none), z . delta_S <= 0 on every cut and z . d = y . d > 0,
    so z separates d from the whole cut cone.  lambda is exact, from one
    ``_cut_scores`` pass of the integer dual; z is over ``det`` like y."""
    ys = _cut_scores(face_lp.n, face_lp.y)
    off = np.flatnonzero((ys > 0) & (ws > 0))
    lam = max((Fraction(int(ys[k]), int(ws[k])) for k in off), default=Fraction(0))
    return tuple((y - lam * wk) / face_lp.det for y, wk in zip(face_lp.y, w))


def is_l1_embeddable(
    m: FiniteMetric, max_points: int = DEFAULT_MAX_POINTS
) -> Union[CutDecomposition, FarkasCertificate]:
    """Decide cut-cone membership exactly; the answer carries its own proof.

    A metric that is not of negative type is refuted first and without any
    LP: the violating weighting omega of ``is_negative_type`` gives the pair
    functional omega_i omega_j, which sums to -(omega(S))^2 <= 0 over every
    cut S and to gamma(omega) > 0 against the metric (CUT_n is inside NEG_n).
    Otherwise the verdict comes from the equality face, at every size: a
    cut of positive weight must keep each equality d(i, k) = d(i, j) +
    d(j, k), since the weighted sum of the cuts' nonnegative slacks there
    is 0, so every decomposition uses only face cuts.  A face of at most
    one cut per pair goes to ``_unique_decomposition`` first, which returns
    the face's decomposition when its columns are independent (the metric
    is l1-rigid) and the one solution is nonnegative.  A face of more cuts
    than the metric has pairs, at any number of points, first has
    ``_float_proposal`` propose a small column set for the same solve.
    Otherwise the exact simplex on the face decides: objective 0 returns
    its decomposition, and a positive objective returns the separating
    vector ``_separating_vector`` builds from the face LP's dual, with no
    second LP.  Metrics above ``max_points`` or above 20 points are refused
    before anything is built.
    """
    n = m.size
    if n == 0:
        raise PreconditionError("l1 decision needs at least one point")
    if n > max_points:
        raise PreconditionError(
            f"metric has {n} points, above the configured bound {max_points}"
        )
    if n > MAX_CUT_POINTS:
        raise PreconditionError(
            f"metric has {n} points; cut-cone decisions stop at {MAX_CUT_POINTS}"
        )
    if n == 1:
        return CutDecomposition(metric=m, entries=())
    negative_type = is_negative_type(m)
    if not negative_type.verdict:
        omega = negative_type.violation.as_dense(n)
        return FarkasCertificate(
            metric=m,
            pair_values=tuple(
                omega[i] * omega[j] for i, j in itertools.combinations(range(n), 2)
            ),
        )
    w, ws = _equality_face(m)
    face = np.flatnonzero(ws == 0)
    # the face's size alone picks the route: a face of more cuts than pairs,
    # such as every cut of star leaves, first has floats propose a few columns
    columns = face if len(face) <= n * (n - 1) // 2 else _float_proposal(m, face)
    unique = None if columns is None else _unique_decomposition(m, columns)
    if unique is not None:
        return unique
    solver = _Phase1(m, columns=face)
    if solver.solve()[0] == 0:
        return solver.decomposition()
    return FarkasCertificate(metric=m, pair_values=_separating_vector(solver, w, ws))


# ---------------------------------------------------------------------------
# the hand-built decomposition for the 2-subdivision of K4
# ---------------------------------------------------------------------------


def k4_explicit_decomposition() -> tuple:
    """The 12-cut combination showing the 2-subdivision of K4 is l1.

    For each ordered pair (i, j) of original vertices, S_ij collects x_i and
    every vertex within distance 2 of x_i that is not adjacent to x_j; the
    twelve cut metrics sum to exactly twice the vertex metric, so weights 1/2
    reproduce it, which the ``CutDecomposition`` constructor checks.  Returns
    the graph and the verified decomposition.
    """
    k4 = from_spec(FamilySpec(tag="complete", sizes=(4,)))
    g = subdivide(k4, 2)
    labels = g.vertices
    index = {v: i for i, v in enumerate(labels)}
    metric = distance_matrix(g, [Vertex(v) for v in labels])
    n = metric.size
    adjacency = {v: {w for _, w, _, _ in items} for v, items in g._adjacency.items()}

    originals = list(k4.vertices)

    sets: list[set[int]] = []
    for xi in originals:
        for xj in originals:
            if xi == xj:
                continue
            members = {index[xi]}
            for w in labels:
                if w == xi:
                    continue
                near = metric.distance(index[xi], index[w]) <= 2
                if near and w not in adjacency[xj]:
                    members.add(index[w])
            if len(members) != 6:
                raise InternalCheckError(
                    f"set for ({xi}, {xj}) has {len(members)} vertices, not 6"
                )
            sets.append(members)
    if len(sets) != 12:
        raise InternalCheckError("expected 12 ordered vertex pairs")

    half = Fraction(1, 2)
    entries = tuple((Cut.from_members(n, s), half) for s in sets)
    return g, CutDecomposition(metric=metric, entries=entries)
