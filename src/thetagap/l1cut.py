"""Exact l1-embeddability via cut-cone membership.

A finite metric embeds isometrically in some l1 space exactly when it is a
nonnegative combination of cut metrics.  With points indexed 0..n-1 and cuts
canonicalized to contain point 0, that is a rational feasibility LP with
2^(n-1) - 1 columns.  The solver here is a revised simplex over Fractions
whose verdicts are certificates: feasibility returns the combination itself
(re-verified on construction), infeasibility returns a separating pair-weight
vector checked against every cut.

Cheap exact certificates come first.  A metric that is not of negative type
is refuted by the pair functional omega_i omega_j of its violating weighting
(CUT_n is inside NEG_n), with no LP at all.  From 12 points on, float column
generation over a bool crossing matrix proposes a small support for the
exact simplex; the full exact problem is the last resort.  Floats only ever
propose: every verdict is a certificate that passed its exact constructor.

The exact simplex never materializes cut columns for its all-cuts pricing
step; a Gray-code walk updates the crossing sum one point-flip at a time.
It keeps each row of B^-1 as a map from column to nonzero Fraction, since
cut bases stay sparse, so duals, entering directions and pivots cost in
proportion to the stored nonzeros.  Every "which pairs cross this cut"
question goes through ``_crossing`` on the cut's mask.  Metrics above 20
points are refused before any cut is enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog

from .analysis import is_negative_type
from .core import FiniteMetric, Vertex, distance_matrix, subdivide
from .errors import InternalCheckError, PreconditionError
from .families import _complete


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

    @property
    def mask(self) -> int:
        out = 0
        for i in self.members[1:]:
            out |= 1 << (i - 1)
        return out

    def separates(self, i: int, j: int) -> bool:
        return bool(_crossing(self.mask, [(i, j)]))

    def crossing_pairs(self) -> list[tuple[int, int]]:
        pairs = list(itertools.combinations(range(self.n), 2))
        return [pairs[k] for k in _crossing(self.mask, pairs)]


def _crossing(mask: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Positions in ``pairs`` of the pairs that the cut of canonical ``mask``
    separates; bit t of the mask puts point t + 1 on point 0's side."""
    side = mask << 1 | 1  # bit v set: point v is on point 0's side
    return [k for k, (i, j) in enumerate(pairs) if (side >> i ^ side >> j) & 1]


def cut_metric(n: int, cut: Cut) -> tuple[tuple[Fraction, ...], ...]:
    """The semimetric that is 1 across the cut and 0 within each side."""
    if cut.n != n:
        raise PreconditionError(f"cut is over {cut.n} points, not {n}")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in cut.crossing_pairs():
        rows[i][j] = rows[j][i] = Fraction(1)
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(itertools.combinations(range(n), 2))}


def _gray_cut_values(n: int, pair_weights: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield (mask, crossing sum) for every proper canonical cut.

    Walks masks in Gray-code order, updating the crossing sum by the one
    point that changes side per step.  ``pair_weights`` is indexed like
    itertools.combinations(range(n), 2).
    """
    idx = _pair_index(n)
    weight = [[0] * n for _ in range(n)]
    for (i, j), k in idx.items():
        weight[i][j] = weight[j][i] = pair_weights[k]
    bits = n - 1
    full = (1 << bits) - 1
    side = [1] + [0] * (bits)  # side[v] == 1 means point v on point 0's side
    cur = sum(weight[0][v] for v in range(1, n))
    yield 0, cur
    prev = 0
    for i in range(1, 1 << bits):
        mask = i ^ (i >> 1)
        flip = (mask ^ prev).bit_length() - 1
        v = flip + 1
        for w in range(n):
            if w == v:
                continue
            if side[w] == side[v]:
                cur += weight[v][w]
            else:
                cur -= weight[v][w]
        side[v] ^= 1
        prev = mask
        if mask != full:
            yield mask, cur


def _scale_to_integers(values: Sequence[Fraction]) -> list[int]:
    scale = 1
    for v in values:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    return [int(v * scale) for v in values]


@dataclass(frozen=True)
class FarkasCertificate:
    """Pair weights separating a metric from the cut cone.

    Invariants (checked exactly on construction): the weighted crossing sum
    is nonpositive for every canonical cut, while the weighted sum against
    the metric's own distances is strictly positive."""

    metric: FiniteMetric
    pair_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = self.metric.size
        pairs = list(itertools.combinations(range(n), 2))
        if len(self.pair_values) != len(pairs):
            raise PreconditionError("certificate has the wrong number of pair weights")
        against_d = sum(
            (f * self.metric.distance(i, j) for f, (i, j) in zip(self.pair_values, pairs)),
            Fraction(0),
        )
        if against_d <= 0:
            raise InternalCheckError("separating vector does not cut off the metric")
        ints = _scale_to_integers(self.pair_values)
        for mask, value in _gray_cut_values(n, ints):
            if value > 0:
                raise InternalCheckError(
                    f"separating vector fails on the cut with mask {mask}"
                )


@dataclass(frozen=True)
class CutDecomposition:
    """A nonnegative cut combination reproducing a metric exactly."""

    metric: FiniteMetric
    entries: tuple[tuple[Cut, Fraction], ...]

    def __post_init__(self) -> None:
        n = self.metric.size
        pairs = list(itertools.combinations(range(n), 2))
        total = [Fraction(0)] * len(pairs)
        for cut, weight in self.entries:
            if cut.n != n:
                raise PreconditionError("cut size does not match the metric")
            if weight <= 0:
                raise PreconditionError("decomposition weights must be positive")
            for k in _crossing(cut.mask, pairs):
                total[k] += weight
        for (i, j), value in zip(pairs, total):
            if value != self.metric.distance(i, j):
                raise InternalCheckError(
                    f"decomposition reproduces {value} instead of "
                    f"{self.metric.distance(i, j)} on pair ({i}, {j})"
                )


def l1_coordinates(dec: CutDecomposition) -> tuple[tuple[Fraction, ...], ...]:
    """One coordinate per decomposition cut: the weight on the cut's own side.

    Point i gets weight(S) in the dimension of S when i is a member of S and
    0 otherwise; pairwise l1 distances then equal the metric exactly.
    """
    n = dec.metric.size
    coords = []
    for i in range(n):
        row = []
        for cut, weight in dec.entries:
            row.append(weight if i in set(cut.members) else Fraction(0))
        coords.append(tuple(row))
    for i, j in itertools.combinations(range(n), 2):
        dist = sum(abs(a - b) for a, b in zip(coords[i], coords[j]))
        if dist != dec.metric.distance(i, j):
            raise InternalCheckError("l1 coordinates drifted from the metric")
    return tuple(coords)


# ---------------------------------------------------------------------------
# exact simplex (phase 1 feasibility)
# ---------------------------------------------------------------------------

_DEGENERATE_STREAK_LIMIT = 30
# Above this many points even the bool pairs x 2^(n-1) crossing matrix of
# the float proposal (about 100 MB at 20 points) is refused.
MAX_CUT_POINTS = 20
# Float proposals: weights and prices above this count as nonzero, and up
# to this many new columns per pair join each column-generation round.
_FLOAT_TOL = 1e-9
_COLUMNS_PER_PAIR = 4


class _Phase1:
    """Revised phase-1 simplex for {lambda >= 0 : sum lambda_S d_S = d}.

    Starts from an all-artificial basis; cut columns price either from an
    explicit list or over all canonical cuts by Gray-code scan.  Pricing is
    steepest (largest positive crossing sum) until a run of degenerate pivots
    trips the anti-cycling switch to least-position pricing, which guarantees
    termination.

    Each row of B^-1 is a dict from column to its nonzero Fraction entries:
    cut bases stay very sparse (685 nonzeros of 14 400 entries after the 12
    pivots of the 16-point K4 solve), so the dual, the entering direction and
    the pivot update touch only stored nonzeros, and entries that cancel are
    dropped.  ``pivots`` and ``degenerate_pivots`` count the work done.
    """

    def __init__(self, m: FiniteMetric, columns: Optional[Sequence[int]] = None):
        self.m = m
        self.n = m.size
        self.pairs = list(itertools.combinations(range(self.n), 2))
        self.rows = len(self.pairs)
        self.b = [m.distance(i, j) for i, j in self.pairs]
        self.full_mask = (1 << (self.n - 1)) - 1
        self.columns = None if columns is None else sorted(set(columns))
        if self.columns is not None:
            bad = [c for c in self.columns if not 0 <= c < self.full_mask]
            if bad:
                raise PreconditionError(f"bad cut masks {bad!r}")
        # variable ids: cut masks, then artificials at full_mask + row
        self.art0 = self.full_mask
        self.basis = [self.art0 + r for r in range(self.rows)]
        self.binv: list[dict[int, Fraction]] = [{r: Fraction(1)} for r in range(self.rows)]
        self.xb = list(self.b)
        self.bland = False
        self.streak = 0
        self.pivots = 0
        self.degenerate_pivots = 0
        self._rank_cache: dict[int, int] = {}

    # -- column geometry ----------------------------------------------------

    def _gray_rank(self, mask: int) -> int:
        # position of the mask in the Gray-code walk; the fixed variable
        # order used by the anti-cycling rule
        if mask not in self._rank_cache:
            inv = mask
            shift = 1
            while inv >> shift:
                inv ^= inv >> shift
                shift <<= 1
            self._rank_cache[mask] = inv
        return self._rank_cache[mask]

    def _var_rank(self, var: int) -> int:
        if var >= self.art0:
            return (1 << self.n) + (var - self.art0)
        return self._gray_rank(var)

    # -- pricing ------------------------------------------------------------

    def _dual(self) -> list[Fraction]:
        # y = c_B B^-1 with phase-1 costs: sum the rows of B^-1 at artificials
        y = [Fraction(0)] * self.rows
        for r, var in enumerate(self.basis):
            if var >= self.art0:
                for k, v in self.binv[r].items():
                    y[k] += v
        return y

    def _price(self, y: list[Fraction]) -> Optional[int]:
        basic = {v for v in self.basis if v < self.art0}
        if self.columns is not None:
            best: Optional[tuple] = None
            for mask in self.columns:
                if mask in basic:
                    continue
                score = sum((y[k] for k in _crossing(mask, self.pairs)), Fraction(0))
                if score <= 0:
                    continue
                rank = self._var_rank(mask)
                key = (rank,) if self.bland else (-score, rank)
                if best is None or key < best[0]:
                    best = (key, mask)
            return None if best is None else best[1]
        ints = _scale_to_integers(y)
        best_mask: Optional[int] = None
        best_key: Optional[tuple] = None
        for pos, (mask, value) in enumerate(_gray_cut_values(self.n, ints)):
            if value <= 0 or mask in basic:
                continue
            if self.bland:
                return mask  # first positive in the fixed scan order
            key = (-value, pos)
            if best_key is None or key < best_key:
                best_key, best_mask = key, mask
        return best_mask

    # -- pivoting -----------------------------------------------------------

    def _ratio_test(self, direction: list[Fraction]) -> int:
        best_row = -1
        best: Optional[tuple[Fraction, int]] = None
        for r in range(self.rows):
            if direction[r] <= 0:
                continue
            ratio = self.xb[r] / direction[r]
            key = (ratio, self._var_rank(self.basis[r]))
            if best is None or key < best:
                best = key
                best_row = r
        if best_row < 0:
            raise InternalCheckError("phase-1 ratio test found no leaving row")
        return best_row

    def _pivot(self, row: int, entering: int, direction: list[Fraction]) -> None:
        piv = direction[row]
        brow = {k: v / piv for k, v in self.binv[row].items()}
        self.binv[row] = brow
        self.xb[row] /= piv
        for r, f in enumerate(direction):
            if r == row or f == 0:
                continue
            target = self.binv[r]
            for k, v in brow.items():
                value = target.get(k, 0) - f * v
                if value:
                    target[k] = value
                else:
                    target.pop(k, None)
            self.xb[r] -= f * self.xb[row]
        self.basis[row] = entering

    def objective(self) -> Fraction:
        return sum(
            (self.xb[r] for r, v in enumerate(self.basis) if v >= self.art0),
            Fraction(0),
        )

    def solve(self) -> tuple[Fraction, list[Fraction]]:
        """Run to optimality; returns (objective, dual y at optimum)."""
        while True:
            y = self._dual()
            entering = self._price(y)
            if entering is None:
                return self.objective(), y
            crossing = set(_crossing(entering, self.pairs))
            direction = [
                sum((v for k, v in brow.items() if k in crossing), Fraction(0))
                for brow in self.binv
            ]
            row = self._ratio_test(direction)
            degenerate = self.xb[row] == 0
            self._pivot(row, entering, direction)
            self.pivots += 1
            if degenerate:
                self.degenerate_pivots += 1
                self.streak += 1
                if self.streak >= _DEGENERATE_STREAK_LIMIT:
                    self.bland = True
            else:
                self.streak = 0

    def decomposition(self) -> CutDecomposition:
        weights: dict[int, Fraction] = {}
        for r, var in enumerate(self.basis):
            if var < self.art0 and self.xb[r] > 0:
                weights[var] = weights.get(var, Fraction(0)) + self.xb[r]
        entries = tuple(
            (Cut.from_mask(self.n, mask), weight)
            for mask, weight in sorted(weights.items())
        )
        return CutDecomposition(metric=self.m, entries=entries)


def _crossing_matrix(n: int) -> np.ndarray:
    """Bool pairs x masks matrix: entry (k, mask) is true when pair k (in
    itertools.combinations order) crosses the cut of canonical mask
    0 <= mask < 2^(n-1) - 1."""
    masks = np.arange((1 << (n - 1)) - 1, dtype=np.int64)
    side = np.ones((n, len(masks)), dtype=bool)  # side[v]: v on point 0's side
    for t in range(n - 1):
        side[t + 1] = (masks >> t) & 1
    pairs = list(itertools.combinations(range(n), 2))
    crossing = np.empty((len(pairs), len(masks)), dtype=bool)
    for k, (i, j) in enumerate(pairs):
        np.not_equal(side[i], side[j], out=crossing[k])
    return crossing


def _float_support(m: FiniteMetric) -> Optional[list[int]]:
    """Candidate cut columns from floating-point column generation, or None.

    A restricted phase-1 LP (the cut columns chosen so far plus one
    artificial per pair, cost 1 on the artificials) is solved by HiGHS; its
    duals price every canonical cut, and the best-priced new columns join
    the next round.  Pricing adds each pair's dual over the cuts that cross
    it, one bool row at a time, so no float pairs x 2^(n-1) array is built.
    Returns the masks with positive weight once the artificials vanish, or
    None when no column prices positive before then.  The answer is only a
    proposal: the exact simplex decides.
    """
    n = m.size
    crossing = _crossing_matrix(n)
    rows, cuts = crossing.shape
    b = np.array([float(m.distance(i, j)) for i, j in itertools.combinations(range(n), 2)])
    artificials = np.eye(rows)
    chosen = np.zeros(0, dtype=np.int64)  # masks, which index the columns
    while True:
        res = linprog(
            c=np.concatenate([np.zeros(len(chosen)), np.ones(rows)]),
            A_eq=np.hstack([crossing[:, chosen].astype(float), artificials]),
            b_eq=b,
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            return None
        if res.fun <= _FLOAT_TOL:
            x = res.x[: len(chosen)]
            return sorted(int(mask) for mask in chosen[x > _FLOAT_TOL])
        scores = np.zeros(cuts)
        for k, y in enumerate(res.eqlin.marginals):
            np.add(scores, y, out=scores, where=crossing[k])
        scores[chosen] = -np.inf
        order = np.argsort(-scores, kind="stable")[: _COLUMNS_PER_PAIR * rows]
        new = order[scores[order] > _FLOAT_TOL]
        if len(new) == 0:
            return None
        chosen = np.concatenate([chosen, new])


def is_l1_embeddable(
    m: FiniteMetric, max_points: int = 14
) -> Union[CutDecomposition, FarkasCertificate]:
    """Decide cut-cone membership exactly; the answer carries its own proof.

    A metric that is not of negative type is refuted first and without any
    LP: the violating weighting omega of ``is_negative_type`` gives the pair
    functional omega_i omega_j, which sums to -(omega(S))^2 <= 0 over every
    cut S and to gamma(omega) > 0 against the metric (CUT_n is inside NEG_n).
    Otherwise feasibility is only ever concluded from an exact simplex run;
    from 12 points on, float column generation merely proposes a small
    column set that the exact solver then confirms, falling back to the full
    exact problem when the proposal does not pan out.  Metrics above
    ``max_points`` or above 20 points are refused before anything is built.
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
    if n >= 12:
        support = _float_support(m)
        if support:
            solver = _Phase1(m, columns=support)
            objective, _ = solver.solve()
            if objective == 0:
                return solver.decomposition()
    solver = _Phase1(m)
    objective, dual = solver.solve()
    if objective == 0:
        return solver.decomposition()
    return FarkasCertificate(metric=m, pair_values=tuple(dual))


# ---------------------------------------------------------------------------
# the hand-built decomposition for the 2-subdivision of K4
# ---------------------------------------------------------------------------


def k4_explicit_decomposition() -> tuple:
    """The 12-cut combination showing the 2-subdivision of K4 is l1.

    For each ordered pair (i, j) of original vertices, S_ij collects x_i and
    every vertex within distance 2 of x_i that is not adjacent to x_j; the
    twelve cut metrics sum to exactly twice the vertex metric, so weights 1/2
    reproduce it.  Returns the graph and the verified decomposition.
    """
    k4 = _complete(4)
    g = subdivide(k4, 2)
    labels = g.vertices
    index = {v: i for i, v in enumerate(labels)}
    metric = distance_matrix(g, [Vertex(v) for v in labels])
    n = metric.size

    adjacency: dict[str, set[str]] = {v: set() for v in labels}
    for e in g.edges:
        a, b = e.ends
        adjacency[a].add(b)
        adjacency[b].add(a)

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

    for i, j in itertools.combinations(range(n), 2):
        crossing = sum(1 for s in sets if (i in s) != (j in s))
        if Fraction(crossing) != 2 * metric.distance(i, j):
            raise InternalCheckError(
                f"cut sum is {crossing} but twice the distance on pair ({i},{j}) "
                f"is {2 * metric.distance(i, j)}"
            )

    half = Fraction(1, 2)
    entries = tuple((Cut.from_members(n, s), half) for s in sets)
    return g, CutDecomposition(metric=metric, entries=entries)
