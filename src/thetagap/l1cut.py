"""Exact l1-embeddability via cut-cone membership.

A finite metric embeds isometrically in some l1 space exactly when it is a
nonnegative combination of cut metrics.  With points indexed 0..n-1 and cuts
canonicalized to contain point 0, that is a rational feasibility LP with
2^(n-1) - 1 columns.  The solver here is a revised simplex over Fractions
whose verdicts are certificates: feasibility returns the combination itself
(re-verified on construction), infeasibility returns a separating pair-weight
vector checked against every cut.

Cut columns are never materialized for the all-cuts pricing step; a Gray-code
walk updates the crossing sum one point-flip at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog

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
        return (i in set(self.members)) != (j in set(self.members))

    def crossing_pairs(self) -> list[tuple[int, int]]:
        inside = set(self.members)
        return [
            (i, j)
            for i, j in itertools.combinations(range(self.n), 2)
            if (i in inside) != (j in inside)
        ]


def cut_metric(n: int, cut: Cut) -> tuple[tuple[Fraction, ...], ...]:
    """The semimetric that is 1 across the cut and 0 within each side."""
    if cut.n != n:
        raise PreconditionError(f"cut is over {cut.n} points, not {n}")
    inside = set(cut.members)
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if (i in inside) != (j in inside) else zero for j in range(n))
        for i in range(n)
    )


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
        total = [[Fraction(0)] * n for _ in range(n)]
        for cut, weight in self.entries:
            if cut.n != n:
                raise PreconditionError("cut size does not match the metric")
            if weight <= 0:
                raise PreconditionError("decomposition weights must be positive")
            inside = set(cut.members)
            for i, j in itertools.combinations(range(n), 2):
                if (i in inside) != (j in inside):
                    total[i][j] += weight
        for i, j in itertools.combinations(range(n), 2):
            if total[i][j] != self.metric.distance(i, j):
                raise InternalCheckError(
                    f"decomposition reproduces {total[i][j]} instead of "
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


class _Phase1:
    """Revised phase-1 simplex for {lambda >= 0 : sum lambda_S d_S = d}.

    Starts from an all-artificial basis; cut columns price either from an
    explicit list or over all canonical cuts by Gray-code scan.  Pricing is
    steepest (largest positive crossing sum) until a run of degenerate pivots
    trips the anti-cycling switch to least-position pricing, which guarantees
    termination.
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
        self.binv = [
            [Fraction(1) if i == j else Fraction(0) for j in range(self.rows)]
            for i in range(self.rows)
        ]
        self.xb = list(self.b)
        self.bland = False
        self.streak = 0
        self._rank_cache: dict[int, int] = {}

    # -- column geometry ----------------------------------------------------

    def _crossing_rows(self, mask: int) -> list[int]:
        inside = {0} | {t + 1 for t in range(self.n - 1) if mask >> t & 1}
        return [
            k
            for k, (i, j) in enumerate(self.pairs)
            if (i in inside) != (j in inside)
        ]

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
                for k in range(self.rows):
                    y[k] += self.binv[r][k]
        return y

    def _price(self, y: list[Fraction]) -> Optional[int]:
        basic = {v for v in self.basis if v < self.art0}
        if self.columns is not None:
            best: Optional[tuple] = None
            for mask in self.columns:
                if mask in basic:
                    continue
                score = sum((y[k] for k in self._crossing_rows(mask)), Fraction(0))
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
        self.binv[row] = [v / piv for v in self.binv[row]]
        self.xb[row] /= piv
        for r in range(self.rows):
            if r == row or direction[r] == 0:
                continue
            f = direction[r]
            brow = self.binv[row]
            target = self.binv[r]
            for k in range(self.rows):
                target[k] -= f * brow[k]
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
            rows = self._crossing_rows(entering)
            direction = [
                sum((self.binv[r][k] for k in rows), Fraction(0))
                for r in range(self.rows)
            ]
            row = self._ratio_test(direction)
            degenerate = self.xb[row] == 0
            self._pivot(row, entering, direction)
            if degenerate:
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


def _float_support(m: FiniteMetric) -> Optional[list[int]]:
    """Candidate cut columns from a floating-point LP solve, or None."""
    n = m.size
    pairs = list(itertools.combinations(range(n), 2))
    columns = [mask for mask, _ in _gray_cut_values(n, [1] * len(pairs))]
    a = np.zeros((len(pairs), len(columns)))
    for c, mask in enumerate(columns):
        inside = {0} | {t + 1 for t in range(n - 1) if mask >> t & 1}
        for k, (i, j) in enumerate(pairs):
            if (i in inside) != (j in inside):
                a[k, c] = 1.0
    b = np.array([float(m.distance(i, j)) for i, j in pairs])
    res = linprog(
        c=np.zeros(len(columns)),
        A_eq=a,
        b_eq=b,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        return None
    return [columns[c] for c in range(len(columns)) if res.x[c] > 1e-9]


def is_l1_embeddable(
    m: FiniteMetric, max_points: int = 14
) -> Union[CutDecomposition, FarkasCertificate]:
    """Decide cut-cone membership exactly; the answer carries its own proof.

    Feasibility is only ever concluded from an exact simplex run; for larger
    instances a floating-point solve merely proposes a small column set that
    the exact solver then confirms, falling back to the full exact problem
    when the proposal does not pan out.
    """
    n = m.size
    if n == 0:
        raise PreconditionError("l1 decision needs at least one point")
    if n > max_points:
        raise PreconditionError(
            f"metric has {n} points, above the configured bound {max_points}"
        )
    if n == 1:
        return CutDecomposition(metric=m, entries=())
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
