"""Exact rational linear programming by revised simplex on integer columns.

Canonical form only: maximize c.x subject to A.x <= u, x >= 0, with u >= 0
so the origin is always feasible and no phase-1 is needed.  The pivot rule
is Bland's (smallest index), which cannot cycle.

A is stored by columns, as (1/d) times an integer matrix, d > 0 being one
denominator for the whole of A: column j keeps its nonzero integer entries
only, grouped by value, as ((a, rows), ...) with ``rows`` the ascending
indices of the rows where the integer matrix has a.  An LP of the
noncontextual fraction has one column per global assignment and one row
per local section; each column is a single group ((1, rows),), one row
per maximal context, so the nonzeros are a small share of the matrix and
the LP is built with d = 1 and no ``Fraction`` per nonzero.
``LinearProgram.build`` takes the LP row by row and transposes it once;
``LinearProgram.rows`` derives the row-wise view back.

The simplex is revised and fraction-free (Edmonds 1967 and Bareiss 1968,
the integer pivoting lrs uses).  Multiplying every row and the objective
by the lcm L of d and the denominators of c and u gives the integer
tableau [L.A | I | L.u]; it is the LP with each slack variable multiplied
by L, so every ratio of one ratio test scales by the same positive factor
and every reduced cost keeps its sign.  That tableau is never formed.
Each integer column is scaled once, by L/d.  Between pivots the solver
keeps only its slack block S = den.B^-1 (m x m), its right-hand side and
the slack part z of its cost row, den being the last pivot (1 before the
first); all are integers.  Column j of the tableau is S.(L.a_j) and its
reduced cost is z.(L.a_j) - den.L.c_j, each summed over the groups of
a_j, and a slack's reduced cost is its entry of z.  The Edmonds/Bareiss
update runs on S, the right-hand side and z, and each of its divisions by
the previous pivot is exact.  The entering column is the first with a
negative reduced cost (structural columns before slacks), the leaving row
has the minimum ratio with ties to the smaller basis index, so the pivots,
and with them the returned vertex, dual point, pivot count and unbounded
ray, are those of the same simplex on a dense ``Fraction`` tableau.  Point
and dual point are returned as ``fractions.Fraction``.

Every optimum ships with the slack u - A.x of each row and a dual
point.  The slack is read off the final basis like the point: a basic
slack of the integer tableau is L times the LP's, so it is rhs/(den.L),
and a nonbasic one is 0.  Before returning, the solver checks in exact
arithmetic on the original LP, column by column, that u - A.x equals the
slack and is nonnegative (A.x summed over the columns of the point's
support only), that point and dual point are nonnegative, that y.A >= c
holds in every column (in integers, over the column's groups) and strong
duality: (point, slack, dual_point) is a checked optimality certificate
independent of the integer pivoting.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import Malformed, Unbounded


def _fraction(v) -> Fraction:
    # A Fraction is kept as given: converting it again would copy it, once
    # per nonzero of a 2^n-column LP.
    return v if type(v) is Fraction else Fraction(v)


def _sparse_row(row, n: int) -> tuple[tuple[int, Fraction], ...]:
    """The nonzero (column, coefficient) pairs of a dense row of length n
    or of a mapping column -> coefficient, by ascending column."""
    if isinstance(row, Mapping):
        items = sorted(row.items())
        if items and not (0 <= items[0][0] and items[-1][0] < n):
            raise Malformed("row has a column outside the objective")
    else:
        if len(row) != n:
            raise Malformed("row length does not match objective length")
        items = enumerate(row)
    return tuple((j, a) for j, v in items if (a := _fraction(v)))


Column = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective.x  subject to  A.x <= bounds, x >= 0.

    A = (1/den) times an integer matrix, stored by columns: ``columns[j]``
    holds the nonzero entries of column j of the integer matrix as
    ((a, rows), ...), a a nonzero int and ``rows`` the ascending indices
    of the rows where the entry is a; every other entry is 0.
    """

    objective: tuple[Fraction, ...]
    bounds: tuple[Fraction, ...]
    columns: tuple[Column, ...]
    den: int

    def __post_init__(self):
        m = len(self.bounds)
        if len(self.columns) != len(self.objective):
            raise Malformed("column count does not match objective length")
        if self.den <= 0:
            raise Malformed("the denominator of A must be positive")
        if any(
            rows[0] < 0 or rows[-1] >= m
            for column in self.columns
            for _, rows in column
        ):
            raise Malformed("row/bound count mismatch")
        if any(b < 0 for b in self.bounds):
            raise Malformed("negative bound: origin would be infeasible")

    @classmethod
    def build(cls, objective, rows, bounds) -> "LinearProgram":
        """The LP of A's rows, each a dense sequence of len(objective)
        coefficients or a mapping column -> coefficient whose missing
        columns are 0, over the least common denominator of A."""
        # tuples of lists, not of generators: CPython sizes a tuple of a
        # generator by resizing, so its memory is never taken back from the
        # free list of its final size, and that list grows with every call
        c = tuple([_fraction(v) for v in objective])
        u = tuple([_fraction(v) for v in bounds])
        sparse = [_sparse_row(row, len(c)) for row in rows]
        # an all-zero row leaves no index in the columns: count rows here
        if len(sparse) != len(u):
            raise Malformed("row/bound count mismatch")
        den = math.lcm(*{a.denominator for row in sparse for _, a in row})
        groups: list[dict[int, list[int]]] = [{} for _ in c]
        for i, row in enumerate(sparse):
            for j, a in row:
                groups[j].setdefault(
                    a.numerator * (den // a.denominator), []
                ).append(i)
        columns = tuple([
            tuple([(a, tuple(rows)) for a, rows in g.items()]) for g in groups
        ])
        return cls(c, u, columns, den)

    @property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Row i of A as its nonzero (column, coefficient) pairs by
        ascending column: the row-wise view ``build`` takes, derived from
        the columns on each access."""
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in self.bounds]
        coefficient: dict[int, Fraction] = {}  # one Fraction per value
        for j, column in enumerate(self.columns):
            for a, indices in column:
                if a not in coefficient:
                    coefficient[a] = Fraction(a, self.den)
                entry = (j, coefficient[a])
                for i in indices:
                    rows[i].append(entry)
        return tuple([tuple(row) for row in rows])


@dataclass(frozen=True)
class LpSolution:
    """An optimum; ``slack[i]`` is exactly bounds[i] - rows[i].point."""

    value: Fraction | None
    point: tuple[Fraction, ...]
    slack: tuple[Fraction, ...]
    dual_point: tuple[Fraction, ...]
    pivots: int


def _common(values) -> tuple[int, list[int]]:
    """(d, [v*d for v in values]) for d the lcm of the values' denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{q for _, q in ratios})
    return d, [p * (d // q) for p, q in ratios]


def _verify_certificate(lp: LinearProgram, x, s, y, value) -> None:
    # den.A.x in integers, as r / (den.dx), summed over the point's support
    support = [(j, v) for j, v in enumerate(x) if v]
    dx, xs = _common([v for _, v in support])
    r = [0] * len(lp.bounds)
    for (j, _), v in zip(support, xs):
        for a, rows in lp.columns[j]:
            t = a * v
            for i in rows:
                r[i] += t
    scale = lp.den * dx
    for bound, ax, slack in zip(lp.bounds, r, s, strict=True):
        rest = bound - Fraction(ax, scale) if ax else bound
        if rest < 0:
            raise Malformed("internal: primal point violates a constraint")
        if rest != slack:
            raise Malformed("internal: slack is not bounds - rows.point")
    # the scaled integers have the signs of the Fractions
    dy, ys = _common(y)
    if min(xs, default=0) < 0 or min(ys, default=0) < 0:
        raise Malformed("internal: certificate has a negative component")
    # y.A >= c column by column, over the integers: both sides times
    # den.dy.dc, dy and dc being common denominators of y and of c
    dc, cs = _common(lp.objective)
    priced = ys.__getitem__
    floor = lp.den * dy
    if any(
        _dot(column, priced) * dc < c * floor
        for column, c in zip(lp.columns, cs)
    ):
        raise Malformed("internal: dual point is infeasible")
    dual_value = sum(w * b for w, b in zip(y, lp.bounds))
    if dual_value != value:
        raise Malformed("internal: strong duality does not hold")


def _dot(column, value: Callable[[int], int]) -> int:
    """Sum of a_i * value(i) over the nonzeros a_i of a column given as
    ((a, the rows i with a_i = a), ...)."""
    total = 0
    for a, rows in column:
        total += a * sum(map(value, rows))
    return total


def _eliminate(row: list[int], prow: list[int], pivot: int, den: int, f: int):
    """(pivot*row - f*prow) / den, exactly."""
    if f == 0:
        if pivot == den:
            return row
        return [pivot * a // den for a in row]
    return [(pivot * a - f * b) // den for a, b in zip(row, prow)]


def solve(
    lp: LinearProgram,
    trace: Callable[[int, Sequence[int]], None] | None = None,
) -> LpSolution:
    """Run primal simplex with Bland's rule on an origin-feasible LP.

    ``trace`` (optional) is called with (iteration, basis) before each
    pivot.  Tests use it to assert that no basis ever repeats, which is
    the Bland termination guarantee.  Raises Unbounded with an improving
    feasible ray when the optimum is infinite.
    """
    n = len(lp.objective)
    m = len(lp.bounds)
    scale = math.lcm(
        lp.den,
        *{v.denominator for v in itertools.chain(lp.objective, lp.bounds)},
    )

    def scaled(v: Fraction) -> int:
        return v.numerator * (scale // v.denominator)

    # column j of L.A, as _dot takes it: each group's entry times L/den
    factor = scale // lp.den
    columns = lp.columns if factor == 1 else [
        tuple([(a * factor, rows) for a, rows in column])
        for column in lp.columns
    ]
    cost = [scaled(v) for v in lp.objective]
    # tab[i] = [S[i] | rhs[i]] and z: the slack and right-hand-side
    # columns of the integer tableau and the slack part of its cost row
    tab = [
        [int(i == k) for k in range(m)] + [scaled(b)]
        for i, b in enumerate(lp.bounds)
    ]
    z = [0] * m
    den = 1
    basis = list(range(n, n + m))

    pivots = 0
    while True:
        priced = z.__getitem__
        for j, column in enumerate(columns):
            reduced = _dot(column, priced) - den * cost[j]
            if reduced < 0:
                entering = j
                break
        else:
            entering = next((n + i for i in range(m) if z[i] < 0), None)
            if entering is None:
                break
            reduced = z[entering - n]
        if trace is not None:
            trace(pivots, tuple(basis))
        if entering < n:
            col = [_dot(columns[entering], t.__getitem__) for t in tab]
        else:
            col = [t[entering - n] for t in tab]
        leaving = None
        for i in range(m):
            coeff = col[i]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # ratio rhs/coeff against the best row's, cross-multiplied
                here = tab[i][m] * col[leaving]
                best = tab[leaving][m] * coeff
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            # slack columns carry a factor 1/L against the unscaled LP
            unit = Fraction(scale if entering >= n else 1, den)
            ray = [Fraction(0)] * n
            if entering < n:
                ray[entering] = Fraction(1)
            for i in range(m):
                if basis[i] < n:
                    ray[basis[i]] = -col[i] * unit
            raise Unbounded(tuple(ray))
        prow = tab[leaving]
        pivot = col[leaving]
        # Edmonds/Bareiss step: every division by the old den is exact.
        for i in range(m):
            if i != leaving:
                tab[i] = _eliminate(tab[i], prow, pivot, den, col[i])
        # zip in _eliminate stops at the end of z, before prow's rhs
        z = _eliminate(z, prow, pivot, den, reduced)
        den = pivot
        basis[leaving] = entering
        pivots += 1

    xs = [Fraction(0)] * (n + m)  # point, then slack
    for i, var in enumerate(basis):
        xs[var] = Fraction(tab[i][m], den if var < n else den * scale)
    x, s = xs[:n], xs[n:]
    y = tuple([Fraction(w, den) for w in z])  # a list: see build
    value = sum(
        (lp.objective[j] * x[j] for j in basis if j < n), Fraction(0)
    )
    _verify_certificate(lp, x, s, y, value)
    return LpSolution(
        value=value,
        point=tuple(x),
        slack=tuple(s),
        dual_point=y,
        pivots=pivots,
    )
