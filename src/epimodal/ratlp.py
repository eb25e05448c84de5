"""Exact rational linear programming by revised simplex on integer columns.

Canonical form only: maximize c.x subject to A.x <= u, x >= 0, with u >= 0
so the origin is always feasible and no phase-1 is needed.  The pivot rule
is Bland's (smallest index), which cannot cycle.

A is (1/d) times an integer matrix, d > 0 being one denominator for the
whole of A.  ``solve`` reads an LP through one protocol, so an LP may
store its columns or compute them:

- ``objective`` (c), ``bounds`` (u) and ``den`` (d), and ``scale``, the
  lcm L of d and of the denominators of c and u;
- ``column(j)``: column j of the integer matrix as its nonzero entries
  grouped by value, ((a, rows), ...) with ``rows`` the ascending indices
  of the rows where the entry is a;
- ``pricing()``: a ``Pricing`` function that finds Bland's entering
  structural column, the first with a negative reduced cost;
- ``dual_feasible(ys, dy)``: whether y.A >= c holds in every column, for
  y = ys/dy.

``LinearProgram`` is that LP with every column stored.
``LinearProgram.build`` takes the LP row by row and transposes it once;
``rows`` derives the row-wise view back, and ``pricing`` scans the
columns from column 0.

The simplex is revised and fraction-free (Edmonds 1967 and Bareiss 1968,
the integer pivoting lrs uses).  Multiplying every row and the objective
by L gives the integer tableau [L.A | I | L.u]: the LP with each slack
variable multiplied by L, so every ratio of one ratio test scales by the
same positive factor and every reduced cost keeps its sign.  That tableau
is never formed.  Between pivots the solver keeps its slack block
S = den.B^-1 (m x m) as sparse rows, one {column: nonzero} dict per row,
the right-hand side and the slack part z of the cost row, den being the
last pivot (1 before the first); all are integers.  Column j of the
tableau is S.(L.a_j), summed over each row's nonzeros, its reduced cost
is z.(L.a_j) - den.L.c_j, and a slack's is its entry of z.

The Edmonds/Bareiss update divides exactly by the previous pivot.  It
rewrites only the rows the entering column meets, each over the union of
its support and the pivot row's.  Any other row is left as it is, as it
would only be rescaled by pivot/den: ``at[i]`` records the den at which
row i was last written, and its entries at the current den are
S[i].den/at[i], exact because den.B^-1 is integral.  The entering column
is the first with a negative reduced cost (structural columns before
slacks), the leaving row has the minimum ratio with ties to the smaller
basis index, whatever the loop order, so the pivots, and with them the
returned vertex, dual point, pivot count and unbounded ray, are those of
the same simplex on a dense ``Fraction`` tableau.  Point and dual point
are ``Fraction``s.

Every optimum ships with the slack u - A.x of each row and a dual
point.  The slack is read off the final basis like the point: a basic
slack of the integer tableau is L times the LP's, so it is rhs/(den.L),
and a nonbasic one is 0.  Before returning, the solver checks in exact
arithmetic on the original LP that u - A.x equals the slack and is
nonnegative (A.x summed over the basic columns only), that point and dual
point are nonnegative, that y.A >= c holds in every column (by the LP's
``dual_feasible``, which must not depend on the pivots; a
``LinearProgram`` checks it column by column in integers) and strong
duality: (point, slack, dual_point) is a checked optimality certificate
independent of the integer pivoting.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import Malformed, Unbounded


def _fraction(v) -> Fraction:
    # A Fraction is kept as given: converting it again would copy it, once
    # per nonzero of a large LP.
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
# price(z, den) -> (j, column j of L.A as integers, its reduced cost) for
# Bland's entering structural column, or None if no reduced cost is < 0
Pricing = Callable[[Sequence[int], int], "tuple[int, Column, int] | None"]


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

    @property
    def scale(self) -> int:
        """L: the lcm of den and of the denominators of c and u."""
        return math.lcm(
            self.den,
            *{v.denominator for v in itertools.chain(self.objective, self.bounds)},
        )

    def column(self, j: int) -> Column:
        return self.columns[j]

    def pricing(self) -> Pricing:
        """Bland's entering column by a scan from column 0."""
        scale = self.scale
        factor = scale // self.den
        columns = self.columns if factor == 1 else [
            tuple([(a * factor, rows) for a, rows in column])
            for column in self.columns
        ]
        cost = [v.numerator * (scale // v.denominator) for v in self.objective]

        def price(z, den):
            priced = z.__getitem__
            for j, column in enumerate(columns):
                reduced = _dot(column, priced) - den * cost[j]
                if reduced < 0:
                    return j, column, reduced
            return None

        return price

    def dual_feasible(self, ys: Sequence[int], dy: int) -> bool:
        """y.A >= c in every column, for y = ys/dy with dy > 0."""
        # column by column over the integers: both sides times den.dy.dc,
        # dc being a common denominator of c
        dc, cs = _common(self.objective)
        priced = ys.__getitem__
        floor = self.den * dy
        return all(
            _dot(column, priced) * dc >= c * floor
            for column, c in zip(self.columns, cs)
        )


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


def _verify_certificate(lp, x, s, y, value, support=None) -> None:
    """Check (x, s, y) as an optimality certificate of ``lp`` with value
    ``value``; raises Malformed naming the first check that fails.
    ``support`` lists indices outside which x is 0 (the solver passes its
    basic columns); without it the nonzero entries of x are found."""
    if support is None:
        support = [j for j, v in enumerate(x) if v]
    # den.A.x in integers, as r / (den.dx), summed over the support
    dx, xs = _common([x[j] for j in support])
    r = [0] * len(lp.bounds)
    for j, v in zip(support, xs):
        if v:
            for a, rows in lp.column(j):
                t = a * v
                for i in rows:
                    r[i] += t
    # u - A.x against the slack row by row, all three over one common
    # denominator d: u.d - r.(d/(den.dx)) and s.d
    du, us = _common(lp.bounds)
    ds, ss = _common(s)
    scale = lp.den * dx
    d = math.lcm(du, ds, scale)
    for bound, ax, slack in zip(us, r, ss, strict=True):
        rest = bound * (d // du) - ax * (d // scale)
        if rest < 0:
            raise Malformed("internal: primal point violates a constraint")
        if rest != slack * (d // ds):
            raise Malformed("internal: slack is not bounds - rows.point")
    # the scaled integers have the signs of the Fractions
    dy, ys = _common(y)
    if min(xs, default=0) < 0 or min(ys, default=0) < 0:
        raise Malformed("internal: certificate has a negative component")
    if not lp.dual_feasible(ys, dy):
        raise Malformed("internal: dual point is infeasible")
    # y.u = value, both sides times dy.du.value's denominator
    dual_value = sum(map(operator.mul, ys, us))
    if dual_value * value.denominator != value.numerator * dy * du:
        raise Malformed("internal: strong duality does not hold")


def _dot(column, value: Callable[[int], int]) -> int:
    """Sum of a_i * value(i) over the nonzeros a_i of a column given as
    ((a, the rows i with a_i = a), ...)."""
    total = 0
    for a, rows in column:
        total += a * sum(map(value, rows))
    return total


def solve(
    lp,
    trace: Callable[[int, Sequence[int]], None] | None = None,
) -> LpSolution:
    """Run primal simplex with Bland's rule on an origin-feasible LP: a
    ``LinearProgram`` or any LP of the protocol in the module docstring.

    ``trace`` (optional) is called with (iteration, basis) before each
    pivot.  Tests use it to assert that no basis ever repeats, which is
    the Bland termination guarantee.  Raises Unbounded with an improving
    feasible ray when the optimum is infinite.
    """
    n = len(lp.objective)
    m = len(lp.bounds)
    scale = lp.scale
    price = lp.pricing()
    # the rows of S as {column: nonzero} and the right-hand side, row i at
    # den at[i], and z, the slack part of the cost row, at den
    tab = [{i: 1} for i in range(m)]
    rhs = [b.numerator * (scale // b.denominator) for b in lp.bounds]
    at = [1] * m
    z = [0] * m
    den = 1
    basis = list(range(n, n + m))

    pivots = 0
    while True:
        found = price(z, den)
        if found is not None:
            entering, column, reduced = found
            # S.(L.a_j) over the nonzeros of each row, with L.a_j spread out
            spread = [0] * m
            for a, rows in column:
                for k in rows:
                    spread[k] = a
            entry = spread.__getitem__
            col = {i: f for i, row in enumerate(tab) if (f := sum(
                map(operator.mul, row.values(), map(entry, row))))}
        else:
            entering = next((n + i for i in range(m) if z[i] < 0), None)
            if entering is None:
                break
            reduced = z[entering - n]
            col = {i: row[entering - n] for i, row in enumerate(tab)
                   if entering - n in row}
        if trace is not None:
            trace(pivots, tuple(basis))
        leaving = None
        for i, coeff in col.items():
            if at[i] != den:  # the entering column at den
                col[i] = coeff = coeff * den // at[i]
            if coeff > 0:
                r = rhs[i] if at[i] == den else rhs[i] * den // at[i]
                # ratio r/coeff against the best row's, cross-multiplied
                if leaving is None or (r * best_coeff, basis[i]) < (
                        best_rhs * coeff, basis[leaving]):
                    leaving, best_rhs, best_coeff = i, r, coeff
        if leaving is None:
            # slack columns carry a factor 1/L against the unscaled LP
            unit = Fraction(scale if entering >= n else 1, den)
            ray = [Fraction(0)] * n
            if entering < n:
                ray[entering] = Fraction(1)
            for i in range(m):
                if basis[i] < n:
                    ray[basis[i]] = -col.get(i, 0) * unit
            raise Unbounded(tuple(ray))
        pivot = col[leaving]
        prow, prhs = tab[leaving], rhs[leaving]
        if at[leaving] != den:
            last = at[leaving]
            prow = {k: a * den // last for k, a in prow.items()}
            prhs = prhs * den // last
        # Edmonds/Bareiss step on the rows the entering column meets: every
        # division is exact, so an entry off the pivot row's support is only
        # rescaled and stays nonzero.  The pivot row is unchanged at the new den.
        for i, f in col.items():
            if i != leaving:
                # the row at den is row.den/at[i]
                p, q, d = (pivot, f, den) if at[i] == den else (
                        pivot * den, f * at[i], den * at[i])
                row = tab[i]
                get = row.get
                tab[i] = new = {k: a for k, b in prow.items()
                                if (a := (p * get(k, 0) - q * b) // d)}
                for k in row.keys() - prow.keys():
                    new[k] = p * row[k] // d
                rhs[i] = (p * rhs[i] - q * prhs) // d
                at[i] = pivot
        tab[leaving], rhs[leaving] = prow, prhs
        at[leaving] = pivot
        z = [(pivot * a - reduced * prow.get(k, 0)) // den for k, a in enumerate(z)]
        den = pivot
        basis[leaving] = entering
        pivots += 1

    xs = [Fraction(0)] * (n + m)  # point, then slack
    for i, var in enumerate(basis):
        xs[var] = Fraction(rhs[i], at[i] if var < n else at[i] * scale)
    x, s = xs[:n], xs[n:]
    y = tuple([Fraction(w, den) for w in z])  # a list: see build
    support = [j for j in basis if j < n]
    value = sum((lp.objective[j] * x[j] for j in support), Fraction(0))
    _verify_certificate(lp, x, s, y, value, support)
    return LpSolution(
        value=value, point=tuple(x), slack=tuple(s), dual_point=y, pivots=pivots
    )
