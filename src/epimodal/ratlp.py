"""Exact rational linear programming by dense tableau simplex.

Canonical form only: maximize c.x subject to A.x <= u, x >= 0, with u >= 0
so the origin is always feasible and no phase-1 is needed.  The pivot rule
is Bland's (smallest index), which cannot cycle.

The tableau is kept over the integers (fraction-free pivoting, Edmonds 1967
and Bareiss 1968, the simplex form lrs uses).  Multiplying every row and
the objective by the lcm L of the LP's denominators gives the integer
tableau [L.A | I | L.u]; it is the LP with each slack variable multiplied
by L, so every ratio of one ratio test scales by the same positive factor
and every reduced cost keeps its sign, and the duals read off the slack
columns are unchanged.  All entries then share one denominator, the last
pivot, and each update divides by the one before exactly.  The entering
and leaving choices, and with them the returned vertex, dual point and
pivot count, are those of the same simplex over ``Fraction``s, and point
and dual point are returned as ``fractions.Fraction``.

Every OPTIMAL solution ships with a dual point; the solver verifies primal
feasibility, dual feasibility and strong duality in ``Fraction`` arithmetic
on the original LP before returning, so the pair (point, dual_point) is a
checked optimality certificate independent of the integer tableau.

The tableau is dense: an LP of the noncontextual fraction has one column
per global assignment and one row per local section, hundreds by tens on
the n-cycles this package is run on.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import Malformed, Unbounded


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective.x  subject to  rows.x <= bounds, x >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    bounds: tuple[Fraction, ...]

    @classmethod
    def build(cls, objective, rows, bounds) -> "LinearProgram":
        c = tuple(Fraction(v) for v in objective)
        a = tuple(tuple(Fraction(v) for v in row) for row in rows)
        u = tuple(Fraction(v) for v in bounds)
        if len(a) != len(u):
            raise Malformed("row/bound count mismatch")
        if any(len(row) != len(c) for row in a):
            raise Malformed("row length does not match objective length")
        if any(b < 0 for b in u):
            raise Malformed("negative bound: origin would be infeasible")
        return cls(c, a, u)


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    value: Fraction | None
    point: tuple[Fraction, ...]
    dual_point: tuple[Fraction, ...]
    pivots: int


def _verify_certificate(lp: LinearProgram, x, y, value) -> None:
    # Each sum runs over the nonzero terms only: the terms skipped are 0.
    primal = [(j, v) for j, v in enumerate(x) if v]
    dual = [(i, w) for i, w in enumerate(y) if w]
    for row, bound in zip(lp.rows, lp.bounds):
        if sum(a * v for j, v in primal if (a := row[j])) > bound:
            raise Malformed("internal: primal point violates a constraint")
    if any(v < 0 for v in x) or any(w < 0 for w in y):
        raise Malformed("internal: certificate has a negative component")
    for j, c in enumerate(lp.objective):
        if sum(w * a for i, w in dual if (a := lp.rows[i][j])) < c:
            raise Malformed("internal: dual point is infeasible")
    dual_value = sum(w * b for w, b in zip(y, lp.bounds))
    if dual_value != value:
        raise Malformed("internal: strong duality does not hold")


def _integer_tableau(lp: LinearProgram) -> tuple[int, list[list[int]], list[int]]:
    """(L, rows [L.A | I | L.u], cost row [-L.c | 0 | 0]) over the integers,
    L being the lcm of every denominator in the LP."""
    scale = math.lcm(
        *{v.denominator for v in itertools.chain(lp.objective, lp.bounds, *lp.rows)}
    )

    def scaled(values):
        return [v.numerator * (scale // v.denominator) for v in values]

    m = len(lp.rows)
    rhs = scaled(lp.bounds)
    tab = [
        scaled(row) + [int(i == k) for k in range(m)] + [rhs[i]]
        for i, row in enumerate(lp.rows)
    ]
    cost = [-v for v in scaled(lp.objective)] + [0] * (m + 1)
    return scale, tab, cost


def _eliminate(row: list[int], prow: list[int], pivot: int, den: int, col: int):
    """(pivot*row - row[col]*prow) / den, exactly."""
    f = row[col]
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

    ``trace`` (optional) observes (iteration, basis) before each pivot:
    either a callable or a writable text stream getting one line per
    pivot.  Tests use it to assert that no basis ever repeats, which is
    the Bland termination guarantee.  Raises Unbounded with an improving
    feasible ray when the optimum is infinite.
    """
    if trace is not None and hasattr(trace, "write"):
        stream = trace
        trace = lambda i, basis: stream.write(f"pivot {i}: basis {list(basis)}\n")
    n = len(lp.objective)
    m = len(lp.rows)
    scale, tab, cost = _integer_tableau(lp)
    # tab / den and cost / den are the tableau and reduced costs of the LP
    # scaled by L; den is the last pivot (1 before the first).
    den = 1
    basis = list(range(n, n + m))

    pivots = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        if trace is not None:
            trace(pivots, tuple(basis))
        leaving = None
        for i in range(m):
            coeff = tab[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # ratio rhs/coeff against the best row's, cross-multiplied
                here = tab[i][-1] * tab[leaving][entering]
                best = tab[leaving][-1] * coeff
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
                    ray[basis[i]] = -tab[i][entering] * unit
            raise Unbounded(tuple(ray))
        prow = tab[leaving]
        pivot = prow[entering]
        # Edmonds/Bareiss step: every division by the old den is exact.
        for i in range(m):
            if i != leaving:
                tab[i] = _eliminate(tab[i], prow, pivot, den, entering)
        cost = _eliminate(cost, prow, pivot, den, entering)
        den = pivot
        basis[leaving] = entering
        pivots += 1

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tab[i][-1], den)
    y = tuple(Fraction(cost[n + i], den) for i in range(m))
    value = sum(c * v for c, v in zip(lp.objective, x))
    _verify_certificate(lp, x, y, value)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        value=value,
        point=tuple(x),
        dual_point=y,
        pivots=pivots,
    )

