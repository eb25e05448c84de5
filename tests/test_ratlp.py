import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal import Semiring, build_fr_model, new_model, new_scenario
from epimodal.contextuality import ProductLP, _ncf_lp, noncontextual_fraction_certified
from epimodal.errors import Malformed, Unbounded
from epimodal.ratlp import LinearProgram, _verify_certificate, solve
from epimodal.scenario import sections
from model_random import noisy_cycle_model

F = Fraction


def dense_rows(lp: LinearProgram) -> list[list[Fraction]]:
    """The rows of A with every zero written out."""
    rows = [[F(0)] * len(lp.objective) for _ in lp.rows]
    for dense, row in zip(rows, lp.rows):
        for j, a in row:
            dense[j] = a
    return rows


def remainders(lp: LinearProgram, x) -> tuple[Fraction, ...]:
    """u - A.x, row by row over the dense rows."""
    return tuple(
        bound - sum(a * v for a, v in zip(row, x))
        for row, bound in zip(dense_rows(lp), lp.bounds)
    )


def verify_certificate_by_rows(lp: LinearProgram, x, s, y, value) -> None:
    """The checks of ``ratlp._verify_certificate``, in the same order and
    with the same messages, row by row over ``lp.rows`` in ``Fraction``s:
    a second route to its verdict."""
    primal = {j: v for j, v in enumerate(x) if v}
    for row, bound, slack in zip(lp.rows, lp.bounds, s, strict=True):
        rest = bound - sum(a * primal[j] for j, a in row if j in primal)
        if rest < 0:
            raise Malformed("internal: primal point violates a constraint")
        if rest != slack:
            raise Malformed("internal: slack is not bounds - rows.point")
    if any(v < 0 for v in x) or any(w < 0 for w in y):
        raise Malformed("internal: certificate has a negative component")
    priced = [F(0)] * len(lp.objective)
    for w, row in zip(y, lp.rows):
        for j, a in row:
            priced[j] += w * a
    if any(p < c for p, c in zip(priced, lp.objective)):
        raise Malformed("internal: dual point is infeasible")
    if sum(w * b for w, b in zip(y, lp.bounds)) != value:
        raise Malformed("internal: strong duality does not hold")


CERTIFICATE_CHECKS = [_verify_certificate, verify_certificate_by_rows]


def solved(lp: LinearProgram, trace=None):
    """``solve``, with the returned slack checked against u - A.x."""
    sol = solve(lp, trace=trace)
    assert sol.slack == remainders(lp, sol.point)
    return sol


def fraction_tableau_solve(lp: LinearProgram, trace):
    """Reference simplex on a dense ``Fraction`` tableau [A | I | u]:
    Bland's entering rule, the minimum ratio leaving with ties to the
    smaller basis index.  Returns (value, point, slack, dual point,
    pivots); raises Unbounded with the improving ray read off the entering
    column."""
    n, m = len(lp.objective), len(lp.rows)
    tab = [
        row + [F(int(i == k)) for k in range(m)] + [lp.bounds[i]]
        for i, row in enumerate(dense_rows(lp))
    ]
    cost = [-v for v in lp.objective] + [F(0)] * (m + 1)
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        trace(pivots, tuple(basis))
        leaving, best = None, None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    leaving, best = i, ratio
        if leaving is None:
            ray = [F(int(j == entering)) for j in range(n)]
            for i in range(m):
                if basis[i] < n:
                    ray[basis[i]] = -tab[i][entering]
            raise Unbounded(tuple(ray))
        pivot_row = [v / tab[leaving][entering] for v in tab[leaving]]
        tab[leaving] = pivot_row
        for i in range(m):
            f = tab[i][entering]
            if i != leaving and f:
                tab[i] = [a - f * b for a, b in zip(tab[i], pivot_row)]
        f = cost[entering]
        cost = [a - f * b for a, b in zip(cost, pivot_row)]
        basis[leaving] = entering
        pivots += 1
    x = [F(0)] * (n + m)  # point, then slack
    for i, var in enumerate(basis):
        x[var] = tab[i][-1]
    value = sum(c * v for c, v in zip(lp.objective, x))
    return value, tuple(x[:n]), tuple(x[n:]), tuple(cost[n:n + m]), pivots


def run_both(lp):
    """Outcomes of ``solve`` and of the reference, each with its trace of
    bases: (value, point, slack, dual point, pivots, bases) or
    ("unbounded", ray, bases)."""

    def integer(trace):
        sol = solved(lp, trace=trace)
        return sol.value, sol.point, sol.slack, sol.dual_point, sol.pivots

    outcomes = []
    for run in (integer, lambda trace: fraction_tableau_solve(lp, trace)):
        bases = []
        try:
            outcomes.append((*run(lambda i, basis: bases.append(basis)), bases))
        except Unbounded as exc:
            outcomes.append(("unbounded", exc.ray, bases))
    return outcomes


def brute_force_optimum(lp: LinearProgram):
    """Vertex enumeration oracle: try every square subsystem of tight
    constraints (rows or nonnegativity), keep feasible solutions."""
    n = len(lp.objective)
    constraints = dense_rows(lp)
    rows = constraints + [
        [F(int(j == k)) for k in range(n)] for j in range(n)
    ]
    rhs = list(lp.bounds) + [F(0)] * n
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = [rows[i][:] for i in subset]
        b = [rhs[i] for i in subset]
        x = _solve_square(a, b)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(
            sum(c * v for c, v in zip(row, x)) > bound
            for row, bound in zip(constraints, lp.bounds)
        ):
            continue
        value = sum(c * v for c, v in zip(lp.objective, x))
        if best is None or value > best:
            best = value
    return best


def _solve_square(a, b):
    n = len(b)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        b[col] = b[col] / inv
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [u - f * v for u, v in zip(a[r], a[col])]
                b[r] = b[r] - f * b[col]
    return b


def test_single_constraint():
    lp = LinearProgram.build([1], [[1]], [F(1, 3)])
    sol = solved(lp)
    assert sol.value == F(1, 3)
    assert sol.point == (F(1, 3),)


def test_two_variable_hand_enumeration():
    # vertices: (0,0), (1/2,0), (0,1), (1/2,1/2); optimum value 1
    lp = LinearProgram.build([1, 1], [[1, 1], [1, 0]], [1, F(1, 2)])
    sol = solved(lp)
    assert sol.value == 1
    assert brute_force_optimum(lp) == 1


def test_unbounded():
    lp = LinearProgram.build([1, 0], [[0, 1]], [1])
    with pytest.raises(Unbounded) as info:
        solved(lp)
    ray = info.value.ray
    assert ray[0] > 0  # moving along the ray increases the objective


def test_malformed():
    with pytest.raises(Malformed):
        LinearProgram.build([1], [[1, 2]], [1])
    with pytest.raises(Malformed):
        LinearProgram.build([1], [[1]], [1, 2])
    with pytest.raises(Malformed):
        LinearProgram.build([1], [[1]], [-1])
    with pytest.raises(Malformed):
        LinearProgram.build([1, 1], [{0: 1, 2: 1}], [1])


def test_degenerate_zero_bounds():
    # zero bounds force both variables to zero despite positive objective
    lp = LinearProgram.build([1, 1], [[1, 0], [0, 1]], [0, 0])
    sol = solved(lp)
    assert sol.value == 0


def test_certificate_fields():
    lp = LinearProgram.build(
        [2, 1], [[1, 1], [1, 0], [0, 1]], [1, F(3, 4), F(3, 4)]
    )
    sol = solved(lp)
    # strong duality is checked inside solve; recheck here explicitly
    assert sum(y * b for y, b in zip(sol.dual_point, lp.bounds)) == sol.value
    assert all(y >= 0 for y in sol.dual_point)
    assert sol.value == brute_force_optimum(lp)


def test_bland_no_basis_repeats():
    seen = []
    lp = LinearProgram.build(
        [3, 2, 1],
        [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [1, F(1, 2), F(1, 2), F(1, 2)],
    )
    solved(lp, trace=lambda i, basis: seen.append(frozenset(basis)))
    assert len(seen) == len(set(seen))


small_fraction = st.integers(min_value=0, max_value=4).map(lambda n: F(n, 4))
signed_fraction = st.integers(min_value=-2, max_value=3).map(lambda n: F(n, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_matches_vertex_enumeration(n, m, data):
    c = [data.draw(signed_fraction) for _ in range(n)]
    rows = [[data.draw(signed_fraction) for _ in range(n)] for _ in range(m)]
    bounds = [data.draw(small_fraction) for _ in range(m)]
    lp = LinearProgram.build(c, rows, bounds)
    assert_matches_fraction_tableau_oracle(lp)
    expected = brute_force_optimum(lp)
    try:
        sol = solved(lp)
    except Unbounded:
        # oracle: some ray must improve without violating constraints; the
        # certificate from the exception is checked by construction inside
        # solve, so just confirm the vertex optimum was not the whole story
        return
    assert expected is not None
    assert sol.value == expected


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(3)), st.data())
def test_variable_order_invariance(perm, data):
    c = [data.draw(small_fraction) for _ in range(3)]
    rows = [[data.draw(small_fraction) for _ in range(3)] for _ in range(3)]
    bounds = [data.draw(small_fraction) for _ in range(3)]
    lp = LinearProgram.build(c, rows, bounds)
    permuted = LinearProgram.build(
        [c[p] for p in perm],
        [[row[p] for p in perm] for row in rows],
        bounds,
    )
    assert_matches_fraction_tableau_oracle(lp)
    assert_matches_fraction_tableau_oracle(permuted)
    try:
        expected = solved(lp).value
    except Unbounded:
        with pytest.raises(Unbounded):
            solved(permuted)
        return
    assert solved(permuted).value == expected


# Half the entries drawn are 0, so that zero columns, zero rows and rows of
# a single nonzero turn up and the sparse storage is exercised.
signed_entry = st.one_of(
    st.just(F(0)),
    st.builds(
        F, st.integers(min_value=-4, max_value=6), st.integers(min_value=1, max_value=6)
    ),
)
bound_entry = st.builds(
    F, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6)
)


def assert_matches_fraction_tableau_oracle(lp: LinearProgram):
    integer, reference = run_both(lp)
    assert integer == reference
    if integer[0] == "unbounded":
        ray = integer[1]
        assert all(v >= 0 for v in ray)
        assert all(sum(a * ray[j] for j, a in row) <= 0 for row in lp.rows)
        assert sum(c * v for c, v in zip(lp.objective, ray)) > 0
    return integer


# Degenerate LPs: nonnegative rows under mostly zero bounds, some of them
# repeated, and a positive objective.  The ratio test then ties between a
# slack and a structural column that entered at a later row, so the
# tie-break by basis index (not by row index) decides the pivots.
positive_entry = st.builds(
    F, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)
)
nonnegative_entry = st.one_of(st.just(F(0)), positive_entry)
mostly_zero_bound = st.one_of(st.just(F(0)), st.just(F(0)), bound_entry)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
    st.data(),
)
def test_matches_fraction_tableau_oracle(n, m, degenerate, data):
    entry, cost, bound = (
        (nonnegative_entry, positive_entry, mostly_zero_bound) if degenerate
        else (signed_entry, signed_entry, bound_entry)
    )
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    bounds = [data.draw(bound) for _ in range(m)]
    if degenerate and m:
        for i in data.draw(st.lists(st.integers(0, m - 1), max_size=3)):
            rows.append(rows[i])
            bounds.append(bounds[i])
    assert_matches_fraction_tableau_oracle(
        LinearProgram.build([data.draw(cost) for _ in range(n)], rows, bounds)
    )


# Sparse edge cases, each with its expected outcome: (value, point, slack,
# dual point, pivots) or ("unbounded", ray).
SPARSE_EDGE_CASES = {
    # column 1 has no nonzero entry and c_1 > 0: the ray is e_1
    "empty column": (
        LinearProgram.build([1, 2, 1], [{0: 1, 2: 1}, {2: 3}], [1, 1]),
        ("unbounded", (F(0), F(1), F(0))),
    ),
    # column 2 is empty and enters after column 0 has pivoted in
    "empty column entering second": (
        LinearProgram.build([1, 0, F(1, 2)], [[1, 0, 0]], [F(2, 3)]),
        ("unbounded", (F(0), F(0), F(1))),
    ),
    "all-zero row": (
        LinearProgram.build([1, 1], [[0, 0], {0: 1, 1: 1}, {}], [F(1, 2), 1, 0]),
        (F(1), (F(1), F(0)), (F(1, 2), F(0), F(0)), (F(0), F(1), F(0)), 1),
    ),
    "no rows, nothing to gain": (
        LinearProgram.build([0, -1, F(-1, 3)], [], []),
        (F(0), (F(0), F(0), F(0)), (), (), 0),
    ),
    "no rows, unbounded": (
        LinearProgram.build([-1, 0, F(1, 3)], [], []),
        ("unbounded", (F(0), F(0), F(1))),
    ),
    "zero-objective columns": (
        LinearProgram.build(
            [0, 1, 0, 0], [{0: 1, 1: 1, 3: 2}, {1: F(1, 2), 2: -1}], [1, F(1, 4)]
        ),
        (F(1), (F(0), F(1), F(1, 4), F(0)), (F(0), F(0)), (F(1), F(0)), 2),
    ),
}


@pytest.mark.parametrize("name", SPARSE_EDGE_CASES)
def test_sparse_edge_cases_match_fraction_tableau_oracle(name):
    lp, expected = SPARSE_EDGE_CASES[name]
    outcome = assert_matches_fraction_tableau_oracle(lp)
    assert outcome[:-1] == expected


def test_unbounded_ray_through_an_entering_slack():
    # both structural columns are basic when the simplex stops, so the ray
    # is read off a slack column, whose entries in the integer tableau
    # [3A | I | 3u] are 1/3 of those in the Fraction tableau [A | I | u]
    lp = LinearProgram.build([1, 1], [[3, 0], [F(4, 3), F(-4, 3)]], [F(5, 3), 0])
    integer, reference = run_both(lp)
    assert integer == reference
    assert integer[:2] == ("unbounded", (F(0), F(3, 4)))
    assert set(integer[2][-1]) == {0, 1}


NOISE = [F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1, 5), F(1, 7)]
# (noise, odd_at) of the noisy n-cycles by n, and of the strong 5-cycle:
# without noise half the bounds are 0, so its pivots are degenerate
NCYCLES = {n: (NOISE[:n], n // 2) for n in range(3, 9)}
NCYCLES["strong-5"] = ([F(0)] * 5, 2)


@pytest.mark.parametrize("case", NCYCLES)
def test_ncycle_lp_matches_fraction_tableau_oracle(case, monkeypatch):
    noise, odd_at = NCYCLES[case]
    lps = []
    monkeypatch.setattr(
        "epimodal.ratlp.solve", lambda lp, trace=None: lps.append(lp) or solved(lp)
    )
    noncontextual_fraction_certified(noisy_cycle_model(noise, odd_at=odd_at))
    (lp,) = lps
    integer, reference = run_both(lp)
    assert integer == reference
    assert integer[0] == min(1, sum(noise) / 2)
    assert integer[4] > 0


# One LP, its optimum x = (1/2, 1/2) with slack (0, 0), dual y = (1, 0)
# and value 1, and one corrupted certificate per check of
# _verify_certificate.
CERTIFIED = LinearProgram.build([1, 1], [[1, 1], [1, 0]], [1, F(1, 2)])


def test_verify_certificate_accepts_the_optimum():
    for check in CERTIFICATE_CHECKS:
        check(CERTIFIED, [F(1, 2), F(1, 2)], (F(0), F(0)), (F(1), F(0)), F(1))


@pytest.mark.parametrize("x,y,value,message", [
    ([F(1, 2), F(3, 4)], (F(1), F(0)), F(5, 4), "violates a constraint"),
    ([F(-1, 2), F(1)], (F(1), F(0)), F(1, 2), "negative component"),
    ([F(1, 2), F(1, 2)], (F(1), F(-1)), F(1), "negative component"),
    ([F(1, 2), F(1, 2)], (F(0), F(2)), F(1), "dual point is infeasible"),
    ([F(1, 2), F(1, 2)], (F(1), F(1)), F(1), "strong duality"),
])
def test_verify_certificate_rejects(x, y, value, message):
    # the slack is u - A.x, so only the other fields are corrupted
    for check in CERTIFICATE_CHECKS:
        with pytest.raises(Malformed, match=message):
            check(CERTIFIED, x, remainders(CERTIFIED, x), y, value)


@pytest.mark.parametrize("x,s,message", [
    # a wrong slack at the optimum
    ([F(1, 2), F(1, 2)], (F(0), F(1, 2)), "slack is not"),
    # a slack that is u - A.x but negative: x = (1, 0) breaks row 2
    ([F(1), F(0)], (F(0), F(-1, 2)), "violates a constraint"),
])
def test_verify_certificate_rejects_a_bad_slack(x, s, message):
    assert (s == remainders(CERTIFIED, x)) == (message != "slack is not")
    for check in CERTIFICATE_CHECKS:
        with pytest.raises(Malformed, match=message):
            check(CERTIFIED, x, s, (F(1), F(0)), F(1))


def perturbed_certificates(lp: LinearProgram, x, s, y, value):
    """One corrupted copy of the optimum (x, s, y, value) per message of
    the certificate check, for each message the LP allows."""
    out = {}
    a = dense_rows(lp)
    hit = next(
        ((i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v > 0),
        None,
    )
    if hit is not None:
        # x_j grows until row i is short by 1; the slack stays u - A.x
        i, j = hit
        bad = list(x)
        bad[j] += (s[i] + 1) / a[i][j]
        out["violates a constraint"] = (bad, remainders(lp, bad), y, value)
    if s:
        out["slack is not"] = (x, (s[0] + 1, *s[1:]), y, value)
        out["negative component"] = (x, s, (F(-1), *y[1:]), value)
    elif x:
        out["negative component"] = ([F(-1), *x[1:]], s, y, value)
    if any(c > 0 for c in lp.objective):
        out["dual point is infeasible"] = (x, s, (F(0),) * len(y), value)
    out["strong duality"] = (x, s, y, value + 1)
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
def test_certificate_checks_agree_with_the_row_wise_oracle(n, m, data):
    rows = [[data.draw(signed_entry) for _ in range(n)] for _ in range(m)]
    if m:
        for i in data.draw(st.sets(st.integers(0, m - 1))):
            rows[i] = [F(0)] * n  # an empty row
    for j in data.draw(st.sets(st.integers(0, n - 1))):
        for row in rows:
            row[j] = F(0)  # an all-zero column
    lp = LinearProgram.build(
        [data.draw(signed_entry) for _ in range(n)],
        rows,
        [data.draw(bound_entry) for _ in range(m)],
    )
    try:
        sol = solved(lp)
    except Unbounded:
        return
    optimum = (list(sol.point), sol.slack, sol.dual_point, sol.value)
    for check in CERTIFICATE_CHECKS:
        check(lp, *optimum)
    for message, certificate in perturbed_certificates(lp, *optimum).items():
        for check in CERTIFICATE_CHECKS:
            with pytest.raises(Malformed, match=message):
                check(lp, *certificate)


def test_value_is_a_fraction_when_no_column_is_nonzero():
    sol = solve(LinearProgram.build([1, 1], [[1, 1]], [0]))
    assert sol.point == (0, 0)
    assert sol.value == 0 and type(sol.value) is F
    strong = noncontextual_fraction_certified(noisy_cycle_model([F(0)] * 5))
    assert strong.value == 0 and type(strong.value) is F


def test_build_stores_integer_columns_over_the_least_denominator():
    lp = LinearProgram.build(
        [1, F(1, 2), 0],
        [[F(1, 2), 0, F(-1, 3)], {0: F(1, 3), 2: F(-1, 3)}, [0, 0, 0]],
        [1, 2, 0],
    )
    assert lp.den == 6
    # column j: ((a, rows), ...), one group per value, by first row
    assert lp.columns == (((3, (0,)), (2, (1,))), (), ((-2, (0, 1)),))
    assert lp.rows == (
        ((0, F(1, 2)), (2, F(-1, 3))), ((0, F(1, 3)), (2, F(-1, 3))), ()
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
def test_rows_round_trip_build(n, m, data):
    c = [data.draw(signed_entry) for _ in range(n)]
    rows = [[data.draw(signed_entry) for _ in range(n)] for _ in range(m)]
    bounds = [data.draw(bound_entry) for _ in range(m)]
    lp = LinearProgram.build(c, rows, bounds)
    assert lp.rows == tuple(
        tuple((j, a) for j, a in enumerate(row) if a) for row in rows
    )
    assert dense_rows(lp) == rows
    assert LinearProgram.build(c, [dict(row) for row in lp.rows], bounds) == lp


@pytest.mark.parametrize("fields,message", [
    # (objective, bounds, columns, den)
    (((F(1),), (F(1),), (), 1), "column count"),
    (((F(1),), (F(1),), (((1, (0,)),),), 0), "denominator"),
    (((F(1),), (F(1),), (((1, (1,)),),), 1), "row/bound count"),
    (((F(1),), (F(1),), (((1, (-1, 0)),),), 1), "row/bound count"),
    (((F(1),), (F(-1),), (((1, (0,)),),), 1), "negative bound"),
])
def test_every_linear_program_is_checked(fields, message):
    with pytest.raises(Malformed, match=message):
        LinearProgram(*fields)


# -- the noncontextual-fraction LP by its shape --------------------------------

# Context shapes by position in the declared order, each with a context of
# three measurements.
PRODUCT_SHAPES = [
    [(0, 1, 2)],
    [(0, 1, 2), (2, 3), (0, 3)],
    [(0, 1, 3), (1, 2), (2, 3)],
    [(1, 2, 3), (0, 1), (0, 3)],
]


@st.composite
def non_disturbing_models(draw):
    """A rational model over 3-4 measurements of 2 or 3 outcomes, declared
    in a drawn order: a global distribution's pushforward mixed with a box
    whose marginals on every proper subcontext are uniform (a parity box on
    a context whose outcome counts agree, else the uniform table), so it
    is non-disturbing and may be contextual."""
    shape = draw(st.sampled_from(PRODUCT_SHAPES))
    n = 1 + max(max(ctx) for ctx in shape)
    names = draw(st.permutations("ABCD"))[:n]
    counts = [draw(st.integers(2, 3)) for _ in range(n)]
    scen = new_scenario(
        names,
        [{names[p] for p in ctx} for ctx in shape],
        {m: [str(o) for o in range(k)] for m, k in zip(names, counts)},
    )
    weights = draw(st.lists(
        st.integers(0, 3), min_size=math.prod(counts), max_size=math.prod(counts)
    ))
    weights[draw(st.integers(0, len(weights) - 1))] += 1
    mix = draw(st.sampled_from([F(0), F(1, 2), F(3, 4), F(1)]))
    pools = [scen.outcomes[m] for m in scen.measurements]
    tables = {}
    for ctx in scen.maximal_contexts:
        at = [scen.measurements.index(m) for m in ctx]
        pushed = {sec.values: F(0) for sec in sections(scen, ctx)}
        for g, w in zip(itertools.product(*pools), weights):
            pushed[tuple(g[p] for p in at)] += F(w, sum(weights))
        ks = {len(scen.outcomes[m]) for m in ctx}
        parity = draw(st.integers(0, max(ks) - 1))
        box = {}
        for values in pushed:
            if len(ks) == 1:
                (k,) = ks
                hit = sum(map(int, values)) % k == parity
                box[values] = F(int(hit), k ** (len(ctx) - 1))
            else:
                box[values] = F(1, len(pushed))
        tables[ctx] = {
            values: (1 - mix) * pushed[values] + mix * box[values]
            for values in pushed
        }
    return new_model(scen, Semiring.RATIONAL, tables)


def stored(lp: ProductLP) -> LinearProgram:
    """The product LP with every column stored."""
    return LinearProgram(lp.objective, lp.bounds, lp.columns, lp.den)


def solved_with_bases(lp):
    bases = []
    sol = solved(lp, trace=lambda i, basis: bases.append(basis))
    return sol.value, sol.point, sol.slack, sol.dual_point, sol.pivots, bases


@settings(max_examples=60, deadline=None)
@given(non_disturbing_models())
def test_product_lp_pivots_like_its_stored_columns(model):
    lp = _ncf_lp(model)
    product = solved_with_bases(lp)
    assert product == solved_with_bases(stored(lp))
    assert 0 <= product[0] <= 1


@settings(max_examples=100, deadline=None)
@given(non_disturbing_models(), st.data())
def test_frontier_dp_prices_like_a_scan_of_every_column(model, data):
    lp = _ncf_lp(model)
    m = len(lp.bounds)
    z = data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    den = data.draw(st.integers(1, 6))
    sums = [sum(z[i] for i in rows) for ((_, rows),) in lp.columns]
    assert lp._suffix_minima(z)[0][0] == min(sums)
    assert lp.dual_feasible(z, den) == (min(sums) >= den)
    first = next((j for j, v in enumerate(sums) if v < den), None)
    entering = lp.pricing()(z, den)
    assert entering == stored(lp).pricing()(z, den)
    if first is None:
        assert entering is None
    else:
        assert entering == (
            first,
            ((lp.scale, lp.columns[first][0][1]),),
            lp.scale * (sums[first] - den),
        )


NCF_LPS = {
    "FR": build_fr_model,
    "noisy 5-cycle": lambda: noisy_cycle_model(NOISE[:5], odd_at=2),
    "noisy 6-cycle at 1/3": lambda: noisy_cycle_model([F(1, 3)] * 6),
}


@pytest.mark.parametrize("name", NCF_LPS)
def test_ncf_certificate_corruptions_are_rejected_on_both_lp_types(name):
    lp = _ncf_lp(NCF_LPS[name]())
    sol = solved(lp)
    optimum = (list(sol.point), sol.slack, sol.dual_point, sol.value)
    corrupted = perturbed_certificates(lp, *optimum)
    assert len(corrupted) == 5
    for target in (lp, stored(lp)):
        for check in CERTIFICATE_CHECKS:
            check(target, *optimum)
        for message, certificate in corrupted.items():
            for check in CERTIFICATE_CHECKS:
                with pytest.raises(Malformed, match=message):
                    check(target, *certificate)


# sha256 of the bases the trace sees, one comma-joined basis per line: the
# exact pivot path at the wall, so that a change of storage or loop order
# in ``solve`` that moves any pivot fails here
PIVOT_PATHS = {
    10: "2a5b4ecf059d2b2f34ca95f037ca25a86d72044f982295ecd5838d031e50fee4",
    12: "db0c4f080e8eee770811fcf5ec5d09f8bcb94ef571d03d953b091ea4f2bbcb9f",
    14: "e17b30b9ec6d906fbe86baad79ea330819d4b06be7c65d30466d950ac9848428",
}


@pytest.mark.parametrize("n,noise,pivots", [
    (10, F(1, 3), 221),
    (12, F(1, 3), 812),
    (14, F(1, 10), 28),
])
def test_ncf_wall_pivots_and_closed_form(n, noise, pivots, monkeypatch):
    bases = []
    monkeypatch.setattr("epimodal.ratlp.solve", lambda lp, trace=None: solve(
        lp, trace=lambda i, basis: bases.append(basis)
    ))
    solution = noncontextual_fraction_certified(noisy_cycle_model([noise] * n))
    assert solution.value == min(1, n * noise / 2)
    assert solution.pivots == pivots == len(bases)
    assert len(solution.point) == 2 ** n
    path = "\n".join(",".join(map(str, basis)) for basis in bases)
    assert hashlib.sha256(path.encode()).hexdigest() == PIVOT_PATHS[n]


def test_product_lp_column_matches_the_expansion():
    lp = _ncf_lp(noisy_cycle_model(NOISE[:4]))
    assert [lp.column(j) for j in range(len(lp.objective))] == list(lp.columns)
    assert len(lp.rows) == len(lp.bounds) == 16


@pytest.mark.parametrize("fields,message", [
    # (radices, contexts, bounds)
    (((2, 0), ((0, 1),), (F(1),) * 0), "outcome"),
    (((2, 2), ((1, 0),), (F(1),) * 4), "ascending"),
    (((2, 2), ((0, 2),), (F(1),) * 4), "ascending"),
    (((2, 2), ((),), ()), "ascending"),
    (((2, 2), ((0, 1),), (F(1),) * 3), "row/bound count"),
    (((2, 2), ((0, 1),), (F(1),) * 3 + (F(-1),)), "negative bound"),
])
def test_every_product_lp_is_checked(fields, message):
    with pytest.raises(Malformed, match=message):
        ProductLP(*fields)
