import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal.contextuality import noncontextual_fraction_certified
from epimodal.errors import Malformed, Unbounded
from epimodal.ratlp import LinearProgram, _verify_certificate, solve
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
def test_matches_fraction_tableau_oracle(n, m, data):
    assert_matches_fraction_tableau_oracle(LinearProgram.build(
        [data.draw(signed_entry) for _ in range(n)],
        [[data.draw(signed_entry) for _ in range(n)] for _ in range(m)],
        [data.draw(bound_entry) for _ in range(m)],
    ))


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


NOISE = [F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1, 5)]


@pytest.mark.parametrize("n", range(3, 8))
def test_ncycle_lp_matches_fraction_tableau_oracle(n, monkeypatch):
    model = noisy_cycle_model(NOISE[:n], odd_at=n // 2)
    lps = []
    monkeypatch.setattr(
        "epimodal.ratlp.solve", lambda lp, trace=None: lps.append(lp) or solved(lp)
    )
    noncontextual_fraction_certified(model)
    (lp,) = lps
    integer, reference = run_both(lp)
    assert integer == reference
    assert integer[0] == min(1, sum(NOISE[:n]) / 2)
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
