import math
from fractions import Fraction

import pytest

from epimodal import (
    HierarchyLevel,
    Semiring,
    born_table,
    build_fr_model,
    build_pr_model,
    build_wigner_model,
    check_no_disturbance,
    classify,
    four_cycle_scenario,
    fr_state,
    is_connected,
    support,
)
from epimodal.builders import snap
from epimodal.errors import NotNormalized, SnapFailure, UnknownContext

F = Fraction

TABLE_ONE = {
    ("A", "B"): {"0,0": F(1, 3), "0,1": F(0), "1,0": F(1, 3), "1,1": F(1, 3)},
    ("A", "W"): {"0,0": F(1, 6), "0,1": F(1, 6), "1,0": F(2, 3), "1,1": F(0)},
    ("U", "B"): {"0,0": F(2, 3), "0,1": F(1, 6), "1,0": F(0), "1,1": F(1, 6)},
    ("U", "W"): {"0,0": F(3, 4), "0,1": F(1, 12), "1,0": F(1, 12),
                 "1,1": F(1, 12)},
}

TABLE_TWO = {
    ("A", "B"): {"0,0", "1,1"},
    ("A", "W"): {"0,0", "1,1"},
    ("U", "B"): {"0,0", "1,1"},
    ("U", "W"): {"0,1", "1,0"},
}


def test_fr_state():
    state = fr_state()
    assert abs(sum(abs(a) ** 2 for a in state) - 1) < 1e-12
    assert state[1] == 0  # no |01> component
    assert abs(state[2] - 1 / math.sqrt(3)) < 1e-15  # sqrt(2/3) / sqrt(2)


def test_born_table_rows():
    state = fr_state()
    for (m1, m2), cells in TABLE_ONE.items():
        table = born_table(state, (m1, m2))
        for key, expected in cells.items():
            o1, o2 = key.split(",")
            assert table[(o1, o2)] == expected, (m1, m2, key)
        assert sum(table.values()) == 1


def test_born_table_float_row_sums_near_one():
    # pre-snap float probabilities already normalize to machine precision
    state = fr_state()
    bases = {
        "Z": ((1.0, 0.0), (0.0, 1.0)),
        "X": ((2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5))),
    }
    which = {"A": "Z", "U": "X", "B": "Z", "W": "X"}
    for m1, m2 in TABLE_ONE:
        total = 0.0
        for o1 in range(2):
            for o2 in range(2):
                amp = sum(
                    bases[which[m1]][o1][i] * bases[which[m2]][o2][j]
                    * state[2 * i + j]
                    for i in range(2)
                    for j in range(2)
                )
                total += abs(amp) ** 2
        assert abs(total - 1.0) < 1e-12


def test_born_table_rejects_same_qubit_pairs():
    with pytest.raises(UnknownContext, match=r"^\('A', 'U'\) does not pair the two qubits$"):
        born_table(fr_state(), ("A", "U"))
    with pytest.raises(UnknownContext, match=r"^unknown agent 'Q'$"):
        born_table(fr_state(), ("A", "Q"))


def test_build_fr_model_matches_born_tables(fr_model):
    # construction consistency: the model is exactly the per-context tables
    state = fr_state()
    for ctx, cells in TABLE_ONE.items():
        table = born_table(state, ctx)
        for key, expected in cells.items():
            o1, o2 = key.split(",")
            assert table[(o1, o2)] == expected
            assert fr_model.value(ctx, {ctx[0]: o1, ctx[1]: o2}) == expected


def test_built_models_pass_no_disturbance(fr_model, pr_model):
    assert check_no_disturbance(fr_model).holds
    assert check_no_disturbance(pr_model).holds
    for compatible in (True, False):
        m = build_wigner_model(0.6, 0.8, compatible=compatible)
        assert check_no_disturbance(m).holds


def test_build_pr_model_table(pr_model):
    assert pr_model.semiring is Semiring.BOOLEAN
    for ctx, cells in TABLE_TWO.items():
        got = {s.key() for s in support(pr_model, ctx)}
        assert got == cells, ctx


def test_pr_parity_invariant(pr_model):
    settings = {"A": 0, "B": 0, "U": 1, "W": 1}
    for ctx in pr_model.scenario.maximal_contexts:
        product_bit = settings[ctx[0]] * settings[ctx[1]]
        for sec in support(pr_model, ctx):
            parity = (int(sec.values[0]) + int(sec.values[1])) % 2
            assert parity == product_bit


def test_wigner_incompatible_balanced():
    m = build_wigner_model(2 ** -0.5, 2 ** -0.5, compatible=False)
    assert not is_connected(m.scenario)
    w_table = {s.key(): v for s, v in m.tables[("W",)].items()}
    assert w_table == {"0": 1, "1": 0}  # (a+b)^2/2 = 1 at a = b
    a_table = {s.key(): v for s, v in m.tables[("A",)].items()}
    assert a_table == {"0": F(1, 2), "1": F(1, 2)}


def test_wigner_compatible_deterministic():
    m = build_wigner_model(1.0, 0.0, compatible=True)
    assert {s.key() for s in support(m, ("A", "W"))} == {"0,0"}


def test_wigner_classifies_noncontextual():
    for alpha, beta in ((0.6, 0.8), (1.0, 0.0), (2 ** -0.5, -(2 ** -0.5))):
        for compatible in (True, False):
            m = build_wigner_model(alpha, beta, compatible=compatible)
            assert classify(m).level is HierarchyLevel.NONCONTEXTUAL


def test_wigner_not_normalized():
    with pytest.raises(NotNormalized):
        build_wigner_model(1.0, 0.5, compatible=True)


def test_snap():
    assert snap(1 / 3 + 1e-12) == F(1, 3)
    assert snap(0.75) == F(3, 4)
    with pytest.raises(SnapFailure):
        snap(0.50000005)  # nearest representable rational is 5e-8 away


def test_snap_failure_propagates_from_wigner():
    alpha = math.sqrt(0.50000005)
    beta = math.sqrt(1 - 0.50000005)
    with pytest.raises(SnapFailure):
        build_wigner_model(alpha, beta, compatible=True)


def test_four_cycle_scenario_shape():
    scen = four_cycle_scenario()
    assert scen.measurements == ("A", "B", "U", "W")
    assert scen.maximal_contexts == (
        ("A", "B"), ("A", "W"), ("B", "U"), ("U", "W"),
    )
