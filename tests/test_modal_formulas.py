import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal.errors import EmptyAgentSet, FormulaSyntaxError
from epimodal.modal import (
    And,
    D,
    E,
    Iff,
    Implies,
    K,
    Not,
    Or,
    TopoModel,
    Var,
    diamond,
    eval_formula,
    eval_topological,
    parse,
    to_text,
)
from epimodal.modal.formulas import MAX_DEPTH


def test_axiom_t_shape():
    assert parse("K{a} p -> p") == Implies(K("a", Var("p")), Var("p"))


def test_mutual_implies_individual_shape():
    f = parse("E{a,b} p -> K{a} p")
    assert f == Implies(E(frozenset("ab"), Var("p")), K("a", Var("p")))


def test_unbalanced_parenthesis_reports_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("K{a} (p & q")
    assert info.value.position == len("K{a} (p & q")  # error at end of input


def test_syntax_errors():
    for text in ["", "p &", "& p", "K{} p", "K{a,b} p", "p ? q", "(p"]:
        with pytest.raises(FormulaSyntaxError):
            parse(text)


def test_dia_normalizes_to_not_box_not():
    assert parse("dia{a} p") == Not(K("a", Not(Var("p"))))
    assert parse("dia{a} p") == diamond("a", Var("p"))
    assert parse("box{a} p") == K("a", Var("p"))


def test_precedence():
    assert parse("!p & q") == And(Not(Var("p")), Var("q"))
    assert parse("K{a} p & q") == And(K("a", Var("p")), Var("q"))
    assert parse("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))
    assert parse("p -> q -> r") == Implies(Var("p"), Implies(Var("q"), Var("r")))
    assert parse("p & q <-> r") == Iff(And(Var("p"), Var("q")), Var("r"))
    assert parse("!K{a} p") == Not(K("a", Var("p")))


@pytest.mark.parametrize("symbol", ["&", "|", "->", "<->"])
def test_operator_errors(symbol):
    at = len(symbol) + 3
    for text, message, position in [
        (f"p {symbol}", "unexpected end", at - 1),
        (f"p {symbol} {symbol} q", f"expected a formula, found {symbol!r}", at),
        (f"{symbol} p", f"expected a formula, found {symbol!r}", 0),
    ]:
        with pytest.raises(FormulaSyntaxError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


def test_node_classes_tell_apart():
    p, q = Var("p"), Var("q")
    group = frozenset("ab")
    for nodes in [
        [And(p, q), Or(p, q), Implies(p, q), Iff(p, q)],
        [E(group, p), D(group, p)],
    ]:
        assert len(set(nodes)) == len(nodes)
        assert len({hash(node) for node in nodes}) == len(nodes)
        assert all(a != b for a in nodes for b in nodes if a is not b)


def test_empty_agent_set_rejected_at_construction():
    with pytest.raises(EmptyAgentSet, match="^E needs at least one agent$"):
        E(frozenset(), Var("p"))
    with pytest.raises(EmptyAgentSet, match="^D needs at least one agent$"):
        D(frozenset(), Var("p"))


variables = st.sampled_from(["p", "q", "r"]).map(Var)
agents = st.sampled_from(["a", "b", "c"])
agent_sets = st.frozensets(agents, min_size=1, max_size=3)


def formulas(depth):
    if depth == 0:
        return variables
    sub = formulas(depth - 1)
    return st.one_of(
        variables,
        st.builds(Not, sub),
        st.builds(K, agents, sub),
        st.builds(E, agent_sets, sub),
        st.builds(D, agent_sets, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    )


@settings(max_examples=300)
@given(formulas(4))
def test_parse_print_round_trip(formula):
    assert parse(to_text(formula)) == formula


NESTED = {
    "not": lambda k: "!" * k + "p",
    "paren": lambda k: "(" * k + "p" + ")" * k,
    "iff": lambda k: " <-> ".join(["p"] * (k + 1)),
    "implies": lambda k: " -> ".join(["p"] * (k + 1)),
    "or": lambda k: " | ".join(["p"] * (k + 1)),
    "and": lambda k: " & ".join(["p"] * (k + 1)),
    "modal": lambda k: "D{a,b} " * k + "p",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_limit(shape):
    model = TopoModel.make(
        ["u", "v"], ["a", "b"],
        {"a": [("u", "u"), ("v", "v"), ("u", "v")], "b": [("u", "u"), ("v", "v")]},
        {"p": ["u"]},
    )
    deepest = parse(NESTED[shape](MAX_DEPTH))
    assert eval_formula(model, deepest) == eval_topological(model, deepest)
    assert parse(to_text(deepest)) == deepest
    with pytest.raises(FormulaSyntaxError, match="nested deeper"):
        parse(NESTED[shape](MAX_DEPTH + 1))


def test_dia_counts_as_its_normal_form():
    # dia{a} p prints as !K{a} !p, so it takes three levels of the limit
    deepest = parse("dia{a} " * (MAX_DEPTH // 3) + "p")
    assert parse(to_text(deepest)) == deepest
    with pytest.raises(FormulaSyntaxError, match="nested deeper"):
        parse("dia{a} " * (MAX_DEPTH // 3 + 1) + "p")
