"""Multi-modal formula language: AST, parser and printer.

Concrete grammar (an artifact of this package; the logic itself only fixes
the connectives):

    variables   [a-z][a-z0-9_]*
    unary       !  K{i}  E{i,j,...}  D{i,j,...}  box{i}  dia{i}
    binary      &  |  ->  <->        (precedence ! /modal > & > | > -> > <->,
                                      -> and <-> associate to the right)

``box{i}`` is a synonym for ``K{i}``; ``dia{i} p`` is normalized structurally
to ``!K{i}!p`` at parse time, so the AST only carries Var, Not, And, Or,
Implies, Iff, K, E and D nodes.  Nesting deeper than ``MAX_DEPTH`` levels
is a syntax error.  Printing emits minimal parentheses and
round-trips: parse(print(f)) == f for every normalized AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import EmptyAgentSet, FormulaSyntaxError


class Formula:
    """Base class for AST nodes; subclasses are frozen dataclasses.

    The generated dataclass hash covers the fields only, so nodes of two
    classes with the same field types would share it: And(p, q), Or(p, q),
    Implies(p, q) and Iff(p, q), and E and D over one group and operand.
    Those classes hash their class with their fields, so that a set of
    enumerated formulas does not compare long chains of colliding nodes.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __hash__(self):
        return hash((And, self.left, self.right))


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __hash__(self):
        return hash((Or, self.left, self.right))


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __hash__(self):
        return hash((Implies, self.left, self.right))


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def __hash__(self):
        return hash((Iff, self.left, self.right))


@dataclass(frozen=True)
class K(Formula):
    agent: str
    operand: Formula


@dataclass(frozen=True)
class E(Formula):
    agents: frozenset[str]
    operand: Formula

    def __hash__(self):
        return hash((E, self.agents, self.operand))

    def __post_init__(self):
        if not self.agents:
            raise EmptyAgentSet("E needs at least one agent")


@dataclass(frozen=True)
class D(Formula):
    agents: frozenset[str]
    operand: Formula

    def __hash__(self):
        return hash((D, self.agents, self.operand))

    def __post_init__(self):
        if not self.agents:
            raise EmptyAgentSet("D needs at least one agent")


def diamond(agent: str, operand: Formula) -> Formula:
    """dia{i} p as its structural normal form !K{i}!p."""
    return Not(K(agent, Not(operand)))


_TOKEN = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<iff><->)|(?P<implies>->)"
    r"|(?P<not>!)|(?P<and>&)|(?P<or>\|)"
    r"|(?P<modal>(?:K|E|D|box|dia)\{[^}]*\})"
    r"|(?P<var>[a-z][a-z0-9_]*)"
    r"|(?P<bad>\S))"
)

_AGENT = re.compile(r"[A-Za-z0-9_]+\Z")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            break
        kind = match.lastgroup
        if kind == "bad":
            raise FormulaSyntaxError(
                f"unexpected character {match.group('bad')!r}", match.start("bad")
            )
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _modal_parts(token: str, position: int) -> tuple[str, tuple[str, ...]]:
    head, _, rest = token.partition("{")
    body = rest[:-1]
    agents = tuple(a.strip() for a in body.split(","))
    if not body.strip() or any(not _AGENT.match(a) for a in agents):
        raise FormulaSyntaxError(f"bad agent list in {token!r}", position)
    return head, agents


# Deepest nesting the parser accepts.  Each "!", modality and "(" is one
# level, and so is each further operand of a "&", "|", "->" or "<->" chain;
# "dia" is three, as its normal form !K!, so printed formulas parse again.
# A level costs the parser at most six Python frames and the printer and
# both evaluators one each, well inside the default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.at]

    def take(self):
        token = self.tokens[self.at]
        self.at += 1
        return token

    def enter(self, position: int, levels: int = 1) -> None:
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_DEPTH} levels", position
            )

    def parse(self) -> Formula:
        formula = self.iff()
        kind, value, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r}", pos)
        return formula

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek()[0] == "iff":
            self.enter(self.take()[2])
            right = self.iff()
            self.depth -= 1
            return Iff(left, right)
        return left

    def implies(self) -> Formula:
        left = self.or_()
        if self.peek()[0] == "implies":
            self.enter(self.take()[2])
            right = self.implies()
            self.depth -= 1
            return Implies(left, right)
        return left

    def or_(self) -> Formula:
        left = self.and_()
        links = 0
        while self.peek()[0] == "or":
            self.enter(self.take()[2])
            links += 1
            left = Or(left, self.and_())
        self.depth -= links
        return left

    def and_(self) -> Formula:
        left = self.unary()
        links = 0
        while self.peek()[0] == "and":
            self.enter(self.take()[2])
            links += 1
            left = And(left, self.unary())
        self.depth -= links
        return left

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "not":
            self.take()
            self.enter(pos)
            operand = self.unary()
            self.depth -= 1
            return Not(operand)
        if kind == "modal":
            self.take()
            head, agents = _modal_parts(value, pos)
            levels = 3 if head == "dia" else 1  # printed back as !K{i}!
            self.enter(pos, levels)
            operand = self.unary()
            self.depth -= levels
            if head in ("K", "box"):
                if len(agents) != 1:
                    raise FormulaSyntaxError(
                        f"{head} takes exactly one agent", pos
                    )
                return K(agents[0], operand)
            if head == "dia":
                if len(agents) != 1:
                    raise FormulaSyntaxError("dia takes exactly one agent", pos)
                return diamond(agents[0], operand)
            node = E if head == "E" else D
            return node(frozenset(agents), operand)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "var":
            return Var(value)
        if kind == "lparen":
            self.enter(pos)
            inner = self.iff()
            self.depth -= 1
            kind, value, pos = self.take()
            if kind != "rparen":
                raise FormulaSyntaxError("expected ')'", pos)
            return inner
        raise FormulaSyntaxError(
            f"expected a formula, found {value!r}" if value else "unexpected end",
            pos,
        )


def parse(text: str) -> Formula:
    """Parse the grammar above into a normalized AST."""
    return _Parser(text).parse()


_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4}


def to_text(formula: Formula) -> str:
    """Print with minimal parentheses; inverse of :func:`parse`."""

    def agents(group: frozenset[str]) -> str:
        return ",".join(sorted(group))

    def go(node: Formula, level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Not):
            return "!" + go(node.operand, 5)
        if isinstance(node, K):
            return f"K{{{node.agent}}} " + go(node.operand, 5)
        if isinstance(node, E):
            return f"E{{{agents(node.agents)}}} " + go(node.operand, 5)
        if isinstance(node, D):
            return f"D{{{agents(node.agents)}}} " + go(node.operand, 5)
        own = _LEVEL[type(node)]
        symbol = {Iff: "<->", Implies: "->", Or: "|", And: "&"}[type(node)]
        if isinstance(node, (Iff, Implies)):  # right associative
            text = f"{go(node.left, own + 1)} {symbol} {go(node.right, own)}"
        else:  # left associative
            text = f"{go(node.left, own)} {symbol} {go(node.right, own + 1)}"
        return f"({text})" if own < level else text

    return go(formula, 0)
