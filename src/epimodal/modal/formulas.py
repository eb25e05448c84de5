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
round-trips: parse(print(f)) == f for every normalized AST.  The table
``_BINARY`` is the one place where the binary operators' precedence,
associativity and printed symbols are declared; the parser and the
printer both read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import EmptyAgentSet, FormulaSyntaxError


class Formula:
    """Base class for AST nodes; subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class _Binary(Formula):
    """A binary connective: And, Or, Implies and Iff subclass it bare.

    A generated dataclass hash covers the fields only, so And(p, q),
    Or(p, q), Implies(p, q) and Iff(p, q) would share it.  The class is
    hashed with the fields, so that a set of enumerated formulas does not
    compare long chains of colliding nodes; a ``@dataclass`` on a subclass
    would generate the fields-only hash again.
    """

    left: Formula
    right: Formula

    def __hash__(self):
        return hash((type(self), self.left, self.right))


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Iff(_Binary):
    pass


@dataclass(frozen=True)
class K(Formula):
    agent: str
    operand: Formula


@dataclass(frozen=True)
class _Group(Formula):
    """A modality over a nonempty group of agents; E (mutual) and D
    (distributed knowledge) are bare subclasses, hashed with their class
    as ``_Binary`` is."""

    agents: frozenset[str]
    operand: Formula

    def __hash__(self):
        return hash((type(self), self.agents, self.operand))

    def __post_init__(self):
        if not self.agents:
            raise EmptyAgentSet(f"{type(self).__name__} needs at least one agent")


class E(_Group):
    pass


class D(_Group):
    pass


def diamond(agent: str, operand: Formula) -> Formula:
    """dia{i} p as its structural normal form !K{i}!p."""
    return Not(K(agent, Not(operand)))


# The binary operators, loosest first: token kind, node class, whether it
# associates to the right, and printed symbol.
_BINARY = (
    ("iff", Iff, True, "<->"),
    ("implies", Implies, True, "->"),
    ("or", Or, False, "|"),
    ("and", And, False, "&"),
)

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
        formula = self.binary(0)
        kind, value, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r}", pos)
        return formula

    def binary(self, level: int) -> Formula:
        """A chain of ``_BINARY[level]``'s operator over operands of the
        next tighter level.  A right-associative operator takes the rest
        of the chain as its right operand, at its own level."""
        kind, node, right, _ = _BINARY[level]
        tighter = self.binary if level + 1 < len(_BINARY) else self.unary
        left = tighter(level + 1)
        links = 0
        while self.peek()[0] == kind:
            self.enter(self.take()[2])
            links += 1
            left = node(left, self.binary(level) if right else tighter(level + 1))
        self.depth -= links
        return left

    def unary(self, level: int = len(_BINARY)) -> Formula:
        """A negation, a modality or an atom: the level past ``_BINARY``."""
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
            if head in ("E", "D"):
                return (E if head == "E" else D)(frozenset(agents), operand)
            if len(agents) != 1:
                raise FormulaSyntaxError(f"{head} takes exactly one agent", pos)
            if head == "dia":
                return diamond(agents[0], operand)
            return K(agents[0], operand)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "var":
            return Var(value)
        if kind == "lparen":
            self.enter(pos)
            inner = self.binary(0)
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


# Printing levels: 0 outside everything, then one per row of ``_BINARY``
# loosest first, and the unary operators' operands tightest of all.
_PRINTED = {
    node: (own, right, symbol)
    for own, (_, node, right, symbol) in enumerate(_BINARY, 1)
}
_UNARY = len(_BINARY) + 1


def to_text(formula: Formula) -> str:
    """Print with minimal parentheses; inverse of :func:`parse`."""

    def go(node: Formula, level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Not):
            return "!" + go(node.operand, _UNARY)
        if isinstance(node, K):
            return f"K{{{node.agent}}} " + go(node.operand, _UNARY)
        if isinstance(node, _Group):
            group = ",".join(sorted(node.agents))
            return f"{type(node).__name__}{{{group}}} " + go(node.operand, _UNARY)
        own, right, symbol = _PRINTED[type(node)]
        # only the operand on the side it associates to may share its level
        at_left, at_right = (own + 1, own) if right else (own, own + 1)
        text = f"{go(node.left, at_left)} {symbol} {go(node.right, at_right)}"
        return f"({text})" if own < level else text

    return go(formula, 0)
