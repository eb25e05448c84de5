"""Exception hierarchy shared by all epimodal modules.

Every error raised on bad input derives from EpimodalError, so callers can
catch one base class at API boundaries (the CLI maps them to exit codes).
"""

from __future__ import annotations

import reprlib

# Every id, label, key or value from the input that an error message
# quotes is written by this one bounded repr, so the message stays one
# short line whatever the input holds.
_repr = reprlib.Repr()
_repr.maxlevel, _repr.maxlist, _repr.maxdict = 1, 3, 2
_repr.maxstring = _repr.maxlong = 30
_repr.maxother = 80  # an exception or any other object
quote = _repr.repr


class EpimodalError(Exception):
    """Base class for all library errors."""


# -- measurement scenarios ---------------------------------------------------

class ScenarioError(EpimodalError):
    pass


class CoverageError(ScenarioError):
    """Union of the maximal contexts does not equal the measurement set."""


class DominatedContext(ScenarioError):
    """A maximal context is contained in another one."""


class EmptyOutcomes(ScenarioError):
    """A measurement has an empty outcome set."""


class UnknownMeasurement(ScenarioError):
    """A context mentions a measurement that is not declared, or a
    measurement id is declared twice or cannot be written."""

    def __init__(self, measurement, problem="unknown measurement"):
        self.measurement = measurement
        super().__init__(f"{problem} {quote(measurement)}")


class UnknownContext(ScenarioError):
    """The context is not part of the scenario (not inside a maximal one)."""


class NotASubcontext(ScenarioError):
    """Restriction target is not contained in the section's context."""


class IncompatibleFamily(ScenarioError):
    """Two sections of a family disagree on their overlap."""

    def __init__(self, first, second, overlap):
        self.first = first
        self.second = second
        self.overlap = overlap
        super().__init__(
            f"sections over {first.context} and {second.context} "
            f"disagree on {overlap}"
        )


class IncompleteCover(ScenarioError):
    """A family meant to be glued does not cover all measurements."""


# -- empirical models --------------------------------------------------------

class ModelError(EpimodalError):
    pass


class NormalizationError(ModelError):
    """A context table does not sum (or OR) to the semiring unit."""

    def __init__(self, context, total):
        self.context = context
        self.total = total
        super().__init__(f"table for context {quote(context)} sums to {total}, not 1")


class NegativeValue(ModelError):
    pass


class UnknownSection(ModelError):
    pass


class WrongSemiring(ModelError):
    pass


class DisturbingModel(ModelError):
    """The operation needs no-disturbance but the model violates it."""

    def __init__(self, report):
        self.report = report
        bad = [",".join(c.intersection) for c in report.checks if not c.equal]
        super().__init__(f"model is disturbing on intersections {quote(bad)}")


# -- contextuality -----------------------------------------------------------

class SectionNotInSupport(EpimodalError):
    pass


class NotACycle(EpimodalError):
    pass


# -- exact LP ----------------------------------------------------------------

class LpError(EpimodalError):
    pass


class Malformed(LpError):
    """Dimensions disagree or a bound is negative (origin infeasible)."""


class Unbounded(LpError):
    def __init__(self, ray):
        self.ray = ray
        super().__init__("objective is unbounded along a feasible ray")


# -- quantum / box builders --------------------------------------------------

class BuilderError(EpimodalError):
    pass


class NotNormalized(BuilderError):
    pass


class SnapFailure(BuilderError):
    """A float probability has no nearby small-denominator rational."""

    def __init__(self, value, closest):
        self.value = value
        self.closest = closest
        super().__init__(f"{value!r} is not within tolerance of {closest}")


# -- diagrams ----------------------------------------------------------------

class UnquotableId(EpimodalError):
    """A measurement or outcome id that no DOT quoted string can hold."""


# -- modal logic -------------------------------------------------------------

class ModalError(EpimodalError):
    pass


class FormulaSyntaxError(ModalError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownAgent(ModalError):
    def __init__(self, agent):
        self.agent = agent
        super().__init__(f"unknown agent {quote(agent)}")


class BadAgentName(ModalError):
    """An agent name that no formula can write: not a nonempty run of
    letters, digits and underscores."""

    def __init__(self, agent):
        self.agent = agent
        super().__init__(
            f"agent name {quote(agent)} is not letters, digits and underscores"
        )


class UnknownVariable(ModalError):
    pass


class EmptyAgentSet(ModalError):
    pass


class NegativeBound(ModalError):
    """A formula enumeration was asked for a negative depth or limit."""


class PoolTooLarge(ModalError):
    """A formula enumeration would hold more than ``trust.MAX_POOL`` formulas."""


class NotS4(ModalError):
    """A relation is not reflexive and transitive."""


class NotAlexandrov(ModalError):
    """The set family is not a (finite, hence Alexandrov) topology."""


class TrustPreconditionFailed(ModalError):
    pass


class Disconnected(ModalError):
    """Translation needs a connected measurement scenario."""
