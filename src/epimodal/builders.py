"""Construct the worked multi-agent models from first principles.

Three families: the Frauchiger-Renner scenario from its two-qubit entangled
state, the Vilasini-Nurgalieva-del Rio scenario from Popescu-Rohrlich box
correlations, and both variants of Wigner's friend.

The common stage is a 4-cycle of agents A, B, U, W: A and U act on the
first qubit (in the Z and X basis respectively), B and W on the second.
X-basis outcomes are relabeled + -> "0", - -> "1", so every table is a
4x4 grid of binary strings.  Amplitudes are plain complex doubles; every
probability is snapped to an exact rational (tolerance 1e-9, denominators
up to 10^6) before it enters a model.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .empirical import EmpiricalModel, Semiring, new_model
from .errors import NotNormalized, SnapFailure, UnknownContext
from .scenario import MeasurementScenario, new_scenario, sections

SNAP_TOLERANCE = 1e-9
SNAP_MAX_DENOMINATOR = 10**6

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# measurement -> (qubit, basis); Z outcomes are |0>,|1>, X outcomes |+>,|->
_QUBIT = {"A": 0, "B": 1, "U": 0, "W": 1}
_BASIS_VECTORS = {
    "Z": ((1.0, 0.0), (0.0, 1.0)),
    "X": ((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2)),
}
_BASIS = {"A": "Z", "B": "Z", "U": "X", "W": "X"}


def snap(value: float) -> Fraction:
    """Round a float to the nearest small-denominator rational, exactly."""
    frac = Fraction(value).limit_denominator(SNAP_MAX_DENOMINATOR)
    if abs(float(frac) - value) > SNAP_TOLERANCE:
        raise SnapFailure(value, frac)
    return frac


def four_cycle_scenario() -> MeasurementScenario:
    """Agents A, B, U, W with contexts {A,B}, {A,W}, {U,B}, {U,W}."""
    return new_scenario(
        measurements=["A", "B", "U", "W"],
        maximal_contexts=[{"A", "B"}, {"A", "W"}, {"U", "B"}, {"U", "W"}],
        outcomes={m: ("0", "1") for m in "ABUW"},
    )


def fr_state() -> tuple[complex, ...]:
    """The entangled two-qubit state (|00> + |10> + |11>) / sqrt(3).

    Amplitudes in computational-basis order |00>, |01>, |10>, |11>.
    """
    a = 1.0 / math.sqrt(3.0)
    return (complex(a), complex(0.0), complex(a), complex(a))


def born_table(
    state: tuple[complex, ...], context: tuple[str, str]
) -> dict[tuple[str, str], Fraction]:
    """Joint outcome probabilities of two one-qubit measurements.

    ``context`` must pair one first-qubit agent (A or U) with one
    second-qubit agent (B or W).  Keys are outcome pairs in context order;
    values are snapped rationals whose sum is exactly 1.
    """
    m1, m2 = context
    for m in (m1, m2):
        if m not in _QUBIT:
            raise UnknownContext(f"unknown agent {m!r}")
    if {_QUBIT[m1], _QUBIT[m2]} != {0, 1}:
        raise UnknownContext(f"{context} does not pair the two qubits")
    if _QUBIT[m1] == 1:  # orient as (first qubit, second qubit)
        flipped = born_table(state, (m2, m1))
        return {(b, a): v for (a, b), v in flipped.items()}
    table = {}
    for o1 in range(2):
        for o2 in range(2):
            v1 = _BASIS_VECTORS[_BASIS[m1]][o1]
            v2 = _BASIS_VECTORS[_BASIS[m2]][o2]
            amplitude = sum(
                v1[i] * v2[j] * state[2 * i + j]
                for i in range(2)
                for j in range(2)
            )
            table[(str(o1), str(o2))] = snap(abs(amplitude) ** 2)
    total = sum(table.values())
    if total != 1:
        raise SnapFailure(float(total), Fraction(1))
    return table


def build_fr_model() -> EmpiricalModel:
    """Rational model of the Frauchiger-Renner scenario on the 4-cycle.

    Every context table is computed by the Born rule from the entangled
    state; nothing is transcribed by hand.
    """
    scen = four_cycle_scenario()
    state = fr_state()
    tables = {}
    for ctx in scen.maximal_contexts:
        oriented = ctx if _QUBIT[ctx[0]] == 0 else (ctx[1], ctx[0])
        born = born_table(state, oriented)
        tables[ctx] = {
            scen.section({oriented[0]: o1, oriented[1]: o2}): v
            for (o1, o2), v in born.items()
        }
    return new_model(scen, Semiring.RATIONAL, tables)


def build_pr_model() -> EmpiricalModel:
    """Boolean Popescu-Rohrlich box model on the 4-cycle.

    With the fixed settings X_A = X_B = 0, X_U = X_W = 1, the box constraint
    (outcome parity equals the product of the settings) supports {00, 11}
    on A-B, A-W and U-B, and {01, 10} on U-W.
    """
    scen = four_cycle_scenario()
    settings = {"A": 0, "B": 0, "U": 1, "W": 1}
    tables = {}
    for ctx in scen.maximal_contexts:
        m1, m2 = ctx
        parity = settings[m1] * settings[m2]
        tables[ctx] = {
            sec: 1
            for sec in sections(scen, ctx)
            if (int(sec.values[0]) + int(sec.values[1])) % 2 == parity
        }
    return new_model(scen, Semiring.BOOLEAN, tables)


def build_wigner_model(
    alpha: float, beta: float, compatible: bool
) -> EmpiricalModel:
    """Wigner's friend with friend A and Wigner W on the state a|0> + b|1>.

    Compatible variant: W measures in A's basis, giving one two-agent
    context with perfectly correlated outcomes weighted (a^2, b^2).
    Incompatible variant: W measures in the conjugate basis; the agents
    cannot share a context, so the scenario has two disconnected singleton
    contexts, A with (a^2, b^2) and W with ((a+b)^2/2, (a-b)^2/2).
    """
    # written so that a NaN amplitude fails the check too
    if not abs(alpha * alpha + beta * beta - 1.0) <= SNAP_TOLERANCE:
        raise NotNormalized(f"alpha^2 + beta^2 = {alpha * alpha + beta * beta}")
    p0 = snap(alpha * alpha)
    p1 = 1 - p0
    if compatible:
        scen = new_scenario(
            measurements=["A", "W"],
            maximal_contexts=[{"A", "W"}],
            outcomes={"A": ("0", "1"), "W": ("0", "1")},
        )
        table = {
            scen.section({"A": "0", "W": "0"}): p0,
            scen.section({"A": "1", "W": "1"}): p1,
        }
        return new_model(scen, Semiring.RATIONAL, {("A", "W"): table})
    scen = new_scenario(
        measurements=["A", "W"],
        maximal_contexts=[{"A"}, {"W"}],
        outcomes={"A": ("0", "1"), "W": ("0", "1")},
    )
    plus = snap((alpha + beta) ** 2 / 2.0)
    tables = {
        ("A",): {
            scen.section({"A": "0"}): p0,
            scen.section({"A": "1"}): p1,
        },
        ("W",): {
            scen.section({"W": "0"}): plus,
            scen.section({"W": "1"}): 1 - plus,
        },
    }
    return new_model(scen, Semiring.RATIONAL, tables)
