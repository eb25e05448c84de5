"""Contextuality of empirical models and its multi-agent epistemic reading.

The package decides where a model sits in the contextuality hierarchy
(noncontextual, probabilistic, logical, strong), quantifies it by the exact
noncontextual fraction, rebuilds the standard multi-agent thought
experiments from first principles, and translates any model into a finite
multi-modal S4 structure where contextuality appears as a soundness
violation under mutual-knowledge worlds.
"""

from .builders import (
    born_table,
    build_fr_model,
    build_pr_model,
    build_wigner_model,
    four_cycle_scenario,
    fr_state,
)
from .contextuality import (
    ContextualityReport,
    HierarchyLevel,
    classify,
    extendable,
    global_sections,
    liar_cycle_witness,
    noncontextual_decomposition,
    noncontextual_fraction,
    noncontextual_fraction_certified,
)
from .empirical import (
    EmpiricalModel,
    NoDisturbanceReport,
    Semiring,
    check_no_disturbance,
    marginal,
    new_model,
    possibilistic_collapse,
    support,
    uniform_rational_lift,
)
from .scenario import (
    Assignments,
    GlobalSection,
    MeasurementScenario,
    Section,
    all_contexts,
    glue,
    is_compatible_family,
    is_connected,
    new_scenario,
    restrict,
    sections,
)

__version__ = "0.1.0"

__all__ = [
    "born_table", "build_fr_model", "build_pr_model", "build_wigner_model",
    "four_cycle_scenario", "fr_state",
    "ContextualityReport", "HierarchyLevel", "classify", "extendable",
    "global_sections", "liar_cycle_witness", "noncontextual_decomposition",
    "noncontextual_fraction", "noncontextual_fraction_certified",
    "EmpiricalModel", "NoDisturbanceReport", "Semiring",
    "check_no_disturbance", "marginal", "new_model", "possibilistic_collapse",
    "support", "uniform_rational_lift",
    "Assignments", "GlobalSection", "MeasurementScenario", "Section",
    "all_contexts", "glue", "is_compatible_family", "is_connected",
    "new_scenario", "restrict", "sections",
]
