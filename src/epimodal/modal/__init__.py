"""Multi-modal S4: formulas, Kripke/topological semantics, trust, translation."""

from .formulas import (
    And,
    D,
    E,
    Formula,
    Iff,
    Implies,
    K,
    Not,
    Or,
    Var,
    diamond,
    parse,
    to_text,
)
from .kripke import (
    TopoModel,
    Topology,
    eval_formula,
    eval_topological,
    is_preorder,
    relation_of,
    topology_of,
)
from .translate import (
    MultiAgentScenario,
    WorldBasis,
    soundness_violations,
    translate,
)
from .trust import (
    AxiomReport,
    FundamentalTruthReport,
    SchemaReport,
    TrustFlavor,
    check_axioms,
    check_trust,
    check_trust_brute_force,
    check_trustworthy,
    check_trustworthy_brute_force,
    enumerate_formulas,
    fundamental_truth_check,
)

__all__ = [
    "And", "D", "E", "Formula", "Iff", "Implies", "K", "Not", "Or", "Var",
    "diamond", "parse", "to_text",
    "TopoModel", "Topology", "eval_formula", "eval_topological",
    "is_preorder", "relation_of", "topology_of",
    "MultiAgentScenario", "WorldBasis", "soundness_violations", "translate",
    "AxiomReport", "FundamentalTruthReport", "SchemaReport", "TrustFlavor",
    "check_axioms", "check_trust", "check_trust_brute_force",
    "check_trustworthy", "check_trustworthy_brute_force",
    "enumerate_formulas", "fundamental_truth_check",
]
