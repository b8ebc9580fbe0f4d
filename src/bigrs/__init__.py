"""bigrs: probabilistic, stochastic, and action bigraphical reactive systems.

Parse `.big` models, enumerate rule occurrences over bigraphs, build
DTMC/CTMC/MDP transition systems, label states with predicates and
rewards, answer reachability and expected-cost queries, and export
PRISM/DOT/JSON artifacts.
"""

from .bigraph import (
    Bigraph,
    BigraphError,
    CompositionError,
    ControlDecl,
    Edge,
    Interface,
    Link,
    NotGroundError,
    ShapeError,
    SolidityError,
    TensorError,
    close_name,
    compose,
    empty,
    hole,
    identity,
    ion,
    is_solid,
    lean,
    merge_parallel,
    parallel,
    solidity_violations,
    tensor,
    unit,
)
from .canon import canonical_key
from .matching import (
    Match,
    MatchError,
    RewriteOutcome,
    apply_rule_all,
    has_occurrence,
    occurrences,
    rewrite,
)
from .system import (
    ActionDecl,
    PredicateDecl,
    StateCapError,
    SystemSpec,
    TransitionSystem,
    WeightedRule,
    build_transition_system,
)
from .language import ElabError, LanguageError, ParseError, elaborate, load_model, parse
from .analysis import (
    AnalysisError,
    ConvergenceError,
    Query,
    ctmc_reach,
    dtmc_bounded_reach,
    dtmc_reach,
    mdp_bounded_reach,
    mdp_expected_cost,
    parse_query,
    run_query,
)
from .export import (
    ExportBundle,
    export_dot,
    export_json,
    export_prism,
    render_dot,
    render_lab,
    render_srew,
    render_tra,
    render_trew,
    rewards_to_states,
)
from .walk import TraceStep, simulate

__version__ = "0.1.0"
