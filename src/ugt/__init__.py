"""Exact-arithmetic analysis of extensive-form games with unawareness."""

from .core import (
    CHECK_NAMES,
    CheckResult,
    Game,
    InfoSet,
    NATURE,
    NodeData,
    StructuralError,
    ValidationReport,
    hosts_reachable,
    info_arborescence,
    t_partial_game,
    validate_game,
    validate_structure,
)
from .discovery import (
    DiscoverySupergame,
    DiscoveryTrace,
    allowed_profiles,
    build_supergame,
    discovered_version,
    discovery_relations,
    run_discovery,
    self_confirming_games,
    supergame_dot,
)
from .equilibrium import (
    AwarenessReport,
    SceVerdict,
    awareness_diagnostics,
    check_sce_behavior,
    check_sce_efr,
    check_sce_pure,
    construct_sce_efr,
    lift_pure,
    uniform_nature,
)
from .fixtures import FIXTURES, INITIAL_GAMES, load
from .gamedoc import (
    DocAxiomError,
    DocSemanticError,
    DocSyntaxError,
    GameDocError,
    game_dot,
    parse_game,
    serialize_game,
)
from .randgen import GenParams, generate_random_game, random_profile
from .rationalizability import EfrTrace, efr
from .reference import OracleCapExceeded, efr_oracle
from .strategies import (
    BehaviorStrategy,
    MixedStrategy,
    PureStrategy,
    kuhn_convert,
    pure_strategies,
    realization_equivalent,
    realized_tbar_path,
)

__version__ = "0.1.0"
