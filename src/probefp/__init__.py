"""Fingerprinting of finite-state game strategies against parametrized
probabilistic probes."""

__version__ = "0.1.0"

from .automata import (  # noqa: F401
    PayoffMatrix,
    PlayerMachine,
    Probe,
    joss_ann,
    parse_player,
    parse_probe,
    validate_probe,
)
from .chain import (  # noqa: F401
    ParamChain,
    compose,
    evaluate,
    evaluate_points,
    limit_distributions,
)
from .fingerprint import (  # noqa: F401
    CESARO,
    INTERIOR_OFFSET,
    FingerprintGrid,
    SymbolicFingerprint,
    boundary_discrepancy,
    fingerprint_grid,
    pointwise_fingerprint,
    symbolic_fingerprint,
)
from .metrics import (  # noqa: F401
    DistanceMatrix,
    distance_matrix,
    l2_distance,
    make_grid_evaluator,
)
from .polyexpr import (  # noqa: F401
    ParamExpr,
    RationalFn,
    expr_parse,
    ratfn_equiv,
    ratfn_eval,
)
from .simulate import SimEstimate, estimate, play_once  # noqa: F401


def bundled_strategy_path(name: str):
    """Path to one of the bundled strategy files (tft, allc, alld, pavlov, grim)."""
    from importlib import resources

    return resources.files(__name__) / "strategies" / f"{name}.player"


def load_bundled_strategy(name: str) -> PlayerMachine:
    return parse_player(bundled_strategy_path(name).read_text())
