"""Bounded Wang tiling toolkit.

Exact desk-scale solvers, solver-agnostic integer model emission, and
shortest-path maximum-cover heuristics with proven coverage guarantees.
"""

from . import exact
from .errors import BudgetExceededError, ConfigurationError, StructuralError
from .exact import (CAPPED, INFEASIBLE, VALID, SolveResult, TorusResult,
                    count_torus, max_cover_oracle, smallest_torus,
                    solve_decision)
from .extensions import (DifferentEdgeColors, DifferentTile, EqualEdgeColors,
                         ForbidEdgeColor, ForbidTile, ForceEdgeColor,
                         ForceTile, Packing, PeriodicFixed, PeriodicVariable,
                         SameTile, SmallestObjective)
from .heuristics import (CoverRun, LayeredDag, alg4_improve,
                         build_layered_dag, cover, max_row_cover)
from .tileset import (VOID, CornerTile, Tile, TileSet, Tiling, ValidityReport,
                      builtin_names, builtin_set, complete_stochastic_set,
                      corner_to_wang, validate_tiling, wang_to_corner)
from .transducer import (DUAL, HORIZONTAL, Arc, TransducerGraph,
                         TranslationResult, all_states_on_cycles,
                         build_transducer, parallel_arcs, to_dot,
                         translate_horizontal, translate_vertical)

__version__ = "0.1.0"


def pack_tiles(ts: TileSet, height: int, width: int, periodic: bool = False,
               deadline: float | None = None,
               most_constrained: bool = True) -> SolveResult:
    """:func:`wangtiler.exact.pack_tiles`.  ``most_constrained=True`` is
    accepted, and ignored, only because the benchmark's packing workload
    still passes it; fewest-candidates-first is the one order."""
    if not most_constrained:
        raise ConfigurationError("pack_tiles has one order, fewest candidates first")
    return exact.pack_tiles(ts, height, width, periodic, deadline)
