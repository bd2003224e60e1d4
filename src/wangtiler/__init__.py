"""Bounded Wang tiling toolkit.

Exact desk-scale solvers, solver-agnostic integer model emission, and
shortest-path maximum-cover heuristics with proven coverage guarantees.
"""

from .errors import BudgetExceededError, ConfigurationError, StructuralError
from .exact import (CAPPED, INFEASIBLE, VALID, SolveResult, TorusResult,
                    count_torus, max_cover_oracle, pack_tiles, smallest_torus,
                    solve_decision)
from .extensions import (DifferentEdgeColors, DifferentTile, EqualEdgeColors,
                         ForbidEdgeColor, ForbidTile, ForceEdgeColor,
                         ForceTile, Packing, PeriodicFixed, PeriodicVariable,
                         SameTile, SmallestObjective)
from .heuristics import (WILDCARD, CoverRun, Hard, LayeredDag, PenaltyScheme,
                         Soft, alg4_improve, build_layered_dag, cover,
                         max_row_cover)
from .tileset import (VOID, CornerTile, Tile, TileSet, Tiling, ValidityReport,
                      builtin_names, builtin_set, complete_stochastic_set,
                      corner_to_wang, validate_tiling, wang_to_corner)
from .transducer import (DUAL, HORIZONTAL, Arc, TransducerGraph,
                         TranslationResult, all_states_on_cycles,
                         build_transducer, parallel_arcs, to_dot,
                         translate_horizontal, translate_vertical)

__version__ = "0.1.0"
