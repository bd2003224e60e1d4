"""Transducer graphs over edge colors, cyclicity analysis, and the
corner-set translation methods together with their bijectivity report."""

from __future__ import annotations

from dataclasses import dataclass

from .tileset import CornerTile, TileSet

HORIZONTAL = "horizontal"
DUAL = "dual"


@dataclass(frozen=True)
class Arc:
    """One tile viewed as a transition ``from_state -(input|output)-> to_state``."""

    from_state: int
    to_state: int
    input: int
    output: int
    tile_id: int

    def label(self) -> str:
        return f"{self.input}|{self.output}"


@dataclass(frozen=True)
class TransducerGraph:
    """Directed multigraph over colors; every tile contributes one arc.

    In the horizontal orientation a row tiling read left to right is a walk
    (west -(south|north)-> east per tile); in the dual orientation a column
    tiling read top to bottom is a walk (north -(east|west)-> south).
    """

    num_states: int
    arcs: tuple[Arc, ...]
    orientation: str

    def successors(self) -> list[list[int]]:
        """Adjacency lists (state -> successor states, duplicates kept)."""
        adj: list[list[int]] = [[] for _ in range(self.num_states)]
        for a in self.arcs:
            adj[a.from_state].append(a.to_state)
        return adj


def build_transducer(ts: TileSet, orientation: str = HORIZONTAL) -> TransducerGraph:
    """The (dual) transducer graph of a tile set.

    horizontal: tile k becomes the arc  west_k -(south_k|north_k)-> east_k.
    dual:       tile k becomes the arc  north_k -(east_k|west_k)-> south_k.
    """
    if orientation == HORIZONTAL:
        arcs = tuple(Arc(t.west, t.east, t.south, t.north, k)
                     for k, t in enumerate(ts))
    elif orientation == DUAL:
        arcs = tuple(Arc(t.north, t.south, t.east, t.west, k)
                     for k, t in enumerate(ts))
    else:
        raise ValueError(f"orientation must be {HORIZONTAL!r} or {DUAL!r}, "
                         f"got {orientation!r}")
    return TransducerGraph(ts.num_colors, arcs, orientation)


def parallel_arcs(g: TransducerGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Ordered state pairs joined by two or more arcs, with the arc ids.

    An empty list certifies the graph has no parallel arcs, which is the
    exact condition for the corresponding translation method to be lossless.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for a in g.arcs:
        by_pair.setdefault((a.from_state, a.to_state), []).append(a.tile_id)
    return [(u, v, tuple(ids)) for (u, v), ids in sorted(by_pair.items())
            if len(ids) >= 2]


def all_states_on_cycles(g: TransducerGraph) -> bool:
    """True iff every state with at least one incident arc lies on a cycle.

    Isolated states are ignored: a color no tile uses cannot affect any
    tiling.  A state is on a cycle iff it can reach itself by a non-empty
    walk.
    """
    adj = g.successors()
    incident = [False] * g.num_states
    for a in g.arcs:
        incident[a.from_state] = True
        incident[a.to_state] = True
    for s in range(g.num_states):
        if not incident[s]:
            continue
        # DFS from the successors of s; s is on a cycle iff it is reachable.
        stack = list(adj[s])
        seen = [False] * g.num_states
        found = False
        while stack:
            v = stack.pop()
            if v == s:
                found = True
                break
            if not seen[v]:
                seen[v] = True
                stack.extend(adj[v])
        if not found:
            return False
    return True


def longest_path_at_least(g: TransducerGraph, length: int) -> bool:
    """Whether some walk of the given arc length exists in the graph."""
    if length <= 0:
        return bool(g.arcs)
    if all_states_on_cycles(g) and g.arcs:
        return True
    # Acyclic-ish case: DP on walk lengths, capped at `length`.
    adj = g.successors()
    best = {s: 0 for s in range(g.num_states)}
    for _ in range(length):
        new = dict(best)
        for s in range(g.num_states):
            for v in adj[s]:
                if best[v] + 1 > new[s]:
                    new[s] = min(best[v] + 1, length)
        if new == best:
            break
        best = new
    return max(best.values(), default=0) >= length


def reachable_sets(g: TransducerGraph, distance: int) -> list[frozenset[int]]:
    """For each state, the states reachable by walks of exactly ``distance`` arcs."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    adj = g.successors()
    reach = [frozenset(vs) for vs in adj]
    for _ in range(distance - 1):
        reach = [frozenset(w for v in r for w in adj[v]) for r in reach]
    return reach


@dataclass(frozen=True)
class TranslationResult:
    """Corner set produced by a translation, plus its losslessness report.

    ``bijective`` is False whenever the deciding transducer graph contains
    parallel arcs: two tiles then become indistinguishable in corner form,
    so corner tilings need not pull back to tilings of the source set.
    """

    corners: tuple[CornerTile, ...]
    n_vc: int
    bijective: bool
    parallel_witnesses: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.corners)

    def __iter__(self):
        return iter(self.corners)


def _translate(ts: TileSet) -> list[CornerTile]:
    corners = set()
    for p in ts:
        for q in ts:
            if p.east == q.west:
                corners.add(CornerTile(nw=p.north, sw=p.south,
                                       se=q.south, ne=q.north))
    return sorted(corners)


def translate_horizontal(ts: TileSet) -> TranslationResult:
    """Corner tiles from horizontally adjacent tile pairs.

    Every ordered pair (p, q) with east(p) == west(q) contributes the corner
    tile (nw, sw, se, ne) = (north_p, south_p, south_q, north_q); duplicates
    are removed and the output is sorted.  Lossless iff the dual transducer
    has no parallel arcs.
    """
    witnesses = tuple(parallel_arcs(build_transducer(ts, DUAL)))
    return TranslationResult(tuple(_translate(ts)), ts.num_colors,
                             not witnesses, witnesses)


def translate_vertical(ts: TileSet) -> TranslationResult:
    """Corner tiles from vertically adjacent tile pairs.

    Implemented as the horizontal translation of the 90-degree-rotated set;
    the rotation convention is fixed as (n, w, s, e) -> (w, s, e, n).
    Lossless iff the horizontal transducer has no parallel arcs.
    """
    rotated = TileSet(
        ((t.west, t.south, t.east, t.north) for t in ts),
        num_colors=ts.num_colors,
        name=f"{ts.name}@90" if ts.name else "",
    )
    witnesses = tuple(parallel_arcs(build_transducer(ts, HORIZONTAL)))
    return TranslationResult(tuple(_translate(rotated)), ts.num_colors,
                             not witnesses, witnesses)


def to_dot(g: TransducerGraph, name: str = "transducer") -> str:
    """GraphViz DOT text with arcs labeled ``input|output``."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for s in range(g.num_states):
        lines.append(f"  {s} [shape=circle];")
    for a in g.arcs:
        lines.append(
            f'  {a.from_state} -> {a.to_state} [label="{a.label()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
