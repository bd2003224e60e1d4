"""Constraint extensions shared by the model builder and the exact solvers.

Coordinates are 1-based; ``side`` is one of "n", "w", "s", "e".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

SIDES = ("n", "w", "s", "e")


@dataclass(frozen=True)
class ForceTile:
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class ForbidTile:
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class SameTile:
    i: int
    j: int
    p: int
    q: int


@dataclass(frozen=True)
class DifferentTile:
    i: int
    j: int
    p: int
    q: int


@dataclass(frozen=True)
class ForceEdgeColor:
    i: int
    j: int
    side: str
    color: int


@dataclass(frozen=True)
class ForbidEdgeColor:
    i: int
    j: int
    side: str
    color: int


@dataclass(frozen=True)
class EqualEdgeColors:
    i: int
    j: int
    side: str
    p: int
    q: int
    side2: str


@dataclass(frozen=True)
class DifferentEdgeColors:
    i: int
    j: int
    side: str
    p: int
    q: int
    side2: str


@dataclass(frozen=True)
class PeriodicFixed:
    """Equal coloring of the opposite boundaries of the fixed-size domain."""


@dataclass(frozen=True)
class PeriodicVariable:
    """Wrap-around color matching for the variable-size tiled rectangle."""


@dataclass(frozen=True)
class SmallestObjective:
    """Minimize the number of placed tiles instead of maximizing it."""


@dataclass(frozen=True)
class Packing:
    """Place every tile of the set exactly once."""


#: Extension kinds by name: the CLI's ``kind[:args]`` syntax, and the prefix
#: of the ILP constraint a per-cell extension adds.
EXT_KINDS = {
    "force": ForceTile, "forbid": ForbidTile, "same": SameTile,
    "difftile": DifferentTile, "forcecol": ForceEdgeColor,
    "forbidcol": ForbidEdgeColor, "eqcol": EqualEdgeColors,
    "neqcol": DifferentEdgeColors, "periodic": PeriodicFixed,
    "periodic-var": PeriodicVariable, "smallest": SmallestObjective,
    "packing": Packing,
}


def cell_rule(ext, ts) -> tuple[tuple[int, ...], bool] | None:
    """``(tile ids, force)`` for a per-cell extension, None for any other.

    With ``force`` the cell ``(ext.i, ext.j)`` must hold one of the ids;
    otherwise it must hold none of them.  ``ext`` has passed
    :func:`check_extension`.
    """
    if isinstance(ext, (ForceTile, ForbidTile)):
        return (ext.k,), isinstance(ext, ForceTile)
    if isinstance(ext, (ForceEdgeColor, ForbidEdgeColor)):
        ids = tuple(k for k, c in enumerate(ts.side(ext.side)) if c == ext.color)
        return ids, isinstance(ext, ForceEdgeColor)
    return None


def check_extension(ext, ts, height: int, width: int) -> None:
    """Reject a packing whose set does not fill the height x width grid, and
    a per-cell or per-pair extension whose coordinates fall off the grid, or
    whose tile id, side or color the set ``ts`` does not have.  Coordinates
    are reported as given; other extensions pass."""
    if isinstance(ext, Packing) and len(ts) != height * width:
        raise ConfigurationError(
            f"packing needs exactly height*width tiles "
            f"({height}*{width}={height * width}, set has {len(ts)})")
    if not hasattr(ext, "i"):
        return
    name = type(ext).__name__
    coords = [(ext.i, ext.j)]
    if hasattr(ext, "p"):
        coords.append((ext.p, ext.q))
    for (a, b) in coords:
        if not (1 <= a <= height and 1 <= b <= width):
            raise ConfigurationError(
                f"{name} coordinate ({a}, {b}) outside the {height}x{width} grid")
    if hasattr(ext, "k") and not (0 <= ext.k < len(ts)):
        raise ConfigurationError(
            f"{name} tile id {ext.k} out of range for a {len(ts)}-tile set")
    for s in (getattr(ext, "side", None), getattr(ext, "side2", None)):
        if s is not None and s not in SIDES:
            raise ConfigurationError(f"{name} side must be one of {SIDES}, got {s!r}")
    color = getattr(ext, "color", None)
    if color is not None and not (0 <= color < ts.num_colors):
        raise ConfigurationError(
            f"{name} color {color} outside the alphabet 0..{ts.num_colors - 1}")
