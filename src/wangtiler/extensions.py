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


#: Extensions that constrain a single cell; the frontier solver accepts these.
LOCAL_EXTENSIONS = (ForceTile, ForbidTile, ForceEdgeColor, ForbidEdgeColor)


def check_extension(ext, ts, height: int, width: int) -> None:
    """Reject a per-cell or per-pair extension whose coordinates fall off the
    height x width grid, or whose tile id, side or color the set ``ts`` does
    not have.  Coordinates are reported as given; extensions without
    coordinates pass."""
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
