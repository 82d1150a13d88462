"""Normed abelian coefficient groups.

Chains carry coefficients from a normed abelian group ``(G, ||.||)`` whose
norm satisfies ``||-g|| = ||g||``, the triangle inequality, and
``||g|| = 0`` iff ``g`` is the zero element.  Three concrete groups are
provided:

* ``integers`` -- the integers with the absolute value norm,
* ``unit`` -- the integers with the discrete norm (1 on every nonzero
  element),
* ``cantor`` -- ``(Z/2Z)^d`` with coordinatewise addition mod 2 and norm
  ``sum_i 3^{-i} a_i``; a finite-depth truncation of the classical
  totally-disconnected (non-discrete) coefficient group.

Group payloads are held exactly (integers / bit tuples); norms are exact
rationals and only converted to float at the API boundary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GroupSpec",
    "NormedCoefficient",
    "group_add",
    "group_neg",
    "group_norm",
    "group_norm_fraction",
    "group_gap",
    "zero",
    "integers",
    "unit_discrete",
    "cantor",
]

_TAGS = ("integers", "unit", "cantor")


@dataclass(frozen=True)
class GroupSpec:
    """Identifies a coefficient group: a tag plus construction parameters."""

    tag: str
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        if self.tag == "cantor":
            if self.depth is None or self.depth < 1:
                raise ValueError("cantor group needs depth >= 1")
        elif self.depth is not None:
            raise ValueError(f"group {self.tag!r} takes no depth parameter")


def integers() -> GroupSpec:
    return GroupSpec("integers")


def unit_discrete() -> GroupSpec:
    return GroupSpec("unit")


def cantor(depth: int) -> GroupSpec:
    return GroupSpec("cantor", depth)


@dataclass(frozen=True)
class NormedCoefficient:
    """A coefficient: an element of a concrete normed abelian group.

    ``value`` is an ``int`` for the integer-based groups and a tuple of
    bits (0/1) of length ``spec.depth`` for the truncated Cantor group.
    A non-integral value or a bit outside {0, 1} raises ``ValueError``.
    Instances are immutable and hashable.
    """

    spec: GroupSpec
    value: int | tuple[int, ...]

    def __post_init__(self) -> None:
        if self.spec.tag == "cantor":
            bits = tuple(_integral(b) for b in self.value)  # type: ignore[union-attr]
            if len(bits) != self.spec.depth:
                raise ValueError("cantor payload length must equal depth")
            if any(b not in (0, 1) for b in bits):
                raise ValueError(f"cantor payload bits must be 0 or 1, got {bits}")
            object.__setattr__(self, "value", bits)
        else:
            object.__setattr__(self, "value", _integral(self.value))

    @property
    def is_zero(self) -> bool:
        if self.spec.tag == "cantor":
            return not any(self.value)  # type: ignore[arg-type]
        return self.value == 0

    def __add__(self, other: "NormedCoefficient") -> "NormedCoefficient":
        return group_add(self, other)

    def __neg__(self) -> "NormedCoefficient":
        return group_neg(self)

    def norm(self) -> float:
        return group_norm(self)


def _integral(x) -> int:
    """``x`` as an ``int``; a value with a fractional part is rejected
    rather than truncated."""
    try:
        return operator.index(x)
    except TypeError:
        pass
    f = float(x)
    if not f.is_integer():
        raise ValueError(f"group payload {x!r} is not an integer")
    return int(f)


def zero(spec: GroupSpec) -> NormedCoefficient:
    """The zero element of the group described by ``spec``."""
    if spec.tag == "cantor":
        return NormedCoefficient(spec, (0,) * spec.depth)  # type: ignore[operator]
    return NormedCoefficient(spec, 0)


def _check_same_group(a: NormedCoefficient, b: NormedCoefficient) -> None:
    if a.spec != b.spec:
        raise ValueError(f"mismatched groups: {a.spec} vs {b.spec}")


def group_add(a: NormedCoefficient, b: NormedCoefficient) -> NormedCoefficient:
    """Abelian group addition; returns the canonical representative."""
    _check_same_group(a, b)
    if a.spec.tag == "cantor":
        bits = tuple((x + y) % 2 for x, y in zip(a.value, b.value))  # type: ignore[arg-type]
        return NormedCoefficient(a.spec, bits)
    return NormedCoefficient(a.spec, a.value + b.value)  # type: ignore[operator]


def group_neg(a: NormedCoefficient) -> NormedCoefficient:
    """Group inverse.  Every Cantor element is its own inverse."""
    if a.spec.tag == "cantor":
        return a
    return NormedCoefficient(a.spec, -a.value)  # type: ignore[operator]


def group_norm_fraction(a: NormedCoefficient) -> Fraction:
    """Exact rational norm of ``a``."""
    if a.spec.tag == "integers":
        return Fraction(abs(a.value))  # type: ignore[arg-type]
    if a.spec.tag == "unit":
        return Fraction(0 if a.value == 0 else 1)
    total = Fraction(0)
    for i, bit in enumerate(a.value, start=1):  # type: ignore[arg-type]
        if bit:
            total += Fraction(1, 3**i)
    return total


def group_norm(a: NormedCoefficient) -> float:
    """Norm of ``a`` as a float (exact rational rendered at the boundary)."""
    return float(group_norm_fraction(a))


def group_gap(spec: GroupSpec) -> float:
    """Infimum of norms of nonzero elements, ``inf{||g|| : g != 0}``.

    Positive for every truncation, but for the depth-``d`` Cantor group it
    equals ``3^-d`` and tends to zero as the depth grows; this is the
    mechanism by which a non-discrete group defeats constant-density
    arguments.
    """
    if spec.tag == "cantor":
        return float(Fraction(1, 3**spec.depth))  # type: ignore[operator]
    return 1.0
