"""Finite Boolean algebra kernel.

An algebra is the full powerset of a finite atom list.  Elements are plain
int bit masks over the atoms, so they are hashable values that can be shared
freely.  Mask validation happens in check_element, which every public
operation calls on each argument: a mask must be a plain int (bool and other
int subclasses are refused) within the algebra's width, which makes
accidental mixing of algebras detectable.  The atom count, size and top are
computed once per algebra, so that check is a few comparisons.

atom_join and atom_unions join a value per atom over the atoms of a mask,
and subset_joins a value per element over the elements below a mask; contact
reach, regular closed point sets, dense-subspace traces, dual-space regions
and the morphism calculus's lower joins use them.

The default atom cap of 24 keeps exhaustive element enumeration feasible in
tests; the CONTACT_DUALITY_MAX_ATOMS environment variable raises it at the
caller's risk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import StructureError

DEFAULT_MAX_ATOMS = 24
MAX_ATOMS_ENV = "CONTACT_DUALITY_MAX_ATOMS"


def atom_cap() -> int:
    raw = os.environ.get(MAX_ATOMS_ENV)
    if raw is None:
        return DEFAULT_MAX_ATOMS
    try:
        return int(raw)
    except ValueError as exc:
        raise StructureError(f"{MAX_ATOMS_ENV} must be an integer, got {raw!r}") from exc


class cached_property:
    """functools.cached_property without the lock Python 3.11 takes on every
    miss: the value, kept in the instance's __dict__, shadows this descriptor."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """Powerset algebra over a tuple of distinct atom names."""

    atom_names: tuple[str, ...]

    def __post_init__(self):
        if not self.atom_names:
            raise StructureError("an algebra needs at least one atom")
        if len(set(self.atom_names)) != len(self.atom_names):
            raise StructureError("atom names must be distinct")
        if len(self.atom_names) > atom_cap():
            raise StructureError(
                f"{len(self.atom_names)} atoms exceeds the cap of {atom_cap()}; "
                f"set {MAX_ATOMS_ENV} to override"
            )

    @staticmethod
    def of(*names: str) -> "FiniteBooleanAlgebra":
        return FiniteBooleanAlgebra(tuple(names))

    @cached_property
    def atom_count(self) -> int:
        return len(self.atom_names)

    @cached_property
    def size(self) -> int:
        return 1 << self.atom_count

    @cached_property
    def top(self) -> int:
        return self.size - 1

    def check_element(self, a: int) -> int:
        if type(a) is not int or a < 0 or a > self.top:
            raise StructureError(f"{a!r} is not an element of a {self.atom_count}-atom algebra")
        return a

    def elements(self) -> Iterator[int]:
        return iter(range(self.size))

    def complement(self, a: int) -> int:
        return self.top ^ self.check_element(a)

    def le(self, a: int, b: int) -> bool:
        return self.check_element(a) | self.check_element(b) == b

    def atoms_of(self, a: int) -> list[int]:
        """Ascending bit positions of the atoms below a; empty only for 0."""
        self.check_element(a)
        return [i for i in range(self.atom_count) if a >> i & 1]

    @cached_property
    def _atom_positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.atom_names)}

    def atom_index(self, name: str) -> int:
        try:
            return self._atom_positions[name]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"unknown atom {name!r}") from exc

    def element_of_names(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.atom_index(name)
        return mask

    def names_of(self, a: int) -> tuple[str, ...]:
        return tuple(self.atom_names[i] for i in self.atoms_of(a))


def atom_join(values, a: int) -> int:
    """Join of values[i] over the atoms i of a, lowest atom first."""
    out = 0
    while a:
        low = a & -a
        out |= values[low.bit_length() - 1]
        a ^= low
    return out


def atom_unions(values) -> tuple[int, ...]:
    """atom_join(values, a) for every a below 2^len(values), in one step per
    entry: the entry of a is the entry without a's lowest atom joined with
    that atom's value."""
    table = [0]
    for a in range(1, 1 << len(values)):
        low = a & -a
        table.append(table[a ^ low] | values[low.bit_length() - 1])
    return tuple(table)


def subset_joins(table) -> list[int]:
    """For every c below len(table), a power of two, the join of table[b]
    over all b below c: one pass per atom, each joining into every entry that
    holds the atom the entry without it, n * 2^(n - 1) joins in all."""
    out = list(table)
    size, bit = len(out), 1
    while bit < size:
        for low in range(0, size, bit << 1):
            for c in range(low | bit, low + (bit << 1)):
                out[c] |= out[c ^ bit]
        bit <<= 1
    return out
