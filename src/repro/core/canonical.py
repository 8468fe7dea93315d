"""Hash-consed value types.

Rings, ACLs and resource policies are small immutable values that the
browser builds on every page load and the policy reads on every access.
Following hash-consing (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006), each value exists once per process: a
subclass's ``__new__`` looks the value up in its table and builds it with
:func:`make` only on a miss.  Equal values are therefore the same object, so
equality is identity and the hash is computed once.  Copies and pickles
rebuild through the constructor (each subclass's ``__reduce__``) and land on
the canonical instance of the receiving process.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Canonical:
    """Base of the canonical value types: frozen, hashed once, equal by identity."""

    __slots__ = ("_hash",)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash


def make(cls: type, fields: dict[str, object]) -> Canonical:
    """A new instance of ``cls`` holding ``fields``, hashed as a frozen dataclass
    over them would be (so set iteration order is what it always was)."""
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    object.__setattr__(value, "_hash", hash(tuple(fields.values())))
    return value
