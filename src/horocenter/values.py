"""Slotted value types, the base of the library's small records.

A subclass names its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``.  Equality (same class only, by field tuple),
the ``Name(field=value, ...)`` repr, copying and, for `Frozen`, the hash
of the field tuple and the refusal of assignment derive from the slots.
Nothing here generates code at import, and the standard library's
record decorator, which loads ``inspect`` and compiles each class's
methods, would cost every CLI start-up about 20 ms.
"""


class Value:
    """Mutable and unhashable."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class Frozen(Value):
    """Hashable and immutable: ``__init__`` sets fields with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
