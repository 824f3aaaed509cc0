"""Slotted value types, the base of the library's small records.

A subclass names its fields in ``__slots__``, in constructor order, and
may default the trailing ones in a class-level ``_defaults`` mapping.
Unless it writes its own ``__init__``, its constructor (one
``object.__setattr__`` per field) derives from the slots, as do equality
(same class only, by field tuple), the ``Name(field=value, ...)`` repr,
copying and, for `Frozen`, the hash of the field tuple and the refusal
of assignment.  Each constructor is compiled once, when its class is
created, as `collections.namedtuple` compiles its ``__new__``: a dozen
functions of a few lines, which a cold CLI run cannot measure.  The
standard library's record decorator loads ``inspect`` and compiles
several methods per class, about 20 ms of every CLI start-up.
"""


class Value:
    """Mutable and unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        """Give a class with fields and no ``__init__`` one from its slots."""
        super().__init_subclass__()
        fields = cls.__dict__.get("__slots__", ())
        if not fields or "__init__" in cls.__dict__:
            return
        defaults = cls.__dict__.get("_defaults", {})
        trailing = fields[len(fields) - len(defaults) :]
        if set(trailing) != set(defaults):
            raise TypeError(f"{cls.__qualname__}._defaults must name trailing fields")
        body = "".join(f"\n    object.__setattr__(self, {name!r}, {name})" for name in fields)
        namespace = {}
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = tuple(defaults[name] for name in trailing)
        init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__

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
    """Hashable and immutable: fields are set with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
