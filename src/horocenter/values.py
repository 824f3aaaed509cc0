"""Slotted value types, the base of the library's small records.

A subclass names its fields in ``__slots__``, in constructor order, after
those of its parent, and may default the trailing ones in a class-level
``_defaults`` mapping, which extends its parent's.
Two methods are compiled from the slots once, when the class is created,
as `collections.namedtuple` compiles its ``__new__``: ``_astuple``,
which returns the field tuple, and, unless the class writes its own,
``__init__`` (one ``object.__setattr__`` per field).  The fields are kept
as ``_fields``, which a subclass that declares no slots of its own
inherits with ``_astuple``.  Equality (same class only, by field
tuple), the ``Name(field=value, ...)`` repr,
copying and, for `Frozen`, the hash of the field tuple and the refusal
of assignment derive from them.  They are two dozen functions of a few
lines, which a cold CLI run cannot measure, and a compiled ``_astuple``
reads each field by name in one short frame, so the hashes of
``ConvexBody.of``'s dedupe run no generator.  The standard library's
record decorator loads ``inspect`` and compiles several methods per
class, about 20 ms of every CLI start-up.
"""


class Value:
    """Mutable and unhashable."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        """Give a class with fields its ``_astuple`` and, unless it writes
        its own ``__init__``, a constructor, both from its parent's fields
        and then its own slots; its ``_defaults`` extend its parent's."""
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        if not own:
            return
        parent = super(cls, cls)
        fields = cls._fields = parent._fields + tuple(own)
        defaults = cls._defaults = {**parent._defaults, **cls.__dict__.get("_defaults", {})}
        source = f"def _astuple(self):\n    return ({''.join(f'self.{name}, ' for name in fields)})\n"
        methods = ["_astuple"]
        if "__init__" not in cls.__dict__:
            trailing = fields[len(fields) - len(defaults) :]
            if set(trailing) != set(defaults):
                raise TypeError(f"{cls.__qualname__}._defaults must name trailing fields")
            body = "".join(f"\n    object.__setattr__(self, {name!r}, {name})" for name in fields)
            source += f"def __init__(self, {', '.join(fields)}):{body}"
            methods.append("__init__")
        namespace = {}
        exec(source, namespace)
        for name in methods:
            method = namespace[name]
            method.__qualname__, method.__module__ = f"{cls.__qualname__}.{name}", cls.__module__
            setattr(cls, name, method)
        if "__init__" in methods:
            cls.__init__.__defaults__ = tuple(defaults[name] for name in trailing)

    def _astuple(self) -> tuple:
        return ()  # no fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
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
