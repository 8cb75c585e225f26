"""The base of the library's immutable value classes.

Each value class writes its own ``__init__``, with its checks, and names
its fields in ``_fields``.  The base does the rest, as a frozen record
would, with no code generated: when a subclass is defined it gets one
getter for the field tuple, and the base's ``__eq__`` (same class, equal
field tuples), ``__hash__`` (the hash of the field tuple) and
``__reduce__`` (the class and its field tuple, so unpickling re-runs the
checking constructor) read it.  The base refuses assignment and deletion
and prints the fields.  ``__init__`` writes the fields into the instance
``__dict__`` or through the slot descriptors, and
``functools.cached_property`` and ``memo`` write their values into
``__dict__``, so neither goes through ``__setattr__``.
"""

from operator import attrgetter


class Frozen:
    """Equality, hashing and pickling over the ``_fields``; assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class memo:
    """``functools.cached_property`` without its lock: the value is computed on first read and kept in ``__dict__``.

    On Python 3.11 every first read of a ``cached_property`` takes a lock,
    about 1.2 µs, which is a large share of the small tables of a small
    space.  Without the lock, two threads may both compute a value on first
    read; the values are equal, and the last one is kept.  Read on the
    class, it returns itself, and ``func`` is the function it wraps, as on
    a ``cached_property``.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
