"""The base of the library's immutable value classes.

Each value class writes its own ``__init__``, ``__eq__`` and ``__hash__``
over its fields, as a frozen record would, with no code generated when the
class is defined; the base refuses assignment and deletion and prints the
fields.  ``__init__`` writes the fields into the instance ``__dict__`` or
through the slot descriptors, and ``functools.cached_property`` writes its
value into ``__dict__``, so neither goes through ``__setattr__``.
"""


class Frozen:
    """Assigning or deleting an attribute raises AttributeError; the repr names the ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
