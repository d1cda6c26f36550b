"""Immutable records: the one base of the package's small value classes.

A record names its fields in `__slots__`, in the order its `__init__` takes
them, and that `__init__` sets each field once through `object.__setattr__`.
The base refuses every later assignment and gives equality between records
of one class, a hash that agrees with it, pickling back through `__init__`,
and the `Name(field=value, ...)` repr.
"""


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _values(self):
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # rebuild through __init__: the default slot restore would go
        # through the __setattr__ guard above
        return (self.__class__, self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (f, getattr(self, f))
                                     for f in self.__slots__))
