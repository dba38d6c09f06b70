"""Record and ValueRecord: the immutable plain base classes of every qcontexts type.

A record's hand-written constructor validates its arguments, then fills the
instance dict once. Its fields are the constructor's parameters, in order;
what the constructor derives (a decomposition's labels, a scenario's spec, a
report's texts) is no field. Assigning or deleting any attribute raises
dataclasses.FrozenInstanceError, while cached_property still keeps its value
(it writes the dict directly). repr shows the fields. A Record compares and
hashes by identity; a ValueRecord by its fields, equal only to its own class.
No method is generated: defining a record costs what defining a class does.
"""


class Record:
    """An immutable plain object; `_fields`, its constructor's parameters, are set per subclass."""

    def __init_subclass__(cls):
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # here, not at import: dataclasses loads copy, ~1 ms of start-up
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """A Record equal to one of its own class with equal fields, and hashed by them."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
