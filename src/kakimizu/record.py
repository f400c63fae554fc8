"""Field-wise equality, printing and JSON for the package's value classes."""


class Record:
    """A class whose ``__init__`` stores each parameter under its own name;
    those names, in order, are its ``_fields``.  Instances of one class are
    equal when their fields are, and print as ``Name(field=value, ...)``."""

    __hash__ = None  # fields may be mutable; a subclass can hash its own

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def to_json(self) -> dict:
        """Each field, in field order, mapped to its value."""
        return {f: getattr(self, f) for f in self._fields}
