"""Record classes built from closures.

``record`` gives a class with annotated fields what ``dataclasses.dataclass``
would: an ``__init__`` taking the fields by position or keyword, with the
class-level defaults, that calls ``__post_init__`` when the class has one;
``__repr__``; value ``__eq__``; and, with ``frozen=True``, ``__hash__`` and an
``__setattr__``/``__delattr__`` that raise ``FrozenInstanceError``. Without
``frozen`` the record is unhashable. ``dataclasses`` writes those methods as
source text and ``exec``s it, about 1 ms per class on Python 3.10 and 3.11,
which every command paid at import; closures over the field names cost a
few µs per class.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def record(cls=None, *, frozen: bool = False):
    """Class decorator; ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda obj: (get(obj),)
    post_init = getattr(cls, "__post_init__", None)

    # the keywords a call may give after k positional arguments, and those
    # it must give
    allowed = [frozenset(names[k:]) for k in range(len(names) + 1)]
    required = [a.difference(defaults) for a in allowed]
    initial = {**dict.fromkeys(names), **defaults}

    def __init__(self, *args, **kwargs):
        k = len(args)
        if k > len(names) or not allowed[k].issuperset(kwargs) or not required[k].issubset(kwargs):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {k} positional "
                            f"arguments and the keywords {sorted(kwargs)}")
        state = self.__dict__  # filled in field order
        state.update(initial)
        state.update(zip(names, args))
        state.update(kwargs)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, values(self)))
        return f"{cls.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls._fields = names
    if frozen:
        def __setattr__(self, name, value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        cls.__hash__ = lambda self: hash(values(self))
    else:
        cls.__hash__ = None
    return cls


def asdict(obj) -> dict:
    """The record's fields by name, in declaration order (not recursive)."""
    return {k: getattr(obj, k) for k in obj._fields}


def replace(obj, **changes):
    """A new record with ``changes`` applied, built (and validated) by its
    class's ``__init__``."""
    return obj.__class__(**{**asdict(obj), **changes})
