"""Immutable records: the one class decorator behind every syntax node,
type, context and result of the workbench.

``@record`` reads a class's annotated fields, in order, and gives it an
``__init__`` that takes them as positional-or-keyword parameters (a class
attribute is the field's default) and then calls ``__post_init__``, when
the class defines one.  That ``__init__`` is the one method generated per
class, by one ``exec``; the others are shared:

* ``==`` holds between records of the same class whose field values are
  equal, so ``Prod((TID,)) != Sum((TID,))``; ``hash`` is the hash of the
  tuple of field values, cached in the instance ``__dict__`` on first use.
  What hashes records today is the typing memo of :mod:`dynthreads.lang`,
  whose keys hold types (a node is keyed by its ``id`` there), with the
  verdicts the preservation check keeps in it per frame cell, pairs of
  types; and the tests' schedule-graph walk, which hashes configurations
  and the syntax trees they share;
* ``repr`` is ``Name(field=value!r, ...)``;
* assigning or deleting an attribute raises :class:`AttributeError`;
* ``__match_args__`` lists the fields, for class patterns;
* pickling and copying rebuild a record from its field values.

A record keeps its ``__dict__``, and so its caches: ``cached_property``
values, the hash, and the name sets of :mod:`dynthreads.lang`.  Building
one writes its fields straight into that ``__dict__``.  The standard
library's class generator costs one ``exec`` per method and imports
``inspect``, which made up most of a command's start-up; a test keeps
``inspect`` out of the modules the command line loads.
"""

from __future__ import annotations

from operator import attrgetter


def _eq(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    key = self._key
    return key(self) == key(other)


def _values(self) -> tuple:
    return tuple(map(self.__dict__.__getitem__, self.__match_args__))


def _hash(self) -> int:
    h = self.__dict__.get("_hash")
    if h is None:
        h = self.__dict__["_hash"] = hash(_values(self))
    return h


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    return type(self), _values(self)


def record(cls):
    """Make ``cls`` an immutable record over its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {f"_d_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in defaults else f", {n}" for n in names)
    body = "".join(f"\n    d[{n!r}] = {n}" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(f"def __init__(self{params}):\n    d = self.__dict__{body}", defaults)
    cls.__init__ = defaults["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__match_args__ = names
    # a record without fields equals every record of its class
    cls._key = attrgetter(*names or ("__class__",))
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _setattr, _delattr, _reduce
    return cls
