"""Immutable stage results: the in-run artifact store hands every caller
the stored result itself, so the designs it stores are frozen records."""

from dataclasses import fields
from types import MappingProxyType
from typing import Mapping

import numpy as np


def read_only(values) -> np.ndarray:
    """A read-only copy of ``values`` (same dtype and bits)."""
    array = np.array(values)
    array.flags.writeable = False
    return array


class FrozenRecord:
    """Base of frozen dataclasses with read-only arrays, lists and metadata.

    Construction replaces the fields named in ``_ARRAY_FIELDS`` with
    read-only copies, list fields with tuples and ``metadata`` with a
    read-only view of a copy whose arrays are read-only copies and whose
    mappings are read-only views of copies.  Pickle and deep copies
    rebuild through the constructor, so clones are frozen too: numpy
    unpickles arrays writeable, and a mappingproxy cannot be pickled.
    """

    _ARRAY_FIELDS = ()

    def __post_init__(self) -> None:
        for name in self._ARRAY_FIELDS:
            object.__setattr__(self, name, read_only(getattr(self, name)))
        for f in fields(self):
            if isinstance(getattr(self, f.name), list):
                object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        object.__setattr__(self, "metadata", MappingProxyType({
            key: _frozen(value) for key, value in self.metadata.items()}))

    def __reduce__(self):
        return type(self), tuple(
            _thawed(getattr(self, f.name)) for f in fields(self))


def _frozen(value):
    if isinstance(value, np.ndarray):
        return read_only(value)
    if isinstance(value, Mapping):
        return MappingProxyType(dict(value))
    return value


def _thawed(value):
    if isinstance(value, MappingProxyType):
        return {key: _thawed(item) for key, item in value.items()}
    return value
