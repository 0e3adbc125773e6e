"""Exact toolkit for finite semigroups and their Cayley machine semigroups.

Build or parse a multiplication table, inspect its Green structure, and
work with the semigroup of transformations generated by its Cayley machine:
enumerate it when finite, compare and apply individual transformations, and
classify it (trivial, group, finite, free, left or right zero) from the
table alone, with every answer cross-checkable by brute enumeration.

``import cayleysg`` loads only ``core`` and ``tableio``, which every use
needs to build or read a table.  Every other public name belongs to the
submodule ``_LAZY`` names for it, which the first access to the name
imports (PEP 562); so does the first access to a submodule by name, as
``cayleysg.engine``.  A submodule's names are bound here once, on its first
use: when the import machinery binds the submodule itself to this package,
right after the submodule ran, whether this package or other code imported
it.  Later reads never reach ``__getattr__``.  So a name first read while a
caller monkeypatches its submodule does not keep the patched object, and
``classify`` is the function, not the submodule of that name.
"""

import sys as _sys
from types import ModuleType as _ModuleType

from .core import (
    SIZE_CAP,
    ClosureCapError,
    MalformedTableError,
    MulTable,
    NotAssociativeError,
    SizeCapError,
    StateCapError,
    UnknownFamilyError,
    WorkCapError,
    associativity_failure,
    check_associativity,
    cyclic_group,
    direct_product,
    example_ijkf,
    family_names,
    left_zero,
    make_table,
    named_family,
    null,
    rectangular_band,
    right_zero,
    symmetric_group,
)
from .tableio import TableParseError, format_table, parse_table

_LAZY = {
    name: module
    for module, names in (
        ("green", "GreenData InflationWitness brute_force_inflation green_relations "
                  "inflation_of_right_zero is_h_trivial"),
        ("machine", "MealyMachine build_cayley_machine machine_to_dot"),
        ("engine", "AutElement BehaviorGraph Closed EnumerationResult Exceeded act "
                   "canonicalize count_distinct_words enumerate_semigroup equal "
                   "first_letter_action section"),
        ("classify", "ClassificationReport classify free_pair_check infinite_witness "
                     "report_to_json"),
        ("corpus", "CorpusSpec canonical_form dump_line generate_tables load_dump_line"),
        ("verify", "VerifyReport check_table run_verify"),
    )
    for name in names.split()
}

_SUBMODULES = set(_LAZY.values())

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY or name in _SUBMODULES:
        __import__("%s.%s" % (__name__, _LAZY.get(name, name)))
        if name in globals():
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | _SUBMODULES)


class _Package(_ModuleType):
    """This package: binding one of the submodules in _LAZY binds its names."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, _ModuleType) and value.__name__ == "%s.%s" % (__name__, name):
            for key, module in _LAZY.items():
                if module == name:
                    super().__setattr__(key, getattr(value, key))


_sys.modules[__name__].__class__ = _Package
