"""Exact toolkit for finite semigroups and their Cayley machine semigroups.

Build or parse a multiplication table, inspect its Green structure, and
work with the semigroup of transformations generated by its Cayley machine:
enumerate it when finite, compare and apply individual transformations, and
classify it (trivial, group, finite, free, left or right zero) from the
table alone, with every answer cross-checkable by brute enumeration.
"""

from types import ModuleType as _ModuleType

from .core import (
    SIZE_CAP,
    MalformedTableError,
    MulTable,
    NotAssociativeError,
    SizeCapError,
    UnknownFamilyError,
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
from .green import (
    GreenData,
    InflationWitness,
    brute_force_inflation,
    green_relations,
    inflation_of_right_zero,
    is_h_trivial,
)
from .machine import MealyMachine, build_cayley_machine, machine_to_dot
from .engine import (
    AutElement,
    BehaviorGraph,
    Closed,
    ClosureCapError,
    EnumerationResult,
    Exceeded,
    StateCapError,
    WorkCapError,
    act,
    canonicalize,
    count_distinct_words,
    enumerate_semigroup,
    equal,
    first_letter_action,
    section,
)
from .classify import (
    ClassificationReport,
    classify,
    free_pair_check,
    infinite_witness,
    report_to_json,
)
from .corpus import (
    CorpusSpec,
    canonical_form,
    dump_line,
    generate_tables,
    load_dump_line,
)
from .tableio import TableParseError, format_table, parse_table
from .verify import VerifyReport, check_table, run_verify

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
