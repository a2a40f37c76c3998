"""Random samplers for the classic edit families.

The Statement family draws one of delete/copy/replace/swap uniformly; the
Insert family draws one of break/continue/return. Targeting is two-stage:
first a hot function uniformly, then positions inside that function, so
each hot method gets equal attention regardless of its size. Draws depend
only on the unit, the hot list and the RNG state, which makes every edit
replayable from a logged seed. The hot list must name functions of the
unit; the search drivers check that once per run (search.check_targets).

RNG call order is part of the replay contract: kind, function (with up to
10 redraws when the chosen function has no statements), source statement,
then destination where the kind needs one.
"""

from __future__ import annotations

import random

from minigi.lang.ast import Function, SourceUnit, list_statement_ids, insertion_slots
from minigi.patches import Edit, EditKind, InsertionPoint, INSERT_KINDS, STATEMENT_KINDS

MAX_EMPTY_REDRAWS = 10


class NoTargetStatementsError(Exception):
    pass


def _pick_function_with_statements(
    functions: list[Function], rng: random.Random
) -> Function:
    fn = rng.choice(functions)
    for _ in range(MAX_EMPTY_REDRAWS):
        if list_statement_ids(fn):
            return fn
        fn = rng.choice(functions)
    if list_statement_ids(fn):
        return fn
    raise NoTargetStatementsError(f"function {fn.name!r} has no statements")


def sample_statement_edit(unit: SourceUnit, hot: list[str], rng: random.Random) -> Edit:
    """One uniform draw from the Statement family inside one hot function."""
    kind = rng.choice(STATEMENT_KINDS)
    fn = _pick_function_with_statements([unit.function(name) for name in hot], rng)
    statements = list_statement_ids(fn)
    src = rng.choice(statements)
    if kind is EditKind.DELETE:
        return Edit(kind, src=src)
    if kind is EditKind.COPY:
        block, index = rng.choice(insertion_slots(fn))
        return Edit(kind, src=src, dst=InsertionPoint(block, index))
    dst = rng.choice(statements)
    return Edit(kind, src=src, dst=dst)


def sample_insert_edit(unit: SourceUnit, hot: list[str], rng: random.Random) -> Edit:
    """One uniform draw from the Insert family; every function has slots."""
    kind = rng.choice(INSERT_KINDS)
    fn = unit.function(rng.choice(hot))
    block, index = rng.choice(insertion_slots(fn))
    return Edit(kind, dst=InsertionPoint(block, index))
