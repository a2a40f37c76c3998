"""Random samplers for the classic edit families.

The Statement family draws one of delete/copy/replace/swap uniformly; the
Insert family draws one of break/continue/return. Targeting is two-stage:
first a hot function uniformly, then positions inside that function, so
each hot method gets equal attention regardless of its size. Draws depend
only on the unit, the hot list and the RNG state, which makes every edit
replayable from a logged seed. The hot list must name functions of the
unit; the search drivers check that once per run (search.check_targets).

RNG call order is part of the replay contract: kind, function (uniform
among the hot functions that have a statement), source statement, then
destination where the kind needs one.
"""

from __future__ import annotations

import random

from minigi.lang.ast import Function, SourceUnit, list_statement_ids, insertion_slots
from minigi.patches import Edit, EditKind, InsertionPoint, INSERT_KINDS, STATEMENT_KINDS


class NoTargetStatementsError(Exception):
    pass


def statement_targets(unit: SourceUnit, hot: list[str]) -> list[Function]:
    """The hot functions with a statement to draw, in `hot` order. Every
    statement nests inside the body, so the body's list decides."""
    return [fn for fn in map(unit.function, hot) if fn.body.statements]


def sample_statement_edit(unit: SourceUnit, hot: list[str], rng: random.Random) -> Edit:
    """One uniform draw from the Statement family inside one hot function."""
    kind = rng.choice(STATEMENT_KINDS)
    targets = statement_targets(unit, hot)
    if not targets:
        raise NoTargetStatementsError(f"no statements in {', '.join(hot)}")
    fn = rng.choice(targets)
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
