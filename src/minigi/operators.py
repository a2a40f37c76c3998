"""Random samplers for the classic edit families.

The Statement family draws one of delete/copy/replace/swap uniformly; the
Insert family draws one of break/continue/return. Targeting is two-stage:
first a hot function uniformly, then positions inside that function, so
each hot method gets equal attention regardless of its size. Draws depend
only on the unit, the hot list and the RNG state, which makes every edit
replayable from a logged seed. The hot list must name functions of the
unit; the search drivers check that once per run (search.check_targets).
A draw reads its function's sites from `sites`, `ast.statement_sites` by
default; the search drivers pass an `ast.StatementSites`, so a function
is walked once per family of a sampling run, or once per accepted
version in local search, and not once per draw. Its insertion
points are the blocks' positions, index 0 to the block's length.

RNG call order is part of the replay contract: kind, function (uniform
among the hot functions that have a statement), source statement, then
destination where the kind needs one.
"""

from __future__ import annotations

import random

from minigi.lang.ast import (
    Block,
    Function,
    SitesOf,
    SourceUnit,
    StatementId,
    statement_sites,
)
from minigi.patches import Edit, EditKind, InsertionPoint, INSERT_KINDS, STATEMENT_KINDS


class NoTargetStatementsError(Exception):
    pass


def statement_targets(unit: SourceUnit, hot: list[str]) -> list[Function]:
    """The hot functions with a statement to draw, in `hot` order. Every
    statement nests inside the body, so the body's list decides."""
    return [fn for fn in map(unit.function, hot) if fn.body.statements]


def sample_statement_edit(
    unit: SourceUnit, hot: list[str], rng: random.Random, sites: SitesOf = statement_sites
) -> Edit:
    """One uniform draw from the Statement family inside one hot function."""
    kind = rng.choice(STATEMENT_KINDS)
    targets = statement_targets(unit, hot)
    if not targets:
        raise NoTargetStatementsError(f"no statements in {', '.join(hot)}")
    fn = rng.choice(targets)
    statements, blocks = sites(fn)
    src = rng.choice(statements)
    if kind is EditKind.DELETE:
        return Edit(kind, src=src)
    if kind is EditKind.COPY:
        return Edit(kind, src=src, dst=_insertion_point(blocks, rng))
    dst = rng.choice(statements)
    return Edit(kind, src=src, dst=dst)


def sample_insert_edit(
    unit: SourceUnit, hot: list[str], rng: random.Random, sites: SitesOf = statement_sites
) -> Edit:
    """One uniform draw from the Insert family; every function has slots."""
    kind = rng.choice(INSERT_KINDS)
    fn = unit.function(rng.choice(hot))
    return Edit(kind, dst=_insertion_point(sites(fn)[1], rng))


def _insertion_point(
    blocks: list[tuple[StatementId, Block]], rng: random.Random
) -> InsertionPoint:
    """One uniform draw among the positions of `blocks`: each block's
    indexes 0 to its length, block by block."""
    block, index = rng.choice(
        [(sid, i) for sid, b in blocks for i in range(len(b.statements) + 1)]
    )
    return InsertionPoint(block, index)
