"""MiniLang: a small C-like imperative language used as the improvement target.

The subpackage bundles the AST, parser, canonical printer, semantic
validator and the step-counting interpreter plus its unit-test runner.
Its modules hold the full interface; the package re-exports the names
callers import from it.

Import contract: the package loads neither `dataclasses` nor `typing`, and
so not `inspect`, which `dataclasses` pulls in, nor `hashlib`, which loads
OpenSSL. An external toolchain step is a fresh process that imports this
package to compile or test one patch, so its import time is paid once per
step; those modules cost more than the rest of the package together.
Record classes use `ast.record`, and annotations are left unevaluated
(`from __future__ import annotations`). `hashlib` is loaded only by
`source_digest`, on the first digest, which no toolchain step computes.
The parser compiles its token patterns at import, with `re`, which a
step's `pathlib` loads anyway. tests/test_lang_package.py pins the
imported modules.
"""

from minigi.lang.ast import Block, Type
from minigi.lang.interpreter import Status, parse_test_file, run_suite
from minigi.lang.parser import ParseError, parse_block, parse_source
from minigi.lang.printer import print_canonical, source_digest
from minigi.lang.semantics import validate

__all__ = [
    "Block",
    "ParseError",
    "Status",
    "Type",
    "parse_block",
    "parse_source",
    "parse_test_file",
    "print_canonical",
    "run_suite",
    "source_digest",
    "validate",
]
