"""Prompt construction and response handling for the LLM mutation operator.

Three prompt categories exist. The simple prompt only asks for rewrites of
the code; the medium prompt adds the project context and formatting
instructions; the detailed prompt appends the packaged before/after
example of a useful change (templates/example.txt), the same for every
request. A PromptTemplate holds the settings shared by the three; the
category is chosen per request. Templates are plain text files under
templates/ with these placeholders:

    <code>         canonical text of the selected block
    <projectname>  project the code belongs to
    <count>        number of variations requested
    <language>     language name used in the request line
    <codelabel>    label the model is told to mark code blocks with
    <example>      the canned example change (detailed only)

The operator sends the rendered prompt through the client's one call,
`complete(prompt) -> text`; the client holds the model and temperature.
One request asks for `variant_count` variations at once; the fenced code
blocks of the reply, in order, are the variants. A reply with fewer
blocks than requested still consumes the full variant budget: the missing
variants become edits with no payload, which later fail the validity rung.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional

from minigi.checks import check_count
from minigi.lang.ast import SourceUnit, block_ids, get_statement
from minigi.lang.printer import print_statement
from minigi.patches import Edit, EditKind


class PromptCategory(Enum):
    SIMPLE = "simple"
    MEDIUM = "medium"
    DETAILED = "detailed"


@functools.cache
def _load_template(name: str) -> str:
    """A packaged template's text, read once per process: the installed
    files do not change while it runs."""
    return (resources.files("minigi") / "templates" / name).read_text(encoding="utf-8")


def default_example_change() -> str:
    """The canned example shipped with the package (an insert-edit speedup)."""
    return _load_template("example.txt")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt settings of a run, stored as the run record's `llm.prompt`.
    Construction refuses a text field that is not a string and a
    `variant_count` that is not an integer of at least 1."""

    project_name: str = ""
    language: str = "MiniLang"
    code_label: str = "minilang"
    variant_count: int = 5

    def __post_init__(self):
        for name in ("project_name", "language", "code_label"):
            value = getattr(self, name)
            if type(value) is not str:
                raise ValueError(f"{name} must be a string, got {value!r}")
        check_count("variant_count", self.variant_count)


_PLACEHOLDER = re.compile(r"<(code|projectname|count|language|codelabel|example)>")


def render_template(text: str, values: dict[str, str]) -> str:
    """Substitute placeholders in one pass (placeholders in values stay inert)."""
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], text)


def build_prompt(template: PromptTemplate, category: PromptCategory, code: str) -> str:
    """Render the `category` prompt for one block of code (its canonical printing)."""
    text = _load_template(f"{category.value}.txt")
    example = default_example_change() if category is PromptCategory.DETAILED else ""
    return render_template(
        text,
        {
            "code": code.rstrip("\n"),
            "projectname": template.project_name,
            "count": str(template.variant_count),
            "language": template.language,
            "codelabel": template.code_label,
            "example": example.rstrip("\n"),
        },
    )


# -- replies --


def extract_code_blocks(text: str) -> tuple[str, ...]:
    """Fenced code segments of a reply, in order of appearance.

    A fence is a line whose stripped form starts with three backticks; an
    opening fence may carry a language label, which is dropped. A fence
    left unclosed at the end of the reply extends to the end of the
    text (models routinely forget the closing fence).
    """
    blocks: list[str] = []
    current: Optional[list[str]] = None
    for line in text.splitlines():
        if line.strip().startswith("```"):
            if current is None:
                current = []
            else:
                blocks.append("\n".join(current))
                current = None
        elif current is not None:
            current.append(line)
    if current is not None:
        blocks.append("\n".join(current))
    return tuple(blocks)


# -- the mutation operator --


def make_llm_edits(
    unit: SourceUnit,
    hot: list[str],
    rng: random.Random,
    client,
    template: PromptTemplate,
    category: PromptCategory,
) -> list[Edit]:
    """Draw one block-rewrite request and turn it into up to N edits.

    A block statement is selected uniformly at random in a uniformly
    chosen hot method (the body root block is eligible). One request is
    sent; each returned variant becomes a block-replacement edit. Exactly
    `variant_count` edits come back so request accounting stays exact:
    missing variants are payload-less edits that fail validity later.
    """
    if not hot:
        raise ValueError("empty hot-method list")
    fn = unit.function(rng.choice(hot))
    block_sid = rng.choice(block_ids(fn))
    code = print_statement(get_statement(fn, block_sid.path))
    blocks = extract_code_blocks(client.complete(build_prompt(template, category, code)))
    label = category.value
    edits = [
        Edit(EditKind.LLM_BLOCK_REPLACE, src=block_sid, payload=body, prompt_category=label)
        for body in blocks[: template.variant_count]
    ]
    while len(edits) < template.variant_count:
        edits.append(
            Edit(EditKind.LLM_BLOCK_REPLACE, src=block_sid, payload=None, prompt_category=label)
        )
    return edits
