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

A driver call passes the operator one `LlmRequests` dict. Keyed by the
drawn block object, its id and the category, it keeps the block, its
rendered prompt, the last reply and that reply's edits. A draw of a kept
key sends the kept prompt, without printing the block or rendering the
template, and reuses the kept edits when the reply equals the kept one;
a reply that differs gets edits of its own. Every draw still sends its
request, so the client counts and records each one. The prompt depends
only on the block, the category and the template, and the edits only on
the reply, the block id, the category and the template, so a dict kept
for one template changes no edit.
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
from minigi.lang.ast import Block, SitesOf, SourceUnit, StatementId, statement_sites
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

# (id(block), block id, category) -> the block, its prompt, the last reply
# to it and the edits of that reply; holding the block keeps its id from
# being reused while the entry lives (see the module docstring)
LlmRequests = dict[
    tuple[int, StatementId, PromptCategory], tuple[Block, str, str, tuple[Edit, ...]]
]


def make_llm_edits(
    unit: SourceUnit,
    hot: list[str],
    rng: random.Random,
    client,
    template: PromptTemplate,
    category: PromptCategory,
    sites: SitesOf = statement_sites,
    requests: Optional[LlmRequests] = None,
) -> list[Edit]:
    """Draw one block-rewrite request and turn it into up to N edits.

    A block statement is selected uniformly at random in a uniformly
    chosen hot method (the body root block is eligible). One request is
    sent; each returned variant becomes a block-replacement edit. Exactly
    `variant_count` edits come back so request accounting stays exact:
    missing variants are payload-less edits that fail validity later.
    `requests` keeps each distinct request's prompt and edits for the
    draws that share it (see the module docstring).
    """
    if not hot:
        raise ValueError("empty hot-method list")
    if requests is None:
        requests = {}
    fn = unit.function(rng.choice(hot))
    block_sid, block = rng.choice(sites(fn)[1])
    key = (id(block), block_sid, category)
    kept = requests.get(key)
    prompt = build_prompt(template, category, print_statement(block)) if kept is None else kept[1]
    reply = client.complete(prompt)
    if kept is not None and kept[2] == reply:
        return list(kept[3])
    label = category.value
    blocks = extract_code_blocks(reply)[: template.variant_count]
    edits = tuple(
        Edit(EditKind.LLM_BLOCK_REPLACE, src=block_sid, payload=body, prompt_category=label)
        for body in blocks + (None,) * (template.variant_count - len(blocks))
    )
    requests[key] = block, prompt, reply, edits
    return list(edits)
