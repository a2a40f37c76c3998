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

One request asks for `variant_count` variations at once; the fenced code
blocks of the response, in order, are the variants. A response with fewer
blocks than requested still consumes the full variant budget: the missing
variants become edits with no payload, which later fail the validity rung.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Optional

from minigi.lang.ast import SourceUnit, block_ids, resolve
from minigi.lang.printer import print_statement
from minigi.patches import Edit, EditKind

DEFAULT_VARIANT_COUNT = 5
DEFAULT_TEMPERATURE = 0.7
DEFAULT_MODEL = "gpt-3.5-turbo"


class PromptCategory(Enum):
    SIMPLE = "simple"
    MEDIUM = "medium"
    DETAILED = "detailed"


def _load_template(name: str) -> str:
    return (resources.files("minigi") / "templates" / name).read_text(encoding="utf-8")


def default_example_change() -> str:
    """The canned example shipped with the package (an insert-edit speedup)."""
    return _load_template("example.txt")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt settings of a run, stored as the run record's `llm.prompt`."""

    project_name: str = ""
    language: str = "MiniLang"
    code_label: str = "minilang"
    variant_count: int = DEFAULT_VARIANT_COUNT

    def __post_init__(self):
        if self.variant_count < 1:
            raise ValueError("variant count must be at least 1")


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


# -- requests and responses --


@dataclass(frozen=True)
class LlmRequest:
    prompt: str
    temperature: float = DEFAULT_TEMPERATURE
    model: str = DEFAULT_MODEL


def extract_code_blocks(text: str) -> tuple[str, ...]:
    """Fenced code segments in order of appearance.

    A fence is a line whose stripped form starts with three backticks; an
    opening fence may carry a language label, which is dropped. A fence
    left unclosed at the end of the response extends to the end of the
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


@dataclass(frozen=True)
class LlmResponse:
    raw_text: str
    extracted_blocks: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "extracted_blocks", extract_code_blocks(self.raw_text))


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
    fn_name = rng.choice(hot)
    fn = unit.function(fn_name)
    block_sid = rng.choice(block_ids(fn))
    block = resolve(unit, block_sid)
    assert block is not None
    code = print_statement(block)
    prompt = build_prompt(template, category, code)
    request = LlmRequest(
        prompt=prompt,
        temperature=client.config.temperature,
        model=client.config.model,
    )
    response = client.complete(request)
    label = category.value
    edits = [
        Edit(EditKind.LLM_BLOCK_REPLACE, src=block_sid, payload=body, prompt_category=label)
        for body in response.extracted_blocks[: template.variant_count]
    ]
    while len(edits) < template.variant_count:
        edits.append(
            Edit(EditKind.LLM_BLOCK_REPLACE, src=block_sid, payload=None, prompt_category=label)
        )
    return edits
