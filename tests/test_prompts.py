from __future__ import annotations

import random

import pytest

import minigi.prompts as prompts
from minigi.lang.ast import statement_sites
from minigi.llm import LlmClientBase, LlmClientConfig, make_client
from minigi.patches import EditKind, apply_edit
from minigi.prompts import (
    PromptCategory,
    PromptTemplate,
    build_prompt,
    default_example_change,
    extract_code_blocks,
    make_llm_edits,
)

JAVA_MEDIUM_GOLDEN = (
    "Give me 5 different Java implementations of this method body:\n"
    "```\n"
    "{ return 1; }\n"
    "```\n"
    "This code belongs to project bench.\n"
    "Wrap all code in curly braces, if it is not already.\n"
    "Do not include any method or class declarations.\n"
    "label all code as java.\n"
)


JAVA = PromptTemplate(project_name="bench", language="Java", code_label="java")
MEDIUM = PromptCategory.MEDIUM


def test_medium_prompt_byte_exact_golden():
    prompt = build_prompt(JAVA, MEDIUM, "{ return 1; }")
    assert prompt == JAVA_MEDIUM_GOLDEN


def test_simple_prompt_is_strict_prefix_without_instructions():
    simple = build_prompt(JAVA, PromptCategory.SIMPLE, "{ return 1; }")
    medium = build_prompt(JAVA, MEDIUM, "{ return 1; }")
    assert medium.startswith(simple)
    assert simple != medium
    assert "Give me 5 different Java implementations" in simple
    assert "{ return 1; }" in simple
    for instruction in ("belongs to project", "Wrap all code", "label all code"):
        assert instruction not in simple


def test_detailed_prompt_is_medium_plus_example_section():
    detailed = build_prompt(JAVA, PromptCategory.DETAILED, "{ return 1; }")
    medium = build_prompt(JAVA, MEDIUM, "{ return 1; }")
    example = default_example_change().rstrip("\n")
    assert detailed == medium + "Here is an example of a useful change:\n" + example + "\n"


def test_default_example_change_is_an_insert_style_speedup():
    example = default_example_change()
    assert "Before:" in example and "After:" in example
    assert example.count("```") == 4
    before, after = extract_code_blocks(example)
    assert after.count("break;") == before.count("break;") + 1


def test_variant_count_is_configurable_in_prompt_text():
    template = PromptTemplate(
        project_name="p", language="Java", code_label="java", variant_count=3
    )
    prompt = build_prompt(template, MEDIUM, "{ }")
    assert prompt.startswith("Give me 3 different Java implementations")


def test_prompt_build_is_pure():
    assert build_prompt(JAVA, MEDIUM, "{ x = 1; }") == build_prompt(JAVA, MEDIUM, "{ x = 1; }")


def test_placeholders_in_code_are_not_reexpanded():
    prompt = build_prompt(JAVA, MEDIUM, "{ x = <projectname>; }")
    assert "{ x = <projectname>; }" in prompt


# -- extraction --


def test_extract_blocks_of_many_in_order():
    text = "intro\n```\nfirst\n```\nmiddle\n```\nsecond\n```\n"
    assert extract_code_blocks(text) == ("first", "second")


def test_extract_prose_only_is_no_code_block(bench_sort):
    unit, _ = bench_sort
    prose = "No code here, only words."
    assert extract_code_blocks(prose) == ()
    client = mock_client([prose])
    edits = make_llm_edits(unit, ["sort"], random.Random(0), client, minilang_template(), MEDIUM)
    assert [e.payload for e in edits] == [None] * 5


def test_extract_strips_language_label():
    assert extract_code_blocks("```java\n{ return 1; }\n```\n") == ("{ return 1; }",)


def test_extract_unclosed_fence_runs_to_end():
    assert extract_code_blocks("```\n{ x = 1;\ny = 2; }") == ("{ x = 1;\ny = 2; }",)


def test_extract_indented_fences():
    assert extract_code_blocks("  ```\n  code\n  ```") == ("  code",)


# -- the operator --


def mock_client(script) -> LlmClientBase:
    return make_client(LlmClientConfig(mode="mock"), script=script)


def minilang_template(count: int = 5) -> PromptTemplate:
    return PromptTemplate(project_name="bench_sort", variant_count=count)


def test_make_llm_edits_five_wellformed_variants(bench_sort):
    unit, _ = bench_sort
    response = "\n".join(f"{i}.\n```\n{{ n = len(a); }}\n```" for i in range(1, 6))
    client = mock_client([response])
    edits = make_llm_edits(unit, ["sort"], random.Random(0), client, minilang_template(), MEDIUM)
    assert len(edits) == 5
    for edit in edits:
        assert edit.kind is EditKind.LLM_BLOCK_REPLACE
        assert edit.payload == "{ n = len(a); }"
        assert edit.prompt_category == "medium"
        apply_edit(unit, edit)  # block target in sort; payload applies


def test_make_llm_edits_pads_missing_variants_as_blockless(bench_sort):
    unit, _ = bench_sort
    response = (
        "1.\n```\n{ }\n```\n2.\n```\n{ }\n```\n3.\n```\n{ }\n```\n"
        "4. In prose form.\n5. Also prose."
    )
    client = mock_client([response])
    edits = make_llm_edits(unit, ["sort"], random.Random(0), client, minilang_template(), MEDIUM)
    assert len(edits) == 5
    assert [e.payload for e in edits] == ["{ }", "{ }", "{ }", None, None]


def test_make_llm_edits_echo_keeps_original_fingerprint(bench_sort):
    from minigi.lang import source_digest
    from minigi.patches import Patch, apply_patch

    unit, _ = bench_sort

    def echo(prompt):
        code = extract_code_blocks(prompt)[0]
        return "```\n" + code + "\n```"

    client = mock_client(echo)
    edits = make_llm_edits(
        unit, ["sort"], random.Random(3), client, minilang_template(count := 1), MEDIUM
    )
    patch = Patch("bench_sort", (edits[0],))
    assert source_digest(apply_patch(unit, patch)) == source_digest(unit)


def test_block_selection_uniform_over_blocks(bench_sort):
    unit, _ = bench_sort
    blocks = [sid for sid, _block in statement_sites(unit.function("sort"))[1]]
    assert len(blocks) == 4  # root, outer body, inner body, then-block
    client = mock_client(lambda prompt: "```\n{ }\n```")
    seen = set()
    counts = {}
    for seed in range(600):
        edits = make_llm_edits(
            unit, ["sort"], random.Random(seed), client, minilang_template(1), MEDIUM
        )
        sid = edits[0].src
        seen.add(sid)
        counts[sid] = counts.get(sid, 0) + 1
    assert seen == set(blocks)
    for sid, n in counts.items():
        assert abs(n - 150) <= 60, (sid, n)


def test_body_root_block_is_eligible(bench_sort):
    unit, _ = bench_sort
    client = mock_client(lambda prompt: "```\n{ return a; }\n```")
    for seed in range(200):
        edits = make_llm_edits(
            unit, ["sort"], random.Random(seed), client, minilang_template(1), MEDIUM
        )
        if edits[0].src.path == ():
            return
    raise AssertionError("body root block never selected in 200 draws")


def test_prompt_code_is_canonical_block_text(bench_sort):
    unit, _ = bench_sort
    captured = {}

    def capture(prompt):
        captured["prompt"] = prompt
        return "```\n{ }\n```"

    client = mock_client(capture)
    make_llm_edits(unit, ["max2"], random.Random(1), client, minilang_template(1), MEDIUM)
    assert "```\n{\n" in captured["prompt"] or "```\n{ }" not in captured["prompt"]
    # the fenced code parses back as a block
    from minigi.lang import parse_block

    code = extract_code_blocks(captured["prompt"])[0]
    parse_block(code)


def test_build_prompt_reads_each_template_once_per_process():
    """The pinned text of every category, built repeatedly: each packaged
    template is read from disk on its first use only."""
    code = "{\n    return n;\n}\n"
    template = PromptTemplate(project_name="p", language="L", code_label="l", variant_count=3)
    request = "Give me 3 different L implementations of this method body:\n```\n{\n    return n;\n}\n```\n"
    medium = (
        request + "This code belongs to project p.\n"
        "Wrap all code in curly braces, if it is not already.\n"
        "Do not include any method or class declarations.\n"
        "label all code as l.\n"
    )
    example = default_example_change().rstrip("\n")
    pinned = {
        PromptCategory.SIMPLE: request,
        PromptCategory.MEDIUM: medium,
        PromptCategory.DETAILED: medium + "Here is an example of a useful change:\n" + example + "\n",
    }
    assert example.startswith("Before:\n```\n{\n") and example.endswith("}\n```")
    prompts._load_template.cache_clear()
    for _ in range(4):
        for category, text in pinned.items():
            assert build_prompt(template, category, code) == text
    assert prompts._load_template.cache_info().misses == 4  # three categories and the example
    assert prompts._load_template.cache_info().hits == 4 * 4 - 4


@pytest.mark.parametrize("settings, complaint", [
    ({"variant_count": 0}, "variant_count must be an integer of at least 1, got 0"),
    ({"variant_count": 2.5}, "variant_count must be an integer of at least 1, got 2.5"),
    ({"variant_count": True}, "variant_count must be an integer of at least 1, got True"),
    ({"variant_count": "5"}, "variant_count must be an integer of at least 1, got '5'"),
    ({"project_name": None}, "project_name must be a string, got None"),
    ({"language": 1}, "language must be a string, got 1"),
    ({"code_label": ["x"]}, "code_label must be a string, got ['x']"),
])
def test_prompt_template_refuses_values_of_the_wrong_type(settings, complaint):
    with pytest.raises(ValueError) as raised:
        PromptTemplate(**settings)
    assert str(raised.value) == complaint


# -- one driver call's requests --


def test_a_repeated_request_is_sent_each_time_and_edits_follow_its_own_reply(bench_sort):
    """Draws of one block share a kept prompt, but each is sent, and a
    reply that differs from the kept one gets edits of its own payloads."""
    unit, _ = bench_sort
    one, two, prose = "```\n{ x = 1; }\n```", "```\n{ }\n```\n```\n{ x = 2; }\n```", "none"
    replies = [one, one, two, one, prose, prose, one]
    client = mock_client(replies)
    requests = {}
    for reply in replies:
        edits = make_llm_edits(
            unit, ["sort"], random.Random(0), client, minilang_template(), MEDIUM,
            statement_sites, requests,
        )
        blocks = extract_code_blocks(reply)
        assert [e.payload for e in edits] == list(blocks) + [None] * (5 - len(blocks))
    assert client.requests_made == len(replies)
    assert len(requests) == 1


@pytest.mark.parametrize("bench", ["bench_sort", "bench_planted"])
@pytest.mark.parametrize("category", list(PromptCategory))
def test_shared_requests_change_no_edit(bench, category, request):
    """Every category draws the same edits, texts included, with one dict
    kept across draws as with a fresh dict per draw."""
    unit, _ = request.getfixturevalue(bench)
    hot = [fn.name for fn in unit.functions]
    fresh, shared = make_client(LlmClientConfig()), make_client(LlmClientConfig())
    requests = {}
    for seed in list(range(30)) * 2:
        expected = make_llm_edits(unit, hot, random.Random(seed), fresh, JAVA, category)
        edits = make_llm_edits(
            unit, hot, random.Random(seed), shared, JAVA, category, statement_sites, requests
        )
        assert edits == expected
        assert [e.text for e in edits] == [e.text for e in expected]
    assert fresh.requests_made == shared.requests_made == 60
    assert len(requests) < 30


def test_a_kept_request_holds_its_block():
    """The entry keeps the drawn block alive, so no other block can take
    its id while the entry lives."""
    from minigi.lang import parse_source
    from minigi.lang.printer import print_statement

    unit = parse_source("fn f(n: int) -> int { return n; }", "one")
    requests = {}
    make_llm_edits(
        unit, ["f"], random.Random(0), mock_client(["```\n{ }\n```"]), minilang_template(1),
        MEDIUM, statement_sites, requests,
    )
    ((key, entry),) = requests.items()
    block = unit.function("f").body
    assert key == (id(block), statement_sites(unit.function("f"))[1][0][0], MEDIUM)
    assert entry[0] is block
    del unit, block
    assert id(entry[0]) == key[0]
    assert entry[1] == build_prompt(minilang_template(1), MEDIUM, print_statement(entry[0]))
    assert entry[2] == "```\n{ }\n```"
    assert [e.payload for e in entry[3]] == ["{ }"]


def test_a_kept_block_at_a_new_id_gets_edits_of_that_id():
    """A move that deletes a statement before a nested block keeps the
    block object at a shifted id; a draw of it there targets the new id."""
    from minigi.lang import parse_source
    from minigi.patches import Edit, Patch, apply_patch

    source = "fn f(n: int) -> int { var s: int = 0; s = 1; if (n > 0) { s = n; } return s; }"
    unit = parse_source(source, "shift")
    deletion = Edit(EditKind.DELETE, src=statement_sites(unit.function("f"))[0][1])
    moved = apply_patch(unit, Patch("shift", (deletion,)))

    def nested(fn):  # draw only the if's block
        return [], statement_sites(fn)[1][1:]

    (_, block), (_, same) = (nested(u.function("f"))[1][0] for u in (unit, moved))
    assert block is same
    client, requests = mock_client(lambda prompt: "```\n{ }\n```"), {}
    for current, sid in ((unit, "f:2.0"), (moved, "f:1.0")):
        (edit,) = make_llm_edits(
            current, ["f"], random.Random(0), client, minilang_template(1), MEDIUM,
            nested, requests,
        )
        assert str(edit.src) == sid
    assert [str(key[1]) for key in requests] == ["f:2.0", "f:1.0"]
