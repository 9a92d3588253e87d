from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_rag import prompt_kit
from anchor_rag.corpus import Chunk, QAItem
from anchor_rag.prompt_kit import (
    PromptParseError,
    format_documents,
    parse_answer,
    parse_final,
    parse_triples,
    render_standard_rag,
    render_system1,
    render_system2,
    render_triple,
    render_triplegen,
)
from anchor_rag.traces import ReasoningTriple


def make_question(text="What is the capital of France?", qid="q1"):
    return QAItem(question_id=qid, question=text, gold_answer="Paris", dataset_tag="hotpotqa")


def make_chunk(i, text, title=None):
    return Chunk(
        chunk_id=f"c{i}",
        doc_id=f"d{i}",
        start_token=0,
        end_token=max(1, len(text.split())),
        text=text,
        token_count=max(1, len(text.split())),
        tokenizer_id="wordpunct-v1",
        title=title if title is not None else f"Title {i}",
    )


BANNAN_TRIPLES = [
    ReasoningTriple("Justin_Bannan", "played_college_football_for", "Penn_State_Nittany_Lions"),
    ReasoningTriple("Penn_State_Nittany_Lions", "current_conference_member_of", "Big_Ten_Conference"),
]


# --- rendering -----------------------------------------------------------------


def test_system1_prompt_shape():
    prompt = render_system1(make_question())
    assert prompt.stage_tag == "system1"
    assert "What is the capital of France?" in prompt.text
    assert "<answer>Paris</answer>" in prompt.system_text
    assert prompt.text.count("### Task:") == 1
    assert "Question: What is the capital of France?" in prompt.user_text


def test_system1_angle_brackets_pass_through():
    q = make_question(text="What does <answer> mean in {this} spec?")
    prompt = render_system1(q)
    assert "What does <answer> mean in {this} spec?" in prompt.user_text
    assert prompt.user_text.startswith("<input>")


def test_triplegen_prompt_shape():
    q = make_question(text="Where was the lead singer of the band Queen born?", qid="queen")
    prompt = render_triplegen(q, "Stone Town, Zanzibar")
    assert "<triple>Queen | has_lead_singer | Freddie Mercury</triple>" in prompt.system_text
    assert "<triple>Freddie Mercury | born_in | Stone Town, Zanzibar</triple>" in prompt.system_text
    assert "Question: Where was the lead singer of the band Queen born?" in prompt.user_text
    assert "Answer: Stone Town, Zanzibar" in prompt.user_text


def test_triplegen_degenerate_hypothesis_still_renders():
    q = make_question()
    prompt = render_triplegen(q, q.question)
    assert prompt.user_text.count(q.question) == 2


def test_system2_prompt_lists_anchor_and_documents():
    q = make_question(
        text="Which conference is the team for which Justin Bannan played college football currently a member of?",
        qid="bannan",
    )
    chunks = [make_chunk(i, f"Passage number {i}.") for i in range(10)]
    prompt = render_system2(q, "Big Ten Conference", BANNAN_TRIPLES, chunks)
    assert "Initial Guess: Big Ten Conference" in prompt.user_text
    assert "(Justin_Bannan | played_college_football_for | Penn_State_Nittany_Lions)" in prompt.user_text
    assert "(Penn_State_Nittany_Lions | current_conference_member_of | Big_Ten_Conference)" in prompt.user_text
    for i in range(10):
        assert f"{i + 1}. Title {i}: Passage number {i}." in prompt.user_text
    assert "<final_answer>" in prompt.system_text


def test_system2_without_anchor_has_no_guess_section():
    q = make_question()
    chunks = [make_chunk(0, "Some evidence.")]
    prompt = render_system2(q, "Paris", [], chunks, include_anchor=False)
    assert prompt.stage_tag == "system2_noanchor"
    assert "Initial Guess" not in prompt.text
    assert "Initial Reasoning" not in prompt.text
    assert "Some evidence." in prompt.user_text


def test_system2_preserves_chunk_order():
    q = make_question()
    chunks = [make_chunk(i, f"text {i}") for i in (3, 1, 2)]
    prompt = render_system2(q, "Paris", [], chunks, include_anchor=False)
    positions = [prompt.user_text.index(f"text {i}") for i in (3, 1, 2)]
    assert positions == sorted(positions)
    assert prompt.user_text.index("1. Title 3") < prompt.user_text.index("2. Title 1")


def test_standard_rag_prompt():
    q = make_question()
    prompt = render_standard_rag(q, [make_chunk(0, "Paris is the capital of France.")])
    assert prompt.stage_tag == "standard_rag"
    assert q.question in prompt.user_text
    assert "<answer>" in prompt.system_text


def test_format_documents_uses_doc_id_when_untitled():
    text = format_documents([make_chunk(7, "body", title="")])
    assert text == "1. d7: body"


# --- template fidelity -----------------------------------------------------------


def stored(name: str) -> str:
    return (Path(prompt_kit.__file__).parent / "templates" / name).read_text(encoding="utf-8")


def blank(rendered: str, substitutions: dict[str, str]) -> str:
    out = rendered
    for key, value in substitutions.items():
        out = out.replace(value, "{" + key + "}")
    return out


def test_rendered_prompts_match_stored_templates_byte_for_byte():
    q = make_question(text="XQUESTIONX", qid="gold")
    chunk = make_chunk(0, "XDOCTEXTX", title="XTITLEX")
    triple = ReasoningTriple("XSUBJX", "XPREDX", "XOBJX")

    prompt = render_system1(q)
    assert prompt.system_text == stored("system1.system.txt")
    assert blank(prompt.user_text, {"question": "XQUESTIONX"}) == stored("system1.user.txt")

    prompt = render_triplegen(q, "XHYPX")
    assert prompt.system_text == stored("triple_gen.system.txt")
    assert blank(prompt.user_text, {"question": "XQUESTIONX", "answer": "XHYPX"}) == stored("triple_gen.user.txt")

    prompt = render_system2(q, "XHYPX", [triple], [chunk])
    assert prompt.system_text == stored("system2.system.txt")
    blanked = blank(
        prompt.user_text,
        {
            "question": "XQUESTIONX",
            "initial_guess": "XHYPX",
            "triples": "(XSUBJX | XPREDX | XOBJX)",
            "documents": "1. XTITLEX: XDOCTEXTX",
        },
    )
    assert blanked == stored("system2.user.txt")

    prompt = render_system2(q, "XHYPX", [triple], [chunk], include_anchor=False)
    assert prompt.system_text == stored("system2_noanchor.system.txt")
    blanked = blank(prompt.user_text, {"question": "XQUESTIONX", "documents": "1. XTITLEX: XDOCTEXTX"})
    assert blanked == stored("system2_noanchor.user.txt")

    prompt = render_standard_rag(q, [chunk])
    assert prompt.system_text == stored("standard_rag.system.txt")
    blanked = blank(prompt.user_text, {"question": "XQUESTIONX", "documents": "1. XTITLEX: XDOCTEXTX"})
    assert blanked == stored("standard_rag.user.txt")


# --- parse_answer -----------------------------------------------------------------


def test_parse_answer_tagged():
    assert parse_answer("<output><answer>Paris</answer></output>") == ("Paris", False)


def test_parse_answer_untagged_falls_back():
    assert parse_answer("Paris") == ("Paris", True)


def test_parse_answer_strips_output_wrapper_in_fallback():
    assert parse_answer("<output>Paris</output>") == ("Paris", True)


def test_parse_answer_first_match_wins():
    assert parse_answer("<answer>A</answer> junk <answer>B</answer>") == ("A", False)


def test_parse_answer_innermost():
    assert parse_answer("<answer><answer>X</answer></answer>") == ("X", False)


def test_parse_answer_empty_raises():
    with pytest.raises(PromptParseError):
        parse_answer("")
    with pytest.raises(PromptParseError):
        parse_answer("<answer>   </answer>")


# --- parse_triples -----------------------------------------------------------------


def test_parse_triples_queen_example():
    triples, malformed = parse_triples("<triple>Queen | has_lead_singer | Freddie Mercury</triple>")
    assert triples == [ReasoningTriple("Queen", "has_lead_singer", "Freddie Mercury")]
    assert malformed == 0


def test_parse_triples_two_fields_skipped():
    triples, malformed = parse_triples("<triple>A | B</triple>")
    assert triples == [] and malformed == 1


def test_parse_triples_bannan_output():
    text = (
        "<output>\n"
        "<triple>Justin_Bannan | played_college_football_for | Penn_State_Nittany_Lions</triple>\n"
        "<triple>Penn_State_Nittany_Lions | current_conference_member_of | Big_Ten_Conference</triple>\n"
        "</output>"
    )
    triples, malformed = parse_triples(text)
    assert triples == BANNAN_TRIPLES and malformed == 0


def test_parse_triples_extra_pipes_join_into_predicate():
    triples, malformed = parse_triples("<triple>A | b | c | D</triple>")
    assert malformed == 0
    assert triples == [ReasoningTriple("A", "b | c", "D")]


def test_parse_triples_empty_field_skipped():
    triples, malformed = parse_triples("<triple> | p | O</triple><triple>S | p | O</triple>")
    assert triples == [ReasoningTriple("S", "p", "O")] and malformed == 1


def test_parse_triples_garbage_returns_empty():
    triples, malformed = parse_triples("no triples here at all")
    assert triples == [] and malformed == 0


# --- parse_final -----------------------------------------------------------------


def test_parse_final_tagged():
    text = "reasoning...\n<final_answer> Pac-12 Conference </final_answer>"
    assert parse_final(text) == ("Pac-12 Conference", False)


def test_parse_final_untagged_uses_last_line():
    assert parse_final("Some reasoning.\nThe answer is X.\n") == ("The answer is X.", True)


def test_parse_final_last_element_wins():
    text = "<final_answer>first</final_answer> more thought <final_answer>second</final_answer>"
    assert parse_final(text) == ("second", False)


def test_parse_final_empty_raises():
    with pytest.raises(PromptParseError):
        parse_final("   \n  ")


# --- properties -----------------------------------------------------------------

field_text = st.text(
    alphabet=st.characters(blacklist_characters="|<>", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=30,
).filter(lambda s: s.strip())


@settings(max_examples=100, deadline=None)
@given(subject=field_text, predicate=field_text, obj=field_text)
def test_triple_round_trip(subject, predicate, obj):
    triple = ReasoningTriple(subject.strip(), predicate.strip(), obj.strip())
    parsed, malformed = parse_triples(render_triple(triple))
    assert malformed == 0 and parsed == [triple]


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=200))
def test_parsers_are_total(text):
    for parser in (parse_answer, parse_final):
        try:
            value, malformed = parser(text)
            assert isinstance(value, str) and value
        except PromptParseError:
            pass
    triples, malformed = parse_triples(text)
    assert malformed >= 0 and all(isinstance(t, ReasoningTriple) for t in triples)
