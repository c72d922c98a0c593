"""Tests for SimulatedLLM, the registry and the live-client adapters."""

from __future__ import annotations

import pytest

from repro.errors import TransportError, UnknownModelError
from repro.hecbench import get_app
from repro.llm.base import ChatMessage
from repro.llm.clients import OllamaClient, OpenAIChatClient
from repro.llm.profiles import CellPlan, MODEL_STYLES, paper_plan
from repro.llm.registry import MIN_CONTEXT_LENGTH, all_models, get_model
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.prompts.builder import PromptBuilder
from repro.utils.text import extract_code_block


class TestRegistry:
    def test_table5_rows(self):
        models = all_models()
        assert [m.name for m in models] == [
            "GPT-4", "Codestral", "Wizard Coder", "DeepSeek Coder v2",
        ]
        gpt4 = get_model("gpt4")
        assert gpt4.parameters == "1.76 T"
        assert gpt4.context_length == 32768
        assert gpt4.hosting == "api"
        wizard = get_model("wizardcoder")
        assert wizard.context_length == 16384
        assert wizard.quantization == "8-bit"
        deepseek = get_model("deepseek")
        assert deepseek.context_length == 163840
        assert deepseek.quantization == "F16"

    def test_min_context_is_wizard(self):
        assert MIN_CONTEXT_LENGTH == 16384

    def test_lookup_by_name_or_key(self):
        assert get_model("Codestral").key == "codestral"
        with pytest.raises(UnknownModelError):
            get_model("llama")

    def test_every_model_has_a_style(self):
        for m in all_models():
            assert m.key in MODEL_STYLES


def build_and_translate(model="gpt4", app_name="layout",
                        src=Dialect.OMP, tgt=Dialect.CUDA, plan=None):
    app = get_app(app_name)
    llm = SimulatedLLM(model, src, tgt, plan=plan)
    builder = PromptBuilder(src, tgt)
    bundle = builder.build(llm, app.source(src))
    response = llm.chat([
        ChatMessage("system", bundle.system),
        ChatMessage("user", bundle.full_user_prompt),
    ])
    return llm, app, extract_code_block(response.text)


class TestSimulatedLLM:
    def test_implements_protocol(self):
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA,
                           plan=CellPlan())
        assert llm.context_length == 32768
        out = llm.generate("hello")
        assert out.model == "GPT-4"

    def test_clean_plan_emits_compilable_translation(self):
        from repro.toolchain import compiler_for

        _, app, code = build_and_translate(plan=CellPlan())
        assert code is not None
        assert "__global__" in code
        assert compiler_for(Dialect.CUDA).compile(code).ok

    def test_self_prompting_responses_distinct(self):
        llm = SimulatedLLM("codestral", Dialect.CUDA, Dialect.OMP,
                           plan=CellPlan())
        summary = llm.generate("Summarize the following OpenMP reference...")
        describe = llm.generate(
            "Describe succinctly what the following CUDA program computes:"
            "\n\n__global__ void k() {}"
        )
        assert summary.text != describe.text
        assert "CUDA" in describe.text

    def test_planned_fault_then_repair_on_matching_error(self):
        plan = CellPlan(self_corrections=1, fault_ids=("missing-semicolon",))
        llm, app, code = build_and_translate(plan=plan)
        from repro.toolchain import compiler_for

        cr = compiler_for(Dialect.CUDA).compile(code)
        assert not cr.ok  # first generation carries the fault
        # correction with the real stderr lands the repair
        from repro.prompts.dictionary import correction_prompt

        fixed_resp = llm.chat([ChatMessage("user", correction_prompt(
            "compile", code, cr.command, cr.stderr
        ))])
        fixed = extract_code_block(fixed_resp.text)
        assert compiler_for(Dialect.CUDA).compile(fixed).ok

    def test_repair_requires_matching_error_text(self):
        plan = CellPlan(self_corrections=1, fault_ids=("missing-semicolon",))
        llm, app, code = build_and_translate(plan=plan)
        from repro.prompts.dictionary import correction_prompt
        from repro.toolchain import compiler_for

        # a correction prompt quoting an unrelated error does not advance
        resp = llm.chat([ChatMessage("user", correction_prompt(
            "compile", code, "nvcc", "error: something entirely unrelated"
        ))])
        still_broken = extract_code_block(resp.text)
        assert not compiler_for(Dialect.CUDA).compile(still_broken).ok

    def test_na_compile_plan_never_compiles(self):
        from repro.prompts.dictionary import correction_prompt
        from repro.toolchain import compiler_for

        plan = CellPlan(outcome="na-compile",
                        fault_ids=("kernel-called-directly",))
        llm, app, code = build_and_translate(plan=plan)
        for _ in range(3):
            cr = compiler_for(Dialect.CUDA).compile(code)
            assert not cr.ok
            resp = llm.chat([ChatMessage("user", correction_prompt(
                "compile", code, cr.command, cr.stderr
            ))])
            code = extract_code_block(resp.text)

    def test_stochastic_plan_is_seed_deterministic(self):
        a = SimulatedLLM("deepseek", Dialect.CUDA, Dialect.OMP, seed=7)
        b = SimulatedLLM("deepseek", Dialect.CUDA, Dialect.OMP, seed=7)
        c = SimulatedLLM("deepseek", Dialect.CUDA, Dialect.OMP, seed=8)
        assert a.plan == b.plan
        # different seeds eventually give different plans (not guaranteed for
        # any single pair, so just check the objects are well-formed)
        assert c.plan.outcome in ("ok", "na-compile", "na-runtime", "na-output")

    def test_correction_rounds_reuse_the_conversations_translation(
        self, monkeypatch
    ):
        # 34 correction rounds re-fault one translation: the transpiler
        # runs for the translation prompt only.
        from repro.experiments.runner import ExperimentRunner, Scenario
        from repro.llm.transpiler import Transpiler

        calls = []
        translate = Transpiler.translate

        def counted(self, *args, **kwargs):
            calls.append(args[1:])
            return translate(self, *args, **kwargs)

        monkeypatch.setattr(Transpiler, "translate", counted)
        outcome = ExperimentRunner(profile="paper").run_scenario(
            Scenario("codestral", "cuda2omp", "pathfinder")
        )
        assert outcome.result.self_corrections == 34
        assert calls == [(Dialect.CUDA, Dialect.OMP)]

    def test_each_translation_prompt_translates_its_own_source(self):
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA,
                           plan=CellPlan())
        builder = PromptBuilder(Dialect.OMP, Dialect.CUDA)
        for app_name in ("layout", "pathfinder"):
            source = get_app(app_name).source(Dialect.OMP)
            bundle = builder.build(llm, source)
            response = llm.chat([ChatMessage("user", bundle.full_user_prompt)])
            _, _, alone = build_and_translate(app_name=app_name,
                                              plan=CellPlan())
            assert extract_code_block(response.text) == alone

    def test_paper_plan_coverage(self):
        # all 80 cells planned
        from repro.llm.profiles import all_paper_plans

        plans = all_paper_plans()
        assert len(plans) == 80
        assert paper_plan("gpt4", "omp2cuda", "jacobi") is not None
        assert paper_plan("gpt4", "omp2cuda", "unknown-app") is None


class TestClients:
    def test_ollama_round_trip_with_fake_transport(self):
        seen = {}

        def transport(url, payload):
            seen["url"] = url
            seen["payload"] = payload
            return {
                "message": {"content": "```c\nint main(){return 0;}\n```"},
                "prompt_eval_count": 11,
                "eval_count": 7,
            }

        client = OllamaClient("codestral:22b", 32768, transport=transport)
        out = client.chat([ChatMessage("user", "translate this")])
        assert seen["url"].endswith("/api/chat")
        assert seen["payload"]["model"] == "codestral:22b"
        assert seen["payload"]["stream"] is False
        assert out.prompt_tokens == 11
        assert out.completion_tokens == 7
        assert "int main" in out.text

    def test_ollama_malformed_response(self):
        client = OllamaClient("m", 1000, transport=lambda u, p: {"oops": 1})
        with pytest.raises(TransportError):
            client.chat([ChatMessage("user", "x")])

    def test_openai_round_trip_with_fake_transport(self):
        def transport(url, payload):
            assert url.endswith("/v1/chat/completions")
            return {
                "choices": [{"message": {"content": "hello"}}],
                "usage": {"prompt_tokens": 5, "completion_tokens": 2},
            }

        client = OpenAIChatClient("gpt-4", 32768, transport=transport)
        out = client.chat([ChatMessage("system", "s"), ChatMessage("user", "u")])
        assert out.text == "hello"
        assert out.total_tokens == 7

    def test_openai_malformed_response(self):
        client = OpenAIChatClient("m", 1000, transport=lambda u, p: {"choices": []})
        with pytest.raises(TransportError):
            client.chat([ChatMessage("user", "x")])

    def test_chat_message_role_validated(self):
        with pytest.raises(ValueError):
            ChatMessage("wizard", "hi")
