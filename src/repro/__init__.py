"""LASSI reproduction (Dearing et al., IEEE CLUSTER 2024).

An offline, from-scratch reproduction of the LASSI pipeline — an LLM-based
automated self-correcting system for translating parallel scientific codes
between OpenMP target offload and CUDA — together with every substrate its
evaluation depends on: a MiniCUDA/MiniOMP compiler front-end and
interpreter, a simulated NVIDIA A100 performance model, the ten HeCBench
applications of Table IV, and simulated versions of the four Table V LLMs.

Quick start (the stable :mod:`repro.api` facade)::

    from repro import api

    result = api.translate("layout", model="gpt4", direction="omp2cuda")
    results = api.evaluate(models=["gpt4"], jobs=4)

or at the pipeline level::

    from repro.api import build_pipeline
    from repro.llm.simulated import SimulatedLLM
    from repro.minilang.source import Dialect

    llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA)
    pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
    result = pipeline.run(omp_source, reference_target_code=cuda_ref)

See README.md for the architecture map and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"

__all__ = [
    "api",
    "errors",
    "minilang",
    "interp",
    "gpu",
    "toolchain",
    "hecbench",
    "llm",
    "prompts",
    "pipeline",
    "metrics",
    "experiments",
    "synth",
    "cli",
]
