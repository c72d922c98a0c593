"""Pin of the transpiler's output over a fixed corpus and every model style.

One sha256 covers the text of every translation, or the message of the
:class:`TranspileError` that refused it, for:

* the Table IV apps and the ``synth:all:seeds=2`` apps, in both directions;
* each simulated model's :data:`MODEL_STYLES` entry with its
  :data:`DIRECTION_STYLE_TWEAKS`;
* each of four overlays on that style: none, ``use_data_region=False``,
  ``hoist_invariant_repeat=True`` and ``privatize_atomics=True`` (the
  overrides the paper plans and the stochastic profile apply).

Every Sim-T, Sim-L and runtime-Ratio number starts from these texts, so a
transpiler edit that is meant to keep behaviour must keep this digest.
The lexer pin covers only each model's planned translation, faults applied.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.hecbench import all_apps
from repro.llm.profiles import DIRECTION_STYLE_TWEAKS, MODEL_STYLES, direction_key
from repro.llm.transpiler import TranspileError, Transpiler
from repro.minilang.source import Dialect

OVERLAYS = (
    (),
    (("use_data_region", False),),
    (("hoist_invariant_repeat", True),),
    (("privatize_atomics", True),),
)

DIRECTIONS = ((Dialect.OMP, Dialect.CUDA), (Dialect.CUDA, Dialect.OMP))


def _translations():
    """Every (label, translation or error message) the digest covers, in order."""
    apps = all_apps() + all_apps("synth:all:seeds=2")
    for model in sorted(MODEL_STYLES):
        for src, tgt in DIRECTIONS:
            base = MODEL_STYLES[model]
            tweaks = DIRECTION_STYLE_TWEAKS.get((model, direction_key(src, tgt)), ())
            base = replace(base, **dict(tweaks))
            for overlay in OVERLAYS:
                tr = Transpiler(replace(base, **dict(overlay)))
                for app in apps:
                    label = f"{model} {src.value}->{tgt.value} {overlay} {app.name}"
                    try:
                        text = tr.translate(app.source(src), src, tgt)
                    except TranspileError as exc:
                        text = f"TranspileError: {exc}"
                    yield label, text


PINNED = "4b457b9811c252698a8a16125d044cde8fb8a91e520dc388f544126798bd1005"


def test_translations_are_pinned():
    h = hashlib.sha256()
    count = 0
    for label, text in _translations():
        h.update(label.encode())
        h.update(b"\0")
        h.update(text.encode())
        h.update(b"\0")
        count += 1
    assert count == 768
    assert h.hexdigest() == PINNED
