"""The repro.* logging namespace."""

from __future__ import annotations

import logging

import pytest

from repro.telemetry.log import configure, get_logger


class TestGetLogger:
    def test_names_are_namespaced(self):
        assert get_logger("cli").name == "repro.cli"
        assert get_logger().name == "repro"

    def test_children_propagate_to_the_namespace_root(self):
        assert get_logger("experiments.runner").parent.name in (
            "repro.experiments", "repro"
        )


class TestConfigure:
    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure("loud")

    def test_repeated_calls_do_not_stack_handlers(self):
        configure("info")
        configure("debug")
        configure("info")
        root = get_logger()
        handlers = [
            h for h in root.handlers if isinstance(h, logging.StreamHandler)
        ]
        assert len(handlers) == 1
        assert root.level == logging.INFO
        assert root.propagate is False

    def test_messages_reach_the_current_stderr_bare(self, capsys):
        configure("info")
        get_logger("cli").info("0 pipeline run(s) executed; artifacts in x")
        err = capsys.readouterr().err
        # Bare %(message)s format: CI greps for the exact anchored line.
        assert err == "0 pipeline run(s) executed; artifacts in x\n"

    def test_level_filters_debug_messages(self, capsys):
        configure("info")
        get_logger("x").debug("hidden")
        assert capsys.readouterr().err == ""
        configure("debug")
        get_logger("x").debug("shown")
        assert "shown" in capsys.readouterr().err

    def test_rebinds_to_a_swapped_stderr(self, capsys):
        # capsys swaps sys.stderr per test; each configure() call must
        # re-point the shared handler at the current object.
        configure("info")
        get_logger("y").info("first")
        configure("info")
        get_logger("y").info("second")
        err = capsys.readouterr().err
        assert "first" in err and "second" in err
