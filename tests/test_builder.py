"""Unit tests for the shared differencing emitter (repro.delta.builder)."""

import pytest

from repro.core.commands import AddCommand, CopyCommand
from repro.delta.builder import ScriptBuilder


class TestScriptBuilder:
    def test_all_literal(self):
        script = ScriptBuilder(b"hello").finish()
        assert script.commands == [AddCommand(0, b"hello")]
        assert script.version_length == 5

    def test_empty_version(self):
        script = ScriptBuilder(b"").finish()
        assert script.commands == []
        assert script.version_length == 0

    def test_copy_flushes_pending_add(self):
        builder = ScriptBuilder(b"abXXcd")
        builder.emit_copy(10, 2, 2)
        script = builder.finish()
        assert script.commands == [
            AddCommand(0, b"ab"),
            CopyCommand(10, 2, 2),
            AddCommand(4, b"cd"),
        ]

    def test_adjacent_copies(self):
        builder = ScriptBuilder(b"abcd")
        builder.emit_copy(0, 0, 2)
        builder.emit_copy(7, 2, 2)
        script = builder.finish()
        assert script.commands == [CopyCommand(0, 0, 2), CopyCommand(7, 2, 2)]

    def test_backward_extension_into_pending(self):
        # A copy may begin inside the pending literal region.
        builder = ScriptBuilder(b"abcdef")
        builder.cursor = 4
        builder.emit_copy(20, 2, 4)  # dst=2 < cursor but >= add_start
        script = builder.finish()
        assert script.commands == [AddCommand(0, b"ab"), CopyCommand(20, 2, 4)]

    def test_copy_into_committed_region_rejected(self):
        builder = ScriptBuilder(b"abcdef")
        builder.emit_copy(0, 0, 4)
        with pytest.raises(ValueError):
            builder.emit_copy(0, 2, 2)

    def test_result_is_valid_script(self):
        builder = ScriptBuilder(b"0123456789")
        builder.emit_copy(50, 3, 4)
        script = builder.finish()
        script.validate(reference_length=100)
