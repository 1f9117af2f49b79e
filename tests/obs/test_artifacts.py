"""Tests for the shared results-artifact writer."""

import pytest

from repro.obs import format_table, write_artifact


class TestFormatTable:
    def test_alignment_and_precision(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.0], ["beta", 2.25]],
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        # Numeric column right-aligned, default 4 decimals.
        assert lines[1].endswith("1.0000")
        assert lines[2].endswith("2.2500")

    def test_title_and_notes(self):
        text = format_table(
            ["a"], [[1]], title="the title",
            notes=["first note", "second note"],
        )
        lines = text.splitlines()
        assert lines[0] == "the title"
        assert lines[-2] == "first note"
        assert lines[-1] == "second note"
        assert "" in lines  # blank separator before notes

    def test_none_renders_dash(self):
        text = format_table(["a", "b"], [[None, 1.5]])
        assert "-" in text.splitlines()[1]

    def test_numeric_with_suffix_right_aligned(self):
        # Ratio columns like "12.3x" still count as numeric.
        text = format_table(["speed"], [["9.1x"], ["12.3x"]])
        lines = text.splitlines()
        assert lines[1].endswith(" 9.1x")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestWriteArtifact:
    def test_writes_with_final_newline(self, tmp_path):
        path = write_artifact(tmp_path / "t.txt", "hello")
        assert path.read_text() == "hello\n"

    def test_creates_parent_dirs(self, tmp_path):
        path = write_artifact(tmp_path / "a" / "b" / "t.txt", "x")
        assert path.exists()

    def test_roundtrip_table(self, tmp_path):
        text = format_table(["k"], [[1]], title="t")
        path = write_artifact(tmp_path / "table.txt", text)
        assert path.read_text() == text + "\n"
