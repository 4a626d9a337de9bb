"""Unit tests for report formatting."""

from repro.evaluation.reports import Reporter, format_table


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_basic_alignment(self):
        out = format_table([{"name": "a", "value": 1.5},
                            {"name": "bb", "value": 20.25}])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_column_selection(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_title(self):
        out = format_table([{"a": 1}], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_bool_formatting(self):
        out = format_table([{"flag": True}])
        assert "yes" in out

    def test_small_float_precision(self):
        out = format_table([{"x": 0.00012}])
        assert "0.00012" in out


class TestReporter:
    def test_collects_and_emits(self, capsys):
        r = Reporter("demo")
        r.add("hello")
        r.emit()
        out = capsys.readouterr().out
        assert "demo" in out
        assert "hello" in out
