"""Markdown report generation (repro.analysis.report) + CLI flag."""

import io

import pytest

import repro
from repro.analysis import build_report
from repro.analysis.report import figure_panel_rows
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.simulation import PANELS, panel_scenario, scenario_to_dict


@pytest.fixture(scope="module")
def report():
    return build_report()


class TestBuildReport:
    def test_contains_all_panels(self, report):
        for panel in ("fig2a", "fig2b", "fig3a", "fig3b"):
            assert panel in report

    def test_reports_detection_and_safety(self, report):
        assert "182.00" in report
        assert "| 0 | 0 |" in report  # zero FP / FN columns
        # Attacked runs collide, defended do not.
        assert "| yes |" in report
        assert "| no |" in report

    def test_is_valid_markdown_tables(self, report):
        # The report holds several tables (panels, defense comparison);
        # within each contiguous table block every row must have the
        # same column count.
        blocks, current = [], []
        for line in report.splitlines():
            if line.startswith("|"):
                current.append(line)
            elif current:
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)
        assert len(blocks) >= 2  # panel table + defense comparison
        for block in blocks:
            widths = {line.count("|") for line in block}
            assert len(widths) == 1, block[0]

    def test_defense_comparison_section(self, report):
        assert "## Defense comparison" in report
        for label in (
            "undefended",
            "secure_reconstruction",
            "safety_filter (detection off)",
            "combined",
        ):
            assert label in report

    def test_seed_section_optional(self, report):
        assert "Seed robustness" not in report
        with_seeds = build_report(seeds=[0, 1])
        assert "Seed robustness" in with_seeds
        assert "fig2a defended" in with_seeds

    def test_none_rendered_as_dash(self):
        from repro.analysis.report import _markdown_table

        assert "-" in _markdown_table([{"a": None}])
        assert "(no rows)" in _markdown_table([])


class TestCLIMarkdown:
    def test_writes_file(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "report.md"
        code = main(["report", "--markdown", str(path)], out=out)
        assert code == 0
        assert path.exists()
        assert "fig3b" in path.read_text()
        assert str(path) in out.getvalue()


def _cell(text):
    """A rendered table cell back as a python value."""
    text = text.strip()
    if text in ("yes", "no"):
        return text == "yes"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _table_rows(lines):
    """Rows of a rendered table (header line first, no rule lines)."""
    header, *body = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in lines
    ]
    return [dict(zip(header, map(_cell, cells))) for cells in body]


class TestPanelTable:
    """The CLI summary and the markdown report show one panel table."""

    def test_cli_and_markdown_tables_are_figure_panel_rows(self, report):
        rows = figure_panel_rows()
        assert [row["panel"] for row in rows] == list(PANELS)

        out = io.StringIO()
        assert main(["report"], out=out) == 0
        cli_lines = out.getvalue().splitlines()[1:]  # drop the title
        cli_rows = _table_rows(
            [line for line in cli_lines if line and not line.startswith("-")]
        )

        section = report.split("## Figure panels", 1)[1].strip().split("\n\n")[0]
        markdown_rows = _table_rows(
            [line for line in section.splitlines() if not line.startswith("|--")]
        )
        assert cli_rows == rows
        assert markdown_rows == rows

    def test_panel_scenarios_are_the_paper_factories(self):
        assert PANELS == ("fig2a", "fig2b", "fig3a", "fig3b")
        expected = {
            "fig2a": repro.fig2_scenario("dos"),
            "fig2b": repro.fig2_scenario("delay"),
            "fig3a": repro.fig3_scenario("dos"),
            "fig3b": repro.fig3_scenario("delay"),
        }
        for panel, scenario in expected.items():
            assert scenario_to_dict(panel_scenario(panel)) == scenario_to_dict(
                scenario
            )

    @pytest.mark.parametrize("bad", ["fig4a", "FIG2A", "fig2", ""])
    def test_panel_scenario_rejects_unknown_id(self, bad):
        with pytest.raises(ConfigurationError, match="panel must be one of"):
            panel_scenario(bad)
