"""Report containers and text/LaTeX rendering for the experiment drivers."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

Row = Dict[str, object]

#: LaTeX-active characters appearing in table/benchmark/outcome text.
_LATEX_SPECIALS = {
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
}


def render_value(value: object) -> str:
    """One cell-rendering policy shared by the ASCII and LaTeX renderers.

    A single definition keeps the two outputs cell-for-cell comparable —
    the serial-vs-parallel byte-identity checks render through both paths.
    """
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def latex_escape(value: object) -> str:
    """Render ``value`` as LaTeX-safe text (cells like the ASCII renderer)."""
    return "".join(
        _LATEX_SPECIALS.get(char, char) for char in render_value(value)
    )


def format_table(rows: Sequence[Row], columns: Optional[Sequence[str]] = None) -> str:
    """Render ``rows`` (list of dicts) as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())

    widths = {
        column: max(len(column),
                    *(len(render_value(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    body = [
        " | ".join(render_value(row.get(column, "")).ljust(widths[column])
                   for column in columns)
        for row in rows
    ]
    return "\n".join([header, separator, *body])


@dataclass
class ExperimentTable:
    """One regenerated table/figure: a title, ordered columns and dict rows."""

    name: str
    title: str
    columns: List[str]
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def to_text(self) -> str:
        lines = [f"## {self.name}: {self.title}", ""]
        lines.append(format_table(self.rows, self.columns))
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"* {note}")
        return "\n".join(lines)

    def to_latex(self) -> str:
        """Render this table as a plain-LaTeX ``table``/``tabular`` block.

        Only core LaTeX is used (``\\hline`` rules, no booktabs/threeparttable
        dependencies) so the output compiles with a bare ``article`` class;
        notes become a ``\\footnotesize`` paragraph under the tabular.
        """
        slug = re.sub(r"[^a-z0-9]+", "-", self.name.lower()).strip("-")
        spec = "l" * max(1, len(self.columns))
        lines = [
            r"\begin{table}[ht]",
            r"  \centering",
            rf"  \caption{{{latex_escape(self.name)}: {latex_escape(self.title)}}}",
            rf"  \label{{tab:{slug}}}",
            rf"  \begin{{tabular}}{{{spec}}}",
            r"    \hline",
            "    " + " & ".join(latex_escape(c) for c in self.columns) + r" \\",
            r"    \hline",
        ]
        for row in self.rows:
            cells = [latex_escape(row.get(column, "")) for column in self.columns]
            lines.append("    " + " & ".join(cells) + r" \\")
        lines += [
            r"    \hline",
            r"  \end{tabular}",
        ]
        for note in self.notes:
            lines.append(rf"  \par\footnotesize {latex_escape(note)}")
        lines.append(r"\end{table}")
        return "\n".join(lines)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_text() + "\n")
        return path

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (rows are already plain str/int/float)."""
        return {
            "name": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentTable":
        return cls(
            name=str(data["name"]),
            title=str(data["title"]),
            columns=list(data.get("columns", [])),  # type: ignore[arg-type]
            rows=[dict(row) for row in data.get("rows", [])],  # type: ignore[union-attr]
            notes=list(data.get("notes", [])),  # type: ignore[arg-type]
        )


def render_latex_tables(tables: Iterable[ExperimentTable]) -> str:
    """One LaTeX fragment with every table, ready to ``\\input`` in a paper."""
    header = (
        "% Auto-generated by `python -m repro campaign report --latex`.\n"
        "% Each block is a self-contained table environment (plain LaTeX)."
    )
    return "\n\n".join([header, *(table.to_latex() for table in tables)]) + "\n"
