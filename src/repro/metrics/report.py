"""Plain-text report formatting.

The experiment harness prints the same rows/series the paper's tables
and figures report; these helpers keep that output aligned and
readable without pulling in any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _stringify(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] = ()) -> str:
    """Render a list of mapping rows as an aligned text table.

    Parameters
    ----------
    rows:
        The rows to render; every row is a mapping from column name to
        value.
    columns:
        Column order; defaults to the keys of the first row.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns else list(rows[0].keys())
    table = [[_stringify(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in table))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in table
    )
    return "\n".join([header, separator, body])


def format_mapping(mapping: Mapping[str, object], title: str = "") -> str:
    """Render a flat mapping as ``key: value`` lines."""
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    width = max((len(str(key)) for key in mapping), default=0)
    for key, value in mapping.items():
        lines.append(f"{str(key).ljust(width)} : {_stringify(value)}")
    return "\n".join(lines)
