"""The CLI's former table writers, kept as references for its ``csv`` and ``json`` writers.

``reference_csv`` quotes each cell with ``_csv_field`` and joins the lines by
hand; ``reference_json`` converts every cell with ``_json_value`` before
``json.dumps``.  Both take a table's columns, rows and summary, and a meta
dict for JSON.
"""

import json

import numpy as np

from parafock.cli import _cell


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_csv(columns, rows, summary) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_field(_cell(v)) for v in row))
    for key, value in summary.items():
        lines.append(f"# {key}={_cell(value)}")
    return "\n".join(lines) + "\n"


def _json_value(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def reference_json(columns, rows, summary, meta) -> str:
    payload = {
        "meta": meta,
        "data": {
            "columns": list(columns),
            "rows": [[_json_value(v) for v in row] for row in rows],
            "summary": {k: _json_value(v) for k, v in summary.items()},
        },
    }
    return json.dumps(payload, indent=2) + "\n"
