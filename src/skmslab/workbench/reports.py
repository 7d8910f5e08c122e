"""Serialization of verification reports to JSON and CSV.

Field order is pinned so that identical inputs produce byte-identical
files; floats are written with shortest round-trip repr.  JSON is strict:
a NaN or an infinity raises ValueError instead of writing NaN
(report.make_report writes a non-finite residual as DOCUMENTED).
"""

import dataclasses
import io
import json

from ..report import VerificationReport

REPORT_SCHEMA = "skms-report/1"
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(VerificationReport))


def report_row(report):
    return dataclasses.asdict(report)


def to_json_text(reports):
    doc = {"schema": REPORT_SCHEMA, "reports": [report_row(r) for r in reports]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv_text(reports):
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in reports:
        row = report_row(r)
        buf.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def emit_report(reports, format="json"):
    """Render reports as JSON or CSV text."""
    if format == "json":
        return to_json_text(reports)
    if format == "csv":
        return to_csv_text(reports)
    raise ValueError("format must be 'json' or 'csv'")
