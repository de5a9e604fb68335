"""EXPLAIN ANALYZE rendering: a human-readable tree from span data.

The service's ``submit(..., explain_analyze=True)`` forces a trace and
hands it here; the output is one line per span — name, wall and CPU
milliseconds, then the span's attributes (operator, rows, bytes scanned,
cache/breaker/retry events) — indented as a tree under the
root ``query`` span.  Foreign spans appended by the coalescer leader
(the shared scan, this query's demux/rescore) render as children of the
root, where they executed from this query's point of view.
"""

from __future__ import annotations

from .trace import Span, Trace


def _format_attr(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return ",".join(_format_attr(v) for v in value) or "[]"
    return str(value)


def _attr_text(span: Span) -> str:
    if not span.attrs:
        return ""
    parts = [
        f"{key}={_format_attr(value)}"
        for key, value in span.attrs.items()
    ]
    return "  " + " ".join(parts)


def render_explain(trace: Trace) -> str:
    """The per-query EXPLAIN ANALYZE tree for a completed trace."""
    snapshot = trace.to_dict()
    spans = [
        Span(
            s["index"], s["parent"], s["name"],
            s["start_s"], s["wall_s"], s["cpu_s"], s["attrs"],
        )
        for s in snapshot["spans"]
    ]
    header = (
        f"EXPLAIN ANALYZE {trace.query_id} (tag={trace.tag}) "
        f"status={snapshot['status']}"
    )
    if snapshot["error"]:
        header += f" error={snapshot['error']}"
    lines = [header]
    if not spans:
        lines.append("(no spans recorded)")
        return "\n".join(lines)

    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.parent < 0:
            roots.append(span)
        else:
            children.setdefault(span.parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_s, s.index))

    name_width = max(len(s.name) for s in spans) + 2

    def line_for(span: Span, prefix: str, connector: str) -> str:
        timing = f"{span.wall_s * 1e3:9.3f} ms wall  {span.cpu_s * 1e3:8.3f} ms cpu"
        label = f"{prefix}{connector}{span.name}"
        return f"{label:<{name_width + 6}}{timing}{_attr_text(span)}"

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        lines.append(line_for(span, prefix, connector))
        kids = children.get(span.index, [])
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    for i, root in enumerate(sorted(roots, key=lambda s: (s.start_s, s.index))):
        walk(root, "", i == len(roots) - 1, True)
    return "\n".join(lines)
