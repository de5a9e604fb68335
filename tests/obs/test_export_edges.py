"""Exporter edge cases: escaping, empty input, non-finite values, headers."""

from __future__ import annotations

import math

import pytest

from repro.obs.export import prometheus_text
from repro.obs.metrics import Histogram

pytestmark = pytest.mark.obs


class TestLabelEscaping:
    def test_quotes_backslashes_newlines(self):
        labels = {"path": 'a"b', "detail": "back\\slash", "note": "two\nlines"}
        text = prometheus_text([("repro_queries_total", labels, 1)])
        [sample] = [
            line
            for line in text.splitlines()
            if line.startswith("repro_queries_total")
        ]
        assert 'path="a\\"b"' in sample
        assert 'detail="back\\\\slash"' in sample
        assert 'note="two\\nlines"' in sample

    def test_help_text_escapes_backslash_and_newline(self):
        text = prometheus_text(
            [("edge_total", {}, 1)], help={"edge_total": "line one\nline \\ two"}
        )
        # A newline in HELP text is escaped, never emitted raw, and
        # backslashes are escaped per the format.
        [help_line] = [
            line for line in text.splitlines() if line.startswith("# HELP")
        ]
        assert help_line == "# HELP edge_total line one\\nline \\\\ two"


class TestHelpLines:
    def test_registered_description_wins(self):
        text = prometheus_text(
            [("a_total", {}, 0)], help={"a_total": "What a_total counts."}
        )
        assert "# HELP a_total What a_total counts." in text

    def test_missing_help_falls_back_to_name(self):
        """A family with no help entry is helped by its own name, never
        by the docstring of the value's class."""
        text = prometheus_text([("b_total", {}, 0), ("c_seconds", {}, Histogram())])
        assert "# HELP b_total b_total\n" in text
        assert "# HELP c_seconds c_seconds\n" in text
        assert Histogram.__doc__.split("\n")[0] not in text

    def test_help_precedes_type_per_family(self):
        hist = Histogram()
        hist.observe(0.1)
        rows = [
            ("repro_queries_total", {"outcome": "shed"}, 0),
            ("y_seconds", {}, hist),
            ("repro_queries_total", {"outcome": "failed"}, 0),
        ]
        lines = prometheus_text(rows).splitlines()
        for name in ("repro_queries_total", "y_seconds"):
            help_i = lines.index(
                next(ln for ln in lines if ln.startswith(f"# HELP {name}"))
            )
            assert lines[help_i + 1].startswith(f"# TYPE {name}")
        # One header pair per family, not per labelled child, and the
        # children sorted by label under it.
        assert sum(ln.startswith("# HELP repro_queries_total") for ln in lines) == 1
        assert lines[2:4] == [
            'repro_queries_total{outcome="failed"} 0',
            'repro_queries_total{outcome="shed"} 0',
        ]


class TestEmptyInput:
    def test_no_rows_render_empty_string(self):
        assert prometheus_text([]) == ""


class TestNonFiniteValues:
    def test_nan_and_negative_observations_ignored(self):
        h = Histogram()
        h.observe(float("nan"))
        h.observe(-1.0)
        assert h.count == 0
        text = prometheus_text([("lat_seconds", {}, h)])
        assert "lat_seconds_count 0" in text
        # Percentiles of an empty histogram render as NaN, not a crash.
        assert 'lat_seconds{quantile="0.5"} NaN' in text

    def test_inf_observation_lands_in_overflow_bucket(self):
        h = Histogram()
        h.observe(float("inf"))
        h.observe(0.001)
        assert h.count == 2
        text = prometheus_text([("lat_seconds", {}, h)])
        assert "lat_seconds_sum +Inf" in text
        # The inf observation counts into the overflow bucket, so the tail
        # percentile reports that bucket's (finite, huge) bound.
        assert h.percentile(99) > 1e6 and math.isfinite(h.percentile(50))

    def test_inf_gauge_formats_signed(self):
        text = prometheus_text(
            [
                ("up_high", {}, float("inf")),
                ("down_low", {}, float("-inf")),
                ("not_a_number", {}, float("nan")),
            ]
        )
        assert "up_high +Inf" in text
        assert "down_low -Inf" in text
        assert "not_a_number NaN" in text



class TestFamilyTypes:
    def test_only_listed_families_type_as_counter(self):
        """``COUNTERS`` alone decides ``counter``: a ``_total`` name outside
        it types as a gauge, a Histogram value as a summary."""
        text = prometheus_text(
            [
                ("repro_breaker_transitions_total", {"to": "open"}, 1),
                ("unlisted_total", {}, 1),
                ("lat_seconds", {}, Histogram()),
            ]
        )
        assert "# TYPE repro_breaker_transitions_total counter" in text
        assert "# TYPE unlisted_total gauge" in text
        assert "# TYPE lat_seconds summary" in text
