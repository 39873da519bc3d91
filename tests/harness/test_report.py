"""Formatting helpers shared by the CLI tables and the figure reports."""

import pytest

from repro.harness.report import format_change


@pytest.mark.parametrize("reduction, text", [
    (1 - 1710.0 / 3579.0, "-52.2%"),   # faster than the baseline
    (1 - 103.2 / 100.0, "+3.2%"),      # slower: one sign, never "--3.2%"
    (0.0, "-0.0%"),                    # a tie keeps the reduction sign
])
def test_format_change(reduction, text):
    assert format_change(reduction) == text
