"""Byte gates for the SVG charts: each case's file is pinned by its sha256,
so a change to the chart code that moves one pixel coordinate, one tick
label or one colour fails here."""

import hashlib

import pytest

from langlab.plots import bar_chart, line_chart

_GROUPS = ("natural", "reversed", "parity-negation")

_LINE_CASES = {
    # one logged step: a zero-width x range, so every x maps to the left axis
    "one-step": {"natural": ([40], [3.25]), "reversed": ([40], [3.5])},
    # a constant series: a zero-width y range, widened by 1
    "constant": {"natural": ([0, 10, 20, 30], [2.0, 2.0, 2.0, 2.0])},
    # a y range of about 1e-11 at 100, where the point map's association
    # decides the middle point's last printed digit (155.62, not 155.63)
    "near-constant": {"natural": ([0, 10, 20],
                                  [100.0, 100.00000000000746, 100.00000000001114])},
    # six labels: three group colours, then the fallback colours wrap around
    "six-labels": {label: ([0, 5, 10], [1.0 + i, 2.5 - i / 7, 0.5 * i])
                   for i, label in enumerate((*_GROUPS, "alpha", "beta", "gamma"))},
}

_DIGESTS = {
    "one-step": "7b7ea9e91b04270e7c591bb5b6132915c0011bd03a4c7417daa4d1586b7ecd8e",
    "constant": "bace3dd3fbb03580251a19fc76d712228817297c3abd189a86f7a412723ffd31",
    "near-constant": "fbf78076e6156e34cad9dddf1370095425a8a15bc2151adc3e883720823980cd",
    "six-labels": "e57bca28affcf8363d76aa61170479899cf15ea185eb417ba781cb60e9ec1a18",
    "bar": "55c98d28373ff9e9f7891b7605fb624567bbfb70d94b037c117cba014d790eab",
    "bar-zero": "68ec6f6db5a90804b9714b98d7266bb1789aee7df3b3b550d1962976eb2b62fe",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", _LINE_CASES)
def test_line_chart_bytes(tmp_path, case):
    path = tmp_path / "chart.svg"
    line_chart(path, _LINE_CASES[case], "Training loss (mean over seeds)", "step", "loss")
    assert _digest(path) == _DIGESTS[case]


def test_bar_chart_bytes(tmp_path):
    path = tmp_path / "bars.svg"
    bar_chart(path, list(_GROUPS),
              {"final": [12.5, 30.25, 18.0], "minimum": [11.0, 29.5, 17.75]},
              "Final and minimum perplexity (mean over seeds)", "perplexity")
    assert _digest(path) == _DIGESTS["bar"]


def test_bar_chart_all_zero_bytes(tmp_path):
    """All-zero values: a zero-height y range, widened to [0, 1], and every
    bar 0 pixels high."""
    path = tmp_path / "bars.svg"
    bar_chart(path, list(_GROUPS), {"final": [0.0] * 3, "minimum": [0.0] * 3},
              "Final and minimum perplexity (mean over seeds)", "perplexity")
    assert path.read_text().count('height="0.00"') == 6
    assert _digest(path) == _DIGESTS["bar-zero"]


def test_no_data_is_refused(tmp_path):
    with pytest.raises(ValueError, match="line_chart: no data"):
        line_chart(tmp_path / "a.svg", {"natural": ([], [])}, "t", "step", "loss")
    with pytest.raises(ValueError, match="bar_chart: no data"):
        bar_chart(tmp_path / "b.svg", [], {"final": []}, "t", "perplexity")
    assert not list(tmp_path.iterdir())
