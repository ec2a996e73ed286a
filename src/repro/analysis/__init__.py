"""Text rendering for experiment results.

The text tables the figure sweeps and benchmark harness print, plus
ASCII spark-lines and bar charts.  The paper's economic properties are
certified by :mod:`repro.verify`.
"""

from repro.analysis.reporting import ResultTable
from repro.analysis.visualize import bar_chart, series_panel, sparkline

__all__ = [
    "ResultTable",
    "bar_chart",
    "series_panel",
    "sparkline",
]
