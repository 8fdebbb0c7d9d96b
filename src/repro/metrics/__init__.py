"""Measurement utilities: Jain's fairness index.

Time series (goodput, loss, cwnd) are recorded with
:class:`repro.obs.series.SeriesRecorder`.
"""

from .jain import jain_index

__all__ = ["jain_index"]
