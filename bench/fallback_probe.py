"""The one non-public trace boundary: entries into the arbitrary-precision
Mittag-Leffler fallback, ``fracwave.mittag_leffler._series_mp``.

It is kept apart from ``trace.TARGETS`` because it reaches into a private
name.  ``ml.fallback_share`` and ``ml.fallback_s`` are read from these
spans; when the program counts its own regime hits this module goes away.
"""

TARGETS = [("mittag_leffler", "_series_mp", "ml")]
