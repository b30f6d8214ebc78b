"""Order statistics shared by run.py and compare.py.

Quartiles are Python's statistics.quantiles(values, n=4) (the default
"exclusive" method), so the spread printed here is the same number the
benchmark's acceptance rule computes.
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) of a sample; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def spread(values):
    """Interquartile range as a share of the median (0 when the median is 0)."""
    med = median(values)
    return iqr(values) / abs(med) if med else 0.0
