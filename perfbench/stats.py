"""Median and range reporting with sample counts.

A run holds fewer than eleven samples, too few for a tail percentile with
ten samples beyond it, so the range (min and max) is reported beside the
median.
"""

from __future__ import annotations

import statistics


def summary(values) -> dict:
    """Median, sample count, min and max of a list of measurements."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}


def describe(name: str, s: dict, unit: str) -> str:
    return f"{name} median {s['median']:.6g} {unit} (n={s['n']}, min {s['min']:.6g}, max {s['max']:.6g} {unit})"
