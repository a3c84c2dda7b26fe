"""Arithmetic of tempo's benchmark: percentiles, ratios with their bases,
metric names, and the mapping from the raw samples that
``tempo-perfbench measure`` prints to the metrics ``run.py`` reports.

Kept free of I/O so ``test_benchlib.py`` can check it directly.
"""

import math
import re
import statistics

# A metric name: starts with a letter or digit, at most 64 characters of
# letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def valid_name(name):
    return bool(NAME_RE.match(name))


def median(samples):
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def tail_percentile(samples, p):
    """Nearest-rank ``p``-th percentile of ``samples``.

    Refuses (``ValueError``) unless at least ``MIN_BEYOND`` samples lie
    beyond the selected rank: a tail figure resting on fewer is noise.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    n = len(samples)
    rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
    beyond = n - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p} of {n} samples has {max(beyond, 0)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


class Ratio:
    """A ratio reported together with its base (the denominator).

    A zero base means the layer was not exercised on this workload; the
    value is then 0 and the base says so.
    """

    def __init__(self, numerator, base, scale=1.0):
        self.base = base
        self.value = numerator * scale / base if base else 0.0


def records_per_s(window):
    """Records one pass carries ÷ the median pass time of a window."""
    return window["records_per_pass"] / median(window["pass_s"])


def end_to_end(untraced, setup_samples, rss_kb):
    """The end-to-end metrics of one untraced window, ``{name: value}``.

    ``untraced`` is the ``measure`` JSON object: ``records_per_pass``,
    ``pass_s`` and ``daemon_start_s``. Set-up time is the median of the
    set-up processes plus, for the daemon, the median daemon start.
    """
    setup = median(setup_samples)
    if untraced["daemon_start_s"]:
        setup += median(untraced["daemon_start_s"])
    return {
        "records_per_s": records_per_s(untraced),
        "setup_s": setup,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(untraced, traced):
    """The per-layer metrics, ``{name: Ratio or number}``.

    The traced window carries each layer metric under its final name as
    ``[numerator, base, scale]``; this only divides. The figures taken
    from raw samples are added here: the ``SYNC`` latencies of the
    untraced window (daemon only), the tracing overhead and the number of
    traced passes.
    """
    m = {name: Ratio(*parts) for name, parts in traced["layers"].items()}
    sampled = {
        "bench.tracing_overhead": 1.0 - records_per_s(traced) / records_per_s(untraced),
        "bench.traced_passes": len(traced["pass_s"]),
    }
    sync = untraced["sync_ms"]
    if sync:
        sampled["daemon.sync_p50_ms"] = median(sync)
        sampled["daemon.sync_p90_ms"] = tail_percentile(sync, 90)
        sampled["daemon.sync_samples"] = len(sync)
    twice = set(m) & set(sampled)
    if twice:
        raise ValueError(f"metrics measured twice: {sorted(twice)}")
    m.update(sampled)
    return m


def value(v):
    return v.value if isinstance(v, Ratio) else float(v)


def render(metrics, declared, unexercised_ok=False):
    """``{name: value}`` → the ``metrics`` object of the result line.

    ``declared`` is the matching list from ``BENCHMARK.json``, which owns
    the names and units. A measured name that is not declared, or not a
    valid name, is refused. A declared name that was not measured is
    refused too, unless ``unexercised_ok``: then it is a layer the
    workload does not call, and it reads 0 over a base of 0.
    """
    units = {d["name"]: d["unit"] for d in declared}
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise ValueError(f"undeclared metrics {undeclared}")
    out = {}
    for name, unit in units.items():
        if not valid_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        if name in metrics:
            v = metrics[name]
        elif unexercised_ok:
            v = Ratio(0.0, 0)
        else:
            raise ValueError(f"{name} was not measured")
        out[name] = {"value": value(v), "unit": unit}
    return out


def compare_reference(recorded, computed):
    """Mismatches between recorded reference values and the ones set-up
    computed for the same seed, as messages; a missing key is one too."""
    return [
        f"{k}: recorded {want}, set-up computed {computed.get(k)}"
        for k, want in sorted(recorded.items())
        if computed.get(k) != want
    ]
