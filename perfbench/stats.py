"""Statistics over raw client-side samples, and the metric catalogue.

Every percentile is read from the raw samples (nearest rank), never from
histogram buckets; every rate is a count over the measured window.
"""

import math
import statistics

# The end-to-end metrics of an untraced run (--trace 0): name -> unit.
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_ms_per_request": "ms",
}

# The per-layer metrics of a traced run (--trace 1): name -> unit.
PER_LAYER = {
    "wire.encode_ms_per_req": "ms",
    "wire.decode_ms_per_req": "ms",
    "wire.bytes_per_req": "B",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms",
    "serve.rejected": "count",
    "api.engine_run_ms": "ms",
    "core.context_build_ms": "ms",
    "core.reference_build_ms": "ms",
    "core.context_miss_timed": "count",
    "core.encoder_ms": "ms",
    "core.encoder_unattributed_frac": "frac",
    "core.traces_ms": "ms",
    "arch.simulate_ms": "ms",
    "energy.model_ms": "ms",
    "arch.host_ns_per_sim_cycle": "ns",
    "kernels.value_projection_ms": "ms",
    "kernels.gather_aggregate_ms": "ms",
    "prune.pap_ms": "ms",
    "prune.fwp_ms": "ms",
    "quant.quantize_narrow_ms": "ms",
    "kernels.flop_keep_frac": "frac",
    "prune.point_keep_frac": "frac",
    "prune.pixel_keep_frac": "frac",
    "obs.trace_overhead_frac": "frac",
}

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    # Rounded first, so that 99.9% of 10000 is rank 9990, not 9991.
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of the raw samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return sorted(samples)[rank(len(samples), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def supported(n, p):
    """True when the p-th percentile of n samples has MIN_BEYOND beyond it."""
    return n > 0 and beyond(n, p) >= MIN_BEYOND


def rate(count, window_s):
    """Completions per second over the measured window."""
    if window_s <= 0:
        raise ValueError("rate over an empty window")
    return count / window_s


def windowed_rate(done_s, slices=10):
    """Median completion rate over equal-count slices of the timed window.

    done_s holds each completion's time in seconds after the phase began.
    The window is cut after every n/slices completions and each slice's
    rate is its completions over its duration; the median of the slice
    rates ignores a short burst of host noise that would move a rate over
    the whole window.
    """
    ends = sorted(done_s)
    n = len(ends)
    if n == 0:
        raise ValueError("rate of no completions")
    k = min(slices, n)
    rates = []
    start = 0.0
    for i in range(k):
        lo, hi = i * n // k, (i + 1) * n // k
        rates.append(rate(hi - lo, ends[hi - 1] - start))
        start = ends[hi - 1]
    return statistics.median(rates)
