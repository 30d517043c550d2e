"""Metric arithmetic of the verb-level benchmark: pure functions, no I/O.

Spans are the traced run's records ``[name, start_ns, end_ns, parent, decision]``
(``parent`` and ``decision`` are ``-1`` when absent); see README.md.
"""

import math
import statistics

# (name, unit, better) of every end-to-end metric printed with --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("photos_per_s", "photos/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("quality_frac", "frac", "higher"),
    ("bound_ratio", "frac", "higher"),
]

# (name, unit, better) of every per-layer metric printed with --trace 1.
PER_LAYER = [
    ("datasets.parse_s", "s", "lower"),
    ("datasets.parse_mb_per_s", "MB/s", "higher"),
    ("datasets.resolve_epoch_ms_p50", "ms", "lower"),
    ("representation.busy_s", "s", "lower"),
    ("representation.stored_pairs", "count", "lower"),
    ("representation.pairs_per_photo", "pairs/photo", "lower"),
    ("sharded.prepare_s", "s", "lower"),
    ("sharded.solve_s", "s", "lower"),
    ("sharded.components", "count", "higher"),
    ("sharded.largest_component", "photos", "lower"),
    ("celf.gain_evals", "count", "lower"),
    ("celf.sim_ops", "count", "lower"),
    ("celf.pq_pops", "count", "lower"),
    ("celf.lazy_accept_frac", "frac", "higher"),
    ("certify.online_bound_s", "s", "lower"),
    ("certify.sparsification_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("catalog.open_s", "s", "lower"),
    ("pack.load_s", "s", "lower"),
    ("pack.load_mb_per_s", "MB/s", "higher"),
    ("pack.bytes_per_photo", "B/photo", "lower"),
    ("fleet.batch_s", "s", "lower"),
    ("fleet.tenant_ms_p50", "ms", "lower"),
    ("fleet.tenant_ms_tail", "ms", "lower"),
    ("session.apply_delta_ms_p50", "ms", "lower"),
    ("session.apply_delta_ms_tail", "ms", "lower"),
    ("session.resolve_ms_p50", "ms", "lower"),
    ("session.resolve_ms_tail", "ms", "lower"),
    ("incremental.dirty_shard_frac", "frac", "lower"),
    ("incremental.replayed_frac", "frac", "higher"),
    ("incremental.went_live", "count", "lower"),
    ("incremental.vs_scratch", "ratio", "lower"),
    ("compression.expand_s", "s", "lower"),
    ("compression.represent_s", "s", "lower"),
    ("compression.refill_s", "s", "lower"),
    ("compression.score_s", "s", "lower"),
    ("compression.expanded_photos", "count", "lower"),
    ("cli.unattributed_s", "s", "lower"),
]

# Percentiles a "tail" metric may report, and how many samples must lie
# beyond the one it reports.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

# Spans of reference work the verb itself never does.
PROBE_PREFIX = "probe."


def rank(p, n):
    """Nearest rank of the p-th percentile of n samples: ceil(p/100 * n).

    The tolerance keeps decimal percentiles such as 99.9 from rounding up.
    """
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(sorted_values, p):
    """The p-th percentile by nearest rank."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail(values):
    """The highest ladder percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(percentile, value, n)``. Under nearest rank, ``n - rank``
    samples lie beyond percentile p, so the median needs ``n >= 20``. With
    fewer samples no percentile qualifies: ``percentile`` is None and the
    value is the median (0.0 for no samples).
    """
    xs = sorted(values)
    n = len(xs)
    for p in reversed(TAIL_LADDER):
        if n - rank(p, n) >= TAIL_BEYOND:
            return p, nearest_rank(xs, p), n
    return None, (statistics.median(xs) if xs else 0.0), n


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover.

    Children are clipped to their parent's interval; overlapping children
    are counted once.
    """
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)]
        out.append((end - start) - union_length(clipped))
    return out


def covered_ns(spans):
    """Wall time the verb's root spans cover (``probe.*`` spans excluded)."""
    return union_length(
        (start, end)
        for name, start, end, parent, _ in spans
        if parent < 0 and not name.startswith(PROBE_PREFIX)
    )


def unattributed_s(untraced_wall_s, spans):
    """Untraced verb wall time minus the traced spans' coverage."""
    return untraced_wall_s - covered_ns(spans) / 1e9


def ratio(num, den):
    """``num / den``, or 0.0 when there is no base to divide by."""
    return num / den if den else 0.0


def quality_frac(scores, maxima):
    """Σ score / Σ max, with max = Σ_q W(q) of each decision's instance."""
    return ratio(sum(scores), sum(maxima))


def durations(spans, name, min_decision=None):
    """Durations (ns) of every span called ``name``."""
    return [
        end - start
        for n, start, end, _, decision in spans
        if n == name and (min_decision is None or decision >= min_decision)
    ]


def layer_metrics(traces, untraced_walls_s):
    """Every per-layer metric from one or more traced runs of one workload.

    ``untraced_walls_s[i]`` is the wall time of the untraced verb invocation
    paired with ``traces[i]``. Scalars are medians over the traced runs; p50
    and tail metrics pool the samples of all runs. Returns ``(metrics,
    notes)``: ``notes`` names the percentile and sample count behind each
    tail metric.
    """
    per_run = [_run_metrics(t, w) for t, w in zip(traces, untraced_walls_s)]
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    notes = {}

    def pooled(name):
        return [d / 1e6 for t in traces for d in durations(t["spans"], name)]

    for metric, span in (
        ("fleet.tenant_ms", "fleet.tenant"),
        ("session.apply_delta_ms", "session.apply_delta"),
        ("session.resolve_ms", "session.resolve"),
    ):
        samples = pooled(span)
        out[metric + "_p50"] = statistics.median(samples) if samples else 0.0
        p, value, n = tail(samples)
        out[metric + "_tail"] = value
        notes[metric + "_tail"] = "p%g of %d samples" % (p, n) if p else "median of %d samples (n < 20)" % n
    samples = pooled("datasets.resolve_epoch")
    out["datasets.resolve_epoch_ms_p50"] = statistics.median(samples) if samples else 0.0
    return out, notes


def _run_metrics(trace, untraced_wall_s):
    spans = trace["spans"]
    c = trace["counters"].get
    selfs = self_times(spans)

    def self_s(name):
        return sum(t for s, t in zip(spans, selfs) if s[0] == name) / 1e9

    def total_s(name, min_decision=None):
        return sum(durations(spans, name, min_decision)) / 1e9

    parse_s = self_s("datasets.parse")
    load_s = total_s("pack.load")
    incremental_s = total_s("session.apply_delta") + total_s("session.resolve", min_decision=1)
    return {
        "datasets.parse_s": parse_s,
        "datasets.parse_mb_per_s": ratio(c("datasets.bytes", 0) / 1e6, parse_s),
        "representation.busy_s": total_s("representation.represent"),
        "representation.stored_pairs": c("representation.stored_pairs", 0),
        "representation.pairs_per_photo": ratio(c("representation.stored_pairs", 0), c("representation.photos", 0)),
        "sharded.prepare_s": total_s("sharded.prepare"),
        "sharded.solve_s": total_s("sharded.solve"),
        "sharded.components": c("sharded.components", 0),
        "sharded.largest_component": c("sharded.largest_component", 0),
        "celf.gain_evals": c("celf.gain_evals", 0),
        "celf.sim_ops": c("celf.sim_ops", 0),
        "celf.pq_pops": c("celf.pq_pops", 0),
        "celf.lazy_accept_frac": ratio(c("celf.lazy_accepts", 0), c("celf.pq_pops", 0)),
        "certify.online_bound_s": total_s("certify.online_bound"),
        "certify.sparsification_s": total_s("certify.sparsification"),
        "report.render_s": self_s("report.render"),
        "catalog.open_s": total_s("catalog.open"),
        "pack.load_s": load_s,
        "pack.load_mb_per_s": ratio(c("pack.bytes", 0) / 1e6, load_s),
        "pack.bytes_per_photo": ratio(c("pack.bytes", 0), c("pack.photos", 0)),
        "fleet.batch_s": total_s("fleet.batch"),
        "incremental.dirty_shard_frac": ratio(c("incremental.dirty_shards", 0), c("incremental.shards", 0)),
        "incremental.replayed_frac": ratio(
            c("incremental.replayed", 0), c("incremental.replayed", 0) + c("incremental.live", 0)
        ),
        "incremental.went_live": c("incremental.went_live", 0),
        "incremental.vs_scratch": ratio(incremental_s, total_s("probe.scratch_solve")),
        "compression.expand_s": total_s("compression.expand"),
        "compression.represent_s": total_s("compression.represent"),
        "compression.refill_s": total_s("compression.refill"),
        "compression.score_s": total_s("compression.score"),
        "compression.expanded_photos": c("compression.expanded_photos", 0),
        "cli.unattributed_s": unattributed_s(untraced_wall_s, spans),
    }
