"""The benchmark's own statistics, kept free of I/O so they can be tested.

* :func:`summarize` — median and tail, the tail at the highest
  percentile of a fixed ladder that still has at least ten samples
  beyond it, both by the Harrell-Davis estimator.
* :func:`judge_rung` — whether one offered-rate rung of an open-loop
  run met its latency limit without a growing backlog, and whether the
  load generator kept to its schedule well enough for the rung to count.
* :func:`poll_phase` — when, after its ack, a submission is first
  polled.
* :func:`error_rate` — failed operations over attempted ones.
* :func:`stage_table` — per-stage median self time plus the
  ``unaccounted`` remainder that makes the table sum to the end-to-end
  median.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from scipy.special import betainc

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A weighted mean of all order statistics, with beta weights centred
    on the requested rank.  Latencies on this stack cluster around
    40 ms delayed-ACK stalls, so a single order statistic (the plain
    sample median) jumps between clusters from run to run; the weighted
    estimate moves smoothly with the share of samples in each cluster.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of an empty sample")
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(
        (edges[i + 1] - edges[i]) * x for i, x in enumerate(ordered)
    )


def tail_percentile(n: int) -> float | None:
    """The highest percentile in :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (None when even the
    median has fewer)."""
    best = None
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


@dataclass(frozen=True)
class Summary:
    """Median and tail of one timing sample."""

    p50: float
    tail: float
    tail_pct: float
    n: int


def summarize(values) -> Summary:
    """Median plus :func:`tail_percentile` tail (Harrell-Davis).

    With fewer than ten samples beyond the median the tail is reported
    as the maximum (``tail_pct`` 100), which a reader must not mistake
    for a stable percentile.
    """
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sample")
    q = tail_percentile(len(values))
    median = harrell_davis(values, 50.0)
    if q is None:
        return Summary(median, max(values), 100.0, len(values))
    return Summary(median, harrell_davis(values, q), q, len(values))


def error_rate(attempted: int, rejected: int, failed_outcomes: int,
               never_terminal: int) -> float:
    """(non-2xx submits + ``failed`` outcomes + never-terminal) over the
    number of submissions attempted."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempt")
    return (rejected + failed_outcomes + never_terminal) / attempted


#: The golden ratio's fractional part: successive multiples of it, taken
#: modulo 1, spread over [0, 1) more evenly than random draws do.
_GOLDEN = (5 ** 0.5 - 1) / 2


def poll_phase(index: int, cadence_s: float) -> float:
    """Delay from the ``index``-th submission's ack to its first poll.

    Later polls of the same md5 follow one cadence apart, so its polls
    form a grid of period ``cadence_s`` whose phase is this delay.  With
    the phases spread evenly over one period, the wait from the instant
    the verdict is ready to the next poll on the grid is spread evenly
    over ``[0, cadence_s)`` whatever the in-server time.
    """
    return cadence_s * ((index * _GOLDEN) % 1.0)


def lag_ms(sent: float, due: float, free_at: float) -> float:
    """How late the generator sent one request, in ms.

    A request on a busy keep-alive connection cannot go before the
    previous response arrived (``free_at``); waiting for the server is
    charged to the request's latency, not to the generator.  Lag is the
    delay past the later of the two instants.
    """
    return max(0.0, sent - max(due, free_at)) * 1e3


@dataclass
class RungOutcome:
    """The judgement of one offered-rate rung."""

    rate: float
    passed: bool
    valid: bool
    reasons: list[str] = field(default_factory=list)


def judge_rung(
    rate: float,
    verdict_latencies_s,
    failed: int,
    backlog_at_end: int,
    lag_tail_ms: float,
    verdict_limit_s: float,
    lag_limit_ms: float,
) -> RungOutcome:
    """Accept or reject one rung of the rate ladder.

    A rung *passes* when nothing failed, its verdict tail meets the
    limit, and its backlog did not grow: at the end of the schedule at
    most ``rate * verdict_limit_s`` submissions were still waiting for a
    verdict (Little's law for a queue whose latency meets the limit).
    A rung is *invalid* when the generator's own lag tail exceeds
    ``lag_limit_ms``: the offered rate was then not the one scheduled.
    """
    out = RungOutcome(rate=rate, passed=True, valid=True)
    if lag_tail_ms > lag_limit_ms:
        out.valid = False
        out.reasons.append(
            f"generator lag tail {lag_tail_ms:.1f}ms > {lag_limit_ms}ms"
        )
    if failed:
        out.passed = False
        out.reasons.append(f"{failed} failed")
    latencies = list(verdict_latencies_s)
    if not latencies:
        out.passed = False
        out.reasons.append("no verdicts")
    else:
        tail = summarize(latencies).tail
        if tail > verdict_limit_s:
            out.passed = False
            out.reasons.append(
                f"verdict tail {tail:.3f}s > {verdict_limit_s}s"
            )
    allowed = rate * verdict_limit_s
    if backlog_at_end > allowed:
        out.passed = False
        out.reasons.append(
            f"backlog {backlog_at_end} > {allowed:.0f} at schedule end"
        )
    return out


def highest_passing(outcomes: list[RungOutcome]) -> RungOutcome | None:
    """The last rung of an ascending ladder before the first failing or
    invalid one (None when the first rung already fails)."""
    best = None
    for outcome in outcomes:
        if not (outcome.passed and outcome.valid):
            break
        best = outcome
    return best


def self_times(span_ms: float, child_ms) -> float:
    """A span's duration minus the time its children cover."""
    return span_ms - sum(child_ms)


def stage_table(stages: dict[str, list[float]], total: list[float]):
    """Rows ``(stage, median self time)`` plus ``unaccounted``.

    Medians are Harrell-Davis estimates, like every other median here.

    ``unaccounted`` is the end-to-end median minus the sum of the stage
    medians, so the rows sum exactly to the end-to-end median.  It can
    be negative: medians of parts need not add up to the median of the
    whole.
    """
    rows = [
        (name, harrell_davis(values, 50.0))
        for name, values in stages.items() if values
    ]
    whole = harrell_davis(total, 50.0)
    rows.append(("unaccounted", whole - sum(value for _, value in rows)))
    return rows, whole
