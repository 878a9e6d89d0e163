"""Load generation against the query server: closed- and open-loop.

Two canonical workload shapes:

* **closed loop** — N synthetic clients, each issuing its next request
  the moment the previous one returns.  Measures the server's saturated
  throughput and the latency it sustains under exactly-N outstanding
  requests.
* **open loop** — requests arrive on a Poisson process at a target rate
  regardless of completions (how real user traffic behaves), which is the
  shape that actually exercises the bounded admission queue: when the
  server falls behind, arrivals keep coming and the rejection counter —
  not an invisible client-side convoy — absorbs the overload.

Determinism: every random draw (arrival gaps, address sampling) flows
from the explicit ``rng`` argument — no module-level :mod:`random` state —
so two runs with equal seeds produce byte-identical request schedules;
only the measured timings differ.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.health import percentile
from repro.serve.server import QueryServer, ServeResponse, ServeStatus


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned arrival: when (relative to t0) and which address."""

    offset_s: float
    address_id: str


def poisson_schedule(
    address_ids: Sequence[str],
    rate_rps: float,
    duration_s: float,
    rng: random.Random,
) -> list[ScheduledRequest]:
    """Open-loop arrival plan: exponential gaps, uniform address draws."""
    if not address_ids:
        raise ValueError("need at least one address id to sample from")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0: {rate_rps}")
    schedule: list[ScheduledRequest] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_rps)
        if t >= duration_s:
            return schedule
        schedule.append(
            ScheduledRequest(t, address_ids[rng.randrange(len(address_ids))])
        )


def closed_sequences(
    address_ids: Sequence[str],
    n_clients: int,
    length: int,
    rng: random.Random,
) -> list[list[str]]:
    """Per-client address sequences for the closed loop (cycled if short)."""
    if not address_ids:
        raise ValueError("need at least one address id to sample from")
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1: {n_clients}")
    return [
        [address_ids[rng.randrange(len(address_ids))] for _ in range(length)]
        for _ in range(n_clients)
    ]


@dataclass(frozen=True)
class LoadReport:
    """What a load run measured; the serve-bench artifact payload."""

    workload: str
    duration_s: float
    n_issued: int
    n_ok: int
    n_rejected: int
    n_timed_out: int
    n_unknown: int
    n_errors: int
    throughput_rps: float
    latency_ms: dict[str, float]
    cache_hit_rate: float
    by_source: dict[str, int] = field(default_factory=dict)
    server: dict[str, Any] = field(default_factory=dict)
    queue_depth_series: list[tuple[float, int]] = field(default_factory=list)
    slo: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "duration_s": self.duration_s,
            "n_issued": self.n_issued,
            "n_ok": self.n_ok,
            "n_rejected": self.n_rejected,
            "n_timed_out": self.n_timed_out,
            "n_unknown": self.n_unknown,
            "n_errors": self.n_errors,
            "throughput_rps": self.throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "cache_hit_rate": self.cache_hit_rate,
            "by_source": dict(self.by_source),
            "server": dict(self.server),
            "queue_depth_series": [list(row) for row in self.queue_depth_series],
            "slo": dict(self.slo) if self.slo is not None else None,
        }

    def render(self) -> str:
        """Human-readable summary block for the CLI."""
        lat = self.latency_ms
        lines = [
            f"workload        {self.workload}",
            f"duration        {self.duration_s:.2f} s",
            f"issued          {self.n_issued}",
            f"completed (ok)  {self.n_ok}",
            f"rejected        {self.n_rejected}",
            f"timed out       {self.n_timed_out}",
            f"unknown addr    {self.n_unknown}",
            f"errors          {self.n_errors}",
            f"throughput      {self.throughput_rps:.1f} req/s",
            (
                f"latency (ms)    p50 {lat.get('p50', 0.0):.3f}"
                f"  p95 {lat.get('p95', 0.0):.3f}"
                f"  p99 {lat.get('p99', 0.0):.3f}"
                f"  max {lat.get('max', 0.0):.3f}"
            ),
            f"cache hit rate  {self.cache_hit_rate * 100.0:.1f}%",
        ]
        if self.by_source:
            tiers = "  ".join(
                f"{tier}={count}" for tier, count in sorted(self.by_source.items())
            )
            lines.append(f"answered by     {tiers}")
        if self.queue_depth_series:
            peak = max(depth for _, depth in self.queue_depth_series)
            lines.append(f"queue depth     peak {peak} "
                         f"({len(self.queue_depth_series)} series points)")
        if self.slo is not None:
            lines.append(f"slo verdict     "
                         f"{'OK' if self.slo.get('ok') else 'VIOLATED'} "
                         f"({len(self.slo.get('results', []))} objectives)")
        return "\n".join(lines)


def build_report(
    workload: str,
    responses: Sequence[ServeResponse],
    duration_s: float,
    server: QueryServer | None = None,
    slos: Sequence[Any] | None = None,
) -> LoadReport:
    """Fold raw responses into the percentile / throughput summary.

    When ``server`` is given, its queue-depth series is attached; when
    ``slos`` are given too, so is the server's SLO verdict over its live
    registry (the same verdict ``repro health`` gives over its export).
    """
    counts = {status: 0 for status in ServeStatus}
    ok_latencies: list[float] = []
    cache_hits = 0
    cache_lookups = 0
    by_source: dict[str, int] = {}
    for response in responses:
        counts[response.status] += 1
        if response.status is ServeStatus.OK:
            ok_latencies.append(response.latency_s)
            if response.result is not None:
                tier = response.result.source.value
                by_source[tier] = by_source.get(tier, 0) + 1
            if response.cache_state in ("hit", "miss"):
                cache_lookups += 1
                if response.cache_state == "hit":
                    cache_hits += 1
    latency_ms = {
        "p50": percentile(ok_latencies, 50.0) * 1e3,
        "p95": percentile(ok_latencies, 95.0) * 1e3,
        "p99": percentile(ok_latencies, 99.0) * 1e3,
        "mean": (sum(ok_latencies) / len(ok_latencies) * 1e3) if ok_latencies else 0.0,
        "max": (max(ok_latencies) * 1e3) if ok_latencies else 0.0,
    }
    queue_series: list[tuple[float, int]] = []
    slo_verdict: dict[str, Any] | None = None
    if server is not None:
        queue_series = server.health.queue_depth_series()
        if slos:
            slo_verdict = server.verdict(list(slos)).to_dict()
    return LoadReport(
        workload=workload,
        duration_s=duration_s,
        n_issued=len(responses),
        n_ok=counts[ServeStatus.OK],
        n_rejected=counts[ServeStatus.REJECTED],
        n_timed_out=counts[ServeStatus.TIMED_OUT],
        n_unknown=counts[ServeStatus.UNKNOWN_ADDRESS],
        n_errors=counts[ServeStatus.ERROR],
        throughput_rps=counts[ServeStatus.OK] / duration_s if duration_s > 0 else 0.0,
        latency_ms=latency_ms,
        cache_hit_rate=cache_hits / cache_lookups if cache_lookups else 0.0,
        by_source=by_source,
        server=server.stats() if server is not None else {},
        queue_depth_series=queue_series,
        slo=slo_verdict,
    )


class LoadGenerator:
    """Drives a :class:`QueryServer` with seeded synthetic traffic."""

    def __init__(
        self,
        server: QueryServer,
        address_ids: Sequence[str],
        rng: random.Random,
    ) -> None:
        if not address_ids:
            raise ValueError("need at least one address id to sample from")
        self.server = server
        self.address_ids = list(address_ids)
        self.rng = rng

    def run_closed(
        self,
        n_clients: int = 4,
        duration_s: float = 2.0,
        timeout_s: float | None = None,
        sequence_length: int = 512,
        slos: Sequence[Any] | None = None,
    ) -> LoadReport:
        """N clients, each back-to-back over its pregenerated sequence."""
        sequences = closed_sequences(
            self.address_ids, n_clients, sequence_length, self.rng
        )
        buckets: list[list[ServeResponse]] = [[] for _ in range(n_clients)]

        def client(index: int) -> None:
            sequence = sequences[index]
            sink = buckets[index]
            i = 0
            end = time.monotonic() + duration_s
            while time.monotonic() < end:
                sink.append(
                    self.server.query(sequence[i % len(sequence)], timeout_s)
                )
                i += 1

        t0 = time.monotonic()
        threads = [
            threading.Thread(target=client, args=(i,), name=f"loadgen-closed-{i}")
            for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - t0
        responses = [r for bucket in buckets for r in bucket]
        return build_report("closed", responses, elapsed, self.server, slos=slos)

    def run_open(
        self,
        rate_rps: float = 200.0,
        duration_s: float = 2.0,
        timeout_s: float | None = None,
        slos: Sequence[Any] | None = None,
    ) -> LoadReport:
        """Poisson arrivals at ``rate_rps``, independent of completions."""
        schedule = poisson_schedule(
            self.address_ids, rate_rps, duration_s, self.rng
        )
        pendings = []
        t0 = time.monotonic()
        for request in schedule:
            delay = t0 + request.offset_s - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            pendings.append(self.server.submit(request.address_id, timeout_s))
        responses = [pending.result() for pending in pendings]
        elapsed = time.monotonic() - t0
        return build_report("open", responses, elapsed, self.server, slos=slos)
