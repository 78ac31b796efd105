"""Asyncio ingress and trace runners for the serving layer.

:class:`TCAMService` is the concurrent front door: many client tasks
call :meth:`TCAMService.submit` in whatever order the event loop
schedules them, and a seq-contiguous reorder buffer feeds the
deterministic :class:`~repro.serve.engine.ServeEngine` strictly in
trace order.  Concurrency therefore changes *when* a coroutine resumes,
never *what* the engine computes -- :func:`serve_trace` (asyncio, any
task interleaving) and :func:`run_trace` (plain loop) produce
bit-identical per-request records, which the test suite asserts.

Both runners return a :class:`ServiceReport`: conservation counts,
throughput, exact p50/p95/p99 modeled latency (``numpy.percentile``
over every record) and energy per request -- one point of the
throughput/tail-latency/energy frontier.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ServeError
from ..tcam.outcome import SCHEMA_VERSION
from ..tcam.trit import TernaryWord
from .admission import AdmissionControl
from .arrivals import ArrivalTrace
from .backend import ServiceModel
from .engine import RequestRecord, ServeEngine
from .policy import BatchPolicy


@dataclass
class ServiceReport:
    """Aggregate read-out of one serving run.

    Attributes:
        policy: ``describe()`` dump of the batching policy.
        admission: ``describe()`` dump of the admission control.
        trace: Arrival-trace parameters (process, seed, length, rate).
        offered: Requests that arrived at the ingress.
        completed: Requests served to completion.
        rejected: Requests shed by admission control.
        makespan: First arrival to last batch completion [s].
        throughput: Completed requests per second of makespan.
        batches: Batches dispatched.
        mean_batch_size: ``completed / batches`` (0 when idle).
        utilization: Port busy time over makespan.
        latency_p50/p95/p99: Modeled latency percentiles [s].
        mean_latency: Mean modeled latency [s].
        energy_total: Modeled energy over the run [J].
        energy_per_request: Mean energy per completed request [J].
        records: Per-request records in dispatch order.
        rejected_seqs: Trace positions of shed requests.
    """

    policy: dict[str, Any]
    admission: dict[str, Any]
    trace: dict[str, Any]
    offered: int
    completed: int
    rejected: int
    makespan: float
    throughput: float
    batches: int
    mean_batch_size: float
    utilization: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_latency: float
    energy_total: float
    energy_per_request: float
    records: list[RequestRecord] = field(repr=False)
    rejected_seqs: list[int] = field(repr=False)

    def to_dict(self, include_records: bool = False) -> dict[str, Any]:
        """JSON-ready form; set ``include_records`` for per-request rows."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "policy": self.policy,
            "admission": self.admission,
            "trace": self.trace,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "utilization": self.utilization,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "mean_latency": self.mean_latency,
            "energy_total": self.energy_total,
            "energy_per_request": self.energy_per_request,
        }
        if include_records:
            out["records"] = [r.to_dict() for r in self.records]
            out["rejected_seqs"] = list(self.rejected_seqs)
        return out


def build_report(
    engine: ServeEngine, trace: ArrivalTrace, records: list[RequestRecord]
) -> ServiceReport:
    """Aggregate a finished engine run into a :class:`ServiceReport`.

    Latency percentiles are exact at any request count: they come from
    ``numpy.percentile`` over every record, not a thinned sample.
    """
    engine.check_conservation()
    if records:
        latencies = [r.latency for r in records]
        t0 = min(r.arrival for r in records)
        makespan = max(r.finish for r in records) - t0
        p50, p95, p99 = (float(v) for v in np.percentile(latencies, (50, 95, 99)))
        mean_latency = sum(latencies) / len(latencies)
    else:
        makespan = 0.0
        p50 = p95 = p99 = mean_latency = 0.0
    n = len(records)
    return ServiceReport(
        policy=engine.policy.describe(),
        admission=engine.admission.describe(),
        trace={
            "process": trace.process,
            "seed": trace.seed,
            "n_requests": len(trace),
            "offered_rate": trace.offered_rate,
        },
        offered=engine.offered,
        completed=engine.completed,
        rejected=engine.rejected,
        makespan=makespan,
        throughput=n / makespan if makespan > 0.0 else 0.0,
        batches=engine.batches,
        mean_batch_size=n / engine.batches if engine.batches else 0.0,
        utilization=engine.busy_time / makespan if makespan > 0.0 else 0.0,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        mean_latency=mean_latency,
        energy_total=engine.energy_total,
        energy_per_request=engine.energy_total / n if n else 0.0,
        records=records,
        rejected_seqs=list(engine.rejected_seqs),
    )


class TCAMService:
    """Asyncio front door over a deterministic :class:`ServeEngine`.

    Client tasks call :meth:`submit` concurrently; a reorder buffer
    releases requests to the engine only when they are seq-contiguous,
    so the engine always sees the exact arrival trace regardless of how
    the event loop interleaved the submitters.  Each submitter awaits a
    future resolved with its :class:`RequestRecord` (or ``None`` if
    admission shed it).
    """

    def __init__(self, engine: ServeEngine) -> None:
        self.engine = engine
        self.records: list[RequestRecord] = []
        self._waiting: dict[int, tuple[float, TernaryWord, int]] = {}
        self._futures: dict[int, asyncio.Future] = {}
        self._next_seq = 0
        self._closed = False

    async def submit(
        self, seq: int, arrival: float, key: TernaryWord, bank: int
    ) -> RequestRecord | None:
        """Submit one trace request; resolves when its batch completes.

        Safe to call from many tasks in any order -- the reorder buffer
        restores trace order before the engine sees anything.
        """
        if self._closed:
            raise ServeError("service is closed")
        if seq in self._futures or seq in self._waiting:
            raise ServeError(f"duplicate submission for seq {seq}")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[seq] = fut
        self._waiting[seq] = (arrival, key, bank)
        self._pump()
        return await fut

    def _pump(self) -> None:
        """Feed every seq-contiguous buffered request to the engine."""
        while self._next_seq in self._waiting:
            seq = self._next_seq
            arrival, key, bank = self._waiting.pop(seq)
            rejected_before = self.engine.rejected
            done = self.engine.offer(seq, arrival, key, bank)
            self._next_seq += 1
            if self.engine.rejected > rejected_before:
                self._resolve(seq, None)
            self._finish(done)

    def _finish(self, done: list[RequestRecord]) -> None:
        self.records.extend(done)
        for rec in done:
            self._resolve(rec.seq, rec)

    def _resolve(self, seq: int, value: RequestRecord | None) -> None:
        fut = self._futures.pop(seq, None)
        if fut is not None and not fut.done():
            fut.set_result(value)

    async def close(self) -> None:
        """Drain the queue (partial batches dispatch) and resolve waiters."""
        if self._closed:
            return
        self._closed = True
        if self._waiting:
            raise ServeError(
                f"close() with {len(self._waiting)} non-contiguous requests "
                f"still buffered (missing seq {self._next_seq})"
            )
        self._finish(self.engine.drain())


async def serve_trace(
    backend,
    trace: ArrivalTrace,
    policy: BatchPolicy,
    admission: AdmissionControl | None = None,
    model: ServiceModel | None = None,
) -> ServiceReport:
    """Serve ``trace`` through the asyncio ingress (one task per client).

    Every request is its own asyncio task, started in a scrambled but
    deterministic order to exercise the reorder buffer; the report is
    bit-identical to :func:`run_trace` on the same inputs.
    """
    engine = ServeEngine(backend, policy, admission=admission, model=model)
    service = TCAMService(engine)

    async def client(seq: int, t: float, key: TernaryWord, bank: int):
        await service.submit(seq, t, key, bank)

    # Launch clients in a deterministic non-trace order (stride walk) so
    # the reorder buffer is genuinely exercised on every run.
    requests = list(trace)
    stride = 7 if len(requests) % 7 else 5
    order = sorted(range(len(requests)), key=lambda i: (i % stride, i))
    tasks = [asyncio.ensure_future(client(*requests[i])) for i in order]
    # Yield until every submission has passed through the reorder buffer
    # into the engine, then drain -- close() resolves the futures of the
    # final partial batch, letting the remaining clients finish.
    while service._next_seq < len(requests):
        await asyncio.sleep(0)
    await service.close()
    await asyncio.gather(*tasks)
    return build_report(engine, trace, service.records)


def run_trace(
    backend,
    trace: ArrivalTrace,
    policy: BatchPolicy,
    admission: AdmissionControl | None = None,
    model: ServiceModel | None = None,
) -> ServiceReport:
    """Synchronous twin of :func:`serve_trace` (same report, bit for bit)."""
    engine = ServeEngine(backend, policy, admission=admission, model=model)
    records: list[RequestRecord] = []
    for seq, t, key, bank in trace:
        records.extend(engine.offer(seq, t, key, bank))
    records.extend(engine.drain())
    return build_report(engine, trace, records)
