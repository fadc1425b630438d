"""The three workloads: cold reads, hot reads and durable churn.

Each drives the program through its public entry points only, checks
every answer against :class:`oracle.Oracle`, and returns a
:class:`Outcome`.  With tracing off the outcome holds the end-to-end
metrics; with tracing on, the workload additionally replays its inputs
in-process at each layer boundary (bare engine, ``QueryService``,
protocol, worker pool) and the per-layer metrics are derived from the
recorded spans.

Why these workloads (see README.md for sizes and reference figures):

* ``cold_reads``: distinct queries against the default ``planned``
  engine behind one forked worker.  Every request misses the result
  cache, so the planner, filters and verification do the work, and
  setup is dominated by the HSS-Greedy build of the ``seal`` member.
* ``hot_reads``: the same serving path over ``hash-hybrid`` with a
  Zipf stream over a pool smaller than the cache, so nearly every
  request is a hit: wire, protocol, server and cache do the work.
* ``durable_churn``: inserts, deletes and queries through a
  ``QueryService`` over the WAL-backed segmented engine, with a
  checkpoint part-way, seals, tier merges and a merge-triggered full
  compaction, then close and ``recover()``.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from oracle import Oracle
from spans import Tracer, mean, pct

from repro import (
    DurableSegmentedSealSearch,
    NetworkClient,
    ProcessSupervisor,
    Query,
    QueryService,
    Rect,
    SealError,
    SealSearch,
    SegmentedSealSearch,
    TokenWeighter,
    build_method,
    make_corpus,
)
from repro.core.stats import SearchStats
from repro.exec.durable import replay_records
from repro.io.generations import publish_snapshot
from repro.io.snapshot import load_engine, save_engine, sidecar_path, validate_snapshot
from repro.io.wal import read_wal
from repro.service.protocol import decode_payload, encode_frame, result_from_wire, result_to_wire

#: Planner portfolio members, in the order the per-layer metrics name them.
MEMBERS = ("token", "grid", "hash-hybrid", "seal")

#: Popularity skew of the hot_reads stream over its query pool.
HOT_ZIPF_EXPONENT = 1.0

#: Every per-layer metric, in report order; a workload reports 0 for a
#: layer it does not run.
PER_LAYER = (
    [f"build.{m}_s" for m in MEMBERS]
    + ["planner.plan_ms", "planner.regret_ms"]
    + [f"planner.choice.{m}" for m in MEMBERS]
    + ["engine.query_ms", "engine.filter_ms", "engine.verify_ms",
       "engine.candidates_per_query", "engine.entries_per_query",
       "engine.lists_per_query", "engine.answers_per_candidate",
       "service.self_ms", "cache.hit_ratio", "cache.evictions",
       "protocol.encode_us", "protocol.decode_us", "protocol.response_bytes",
       "net.self_ms",
       "snapshot.save_s", "snapshot.load_s", "snapshot.bytes",
       "segments.sources_per_query", "segments.seals", "segments.merges",
       "segments.compactions", "segments.stall_s",
       "wal.bytes_per_op", "wal.syncs", "durable.log_ms", "service.write_self_ms",
       "insert_p50_ms",
       "durable.checkpoint_s", "recover.read_wal_s", "recover.load_s",
       "recover.replay_s", "recover.records",
       "trace.overhead_pct"]
)


@dataclass(frozen=True)
class Scale:
    """Input sizes and repetition counts of one benchmark scale."""

    corpus: int = 5000            # objects served by the read workloads
    cold_pool: int = 30000        # distinct queries available to cold_reads
    hot_pool: int = 512           # distinct hot queries (cache holds 1024)
    hot_stream: int = 300000      # Zipf draws available to hot_reads
    cold_setups: int = 1          # each builds the planned engine (~18 s)
    hot_setups: int = 3
    restarts: int = 11            # worker recycles per read run
    cold_replay: int = 400        # queries replayed per boundary when traced
    hot_replay: int = 2000
    churn_initial: int = 2000
    churn_ops: int = 8500
    churn_checkpoint_at: int = 6000
    churn_query_pool: int = 2000
    churn_checks: int = 64        # queries compared across the restart
    churn_setups: int = 9


SCALES = {
    "full": Scale(),
    "tiny": Scale(corpus=600, cold_pool=3000, hot_pool=64, hot_stream=20000,
                  hot_setups=2, restarts=2, cold_replay=50,
                  hot_replay=200, churn_initial=300, churn_ops=1500,
                  churn_checkpoint_at=700, churn_query_pool=300,
                  churn_checks=16, churn_setups=2),
}


@dataclass
class Outcome:
    """What a run reports: inputs digest, counts, correctness, metrics."""

    fingerprint: str = ""
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: int = 0

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def to_query(spec: inputs.QuerySpec) -> Query:
    return Query(Rect(*spec.box), frozenset(spec.tokens), spec.tau_r, spec.tau_t)


def peak_rss_mb(who: int) -> float:
    """Peak resident set in MB of this process (``RUSAGE_SELF``) or of the
    largest child, or child's child, reaped so far (``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def file_bytes(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


def snapshot_bytes(path: Path) -> int:
    return file_bytes(path, sidecar_path(path))


def run(workload: str, seed: int, seconds: float, tracer: Tracer, scale: Scale,
        workdir: Path) -> Outcome:
    if workload == "durable_churn":
        return durable_churn(seed, seconds, tracer, scale, workdir)
    return read_workload(workload, seed, seconds, tracer, scale, workdir)


# ----------------------------------------------------------------------
# Read workloads: a ProcessSupervisor with one worker, one NetworkClient
# ----------------------------------------------------------------------


def serve(control, pairs, method: str, serving_root: str) -> None:
    """The serving side of a read workload, run in a process of its own.

    The worker pool must fork from a process that holds what a deployed
    supervisor holds, not the benchmark's inputs and oracle: every fork
    copies the parent's page tables and the worker's collector scans
    what it inherits.  Commands arrive on ``control``: ``("setup",
    name)`` builds the engine, publishes it as a generation in
    ``serving_root/name`` and starts a one-worker ``ProcessSupervisor``
    (replying its address and snapshot path); ``("recycle",)`` recycles
    the worker; ``("close",)`` stops the supervisor and returns.
    """
    supervisor = None
    try:
        while True:
            command = control.recv()
            if command[0] == "setup":
                if supervisor is not None:
                    supervisor.close()
                engine = SealSearch(pairs, method=method)
                serving = Path(serving_root) / command[1]
                _, snapshot = publish_snapshot(serving, engine=engine)
                del engine
                gc.collect()
                supervisor = ProcessSupervisor(serving, workers=1).start()
                control.send((supervisor.address, str(snapshot)))
            elif command[0] == "recycle":
                supervisor.recycle()
                control.send(None)
            else:
                return
    finally:
        if supervisor is not None:
            supervisor.close()


class Deployment:
    """The client side of a read workload: one :func:`serve` process, one
    ``NetworkClient`` connection to its worker."""

    def __init__(self, pairs, method: str, workdir: Path) -> None:
        context = multiprocessing.get_context("spawn")
        self._control, child = context.Pipe()
        self._process = context.Process(target=serve, args=(child, pairs, method, str(workdir)),
                                        name="perfbench-serve")
        self._process.start()
        child.close()
        self.client: Optional[NetworkClient] = None
        self.address: Tuple[str, int] = ("", 0)
        self.snapshot = Path()

    def setup(self, name: str) -> None:
        """Build, publish and boot a fresh deployment, then connect."""
        if self.client is not None:
            self.client.close()
        self._control.send(("setup", name))
        address, snapshot = self._control.recv()
        self.address, self.snapshot = tuple(address), Path(snapshot)
        self.connect()

    def recycle(self) -> None:
        self._control.send(("recycle",))
        self._control.recv()

    def connect(self) -> None:
        self.client = NetworkClient(*self.address)

    def reconnect(self) -> None:
        self.client.close()
        self.connect()

    def disk_bytes(self) -> int:
        return snapshot_bytes(self.snapshot)

    def close(self) -> None:
        """Stop the serving process and wait until it and its worker end."""
        if self.client is not None:
            self.client.close()
        try:
            self._control.send(("close",))
        except OSError:
            pass  # the serving process is already gone
        self._process.join(timeout=30)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=10)
        self._control.close()


class AnswerCheck:
    """Checks answers against the oracle, once per distinct query."""

    def __init__(self, oracle: Oracle, outcome: Outcome) -> None:
        self.oracle = oracle
        self.outcome = outcome
        self.verified: Dict[inputs.QuerySpec, List[int]] = {}

    def __call__(self, spec: inputs.QuerySpec, answers: List[int]) -> None:
        known = self.verified.get(spec)
        if known is not None:
            if answers != known:
                self.outcome.error(f"answer changed for a repeated query: {answers[:8]} vs {known[:8]}")
            return
        problem = self.oracle.check(spec.box, spec.tokens, spec.tau_r, spec.tau_t, answers)
        if problem:
            self.outcome.error(f"{spec.kind} query tau=({spec.tau_r},{spec.tau_t}): {problem}")
        self.verified[spec] = list(answers)


def read_workload(workload: str, seed: int, seconds: float, tracer: Tracer,
                  scale: Scale, workdir: Path) -> Outcome:
    cold = workload == "cold_reads"
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    side = inputs.space_side(scale.corpus)
    boxes, token_sets = inputs.make_corpus(scale.corpus, rng, side)
    pool = inputs.distinct(inputs.make_queries(
        scale.cold_pool if cold else scale.hot_pool, rng, boxes, token_sets, side))
    probe = inputs.make_queries(1, rng, boxes, token_sets, side)[0]
    if cold:
        order = np.arange(len(pool))
    else:
        order = inputs.zipf_stream(len(pool), scale.hot_stream, HOT_ZIPF_EXPONENT, rng)
    outcome.fingerprint = inputs.fingerprint(boxes, token_sets, pool, [probe], order)
    pairs = [(Rect(*b), frozenset(t)) for b, t in zip(boxes, token_sets)]
    queries = [to_query(spec) for spec in pool]
    probe_query = to_query(probe)

    # Answers are only recorded while the clock runs; the oracle checks
    # them after the last timed phase.
    recorded: List[Tuple[inputs.QuerySpec, List[int]]] = []

    def ask(deployment: Deployment, spec: inputs.QuerySpec, query: Query) -> None:
        outcome.attempted += 1
        try:
            recorded.append((spec, deployment.client.query(query).answers))
        except SealError as exc:
            outcome.failed += 1
            outcome.error(f"query failed: {exc!r}")
            deployment.reconnect()

    deployment = Deployment(pairs, "planned" if cold else "hash-hybrid", workdir)
    try:
        # Setup: from inputs in memory to the first answer served.
        setups: List[float] = []
        for attempt in range(1 if tracer.enabled else (scale.cold_setups if cold else scale.hot_setups)):
            started = time.perf_counter()
            with tracer.span("setup"):
                deployment.setup(f"serving-{attempt}")
                ask(deployment, probe, probe_query)
            setups.append(time.perf_counter() - started)
        disk = deployment.disk_bytes()

        if not cold:
            # Warm-up: every pool query once, so the timed stream hits.
            for spec, query in zip(pool, queries):
                ask(deployment, spec, query)

        # The timed phase: one closed-loop client.  A traced run traces
        # every other pair of requests (cold queries alternate between the
        # two kinds), so the two halves give the overhead.
        latencies: List[float] = []
        started = time.perf_counter()
        for rid, index in enumerate(order.tolist()):
            sent = time.perf_counter()
            if sent - started >= seconds:
                break
            spec, query = pool[index], queries[index]
            if tracer.enabled and rid // 2 % 2:
                with tracer.span("client.query", rid=rid):
                    ask(deployment, spec, query)
            else:
                ask(deployment, spec, query)
            latencies.append(time.perf_counter() - sent)
        elapsed = time.perf_counter() - started
        outcome.samples = len(latencies)
        worker_metrics = deployment.client.metrics()

        # Restart: recycle the worker pool until the new worker answers.
        restarts: List[float] = []
        for k in range(scale.restarts):
            deployment.client.close()
            # A draining worker notices the drain on its next 0.2 s accept
            # poll.  Equal gaps between restarts would pin that wait to one
            # phase for the whole run; varied gaps sample it evenly.
            time.sleep(0.2 * (k * 0.618034 % 1.0))
            started = time.perf_counter()
            with tracer.span("restart"):
                deployment.recycle()
                deployment.connect()
                ask(deployment, probe, probe_query)
            restarts.append(time.perf_counter() - started)

        if tracer.enabled:
            replay = queries[: scale.cold_replay] if cold else (
                queries + [queries[i] for i in order[: scale.hot_replay].tolist()])
            replay_read_boundaries(deployment, replay, cold, tracer, outcome, workdir)
    finally:
        deployment.close()
    check = AnswerCheck(Oracle(boxes, token_sets), outcome)
    for spec, answers in recorded:
        check(spec, answers)

    if not tracer.enabled:
        outcome.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_ms": (pct(latencies, 50) * 1e3, "ms"),
            "query_p90_ms": (pct(latencies, 90) * 1e3, "ms"),
            "throughput_ops_per_s": (len(latencies) / elapsed, "ops/s"),
            "restart_s": (statistics.median(restarts), "s"),
            "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
            "disk_mb": (disk / 1e6, "MB"),
        }
        return outcome

    cache = worker_metrics["cache"]
    traced = tracer.seconds("client.query")
    untraced = [t for rid, t in enumerate(latencies) if not rid // 2 % 2]
    layer = read_layer_metrics(tracer, cold)
    layer.update({
        "cache.hit_ratio": (cache["hits"] / max(1, cache["hits"] + cache["misses"]), "ratio"),
        "cache.evictions": (cache["evictions"], "count"),
        "trace.overhead_pct": (overhead_pct(untraced, traced), "%"),
    })
    outcome.metrics = layer
    return outcome


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Median traced latency against median untraced latency, in percent."""
    if not untraced or not traced:
        return 0.0
    return 100.0 * (pct(traced, 50) / pct(untraced, 50) - 1.0)


def replay_read_boundaries(deployment: Deployment, replay: Sequence[Query], cold: bool,
                           tracer: Tracer, outcome: Outcome, workdir: Path) -> None:
    """Replay the same queries at each boundary below the wire.

    Per request: over the wire to the worker (``net``), an in-process
    ``QueryService`` with the worker's configuration (``service``), the
    bare engine (``engine``), its filter and verify steps, the planner's
    ``plan`` and each member's own search, and the protocol encoding of
    the response.  Adjacent boundaries give each layer's self time.  The
    in-process layers run on the engine loaded from the served snapshot.
    """
    engine = load_engine(deployment.snapshot)
    method = engine.method
    with tracer.span("replay.builds"):
        for name in (MEMBERS if cold else ("hash-hybrid",)):
            with tracer.span(f"build.{name}"):
                build_method(engine.objects, name, engine.weighter)
    snapshot = workdir / "replay-snapshot.pkl"
    with tracer.span("snapshot.save"):
        save_engine(engine, snapshot)
    with tracer.span("snapshot.load", bytes=snapshot_bytes(snapshot)):
        load_engine(snapshot, mmap=True)

    with QueryService(engine) as service:
        for rid, query in enumerate(replay):
            outcome.attempted += 1
            with tracer.span("net", rid=rid):
                wire = deployment.client.query(query)
            hits = service.cache.hits
            with tracer.span("service", rid=rid) as record:
                served = service.query(query)
            record["hit"] = service.cache.hits > hits
            with tracer.span("engine", rid=rid):
                direct = method.search(query)
            stats = SearchStats()
            with tracer.span("filter", rid=rid) as record:
                candidates = method.candidates(query, stats)
            with tracer.span("verify", rid=rid):
                verified = sorted(method.verifier.verify(query, candidates, stats))
            record.update(candidates=len(candidates), entries=stats.entries_retrieved,
                          lists=stats.lists_probed, answers=len(verified))
            if cold:
                with tracer.span("plan", rid=rid) as plan_record:
                    plan_record["chosen"] = method.plan(query)[0].method
                for name, member in method.methods.items():
                    with tracer.span(f"member.{name}", rid=rid):
                        member.search(query)
            with tracer.span("encode", rid=rid) as encode_record:
                frame = encode_frame({"ok": True, **result_to_wire(served)})
            encode_record["bytes"] = len(frame)
            with tracer.span("decode", rid=rid):
                result_from_wire(decode_payload(frame[4:]))
            if not (wire.answers == served.answers == direct.answers == verified):
                outcome.error(f"boundary replay {rid}: answers differ between layers")


def read_layer_metrics(tracer: Tracer, cold: bool) -> Dict[str, Tuple[float, str]]:
    metrics = zero_layer_metrics()
    for name in MEMBERS:
        for seconds in tracer.seconds(f"build.{name}"):
            metrics[f"build.{name}_s"] = (seconds, "s")
    filters = tracer.named("filter")
    metrics.update(engine_counts(
        [s["candidates"] for s in filters], [s["entries"] for s in filters],
        [s["lists"] for s in filters], [s["answers"] for s in filters]))
    metrics.update({
        "engine.query_ms": (pct(tracer.seconds("engine"), 50) * 1e3, "ms"),
        "engine.filter_ms": (pct(tracer.seconds("filter"), 50) * 1e3, "ms"),
        "engine.verify_ms": (pct(tracer.seconds("verify"), 50) * 1e3, "ms"),
        "service.self_ms": (pct(service_self(tracer, "service"), 50) * 1e3, "ms"),
        "net.self_ms": (pct(tracer.self_seconds("net", "service"), 50) * 1e3, "ms"),
        "protocol.encode_us": (pct(tracer.seconds("encode"), 50) * 1e6, "us"),
        "protocol.decode_us": (pct(tracer.seconds("decode"), 50) * 1e6, "us"),
        "protocol.response_bytes": (mean([s["bytes"] for s in tracer.named("encode")]), "bytes"),
        "snapshot.save_s": (tracer.seconds("snapshot.save")[0], "s"),
        "snapshot.load_s": (tracer.seconds("snapshot.load")[0], "s"),
        "snapshot.bytes": (tracer.named("snapshot.load")[0]["bytes"], "bytes"),
    })
    if cold:
        plans = tracer.named("plan")
        members = {name: tracer.by_request(f"member.{name}") for name in MEMBERS}
        regrets = [members[p["chosen"]][p["rid"]] - min(m[p["rid"]] for m in members.values())
                   for p in plans]
        metrics["planner.plan_ms"] = (pct(tracer.seconds("plan"), 50) * 1e3, "ms")
        metrics["planner.regret_ms"] = (mean(regrets) * 1e3, "ms")
        for name in MEMBERS:
            metrics[f"planner.choice.{name}"] = (sum(p["chosen"] == name for p in plans), "count")
    return metrics


def service_self(tracer: Tracer, name: str) -> List[float]:
    """``QueryService.query`` minus the bare engine, per request.  A cache
    hit never reaches the engine, so its whole service time is self."""
    engine = tracer.by_request("engine")
    return [s["end"] - s["start"] - (0.0 if s["hit"] else engine[s["rid"]])
            for s in tracer.named(name) if s["rid"] in engine]


def zero_layer_metrics() -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric at zero, with its unit: the value of a metric
    whose layer the workload does not run."""
    units = {"_s": "s", "_ms": "ms", "_us": "us", "_pct": "%", "bytes": "bytes"}
    metrics = {}
    for name in PER_LAYER:
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        if name.endswith(("_per_query", "_per_op", "_per_candidate", "hit_ratio")):
            unit = "ratio"
        metrics[name] = (0.0, unit)
    return metrics


def engine_counts(candidates, entries, lists, answers) -> Dict[str, Tuple[float, str]]:
    return {
        "engine.candidates_per_query": (mean(candidates), "ratio"),
        "engine.entries_per_query": (mean(entries), "ratio"),
        "engine.lists_per_query": (mean(lists), "ratio"),
        "engine.answers_per_candidate": (sum(answers) / max(1, sum(candidates)), "ratio"),
    }


# ----------------------------------------------------------------------
# Durable churn: a QueryService over the WAL-backed engine, driven in a
# process of its own
# ----------------------------------------------------------------------


@dataclass
class ChurnInputs:
    ops: List[inputs.Op]
    boxes: List[inputs.Box]
    token_sets: List[inputs.Tokens]
    queries: List[inputs.QuerySpec]
    initial: int

    def pair(self, oid: int) -> Tuple[Rect, frozenset]:
        return Rect(*self.boxes[oid]), frozenset(self.token_sets[oid])


def churn_inputs(seed: int, scale: Scale) -> ChurnInputs:
    rng = np.random.default_rng(seed)
    ops = inputs.churn_stream(
        scale.churn_ops, scale.churn_initial, rng, insert_share=0.7, delete_share=0.1,
        query_pool=scale.churn_query_pool, checkpoint_at=scale.churn_checkpoint_at)
    total = scale.churn_initial + sum(op.kind == "insert" for op in ops)
    side = inputs.space_side(total)
    boxes, token_sets = inputs.make_corpus(total, rng, side)
    queries = inputs.make_queries(scale.churn_query_pool, rng, boxes, token_sets, side)
    return ChurnInputs(ops, boxes, token_sets, queries, scale.churn_initial)


class ChurnRound:
    """One durable engine from ``create`` through the stream to ``recover``.

    The stream's answers are recorded and checked afterwards against the
    oracle replaying the same stream, so the checks cost nothing inside
    the timed phase.
    """

    def __init__(self, data: ChurnInputs, directory: Path, check_count: int,
                 tracer: Tracer, outcome: Outcome) -> None:
        self.data = data
        self.directory = directory
        self.check_count = check_count
        self.tracer = tracer
        self.outcome = outcome
        self.wal = directory / "engine.wal"
        self.snapshot = directory / "engine.pkl"
        self.queries = [to_query(spec) for spec in data.queries]
        self.answers: Dict[int, List[int]] = {}
        self.compacted_at: List[int] = []
        self.query_latencies: List[float] = []
        self.service: Optional[QueryService] = None

    def create(self) -> float:
        """``create`` with its first checkpoint, to the first answer."""
        directory = self.directory
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        initial = [self.data.pair(oid) for oid in range(self.data.initial)]
        started = time.perf_counter()
        with self.tracer.span("setup"):
            engine = DurableSegmentedSealSearch.create(
                initial, method="hash-hybrid", wal_path=self.wal, snapshot_path=self.snapshot)
            self.service = QueryService(engine)
            self.query(0, -1)
        return time.perf_counter() - started

    def query(self, index: int, position: int) -> Optional[List[int]]:
        self.outcome.attempted += 1
        try:
            answers = self.service.query(self.queries[index]).answers
        except SealError as exc:
            self.outcome.failed += 1
            self.outcome.error(f"query failed: {exc!r}")
            return None
        if position >= 0:
            self.answers[position] = answers
        return answers

    def stream(self, mirrors: Optional["Mirrors"]) -> float:
        """Run the operation stream; returns its wall time."""
        service, tracer, data = self.service, self.tracer, self.data
        engine = service.engine
        compactions = engine.compactions
        started = time.perf_counter()
        for position, op in enumerate(data.ops):
            if op.kind == "query":
                # A traced round traces every other query: the untraced
                # ones give the tracing overhead.
                traced = mirrors is not None and len(self.query_latencies) % 2 == 1
                hits = service.cache.hits
                sent = time.perf_counter()
                with (tracer.span("service.query", rid=position) if traced else nullcontext({})) as record:
                    self.query(op.index, position)
                self.query_latencies.append(time.perf_counter() - sent)
                if traced:
                    record["hit"] = service.cache.hits > hits
                    mirrors.engine_query(engine, self.queries[op.index], position)
                continue
            if op.kind == "checkpoint":
                with tracer.span("durable.checkpoint"):
                    service.checkpoint()
                continue
            self.outcome.attempted += 1
            if mirrors is not None:
                wal_before, segments_before = engine.wal.position, engine.num_segments
            try:
                with tracer.span(f"service.{op.kind}", rid=position) as record:
                    if op.kind == "insert":
                        oid = service.insert(*data.pair(data.initial + op.index))
                        ok = oid == data.initial + op.index
                    else:
                        ok = service.delete(op.index)
            except SealError as exc:
                self.outcome.failed += 1
                self.outcome.error(f"{op.kind} failed: {exc!r}")
                continue
            if not ok:
                self.outcome.error(f"{op.kind} at op {position} returned {ok!r}")
            if engine.compactions != compactions:
                compactions = engine.compactions
                self.compacted_at.append(position)
            if mirrors is not None:
                record["wal_bytes"] = engine.wal.position - wal_before
                record["sealed"] = op.kind == "insert" and engine.pending == 0
                record["merges"] = (segments_before + record["sealed"] - engine.num_segments) \
                    // (engine.merge_fanout - 1)
                mirrors.mutate(op, data, position)
        return time.perf_counter() - started

    def checks(self) -> List[Optional[List[int]]]:
        """Answers to the first ``check_count`` pool queries."""
        return [self.query(i, -1) for i in range(min(len(self.queries), self.check_count))]

    def restart(self) -> float:
        """Close the engine, then ``recover()`` until the first answer."""
        self.service.engine.close()
        started = time.perf_counter()
        with self.tracer.span("restart"):
            self.outcome.attempted += 1
            self.service.recover(self.snapshot, self.wal)
            self.query(0, -1)
        return time.perf_counter() - started

    def disk_bytes(self) -> int:
        return file_bytes(self.wal) + snapshot_bytes(self.snapshot)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service.engine.close()
            self.service = None


class Mirrors:
    """Traced-run twins of the live engine: a durable one and a bare
    segmented one, fed the same mutations, for the logging and service
    self times, plus the bare-engine replay of each stream query."""

    def __init__(self, data: ChurnInputs, directory: Path, tracer: Tracer) -> None:
        initial = [data.pair(oid) for oid in range(data.initial)]
        directory.mkdir(parents=True, exist_ok=True)
        self.durable = DurableSegmentedSealSearch.create(
            initial, method="hash-hybrid", wal_path=directory / "mirror.wal",
            snapshot_path=directory / "mirror.pkl")
        self.bare = SegmentedSealSearch(initial, method="hash-hybrid")
        self.tracer = tracer

    def mutate(self, op: inputs.Op, data: ChurnInputs, position: int) -> None:
        for name, engine in (("durable", self.durable), ("bare", self.bare)):
            with self.tracer.span(f"{name}.{op.kind}", rid=position):
                if op.kind == "insert":
                    engine.insert(*data.pair(data.initial + op.index))
                else:
                    engine.delete(op.index)

    def engine_query(self, engine, query: Query, position: int) -> None:
        with self.tracer.span("engine", rid=position) as record:
            result = engine.engine.search_query(query)
        stats = result.stats
        record.update(candidates=stats.candidates, entries=stats.entries_retrieved,
                      lists=stats.lists_probed, answers=stats.results,
                      sources=len(stats.per_source), filter_s=stats.filter_seconds,
                      verify_s=stats.verify_seconds)

    def close(self) -> None:
        self.durable.close()


def verify_churn(data: ChurnInputs, result: "RoundResult", oracle: Oracle,
                 outcome: Outcome) -> None:
    """Replay the stream in the oracle and check every recorded answer.

    Between full compactions the engine answers with idf weights frozen
    at the last one (the idf-drift rule of ``repro.exec.segments``); the
    engine's public ``compactions`` counter says where they happened.
    """
    oracle.live[:] = False
    oracle.live[: data.initial] = True
    oracle.freeze_weights(range(data.initial))
    compacted_at = set(result.compacted_at)
    specs = data.queries

    def check(spec: inputs.QuerySpec, answers: Optional[List[int]], where: str) -> None:
        if answers is None:
            return
        problem = oracle.check(spec.box, spec.tokens, spec.tau_r, spec.tau_t, answers)
        if problem:
            outcome.error(f"{where}: {problem}")

    for position, op in enumerate(data.ops):
        if op.kind == "insert":
            oracle.live[data.initial + op.index] = True
        elif op.kind == "delete":
            oracle.live[op.index] = False
        elif op.kind == "query":
            check(specs[op.index], result.answers.get(position), f"stream op {position}")
        if position in compacted_at:
            oracle.freeze_weights(np.flatnonzero(oracle.live).tolist())
    for i, answers in enumerate(result.before):
        check(specs[i], answers, f"check {i} before restart")
    if result.after != result.before:
        outcome.error("answers after recover() differ from the answers before the restart")
    oracle.freeze_weights(np.flatnonzero(oracle.live).tolist())
    for i, answers in enumerate(result.compacted):
        check(specs[i], answers, f"check {i} after recover+compact")
    live = int(np.count_nonzero(oracle.live))
    if result.live != live:
        outcome.error(f"engine holds {result.live} live objects, the stream left {live}")


@dataclass
class RoundResult:
    """What one churn round measured and recorded, for the parent to check."""

    setups: List[float]
    stream_s: float
    query_latencies: List[float]
    wal_syncs: int
    answers: Dict[int, List[int]]
    compacted_at: List[int]
    before: List[Optional[List[int]]]
    after: List[Optional[List[int]]]
    compacted: List[Optional[List[int]]]
    disk: int
    restart_s: float
    live: int
    recovery: Dict
    peak_rss_mb: float
    outcome: Outcome


def churn_round(data: ChurnInputs, directory: Path, scale: Scale,
                tracer: Tracer) -> RoundResult:
    """One round: ``scale.churn_setups`` creates (the last one is kept), the stream,
    the checks, ``recover()`` and ``compact()``.  A traced round makes
    one create and runs the mirrors and the recovery replay beside it."""
    outcome = Outcome()
    setups: List[float] = []
    for attempt in range(1 if tracer.enabled else scale.churn_setups):
        if attempt:
            churn.close()
        churn = ChurnRound(data, directory / f"churn-{attempt}", scale.churn_checks,
                           tracer, outcome)
        setups.append(churn.create())
    mirrors = Mirrors(data, directory / "mirrors", tracer) if tracer.enabled else None
    try:
        wal_syncs = churn.service.engine.wal.syncs
        stream_s = churn.stream(mirrors)
        wal_syncs = churn.service.engine.wal.syncs - wal_syncs
        before = churn.checks()
        disk = churn.disk_bytes()
        if tracer.enabled:
            replay_recovery(churn, tracer)
        restart_s = churn.restart()
        after = churn.checks()
        recovery = dict(churn.service.engine.recovery)
        outcome.attempted += 1
        churn.service.compact()
        compacted = churn.checks()
        live = len(churn.service.engine)
    finally:
        churn.close()
        if mirrors is not None:
            mirrors.close()
    return RoundResult(setups, stream_s, churn.query_latencies, wal_syncs, churn.answers,
                       churn.compacted_at, before, after, compacted, disk, restart_s, live,
                       recovery, peak_rss_mb(resource.RUSAGE_SELF), outcome)


def churn_round_child(connection, data: ChurnInputs, directory: str, scale: Scale) -> None:
    """:func:`churn_round` in a process of its own, so that its peak
    resident set is the engine's and not the benchmark's."""
    connection.send(churn_round(data, Path(directory), scale, Tracer(False)))
    connection.close()


def spawned_churn_round(data: ChurnInputs, directory: Path, scale: Scale) -> RoundResult:
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=churn_round_child, args=(sender, data, str(directory), scale),
                              name="perfbench-churn")
    process.start()
    sender.close()
    try:
        result = receiver.recv()
    except EOFError:
        raise SystemExit("perfbench: the churn round process ended without a result")
    finally:
        process.join(timeout=60)
        if process.is_alive():
            process.terminate()
            process.join(timeout=10)
        receiver.close()
    return result


def durable_churn(seed: int, seconds: float, tracer: Tracer, scale: Scale,
                  workdir: Path) -> Outcome:
    outcome = Outcome()
    data = churn_inputs(seed, scale)
    outcome.fingerprint = inputs.fingerprint(data.ops, data.boxes, data.token_sets, data.queries)
    oracle = Oracle(data.boxes, data.token_sets)
    mutation_count = sum(op.kind in ("insert", "delete") for op in data.ops)

    setups: List[float] = []
    restarts: List[float] = []
    disks: List[int] = []
    throughputs: List[float] = []
    latencies: List[float] = []
    peaks: List[float] = []
    stream_seconds = 0.0
    # Whole rounds until the streams have run for ``seconds``; a traced
    # run makes one round, in this process.
    for number in itertools.count():
        directory = workdir / f"round-{number}"
        if tracer.enabled:
            result = churn_round(data, directory, scale, tracer)
        else:
            result = spawned_churn_round(data, directory, scale)
        shutil.rmtree(directory, ignore_errors=True)
        outcome.attempted += result.outcome.attempted
        outcome.failed += result.outcome.failed
        for message in result.outcome.errors:
            outcome.error(message)
        setups.extend(result.setups)
        restarts.append(result.restart_s)
        disks.append(result.disk)
        peaks.append(result.peak_rss_mb)
        latencies.extend(result.query_latencies)
        throughputs.append((len(result.query_latencies) + mutation_count) / result.stream_s)
        stream_seconds += result.stream_s
        verify_churn(data, result, oracle, outcome)
        if tracer.enabled or stream_seconds >= seconds:
            break

    if not tracer.enabled:
        outcome.samples = len(latencies)
        outcome.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_ms": (pct(latencies, 50) * 1e3, "ms"),
            "query_p90_ms": (pct(latencies, 90) * 1e3, "ms"),
            "throughput_ops_per_s": (statistics.median(throughputs), "ops/s"),
            "restart_s": (statistics.median(restarts), "s"),
            "peak_rss_mb": (max(peaks), "MB"),
            "disk_mb": (statistics.median(disks) / 1e6, "MB"),
        }
        return outcome

    metrics = zero_layer_metrics()
    mutations = tracer.named("service.insert") + tracer.named("service.delete")
    seals = [s for s in mutations if s.get("sealed")]
    engine_spans = tracer.named("engine")
    builder = make_corpus([data.pair(oid) for oid in range(data.initial)])
    with tracer.span("build.hash-hybrid"):
        build_method(builder, "hash-hybrid", TokenWeighter(o.tokens for o in builder))
    metrics.update(engine_counts(
        [s["candidates"] for s in engine_spans], [s["entries"] for s in engine_spans],
        [s["lists"] for s in engine_spans], [s["answers"] for s in engine_spans]))
    metrics.update({
        "build.hash-hybrid_s": (tracer.seconds("build.hash-hybrid")[0], "s"),
        "engine.query_ms": (pct(tracer.seconds("engine"), 50) * 1e3, "ms"),
        "engine.filter_ms": (pct([s["filter_s"] for s in engine_spans], 50) * 1e3, "ms"),
        "engine.verify_ms": (pct([s["verify_s"] for s in engine_spans], 50) * 1e3, "ms"),
        "service.self_ms": (pct(service_self(tracer, "service.query"), 50) * 1e3, "ms"),
        "segments.sources_per_query": (mean([s["sources"] for s in engine_spans]), "ratio"),
        "segments.seals": (len(seals), "count"),
        "segments.merges": (sum(s["merges"] for s in seals), "count"),
        "segments.compactions": (len(result.compacted_at), "count"),
        "segments.stall_s": (sum(s["end"] - s["start"] for s in seals), "s"),
        "wal.bytes_per_op": (sum(s["wal_bytes"] for s in mutations) / max(1, len(mutations)), "ratio"),
        "wal.syncs": (result.wal_syncs, "count"),
        "durable.log_ms": (pct(tracer.self_seconds("durable.insert", "bare.insert"), 50) * 1e3, "ms"),
        "service.write_self_ms": (pct(tracer.self_seconds("service.insert", "durable.insert"), 50) * 1e3, "ms"),
        "insert_p50_ms": (pct(tracer.seconds("service.insert"), 50) * 1e3, "ms"),
        "durable.checkpoint_s": (tracer.seconds("durable.checkpoint")[0], "s"),
        "recover.read_wal_s": (tracer.seconds("recover.read_wal")[0], "s"),
        "recover.load_s": (tracer.seconds("recover.load")[0], "s"),
        "recover.replay_s": (tracer.seconds("recover.replay")[0], "s"),
        "recover.records": (result.recovery["records_replayed"], "count"),
        "trace.overhead_pct": (overhead_pct(latencies[0::2], tracer.seconds("service.query")), "%"),
    })
    outcome.metrics = metrics
    return outcome


def replay_recovery(churn: ChurnRound, tracer: Tracer) -> None:
    """Recovery's three steps timed from outside, on copies of the files."""
    copy = churn.directory / "replay"
    copy.mkdir()
    wal = shutil.copy(churn.wal, copy / churn.wal.name)
    snapshot = shutil.copy(churn.snapshot, copy / churn.snapshot.name)
    if sidecar_path(churn.snapshot).exists():
        shutil.copy(sidecar_path(churn.snapshot), sidecar_path(snapshot))
    position = validate_snapshot(snapshot)["wal"]
    with tracer.span("recover.read_wal"):
        contents = read_wal(wal)
    with tracer.span("recover.load"):
        engine = load_engine(snapshot)
    start = position["offset"] if contents.generation == position["generation"] else 0
    with tracer.span("recover.replay"):
        replay_records(engine, [record.payload for record in contents.operations(start)])
