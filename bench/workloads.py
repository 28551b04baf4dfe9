"""The four workloads: their request streams, set-up, and closed loops.

Every workload is a closed loop with a fixed request count (a constant
rate times ``--seconds``), so counts, plans and simulated seconds repeat
exactly for one seed. Data is fixed; only the statement stream depends
on the seed. A run is cut into equal segments with a calibration burst
(``bench.calibrate``) at every boundary, outside the timed segments. The
program is driven through ``Session.prepare /
prepare_many / refresh_statistics / enable_feedback``,
``PreparedQuery.execute`` and ``QueryServer.serve`` only.
"""

from __future__ import annotations

import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service import Session, SessionConfig
from repro.serving import AdmissionConfig, QueryServer, TenantSpec
from repro.workloads import (
    SnowflakeConfig,
    StarConfig,
    TpchConfig,
    build_snowflake_database,
    build_star_database,
    build_tpch_database,
)

from bench.calibrate import Calibrator
from bench.reference import Reference, same
from bench.statements import EXECUTED_LANE, LANES, Request, digest_of, draw

SEGMENTS = 20
#: Share of requests whose answers are compared with the reference.
CHECKED_SHARE = 0.05

TPCH_FAMILIES = ("li_dates", "part_corr", "cust_join", "cust_groups")
#: Four in seven single-table, like the program's own query battery; an
#: uneven split keeps the median latency inside one family's mode.
CHURN_FAMILIES = (
    "li_dates", "part_corr", "li_dates", "cust_join", "li_dates", "cust_groups",
    "li_dates",
)
PLAN_COLD_FAMILIES = (
    "li_dates", "part_corr", "cust_join", "star4", "snow_chain", "markup",
    "promo_band",
)


@dataclass(frozen=True)
class Scale:
    """Database sizes; ``smoke`` exists for the harness's own tests."""

    small_rows: int
    exec_rows: int
    churn_rows: int
    sample_size: int
    #: Multiplier on every workload's request rate.
    rate: float


SCALES = {
    "full": Scale(20_000, 600_000, 60_000, 500, 1.0),
    "smoke": Scale(4_000, 20_000, 6_000, 200, 0.1),
}


@dataclass
class Segment:
    count: int
    wall_seconds: float
    cpu_seconds: float
    #: Mean of the calibration bursts before and after the segment.
    machine_factor: float


@dataclass
class RunLog:
    """What one pass over a stream observed, before it is summarized."""

    calibrator: Calibrator
    #: Raw seconds per request (``nan`` where the request raised).
    latencies: np.ndarray
    #: ``perf_counter`` when each request completed.
    ended: np.ndarray
    segments: list = field(default_factory=list)
    #: Simulated seconds of each executed request, in request order.
    sims: list = field(default_factory=list)
    #: Per request: result columns (direct) or (rows, simulated) (served).
    results: list = field(default_factory=list)
    #: Per request: the executed plan's operator tree (direct only).
    plans: list = field(default_factory=list)
    #: Per freshly planned request: how many full plans were considered.
    alternatives: list = field(default_factory=list)
    #: Per request: the ``ServedQuery`` reply (served only).
    replies: list = field(default_factory=list)
    raised: int = 0
    rss_mib: list = field(default_factory=list)

    @classmethod
    def start(cls, count: int) -> "RunLog":
        """A log for ``count`` requests, opened with a calibration burst."""
        log = cls(Calibrator(), np.full(count, np.nan), np.zeros(count))
        log.calibrator.burst()
        return log

    def close_segment(self, count: int, wall: float, cpu: float) -> None:
        """Record a timed segment and calibrate again, outside it."""
        before = self.calibrator.factors[-1]
        after = self.calibrator.burst()
        self.segments.append(Segment(count, wall, cpu, (before + after) / 2))
        self.rss_mib.append(peak_rss_mib())

    def normalized_latencies(self) -> np.ndarray:
        """Seconds per completed request at nominal machine speed."""
        done = ~np.isnan(self.latencies)
        return self.latencies[done] / self.calibrator.factor_at(self.ended[done])

    def throughputs(self) -> list[float]:
        """Requests per nominal second, per segment."""
        return [
            s.count / s.wall_seconds * s.machine_factor for s in self.segments
        ]

    def cpu_seconds(self) -> float:
        return sum(s.cpu_seconds / s.machine_factor for s in self.segments)


def _segment_bounds(count: int) -> list[tuple[int, int]]:
    edges = [round(i * count / SEGMENTS) for i in range(SEGMENTS + 1)]
    return list(zip(edges, edges[1:]))


def _proportional(weights: np.ndarray, count: int) -> np.ndarray:
    """Item indices, ``count`` long, holding ``weights``' proportions
    exactly (largest remainder)."""
    exact = weights / weights.sum() * count
    counts = np.floor(exact).astype(int)
    short = count - counts.sum()
    counts[np.argsort(exact - counts)[::-1][:short]] += 1
    return np.repeat(np.arange(len(weights)), counts)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Direct workloads: one client thread calling Session
# ----------------------------------------------------------------------
class DirectWorkload:
    """One client, one or more direct ``Session``s."""

    clients = 1

    def __init__(
        self, name, rate, families, databases, make_requests, *,
        feedback=False, refresh_every=0,
    ) -> None:
        self.name = name
        self.families = families
        #: Requests per second of ``--seconds`` (sized on the seed commit
        #: so the timed loop lasts about ``--seconds``).
        self.rate = rate
        self._databases = databases
        self._make_requests = make_requests
        self.feedback = feedback
        self.refresh_every = refresh_every

    def requests(self, seed: int, count: int) -> list[Request]:
        return self._make_requests(count, np.random.default_rng(seed))

    def set_up(self, scale: Scale, requests, decorate=None) -> dict:
        """Databases, statistics, sessions: everything ``setup_s`` times."""
        sessions = {}
        for key, database in self._databases(scale).items():
            session = Session(database, sample_size=scale.sample_size)
            if decorate is not None:
                session.estimator_decorator = decorate
            if self.feedback:
                session.enable_feedback()
            session.refresh_statistics()
            sessions[key] = session
        return sessions

    def sessions(self, target) -> list[Session]:
        return list(target.values())

    def close(self, target) -> None:
        for session in target.values():
            session.close()

    def run(self, target, requests, tracer=None) -> RunLog:
        log = RunLog.start(len(requests))
        latencies, ended_at = log.latencies, log.ended
        clock = time.perf_counter
        for low, high in _segment_bounds(len(requests)):
            cpu_started = time.process_time()
            segment_started = clock()
            for index in range(low, high):
                request = requests[index]
                if self.refresh_every and index and index % self.refresh_every == 0:
                    target["tpch"].refresh_statistics(seed=index)
                session = target[request.statement.database]
                sql = request.statement.sql
                if tracer is not None:
                    tracer.begin_request(index)
                started = clock()
                try:
                    if request.lanes is not None:
                        prepared = session.prepare_many(sql, request.lanes)[
                            EXECUTED_LANE
                        ]
                    else:
                        prepared = session.prepare(sql, policy=request.policy)
                    result = prepared.execute()
                except Exception:
                    log.raised += 1
                    log.results.append(None)
                    log.plans.append(None)
                    continue
                finally:
                    ended = ended_at[index] = clock()
                    if tracer is not None:
                        tracer.end_request()
                latencies[index] = ended - started
                frame = result.frame
                log.sims.append(result.simulated_seconds)
                log.results.append(
                    {n: frame.column(n).tolist() for n in frame.column_names}
                )
                log.plans.append(prepared.plan)
                if not prepared.from_cache:
                    log.alternatives.append(len(prepared.planned.alternatives))
            wall = clock() - segment_started
            log.close_segment(high - low, wall, time.process_time() - cpu_started)
        return log

    def plan_digest(self, target, requests, log: RunLog) -> str:
        return digest_of(
            plan.explain() if plan is not None else "failed" for plan in log.plans
        )

    def wrong_answers(self, target, requests, log: RunLog, seed: int) -> int:
        """Requests in the seeded sample whose result differs from the
        reference's (computed here, outside the timed region)."""
        rng = np.random.default_rng([seed, 1])
        sample = rng.choice(
            len(requests), size=max(1, int(len(requests) * CHECKED_SHARE)),
            replace=False,
        )
        references = {
            key: Reference(session.database) for key, session in target.items()
        }
        expected: dict[str, dict] = {}
        wrong = 0
        for index in sample.tolist():
            statement = requests[index].statement
            if log.results[index] is None:
                continue  # already counted as raised
            if statement.sql not in expected:
                expected[statement.sql] = references[
                    statement.database
                ].evaluate(statement.spec)
            wrong += not same(expected[statement.sql], log.results[index])
        return wrong


def _small_databases(scale: Scale) -> dict:
    rows = scale.small_rows
    return {
        "tpch": build_tpch_database(TpchConfig(num_lineitem=rows, seed=1)),
        "star": build_star_database(StarConfig(num_fact=rows, seed=1)),
        "snow": build_snowflake_database(SnowflakeConfig(num_sales=rows, seed=1)),
    }


def _plan_cold_requests(count: int, rng) -> list[Request]:
    # 70 % threshold prepare, 15 % 5-lane prepare_many, 15 % CVaR. The
    # cycle length (20) is coprime to the family count (7), so every
    # family sees the same policy mix.
    cycle = ["threshold"] * 14 + ["many"] * 3 + ["cvar"] * 3
    requests = []
    for position, statement in enumerate(draw(PLAN_COLD_FAMILIES, count, rng)):
        kind = cycle[position % len(cycle)]
        if kind == "many":
            requests.append(Request(statement, lanes=LANES))
        elif kind == "cvar":
            requests.append(Request(statement, policy="cvar:0.9:32"))
        else:
            requests.append(Request(statement, policy="threshold:0.8"))
    return [requests[i] for i in rng.permutation(count)]


def _exec_scale_requests(count: int, rng) -> list[Request]:
    statements = draw(TPCH_FAMILIES, count, rng)
    return [
        Request(statements[i], policy="threshold:0.8")
        for i in rng.permutation(count)
    ]


CHURN_HOT_SET = 30
#: Hot sets are the same statements under every seed; the seed decides
#: the order they are asked in. The optimizer's choice flips on small
#: changes of a literal (a seek at 0.07 simulated seconds, a scan at 0.21),
#: and a hot set repeats each statement thousands of times, so a seeded
#: hot set would make every metric depend on the luck of a few literals.
HOT_SET_SEED = 0


def _feedback_churn_requests(count: int, rng) -> list[Request]:
    # Session-default policy, so the feedback router is free to route.
    hot = draw(CHURN_FAMILIES, CHURN_HOT_SET, np.random.default_rng(HOT_SET_SEED))
    picks = _proportional(np.ones(CHURN_HOT_SET), count)
    return [Request(hot[i]) for i in picks[rng.permutation(count)]]


# ----------------------------------------------------------------------
# Served workload: client threads calling QueryServer.serve
# ----------------------------------------------------------------------
SERVED_HOT_SET = 42
ZIPF_EXPONENT = 1.1
TENANTS = ("a", "b")


class ServedWorkload:
    """Two tenants behind a ``QueryServer``, two closed-loop clients."""

    name = "served_hot"
    families = TPCH_FAMILIES
    clients = 2
    worker_threads = 2

    def __init__(self, rate) -> None:
        self.rate = rate

    def requests(self, seed: int, count: int) -> list[Request]:
        rng = np.random.default_rng(seed)
        hot_rng = np.random.default_rng(HOT_SET_SEED)
        weights = np.arange(1, SERVED_HOT_SET + 1, dtype=float) ** -ZIPF_EXPONENT
        requests = []
        for position, tenant in enumerate(TENANTS):
            hot = draw(TPCH_FAMILIES, SERVED_HOT_SET, hot_rng)
            share = len(range(position, count, len(TENANTS)))
            # Three prepare-only to two executing: an even split would put
            # the median latency between the two modes, where it repeats
            # badly. Which requests execute is seeded.
            executes = rng.permutation(share) < 0.4 * share
            for rank, execute in zip(_proportional(weights, share), executes):
                requests.append(
                    Request(hot[rank], tenant=tenant, execute=bool(execute))
                )
        return [requests[i] for i in rng.permutation(count)]

    def hot_statements(self, requests) -> list[tuple[str, object]]:
        """Distinct (tenant, statement) pairs, in first-use order."""
        seen = {}
        for request in requests:
            seen.setdefault((request.tenant, request.statement.sql), request)
        return [(r.tenant, r.statement) for r in seen.values()]

    def set_up(
        self, scale: Scale, requests, decorate=None, *, worker_threads=None
    ) -> QueryServer:
        config = SessionConfig(sample_size=scale.sample_size)
        tenants = [
            TenantSpec(
                name,
                build_tpch_database(
                    TpchConfig(num_lineitem=scale.small_rows, seed=seed)
                ),
                config=config,
            )
            for seed, name in enumerate(TENANTS, start=1)
        ]
        server = QueryServer(
            tenants,
            worker_threads=worker_threads or self.worker_threads,
            admission=AdmissionConfig(),
        )
        if decorate is not None:
            for name in TENANTS:
                server.session(name).estimator_decorator = decorate
        # The untimed warm-up pass: every hot statement once, so plans
        # and base scans are cached before the first timed request.
        for tenant, statement in self.hot_statements(requests):
            server.serve(tenant, statement.sql)
        return server

    def sessions(self, target) -> list[Session]:
        return [target.session(name) for name in TENANTS]

    def close(self, target) -> None:
        target.close()

    def run(self, target, requests, tracer=None, *, clients=None) -> RunLog:
        clients = clients or self.clients
        count = len(requests)
        log = RunLog.start(count)
        latencies, ended_at = log.latencies, log.ended
        served = [None] * count
        raised = [0] * clients
        barrier = threading.Barrier(clients + 1)
        bounds = _segment_bounds(count)
        clock = time.perf_counter

        def client(number: int) -> None:
            for low, high in bounds:
                barrier.wait()
                for index in range(low + number, high, clients):
                    request = requests[index]
                    if tracer is not None:
                        tracer.begin_request(index)
                    started = clock()
                    try:
                        served[index] = target.serve(
                            request.tenant, request.statement.sql,
                            execute=request.execute,
                        )
                    except Exception:
                        raised[number] += 1
                        continue
                    finally:
                        ended = ended_at[index] = clock()
                        if tracer is not None:
                            tracer.end_request()
                    latencies[index] = ended - started
                barrier.wait()

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(clients)
        ]
        for thread in threads:
            thread.start()
        # Clients are parked on the barrier while the kernel is timed, so
        # calibration and load never compete for the interpreter lock.
        for low, high in bounds:
            cpu_started = time.process_time()
            barrier.wait()
            segment_started = clock()
            barrier.wait()
            wall = clock() - segment_started
            log.close_segment(high - low, wall, time.process_time() - cpu_started)
        for thread in threads:
            thread.join()
        log.raised = sum(raised)
        log.replies = served
        for request, reply in zip(requests, served):
            if reply is None:
                log.results.append(None)
                continue
            log.results.append((reply.rows, reply.simulated_seconds))
            if request.execute:
                log.sims.append(reply.simulated_seconds)
        return log

    def plan_digest(self, target, requests, log: RunLog) -> str:
        # ``serve`` returns no plan; the cached plan of every hot
        # statement is read back through the tenant's session.
        return digest_of(
            target.session(tenant).prepare(statement.sql).explain()
            for tenant, statement in self.hot_statements(requests)
        )

    def wrong_answers(self, target, requests, log: RunLog, seed: int) -> int:
        """Every hot statement is replayed on its tenant's session and
        compared with the reference; every served reply must then agree
        with that replay on rows and simulated seconds."""
        replay = {}
        wrong_statements = set()
        for tenant, statement in self.hot_statements(requests):
            session = target.session(tenant)
            result = session.prepare(statement.sql).execute()
            frame = result.frame
            columns = {n: frame.column(n).tolist() for n in frame.column_names}
            expected = Reference(session.database).evaluate(statement.spec)
            if not same(expected, columns):
                wrong_statements.add((tenant, statement.sql))
            replay[(tenant, statement.sql)] = (
                result.num_rows, result.simulated_seconds
            )
        wrong = 0
        for request, reply in zip(requests, log.results):
            if reply is None:
                continue
            key = (request.tenant, request.statement.sql)
            if key in wrong_statements:
                wrong += 1
            elif request.execute and reply != replay[key]:
                wrong += 1
        return wrong


def build_workloads() -> dict:
    """name -> workload. Rates are requests per ``--seconds`` second,
    sized on the seed commit (2 cores) so a run measures for about
    ``--seconds``."""
    return {
        "plan_cold": DirectWorkload(
            "plan_cold", 130, PLAN_COLD_FAMILIES, _small_databases,
            _plan_cold_requests,
        ),
        "exec_scale": DirectWorkload(
            "exec_scale", 28, TPCH_FAMILIES,
            lambda scale: {
                "tpch": build_tpch_database(
                    TpchConfig(num_lineitem=scale.exec_rows, seed=1)
                )
            },
            _exec_scale_requests,
        ),
        "served_hot": ServedWorkload(1450),
        "feedback_churn": DirectWorkload(
            "feedback_churn", 180, CHURN_FAMILIES,
            lambda scale: {
                "tpch": build_tpch_database(
                    TpchConfig(num_lineitem=scale.churn_rows, seed=1)
                )
            },
            _feedback_churn_requests,
            feedback=True, refresh_every=50,
        ),
    }


def request_count(workload, scale: Scale, seconds: float) -> int:
    """The fixed request count of a run: rate x seconds, rounded up to a
    multiple of the segment count."""
    wanted = workload.rate * scale.rate * seconds
    return max(SEGMENTS * 4, int(-(-wanted // SEGMENTS)) * SEGMENTS)
