"""``docs/metrics.md`` lists every ``repro_*`` metric, and only those.

The rows and the names registered in ``src/`` match one to one, kind
included, and a served run with the feedback loop on registers no
metric the document does not have a row for.
"""

import pathlib
import re

from repro.service import Session, SessionConfig
from repro.serving import QueryServer, TenantSpec
from repro.workloads import TpchConfig, build_tpch_database

ROOT = pathlib.Path(__file__).parent.parent
DOC = ROOT / "docs" / "metrics.md"

ROW = re.compile(r"^\| `(repro_\w+)` \| (counter|gauge|histogram) \|", re.M)
REGISTRATION = re.compile(r"\.(counter|gauge|histogram)\(\s*\"(repro_\w+)\"")


def documented() -> dict[str, str]:
    rows = ROW.findall(DOC.read_text())
    names = [name for name, _ in rows]
    assert len(names) == len(set(names)), "a metric has two rows"
    return {name: kind for name, kind in rows}


def registered_in_src() -> dict[str, str]:
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for kind, name in REGISTRATION.findall(path.read_text()):
            assert found.setdefault(name, kind) == kind, (
                f"{name} registered as {found[name]} and {kind}"
            )
    return found


def test_rows_match_src_registrations_one_to_one():
    assert documented() == registered_in_src()


def test_a_served_run_with_feedback_registers_only_documented_metrics():
    database = build_tpch_database(TpchConfig(num_lineitem=1500, seed=3))
    query = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"
    config = SessionConfig(sample_size=48, statistics_seed=3)
    registries = []
    with QueryServer(
        [TenantSpec(name="t", database=database, config=config,
                    feedback=True)],
        worker_threads=1,
    ) as server:
        for _ in range(3):
            server.serve("t", query)
        session = server.session("t")
        session.cache_stats()
        server.swap_statistics("t", session.statistics)
        server.serve("t", query)
        registries += [server.metrics, session.metrics]
    with Session(database, config=config) as session:
        session.enable_feedback()
        session.execute(query)
        session.refresh_statistics()
        session.cache_stats()
        registries.append(session.metrics)
    emitted = {name for registry in registries for name in registry.to_json()}
    assert "repro_feedback_qerror" in emitted
    assert "repro_serving_latency_seconds" in emitted
    assert emitted - set(documented()) == set()
