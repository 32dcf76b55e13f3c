"""E16 — the typecheck service: daemon overhead and persistent warmth.

The service exists so that the expensive automata constructions behind
Theorem 4.4 are paid once per *fingerprint*, not once per process: the
pool workers share an on-disk memo cache that survives restarts.  This
experiment prices the two claims that justify the daemon: (1) the
round-trip overhead of a served job (socket + journal + pipe) stays in
tens of milliseconds over the bare supervised call, and (2) a freshly
restarted daemon — new process, new forked workers, nothing warm in
memory — answers a repeated E10 typecheck suite faster than the cold
daemon did, with the difference attributed to persistent-tier cache
hits (a fresh worker reads its warmth from disk on demand, so the hits
are visibly disk-tier, exactly as the kill -9 acceptance test demands).
"""

import time

from conftest import report
from repro.runtime.service import ServiceClient, ServiceConfig, ServiceDaemon
from repro.runtime.supervisor import OK, JobSpec

DTD = "doc := sec*\nsec := par*\npar :="
SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="sec"><sec><xsl:apply-templates/></sec>'
    "</xsl:template>"
    '<xsl:template match="par"><par/></xsl:template>'
)


def typecheck_specs(generation: str, count: int = 4) -> list[JobSpec]:
    # distinct ids per generation, identical params: the cache keys on
    # content fingerprints, so every generation after the first is warm
    return [
        JobSpec(
            id=f"e16-{generation}-{i}",
            kind="typecheck",
            params={
                "stylesheet_text": SHEET,
                "input_dtd_text": DTD,
                "output_dtd_text": DTD,
                "method": "exact",
            },
        )
        for i in range(count)
    ]


def _run_generation(directory, generation: str) -> tuple[float, list]:
    """One daemon lifetime: start, submit the suite, drain.

    Returns the submission wall time (daemon startup excluded — the
    claim is about serving, not forking) and each job's cache delta.
    """
    daemon = ServiceDaemon(ServiceConfig(directory=str(directory), workers=1))
    daemon.start()
    try:
        client = ServiceClient(daemon.socket_path)
        deltas: list[dict] = []
        start = time.perf_counter()
        for spec in typecheck_specs(generation):
            response = client.submit(spec, timeout=300.0)
            assert response["ok"] and response["result"]["status"] == OK
            deltas.append(response["result"]["detail"]["stats"]["cache"])
        wall = time.perf_counter() - start
        return wall, deltas
    finally:
        daemon.drain()


def test_persistent_cache_survives_a_daemon_restart(tmp_path, once):
    state = tmp_path / "state"

    def both_generations():
        cold_wall, cold_deltas = _run_generation(state, "cold")
        warm_wall, warm_deltas = _run_generation(state, "warm")
        return cold_wall, cold_deltas, warm_wall, warm_deltas

    cold_wall, cold_deltas, warm_wall, warm_deltas = once(both_generations)

    warm_hits = sum(d["persistent"]["hits"] for d in warm_deltas)
    report("E16 cold vs persistent-warm E10 suite (4 jobs)", [
        ("cold daemon", f"{cold_wall:.3f} s"),
        ("restarted daemon", f"{warm_wall:.3f} s"),
        ("speedup", f"{cold_wall / max(warm_wall, 1e-9):.2f}x"),
        ("disk hits (warm generation)", warm_hits),
    ])
    # the first cold job populates the disk tier...
    assert cold_deltas[0]["persistent"]["stores"] > 0
    # ...and the restarted daemon's fresh worker serves its first job
    # from disk (later jobs hit the memory tier the disk hits promoted
    # into, which is the point of promotion)
    assert warm_deltas[0]["persistent"]["hits"] > 0
    assert warm_wall < cold_wall


def test_service_round_trip_overhead(tmp_path, once):
    from repro.runtime.jobs import execute_job

    spec = JobSpec(
        id="rt", kind="validate",
        params={"dtd_text": "doc := item*\nitem :=",
                "document_text": "<doc><item/></doc>"},
    )
    payload = {"kind": spec.kind, "params": dict(spec.params)}
    execute_job(payload)  # warm the parent's imports

    rounds = 20
    start = time.perf_counter()
    for _ in range(rounds):
        execute_job(payload)
    bare = (time.perf_counter() - start) / rounds

    daemon = ServiceDaemon(ServiceConfig(
        directory=str(tmp_path / "state"), workers=1,
    ))
    daemon.start()
    try:
        client = ServiceClient(daemon.socket_path)

        def served_round():
            for i in range(rounds):
                response = client.submit(JobSpec(
                    id=f"rt-{time.monotonic_ns()}-{i}", kind=spec.kind,
                    params=dict(spec.params),
                ))
                assert response["result"]["status"] == OK

        once(served_round)
        start = time.perf_counter()
        served_round()
        served = (time.perf_counter() - start) / rounds
    finally:
        daemon.drain()

    report("E16 per-job service round trip", [
        ("in-process", f"{bare * 1000:.1f} ms"),
        ("served (socket+journal+pipe)", f"{served * 1000:.1f} ms"),
        ("overhead", f"{(served - bare) * 1000:.1f} ms"),
    ])
    # the warm pool must not cost anything like a per-job fork
    assert served - bare < 1.0
