"""Thread-level concurrency: concurrent route() calls and coexisting
ECO sessions.

The serving layer runs cold `/route` jobs in worker processes but warm
ECO jobs (`/eco/begin`, `/eco/reroute`) from a thread pool, so the
library must tolerate concurrent `route()` calls and multiple live
EcoSessions in one process — no shared mutable state between
independent requests.
"""

from __future__ import annotations

import threading

from repro.api import RouteRequest, begin_eco, route
from repro.stringer import Stringer
from repro.workloads import make_titan_board


def _problem(seed=3):
    board = make_titan_board("tna", scale=0.25, seed=seed)
    return board, Stringer(board).string_all()


class TestThreadedRouting:
    def test_parallel_cold_routes_from_threads(self):
        """Four threads, four independent boards, zero cross-talk."""
        results = {}
        errors = []

        def worker(seed):
            try:
                board, connections = _problem(seed)
                request = RouteRequest(board=board, connections=connections)
                response = route(request)
                results[seed] = response
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((seed, exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in (3, 4, 5, 6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 4
        for seed, response in results.items():
            assert response.result.complete, f"seed {seed} incomplete"

    def test_same_seed_routes_identically_across_threads(self):
        """Concurrent routing is deterministic — no hidden shared state."""
        digests = []
        lock = threading.Lock()

        def worker():
            board, connections = _problem(seed=3)
            response = route(
                RouteRequest(board=board, connections=connections)
            )
            assert response.result.complete
            digest = response.result.workspace.state_digest()
            with lock:
                digests.append(digest)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(digests) == 3
        assert len(set(digests)) == 1


class TestCoexistingSessions:
    def test_two_sessions_mutate_and_reroute_independently(self):
        sessions = []
        for seed in (3, 4):
            board, connections = _problem(seed)
            request = RouteRequest(board=board, connections=connections)
            response = route(request)
            assert response.result.complete
            sessions.append((begin_eco(request, response), connections))

        errors = []

        def churn(session, connections):
            try:
                victim = connections[0].net_id
                stats = session.cut_nets([victim])
                assert stats.dropped
                response = session.reroute()
                assert response.result.complete
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(session, connections))
            for session, connections in sessions
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        first, second = (s for s, _ in sessions)
        # The sessions never shared a workspace or a connection list.
        assert first.workspace is not second.workspace
        for session, connections in sessions:
            assert len(session.connections) < len(connections)
            session.close()
