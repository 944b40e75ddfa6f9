"""Fuzzed ``/eco/*`` bodies against a live warm session.

A session's endpoints take JSON from outside the program: session
names, op lists, op fields, ``timeout``, ``include_routes`` and
``wait``.  Whatever arrives, the answer is a status the endpoint
documents (a success, 400 for a malformed body, 404/409 for a session
that is absent or not ready, 422 for a rejected edit, 429 at capacity),
never a 500 and never a dropped connection.
"""

from __future__ import annotations

import http.client
import json

from hypothesis import given, settings, strategies as st

from tests.conftest import scaled
from tests.test_serve import _board_texts, _post, _serving

LIVE = "live"

#: Every status an /eco/* endpoint documents; 500 is a server bug.
DOCUMENTED = {200, 202, 400, 404, 409, 422, 429}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: Mostly ids the board has (so edits apply or are refused as edits),
#: then huge, negative and non-finite ones.
ids = st.one_of(
    st.integers(0, 60),
    st.integers(),
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)
#: Ops of the documented shapes, with any of those numbers in them.
well_formed_ops = st.one_of(
    st.fixed_dictionaries(
        {
            "op": st.just("move_part"),
            "part": ids,
            "to": st.lists(ids, min_size=2, max_size=2),
        }
    ),
    st.fixed_dictionaries(
        {"op": st.just("cut_nets"), "nets": st.lists(ids, max_size=3)}
    ),
    st.fixed_dictionaries(
        {
            "op": st.just("add_nets"),
            "pin_groups": st.lists(st.lists(ids, max_size=4), max_size=2),
        },
        optional={"family": st.sampled_from(["ECL", "ttl", "x"])},
    ),
)
#: Ops with a field missing, mistyped or unknown.
malformed_ops = st.dictionaries(
    st.sampled_from(["op", "part", "to", "nets", "pin_groups", "family"]),
    st.sampled_from(["move_part", "cut_nets", "add_nets"]) | json_values,
    max_size=3,
)
sessions = st.sampled_from([LIVE, "ghost", ""]) | json_values
bodies = st.one_of(
    st.tuples(
        st.just("/eco/mutate"),
        st.fixed_dictionaries(
            {
                "session": st.just(LIVE),
                "ops": st.lists(well_formed_ops, min_size=1, max_size=3),
            }
        ),
    ),
    st.tuples(
        st.just("/eco/mutate"),
        st.fixed_dictionaries(
            {"session": sessions},
            optional={
                "ops": st.lists(well_formed_ops | malformed_ops, max_size=3)
                | json_values
            },
        ),
    ),
    st.tuples(
        st.just("/eco/reroute"),
        st.fixed_dictionaries(
            {"session": st.just(LIVE) | sessions},
            optional={
                "timeout": ids | json_values,
                "include_routes": json_values,
                "wait": json_values,
            },
        ),
    ),
    st.tuples(
        st.just("/eco/end"),
        st.fixed_dictionaries({}, optional={"session": sessions}),
    ),
)


def _post_text(port, path, text):
    """POST a JSON text as given (``json.dumps`` cannot write 1e400)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("POST", path, text.encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _begin_live(port):
    """Cold-route a board into the session LIVE; returns the body that
    adopts the same routed state again without routing."""
    board_text, conn_text, _, _ = _board_texts()
    body = {"session": LIVE, "board": board_text, "connections": conn_text}
    status, payload = _post(
        port, "/eco/begin", {**body, "include_routes": True}
    )
    assert status == 200, payload
    return {**body, "routes": payload["result"]["routes"]}


class TestEcoFuzz:
    def test_non_finite_numbers_answer_400_with_the_usage(self):
        with _serving() as port:
            _begin_live(port)
            for op, usage in (
                ('{"op": "move_part", "part": 1e400, "to": [1, 2]}',
                 "move_part needs"),
                ('{"op": "cut_nets", "nets": [Infinity]}', "cut_nets needs"),
                ('{"op": "add_nets", "pin_groups": [[-Infinity, 2]]}',
                 "add_nets needs"),
            ):
                status, payload = _post_text(
                    port,
                    "/eco/mutate",
                    f'{{"session": "{LIVE}", "ops": [{op}]}}',
                )
                assert status == 400, payload
                assert payload["error"].startswith(usage)

    def test_fuzzed_eco_bodies_never_answer_500(self):
        with _serving() as port:
            adopt = _begin_live(port)

            @settings(max_examples=scaled(150), deadline=None)
            @given(request=bodies)
            def post_fuzzed(request):
                path, body = request
                status, payload = _post(port, path, body)
                assert status in DOCUMENTED, (path, body, payload)
                if path == "/eco/end" and payload.get("session") == LIVE:
                    # Keep a live session for the next example.
                    status, payload = _post(port, "/eco/begin", adopt)
                    assert status == 200, payload

            post_fuzzed()
