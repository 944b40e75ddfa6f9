"""Fuzz the route-dump reader with truncated, garbled and mutated dumps.

Every mutated dump must either load, after which each restored route
comes out again through ``remove_connection`` and leaves the workspace
as it was, or raise :class:`RouteDumpError` with the workspace
untouched.  Posted to ``/eco/begin`` as ``routes``, the same dumps must
answer 200 or 400, never 500.
"""

from __future__ import annotations

import io
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.workspace import RoutingWorkspace
from repro.core.router import GreedyRouter
from repro.io import save_route_dump, write_board, write_connections
from repro.io.dump import RouteDumpError, load_routes
from repro.obs.audit import WorkspaceAuditor
from repro.stringer import Stringer
from repro.workloads import BoardSpec, generate_board

from tests.conftest import scaled
from tests.test_serve import _post, _serving


def _routed():
    board = generate_board(BoardSpec(via_nx=30, via_ny=30, seed=4))
    connections = Stringer(board).string_all()
    router = GreedyRouter(board)
    router.route(connections)
    texts = []
    for write, value in (
        (write_board, board),
        (write_connections, connections),
        (save_route_dump, router.workspace),
    ):
        buf = io.StringIO()
        write(value, buf)
        texts.append(buf.getvalue())
    return board, texts


BOARD, (BOARD_TEXT, CONN_TEXT, DUMP_TEXT) = _routed()
LINES = DUMP_TEXT.splitlines()


def _numeric_fields(lines, kinds=("route", "link", "seg", "via")):
    """(line, field) of every numeric field of the given record kinds."""
    cells = []
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[:1] and fields[0] in kinds:
            cells.extend((i, j) for j in range(1, len(fields)))
    return cells


def _set_field(lines, i, j, value):
    fields = lines[i].split()
    fields[j] = value
    lines[i] = " ".join(fields)


@st.composite
def mutated_dumps(draw):
    """A valid dump, broken (or not) in one to three drawn ways."""
    lines = list(LINES)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(
            st.sampled_from(
                ["number", "garble", "duplicate", "move", "shift", "truncate"]
            )
        )
        if kind == "truncate":
            text = "\n".join(lines) + "\n"
            lines = text[: draw(st.integers(0, len(text)))].splitlines()
            if not lines:
                break
            continue
        if kind in ("number", "garble"):
            cells = _numeric_fields(lines)
            if not cells:
                continue
            i, j = draw(st.sampled_from(cells))
            fields = lines[i].split()
            if kind == "garble":
                value = draw(st.text(string.ascii_letters + "@:-", max_size=5))
            elif ":" in fields[j]:  # a link piece: change one of its parts
                parts = fields[j].split(":")
                k = draw(st.integers(0, 2))
                parts[k] = str(draw(st.integers(-5, 400)))
                value = ":".join(parts)
            else:
                old = fields[j]
                base = int(old) if old.lstrip("-").isdigit() else 0
                value = str(
                    draw(
                        st.one_of(
                            st.integers(base - 3, base + 3),
                            st.integers(-(10**6), 10**6),
                        )
                    )
                )
            _set_field(lines, i, j, value or "x")
            continue
        candidates = [
            i
            for i, line in enumerate(lines)
            if line.split()[:1] in (["seg"], ["via"])
        ]
        if not candidates:
            continue
        i = draw(st.sampled_from(candidates))
        if kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "move":
            line = lines.pop(i)
            lines.insert(draw(st.integers(0, len(lines))), line)
        else:  # shift a seg's bounds or a via's site
            fields = lines[i].split()
            d = draw(st.integers(-4, 4))
            for j in (3, 4) if fields[0] == "seg" else (1, 2):
                if j < len(fields) and fields[j].lstrip("-").isdigit():
                    fields[j] = str(int(fields[j]) + d)
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _load_or_refuse(text):
    """Load ``text`` into a fresh workspace; True if it loaded.

    Asserts the two allowed outcomes: a loaded dump comes out again
    through ``remove_connection``, a refused one changes nothing.
    """
    workspace = RoutingWorkspace(BOARD)
    before = workspace.canonical_state()
    try:
        restored = load_routes(workspace, io.StringIO(text))
    except RouteDumpError:
        assert workspace.canonical_state() == before
        assert WorkspaceAuditor(workspace).audit().ok
        return False
    assert WorkspaceAuditor(workspace).audit().ok
    for conn_id in restored:
        workspace.remove_connection(conn_id)
    assert not workspace.records
    assert workspace.canonical_state() == before
    assert WorkspaceAuditor(workspace).audit().ok
    return True


@settings(max_examples=scaled(200), deadline=None)
@given(text=mutated_dumps())
def test_a_mutated_dump_loads_cleanly_or_changes_nothing(text):
    _load_or_refuse(text)


def test_mutated_dumps_posted_to_eco_begin_answer_200_or_400():
    with _serving() as port:
        names = iter(range(10**9))

        @settings(max_examples=scaled(40), deadline=None)
        @given(text=mutated_dumps())
        def post(text):
            loaded = _load_or_refuse(text)
            name = f"fuzz-{next(names)}"
            status, payload = _post(
                port,
                "/eco/begin",
                {
                    "session": name,
                    "board": BOARD_TEXT,
                    "connections": CONN_TEXT,
                    "routes": text,
                },
            )
            assert status == (200 if loaded else 400), payload
            if loaded:
                status, _ = _post(port, "/eco/end", {"session": name})
                assert status == 200

        post()
