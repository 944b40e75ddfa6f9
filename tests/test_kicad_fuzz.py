"""Fuzz the KiCad reader with truncated, garbled and mutated documents.

Both fixture boards and a routed export of one are cut short, garbled,
given other numbers, or have a line doubled or dropped.  Each result
must import — with every restored route coming out again through
``remove_connection`` — or raise :class:`InputError`.  Posted to
``/route`` with ``format: kicad`` it must answer 200, 400 or 422, never
500.
"""

from __future__ import annotations

import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.router import make_router
from repro.io import kicad
from repro.io.registry import InputError
from repro.obs.audit import WorkspaceAuditor

from tests.conftest import scaled
from tests.test_serve import _post, _serving

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _documents():
    """Both fixtures and a routed export of ``charlie_th``."""
    texts = []
    for name in ("charlie_th", "mixed_smd"):
        path = os.path.join(FIXTURES, f"{name}.kicad_pcb")
        with open(path, encoding="utf-8") as stream:
            texts.append(stream.read())
    imp = kicad.import_board(texts[0])
    router = make_router(imp.board, workspace=imp.workspace)
    assert router.route(imp.connections).complete
    texts.append(kicad.export_document(imp, router.workspace))
    return texts


DOCUMENTS = _documents()

#: A bare numeric atom.
NUMBER = re.compile(r"(?<=[\s(])-?\d+(?:\.\d+)?(?=[\s)])")

#: Numbers a broken or hostile file might hold instead.
ODD_NUMBERS = ["", "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "9000"]


@st.composite
def mutated_documents(draw):
    """A document broken (or not) in one to three drawn ways."""
    text = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(
            st.sampled_from(["truncate", "garble", "number", "line"])
        )
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "garble":
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 8))
            junk = draw(st.text('() ".-0123456789aeinx', max_size=8))
            text = text[:at] + junk + text[at + cut:]
        elif kind == "number":
            spans = [m.span() for m in NUMBER.finditer(text)]
            if not spans:
                continue
            start, end = draw(st.sampled_from(spans))
            value = draw(
                st.one_of(
                    st.sampled_from(ODD_NUMBERS),
                    st.integers(-(10**6), 10**6).map(str),
                    st.floats(-1e4, 1e4).map(lambda x: f"{x:.4f}"),
                )
            )
            text = text[:start] + value + text[end:]
        else:  # double or drop one line
            lines = text.splitlines(keepends=True)
            if not lines:
                continue
            i = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                lines.insert(i, lines[i])
            else:
                del lines[i]
            text = "".join(lines)
    return text


def _import_or_refuse(text):
    """Import ``text``; True if it imported, False if it was refused
    with an InputError (any other exception fails the test)."""
    try:
        imp = kicad.import_board(text)
    except InputError:
        return False
    workspace = imp.workspace
    assert WorkspaceAuditor(workspace).audit().ok
    for conn_id in imp.restored:
        workspace.remove_connection(conn_id)
    assert WorkspaceAuditor(workspace).audit().ok
    return True


@settings(max_examples=scaled(150), deadline=None)
@given(text=mutated_documents())
def test_a_mutated_document_imports_or_raises_input_error(text):
    _import_or_refuse(text)


def test_mutated_documents_posted_to_route_never_answer_500():
    with _serving() as port:

        @settings(max_examples=scaled(20), deadline=None)
        @given(text=mutated_documents())
        def post(text):
            imported = _import_or_refuse(text)
            status, payload = _post(
                port, "/route", {"board": text, "format": "kicad"}
            )
            if imported:
                assert status == 200, payload
            else:
                assert status in (400, 422), payload

        post()
