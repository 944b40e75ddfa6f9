"""Every exception class ``repro`` defines survives a pickle round trip.

``grr serve`` routes each ``/route`` job in a worker process, and the
worker's exception comes back to the server pickled.  An exception
whose ``__init__`` takes something other than its message cannot be
rebuilt by the default pickling, and a result the server cannot
unpickle breaks the worker pool.  This walks every ``repro`` module so a
new exception class is covered the day it is added.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.io.sexp import SExpError
from repro.obs.audit import (
    AuditReport,
    RestoreBlockedError,
    Violation,
    WorkspaceAuditError,
)
from repro.serve.admission import AdmissionRejected
from repro.serve.http import HttpError


def _exception_classes():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__ == info.name
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


EXCEPTIONS = _exception_classes()

#: One instance of each class whose constructor is not the message-only
#: one it inherits from the builtin exceptions.
SAMPLES = {
    SExpError: lambda: SExpError("unbalanced parenthesis", offset=7),
    WorkspaceAuditError: lambda: WorkspaceAuditError(
        AuditReport(
            violations=[Violation("via-count", "(3, 4): map says 1")],
            checked_sites=12,
        ),
        "pass 2",
    ),
    RestoreBlockedError: lambda: RestoreBlockedError(
        17, ["via (3, 4) already drilled by 5"]
    ),
    AdmissionRejected: lambda: AdmissionRejected(2, 8, 1.5),
    HttpError: lambda: HttpError(429, "at capacity", {"Retry-After": "2"}),
}


def _own_init(cls) -> bool:
    return any(
        "__init__" in vars(base)
        for base in cls.__mro__
        if base.__module__.startswith("repro")
    )


def test_the_walk_finds_the_worker_facing_exceptions():
    names = set(EXCEPTIONS)
    assert {
        "repro.io.registry.InputError",
        "repro.io.registry.UnknownReferenceError",
        "repro.obs.audit.WorkspaceAuditError",
        "repro.obs.audit.RestoreBlockedError",
    } <= names


@pytest.mark.parametrize("name", sorted(EXCEPTIONS))
def test_exception_survives_pickling(name):
    cls = EXCEPTIONS[name]
    if _own_init(cls):
        assert cls in SAMPLES, f"add a sample instance of {name} to SAMPLES"
        exc = SAMPLES[cls]()
    else:
        exc = cls("line 3: unknown record 'garbage'")
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is cls
    assert str(clone) == str(exc)
    assert clone.args == exc.args
    assert vars(clone) == vars(exc)
