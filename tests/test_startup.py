"""Start-up cost: what importing the package and the CLI loads.

Every ``grr`` invocation, every ``grr serve`` start and every spawned
``/route`` worker begins with ``import repro.cli``.  The package
``__init__`` files resolve their exports on first use and each command
imports what it runs, so that import loads no routing code.  These tests
pin the set of modules it loads (a count that does not depend on the
host's speed), check that the lazy exports still resolve every public
name, and import each module on its own to catch import cycles that an
eager ``__init__`` order used to hide.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Modules neither the CLI nor the service may load before a command
#: (or a request) needs them: the router, the channel structure, ECO,
#: the facade, the stringer, the board generators and the KiCad reader.
ROUTING_STACK = (
    "repro.core.router",
    "repro.core.lee",
    "repro.core.single_layer",
    "repro.core.optimal",
    "repro.channels",
    "repro.eco",
    "repro.api",
    "repro.stringer",
    "repro.workloads",
    "repro.io.kicad",
)


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports from this tree;
    returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _loaded_after(code: str):
    """The ``repro`` modules loaded once ``code`` has run."""
    out = _fresh(
        "import sys\n"
        + code
        + "\nprint(' '.join(m for m in sys.modules if m.startswith('repro')))"
    )
    return set(out.split())


def _in_stack(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".")
        for name in ROUTING_STACK
    )


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def _modules():
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


class TestImportSet:
    def test_importing_the_cli_and_printing_help_load_only_the_cli(self):
        loaded = _loaded_after(
            "import contextlib, io, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        repro.cli.main(['--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
        )
        assert loaded == {"repro", "repro.cli"}

    def test_parser_and_server_load_no_routing_code(self):
        loaded = _loaded_after(
            "import repro.cli\n"
            "repro.cli.build_parser()\n"
            "import repro.serve.server\n"
        )
        assert "repro.serve.server" in loaded
        assert sorted(m for m in loaded if _in_stack(m)) == []


class TestLazyExports:
    @pytest.mark.parametrize("name", _packages())
    def test_every_exported_name_resolves(self, name):
        package = importlib.import_module(name)
        listing = dir(package)
        for export in package.__all__:
            assert export in listing
            value = getattr(package, export)
            # Cached: later lookups never reach the package __getattr__.
            assert vars(package)[export] is value
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(package.__all__)

    def test_unknown_names_submodules_and_renamed_exports(self):
        import repro.core
        from repro.io import dump, save_route_dump

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.core.nope
        assert not hasattr(repro, "nope")
        from repro.core import lee

        assert lee is sys.modules["repro.core.lee"]
        assert save_route_dump is dump.save_routes
        assert repro.string_board.__module__ == "repro"


@pytest.mark.slow
def test_every_module_imports_on_its_own():
    failures = []
    for module in _modules():
        try:
            _fresh(f"import {module}")
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.strip().splitlines()
            failures.append(f"{module}: {lines[-1] if lines else exc}")
    assert failures == []
