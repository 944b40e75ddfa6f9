"""Unit tests for the grr command-line interface."""

import dataclasses
import os

import pytest

from repro.board.board import Board
from repro.board.parts import PinRole
from repro.board.technology import LogicFamily
from repro.cli import main
from repro.grid.coords import ViaPoint
from repro.io import save_board

from tests.conftest import place_pin


@pytest.fixture
def files(tmp_path):
    return {
        "board": str(tmp_path / "b.board"),
        "conns": str(tmp_path / "b.conns"),
        "routes": str(tmp_path / "b.routes"),
        "prefix": str(tmp_path / "fig"),
    }


class TestPipeline:
    def test_generate_string_route_render(self, files, capsys):
        assert main(
            [
                "generate", files["board"],
                "--config", "tna", "--scale", "0.25", "--seed", "2",
            ]
        ) == 0
        assert os.path.exists(files["board"])

        assert main(["string", files["board"], files["conns"]]) == 0
        assert os.path.exists(files["conns"])

        assert main(
            ["route", files["board"], files["conns"], files["routes"]]
        ) == 0
        assert os.path.exists(files["routes"])
        out = capsys.readouterr().out
        assert "pct_lee" in out

        assert main(
            [
                "render", files["board"], files["conns"], files["routes"],
                "--prefix", files["prefix"],
            ]
        ) == 0
        assert os.path.exists(files["prefix"] + "_problem.ppm")
        assert os.path.exists(files["prefix"] + "_layer0.ppm")
        assert os.path.exists(files["prefix"] + "_plane.ppm")

        assert main(
            ["verify", files["board"], files["conns"], files["routes"]]
        ) == 0
        out = capsys.readouterr().out
        assert "VERDICT: PASS" in out

    def test_route_options(self, files):
        main(["generate", files["board"], "--config", "tna",
              "--scale", "0.25", "--seed", "2"])
        main(["string", files["board"], files["conns"]])
        assert main(
            [
                "route", files["board"], files["conns"], files["routes"],
                "--radius", "2", "--cost", "unit",
            ]
        ) == 0


class TestInputErrors:
    """Unusable input exits 2 with one line, never a traceback or the
    routing-failure code."""

    def _conns_with(self, files, field, value):
        """The connection file with one field of its first record
        replaced (1 = net id, 3 = pin_b)."""
        main(["generate", files["board"], "--config", "tna",
              "--scale", "0.25", "--seed", "2"])
        main(["string", files["board"], files["conns"]])
        with open(files["conns"]) as f:
            lines = f.read().splitlines()
        fields = lines[0].split()
        fields[1 + field] = str(value)
        lines[0] = " ".join(fields)
        with open(files["conns"], "w") as f:
            f.write("\n".join(lines) + "\n")

    def test_malformed_board_exits_2(self, files, capsys):
        with open(files["board"], "w") as f:
            f.write("garbage\n")
        with open(files["conns"], "w") as f:
            f.write("")
        code = main(["route", files["board"], files["conns"], files["routes"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "NetlistFormatError" in err and "unknown record" in err
        assert not os.path.exists(files["routes"])

    def test_malformed_connections_exit_2(self, files, capsys):
        self._conns_with(files, 0, "x")
        code = main(["route", files["board"], files["conns"], files["routes"]])
        assert code == 2
        assert "NetlistFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [1, 3])
    def test_connection_naming_a_missing_net_or_pin_exits_2(
        self, files, capsys, field
    ):
        self._conns_with(files, field, 99999)
        capsys.readouterr()
        code = main(["route", files["board"], files["conns"], files["routes"]])
        assert code == 2
        assert "board lacks" in capsys.readouterr().err
        assert not os.path.exists(files["routes"])

    def test_unstringable_board_exits_2(self, files, capsys):
        """An ECL net with no free terminating resistor cannot be strung:
        one line naming the net, exit 2, no connection file."""
        board = Board.create(via_nx=12, via_ny=12, n_signal_layers=2)
        out = place_pin(board, ViaPoint(2, 2), PinRole.OUTPUT)
        inp = place_pin(board, ViaPoint(9, 9), PinRole.INPUT)
        net = board.add_net([out.pin_id, inp.pin_id], family=LogicFamily.ECL)
        save_board(board, files["board"])
        code = main(["string", files["board"], files["conns"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("grr string: StringingError: ")
        assert f"no free terminating resistor for net {net.name}" in err
        assert not os.path.exists(files["conns"])

    @pytest.mark.parametrize("command", ["route", "eco"])
    def test_search_flag_is_gone(self, files, command, capsys):
        args = [command, files["board"], files["conns"], files["routes"]]
        if command == "eco":
            args.append(files["routes"])
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--search", "goal"])
        assert exit_info.value.code == 2
        assert "--search" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["route", "eco"])
    def test_backend_flag_is_gone(self, files, command, capsys):
        args = [command, files["board"], files["conns"], files["routes"]]
        if command == "eco":
            args.append(files["routes"])
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--backend", "python"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestTraceAndAudit:
    def test_route_with_trace_and_audit(self, files, tmp_path, capsys):
        import json

        trace = str(tmp_path / "trace.jsonl")
        main(["generate", files["board"], "--config", "tna",
              "--scale", "0.25", "--seed", "2"])
        main(["string", files["board"], files["conns"]])
        assert main(
            [
                "route", files["board"], files["conns"], files["routes"],
                "--trace", trace, "--audit",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "audit: all post-pass invariant checks passed" in out
        events = [
            json.loads(line)
            for line in open(trace)
        ]
        assert events, "trace must not be empty"
        kinds = {e["event"] for e in events}
        assert {"pass_start", "pass_end", "strategy", "routed"} <= kinds
        assert "audit" in kinds  # --audit emits AuditRun events
        assert all(
            e["violations"] == 0 for e in events if e["event"] == "audit"
        )

    def test_audit_env_var_enables_audit(self, files, capsys, monkeypatch):
        monkeypatch.setenv("GRR_AUDIT", "1")
        main(["generate", files["board"], "--config", "tna",
              "--scale", "0.25", "--seed", "2"])
        main(["string", files["board"], files["conns"]])
        assert main(
            ["route", files["board"], files["conns"], files["routes"]]
        ) == 0
        out = capsys.readouterr().out
        assert "audit: all post-pass invariant checks passed" in out


class TestBudgetOptions:
    def test_timeout_partial_exits_3(self, files, capsys):
        main(["generate", files["board"], "--config", "tna",
              "--scale", "0.25", "--seed", "2"])
        main(["string", files["board"], files["conns"]])
        code = main(
            [
                "route", files["board"], files["conns"], files["routes"],
                "--timeout", "0.0", "--profile",
            ]
        )
        # Deadline exhausted -> degraded-partial exit code, and the
        # profile names the stop reason.
        assert code == 3
        captured = capsys.readouterr()
        assert "stopped reason: deadline" in captured.out
        assert "partial result kept" in captured.err

    def test_generous_timeouts_still_succeed(self, files):
        main(["generate", files["board"], "--config", "tna",
              "--scale", "0.25", "--seed", "2"])
        main(["string", files["board"], files["conns"]])
        assert main(
            [
                "route", files["board"], files["conns"], files["routes"],
                "--timeout", "600", "--per-connection-timeout", "60",
            ]
        ) == 0


class TestFailurePath:
    @pytest.mark.slow
    def test_route_failure_exit_code(self, files):
        """A board that cannot be fully routed exits non-zero."""
        assert main(
            [
                "generate", files["board"],
                "--config", "kdj11_2l", "--scale", "0.3", "--seed", "1",
            ]
        ) == 0
        assert main(["string", files["board"], files["conns"]]) == 0
        code = main(
            ["route", files["board"], files["conns"], files["routes"]]
        )
        assert code == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_config_rejected(self, files):
        with pytest.raises(SystemExit):
            main(["generate", files["board"], "--config", "nope"])


class TestEco:
    def _routed_fixture(self, files):
        assert main(
            [
                "generate", files["board"],
                "--config", "tna", "--scale", "0.25", "--seed", "3",
            ]
        ) == 0
        assert main(["string", files["board"], files["conns"]]) == 0
        assert main(
            ["route", files["board"], files["conns"], files["routes"]]
        ) == 0

    def test_eco_cut_move_add_roundtrip(self, files, tmp_path, capsys):
        self._routed_fixture(files)
        board2 = str(tmp_path / "eco.board")
        conns2 = str(tmp_path / "eco.conns")
        routes2 = str(tmp_path / "eco.routes")
        # Net 0's pins become free after the cut; re-add a net over
        # some of them (ECL restringing reclaims a terminator itself).
        from repro.io import read_board

        with open(files["board"]) as f:
            board = read_board(f)
        from repro.board.parts import PinRole

        net = board.nets[0]
        keep = [
            p for p in net.pin_ids
            if board.pins[p].role is not PinRole.TERMINATOR
        ]
        assert main(
            [
                "eco", files["board"], files["conns"], files["routes"],
                routes2,
                "--cut-net", "0",
                "--move-part", "0:0,0",
                "--add-net", ",".join(str(p) for p in keep),
                "--write-board", board2,
                "--write-connections", conns2,
                "--audit", "--profile",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "eco reroute:" in out
        assert "eco_rerouted" in out
        # The ECO'd outputs verify as a coherent routed board.
        assert main(["verify", board2, conns2, routes2]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out

    def test_verify_fails_a_pin_shared_by_two_nets(self, files, capsys):
        # Another net's connection ending on a terminator that already
        # ends a net: the short the ECO stringer could once produce.
        self._routed_fixture(files)
        from repro.io import read_connections, write_connections

        with open(files["conns"]) as f:
            conns = read_connections(f)
        last = conns[-1]
        other = next(c for c in conns if c.net_id != last.net_id)
        conns.append(
            dataclasses.replace(
                other, conn_id=last.conn_id + 1, pin_b=last.pin_b, b=last.b
            )
        )
        with open(files["conns"], "w") as f:
            write_connections(conns, f)
        capsys.readouterr()
        assert main(
            ["verify", files["board"], files["conns"], files["routes"]]
        ) == 1
        out = capsys.readouterr().out
        assert "1 pins shared by nets" in out
        assert (
            f"shorted pin {last.pin_b}: nets "
            f"{tuple(sorted((last.net_id, other.net_id)))}" in out
        )
        assert "VERDICT: FAIL" in out

    def test_eco_noop_is_fast_path(self, files, capsys):
        self._routed_fixture(files)
        routes2 = files["routes"] + ".out"
        assert main(
            [
                "eco", files["board"], files["conns"], files["routes"],
                routes2,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "0 rerouted" in out

    def test_eco_rejects_bad_specs(self, files):
        self._routed_fixture(files)
        routes2 = files["routes"] + ".out"
        with pytest.raises(SystemExit):
            main(
                [
                    "eco", files["board"], files["conns"],
                    files["routes"], routes2, "--move-part", "junk",
                ]
            )
        assert main(
            [
                "eco", files["board"], files["conns"], files["routes"],
                routes2, "--cut-net", "999",
            ]
        ) == 2
