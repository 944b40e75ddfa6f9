"""One benchmark for grr: batch route jobs, ECO edits and serve requests.

Run every workload, print the end-to-end metrics, then one traced round
of each and the per-layer table::

    python bench/run.py --seed 1 --out results.json

Run one workload and print its metrics as a JSON object on the last
line (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``)::

    python bench/run.py --workload kdj11_hard --seed 1 --seconds 15 --trace 0

Each workload runs in its own process with every ``GRR_*`` variable
cleared, so the shipped defaults are what gets measured.  Inputs are
generated from ``--seed`` in this process and handed over as files.
The exit status is 1 when any output fails verification.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
#: Generated inputs live here while a workload runs.
WORK = BENCH / ".work"
#: A workload process that runs longer than this is killed.
WORKER_TIMEOUT = 160


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> Dict[str, str]:
    """This environment minus ``GRR_*``, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRR_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    trace_out: Optional[str] = None,
) -> dict:
    """Generate inputs, run the workload process, return its result."""
    import workloads

    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        workloads.make_inputs(workload, seed, inputs)
        command = [
            sys.executable,
            str(BENCH / "workloads.py"),
            "--workload", workload,
            "--inputs", str(inputs),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            env=worker_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{workload}: no result in {WORKER_TIMEOUT} s")
        finally:
            # The workload process's own children (a server) go with it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload}: workload process exited {proc.returncode}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's inputs are still there


def provenance(seed: int, seconds: float) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "numpy": find_spec("numpy") is not None,
        "seed": seed,
        "seconds": seconds,
    }


def check_names(result: dict, declared: List[dict], kind: str) -> None:
    emitted = set(result["metrics"])
    expected = {m["name"] for m in declared}
    if emitted != expected:
        raise RuntimeError(
            f"{result['workload']}: {kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(expected - emitted)}, extra {sorted(emitted - expected)}"
        )


def passed(result: dict) -> bool:
    return not result["errors"] and result["failed"] == 0


def result_line(result: dict, declared: List[dict]) -> str:
    """The last output line: correctness, counts and every metric."""
    metrics = {
        m["name"]: {"value": _value(result["metrics"][m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    return json.dumps(
        {
            "correct": passed(result),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _value(metric) -> float:
    return metric["value"] if isinstance(metric, dict) else metric


def print_end_to_end(result: dict, declared: List[dict]) -> None:
    print(
        f"== {result['workload']}: {result['attempted']} operations, "
        f"{result['failed']} failed"
    )
    for m in declared:
        metric = result["metrics"][m["name"]]
        line = f"  {m['name']:<15} {metric['value']:>12.6g} {m['unit']:<9} n={metric['n']}"
        if "samples" in metric:
            line += (
                f"  {len(metric['samples'])} samples: median "
                f"{metric['median']:.6g} IQR [{metric['q1']:.6g}, {metric['q3']:.6g}]"
            )
        print(line)
    for error in result["errors"][:10]:
        print(f"  ERROR {error}")


def print_layers(results: Dict[str, dict], declared: List[dict]) -> None:
    names = list(results)
    print("per-layer metrics (one traced round each)")
    print(f"  {'metric':<36} {'unit':<6}" + "".join(f" {n:>16}" for n in names))
    for m in declared:
        row = "".join(
            f" {results[n]['metrics'][m['name']]:>16.6g}" for n in names
        )
        print(f"  {m['name']:<36} {m['unit']:<6}{row}")
    for name in names:
        layers = results[name]["metrics"]
        wall = layers["job.wall_s"]
        if wall:
            attributed = sum(
                v for k, v in layers.items() if k.endswith(".self_s")
            ) + layers["job.unattributed_s"]
            print(
                f"  {name}: self times + unattributed = {attributed:.6f} s "
                f"of {wall:.6f} s job wall; trace overhead "
                f"{layers['trace.overhead_pct']:.1f}%"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="run only this one")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: per-layer only (default: both)",
    )
    parser.add_argument("--out", default=None, help="results JSON path")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no grr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workload_names:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else workload_names
    trace_out = f"{args.out}.trace.jsonl" if args.out else None
    if trace_out and os.path.exists(trace_out):
        os.remove(trace_out)
    report = {"provenance": provenance(args.seed, seconds), "workloads": {}}
    ok = True
    last = None
    if args.trace != 1:
        for name in names:
            result = run_workload(name, args.seed, seconds, trace=False)
            check_names(result, spec["end_to_end"], "end-to-end")
            print_end_to_end(result, spec["end_to_end"])
            report["workloads"][name] = result
            ok = ok and passed(result)
            last = result_line(result, spec["end_to_end"])
    if args.trace != 0:
        layers = {}
        for name in names:
            result = run_workload(name, args.seed, seconds, True, trace_out)
            check_names(result, spec["per_layer"], "per-layer")
            layers[name] = result
            report["workloads"].setdefault(name, {})["layers"] = result["metrics"]
            ok = ok and passed(result)
            last = result_line(result, spec["per_layer"])
        print_layers(layers, spec["per_layer"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=1)
            out.write("\n")
    if args.workload is not None:
        print(last)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
