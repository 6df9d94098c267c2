"""Runs one workload's CLI invocations in this fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json

The plan lists the invocations of one pass, the measuring budget and
whether to trace.  Each pass calls `bayesmc.cli.main(argv)` for every
invocation in turn (a closed loop with one caller).  Passes repeat until the
budget is spent and the minimum pass count is reached; with tracing on, the
budget is split between untraced and traced passes.  Pass times are also
rescaled to the reference machine speed (perfbench/speed.py).  Prints one
JSON line: pass times, exit codes, whether outputs were identical across
passes, peak RSS and per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from speed import Sampler


def _digest(root: Path) -> tuple[str, int, int]:
    """sha256 over the output tree, its size in bytes and its data rows."""
    h = hashlib.sha256()
    size = rows = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
        size += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return h.hexdigest(), size, rows


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error ends a real CLI run with status 1
        return 1


def _run_pass(cli, sampler, invocations, out_root: Path) -> tuple[float, float, dict]:
    """Run every invocation once; returns the pass's seconds, the same
    rescaled per invocation to the reference speed, and the exit codes."""
    shutil.rmtree(out_root, ignore_errors=True)
    codes = {}
    wall = scaled = 0.0
    for label, argv in invocations:
        seconds, rescaled, codes[label] = sampler.measure(_call, cli, argv)
        wall += seconds
        scaled += rescaled
    return wall, scaled, codes


def _passes(cli, sampler, plan, budget: float, min_passes: int, tracer=None):
    out_root = Path(plan["out_root"])
    walls, scaled, records, layer_rows = [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < budget:
        wall, rescaled, codes = _run_pass(cli, sampler, plan["invocations"], out_root)
        walls.append(wall)
        scaled.append(rescaled)
        records.append((codes, _digest(out_root)))
        if tracer is not None:
            layer_rows.append(tracer.take_pass())
    return walls, scaled, records, layer_rows


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import bayesmc.cli as cli

    seconds, traced = plan["seconds"], plan["trace"]
    report = {}
    if not traced:
        walls, scaled, records, _ = _passes(cli, Sampler(), plan, seconds, plan["min_passes"])
    else:
        walls, scaled, records, _ = _passes(cli, Sampler(), plan, seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        # no samples inside traced calls, where they would add to span times
        _, traced_scaled, traced_records, layer_rows = _passes(
            cli, Sampler(interval=0.0), plan, seconds / 2, 1, tracer)
        layers = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        _, out_bytes, out_rows = traced_records[0][1]
        layers["cli.out_bytes"] = float(out_bytes)
        layers["cli.out_rows"] = float(out_rows)
        layers["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(scaled)
        report["traced_identical"] = all(r == records[0] for r in traced_records)
        report["layers"] = layers
    report.update(
        walls=walls,
        scaled=scaled,
        exit_codes=records[0][0],
        passes_identical=all(r == records[0] for r in records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
