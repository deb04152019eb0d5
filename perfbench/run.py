"""Benchmark of the trihom CLI: one seeded workload per invocation.

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing is installed. Workloads: corpus-mix, genus-ladder and
scrambled; BENCHMARK.json says why each was chosen, gen.py how it is built.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of fresh interpreters running `trihom validate` on the smallest
input) and, from a child process running the workload as a closed loop
with one caller, the pass time, per-op latency and peak RSS.
--trace 1 runs the workload with the outside-in tracer instead and reports
the per-layer metrics.

Every output is checked (see check.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # generated inputs and span dumps; git-ignored

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import speed  # noqa: E402

COLD_STARTS = 31
RUN_LIMIT_S = 170  # the whole run, cold starts included

_COLD = ("import sys; sys.path.insert(0, sys.argv[1]); from trihom.cli import main; "
         "sys.exit(main(['validate', sys.argv[2]]))")


def cold_start_s(path: Path) -> float:
    """Wall time of one fresh interpreter validating path; checks its answer."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", _COLD, str(SRC), str(path)],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or "ok: True" not in proc.stdout:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trihom" / "cli.py").is_file():
        print(f"no trihom sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    t_start = time.perf_counter()

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        metrics = {}
        if not args.trace:
            setup_input = gen.write_setup_input(Path(tmp))
            cold_start_s(setup_input)  # writes the bytecode caches; not counted
            starts, refs = [], []
            for _ in range(COLD_STARTS):
                starts.append(cold_start_s(setup_input))
                refs.append(speed.reference())  # the machine's speed, sampled as it goes
            metrics["setup_s"] = {"value": statistics.median(starts) / speed.factor_of(refs),
                                  "unit": "s"}
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--src", str(SRC), "--inputs", str(inputs),
               "--spans", str(WORK / f"spans-{args.workload}.jsonl")]
        try:
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_LIMIT_S - (time.perf_counter() - t_start))
        except subprocess.TimeoutExpired:
            print(f"workload did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
            return 1
    lines = child.stdout.strip().splitlines()
    if not lines:
        print(f"workload exited {child.returncode} without a result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    info = result["info"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{info['passes']} untraced passes of {info['ops_per_pass']} ops")
    print(f"  end-to-end times are seconds at nominal speed (speed.py), per-layer times raw; "
          f"this machine took {info['speed_factor']:.4g}x the nominal time "
          f"(raw median pass {info['raw_pass_s']:.6g} s)")
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  op latency samples = {info['latency_samples']}")
    print(f"  error_rate = {info['error_rate']:.6g} ({result['failed']}/{result['attempted']} ops failed)")
    if args.trace:
        print(f"  traced passes = {info['traced_passes']}: mean traced pass {info['traced_pass_mean_s']:.6g} s"
              f" = layer self times {info['layer_self_sum_s']:.6g} s"
              f" + uncovered {metrics['trace.uncovered_s']['value']:.6g} s")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
