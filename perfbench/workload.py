"""One workload in one process: a single-threaded closed loop over cli.run.

Started by run.py as a child process, so its peak RSS is the workload's
own. Runs whole passes over the workload's ops until --seconds have
elapsed, checks every output, and prints one JSON object as its last
line of standard output.

Untraced passes sample the machine's speed between ops (speed.py); the
end-to-end times are normalized by its median over the run. An op's
latency is its median over the passes, so a burst of host noise in one
pass does not move the percentiles.

With --trace 1 it alternates untraced and traced passes: the traced ones
give the per-layer metrics, and the ratio of the two pass times gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from tracer import LAYER_SELF, Tracer  # noqa: E402

GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1  # the seed golden.json was recorded with
# what reading an output of the wrong shape raises
MALFORMED = (KeyError, TypeError, ValueError, IndexError)
REF_EVERY_S = 0.25  # op time between two samples of the machine's speed


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(cli, ops, tracer=None, refs=None) -> tuple[float, list[float], list[tuple[int, str]]]:
    """One pass over ops; returns (wall s, per-op latency s, outputs).

    With a list refs, a speed.reference() time is appended to it whenever
    REF_EVERY_S of op time has run since the last one; the wall time
    leaves those out.
    """
    lat, outs = [], []
    ref_s, since_ref = 0.0, 0.0
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        result = cli.run(op.command, op.path, fmt=op.fmt)
        lat.append(time.perf_counter() - t0)
        outs.append(result)
        if refs is not None:
            since_ref += lat[-1]
            if since_ref >= REF_EVERY_S:
                t1 = time.perf_counter()
                refs.append(speed.reference())
                ref_s += time.perf_counter() - t1
                since_ref = 0.0
    return time.perf_counter() - start - ref_s, lat, outs


def _problems(fn, *args) -> list[str]:
    """fn's list of problems; output it cannot even read is one too."""
    try:
        return fn(*args)
    except MALFORMED as e:
        return [f"malformed output: {e!r}"]


def _golden_problems(op, code: int, text: str, want: dict | None) -> list[str]:
    if want is None:
        return ["no golden result recorded"]
    if check.record(code, text, op.fmt) != want:
        return ["differs from the golden result"]
    return []


def _invariant_problems(cli, op, text: str, base_out: str | None) -> list[str]:
    if base_out is None:  # base outside the workload: run it now, untimed
        base_path = str(Path(op.path).parent / (op.base.split(":")[0] + ".json"))
        base_code, base_out = cli.run("report", base_path, fmt="json")
        if base_code != 0:
            return [f"base diagram exits {base_code}"]
    if check.invariants(json.loads(text)) != check.invariants(json.loads(base_out)):
        return ["invariants differ from the base diagram"]
    return []


def check_first_pass(cli, ops, outs, golden: dict | None) -> list[str]:
    """Every check on the first pass; returns the op ids that failed."""
    bad: dict[str, list[str]] = {}
    for op, (code, text) in zip(ops, outs):
        problems = _problems(check.check_output, op.command, op.fmt, code, op.expect_exit, text)
        if golden is not None and not problems:
            problems = _problems(_golden_problems, op, code, text, golden.get(op.op_id))
        if problems:
            bad[op.op_id] = problems

    # every command on a diagram agrees with that diagram's report
    per_diagram: dict[str, dict[str, tuple]] = {}
    for op, (code, text) in zip(ops, outs):
        if op.fmt == "json" and code == 0 and op.op_id not in bad:
            per_diagram.setdefault(op.path, {})[op.command] = (op.op_id, json.loads(text))
    for cmds in per_diagram.values():
        try:
            found = check.check_consistency({c: p for c, (_, p) in cmds.items()})
        except MALFORMED as e:
            found = [("report", f"malformed output: {e!r}")]
        for command, problem in found:
            bad.setdefault(cmds[command][0], []).append(problem)

    # moved copies keep the invariants of their base diagram
    report_out = {op.op_id: text for op, (_, text) in zip(ops, outs)}
    for op, (code, text) in zip(ops, outs):
        if op.base is not None and op.op_id not in bad:
            problems = _problems(_invariant_problems, cli, op, text, report_out.get(op.base))
            if problems:
                bad[op.op_id] = problems

    for op_id, problems in bad.items():
        print(f"FAIL {op_id}: {'; '.join(problems)}", file=sys.stderr)
    return list(bad)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding the trihom package")
    ap.add_argument("--inputs", required=True, help="empty directory for generated inputs")
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--write-golden", action="store_true",
                    help=f"record golden.json from this run (seed {DEFAULT_SEED} only)")
    args = ap.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        ap.error(f"golden results are recorded with --seed {DEFAULT_SEED}")

    sys.path.insert(0, args.src)
    from trihom import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"trihom imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    ops = gen.generate(args.workload, args.seed, Path(args.inputs))
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = golden_all.get(args.workload) if args.seed == DEFAULT_SEED else None

    raw_pass_s, traced_s, refs = [], [], []
    op_lat: list[list[float]] = [[] for _ in ops]  # raw latencies of each op
    attempted, failed = 0, 0
    first = None
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    rounds = 0
    # whole rounds (an untraced pass, then a traced one with --trace 1)
    # while the next round is expected to end within --seconds
    while not rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
        rounds += 1
        for traced in (False, True) if tracer else (False,):
            if traced:
                with tracer:
                    wall, lat, outs = run_pass(cli, ops, tracer)
                traced_s.append(wall)
            else:
                wall, lat, outs = run_pass(cli, ops, refs=refs)
                raw_pass_s.append(wall)
                for samples, x in zip(op_lat, lat):
                    samples.append(x)
            attempted += len(ops)
            if first is None:
                first = outs
                if args.write_golden:
                    golden_all[args.workload] = {op.op_id: check.record(c, t, op.fmt)
                                                 for op, (c, t) in zip(ops, outs)}
                    GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
                    golden = None
                failed += len(check_first_pass(cli, ops, outs, golden))
                continue
            # later passes, traced ones too, must repeat the first byte for byte
            for op, out, want in zip(ops, outs, first):
                if out != want:
                    print(f"FAIL {op.op_id}: output differs from the first pass", file=sys.stderr)
                    failed += 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not refs:  # a pass too short to reach REF_EVERY_S
        refs.append(speed.reference())
    f = speed.factor_of(refs)  # machine speed over the whole run
    # each op's median latency over the passes, at nominal speed
    lat_ms = [statistics.median(x) / f * 1000 for x in op_lat]
    info = {
        "passes": len(raw_pass_s),
        "raw_pass_s": statistics.median(raw_pass_s),
        "speed_factor": f,
        "speed_samples": len(refs),
        "ops_per_pass": len(ops),
        "latency_samples": len(ops) * len(raw_pass_s),
        "error_rate": failed / attempted,
    }
    if not args.trace:
        metrics = {
            "pass_s": {"value": statistics.median(raw_pass_s) / f, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": _quantile(lat_ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        n = len(traced_s)
        derived = tracer.derive(n)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in derived.items()}
        metrics["cli.output_bytes"] = {"value": sum(len(t.encode()) for _, t in first),
                                       "unit": "bytes"}
        uncovered = sum(traced_s) - tracer.covered_ns() / 1e9
        metrics["trace.uncovered_s"] = {"value": uncovered / n, "unit": "s"}
        # each traced pass against the untraced pass just before it, so that
        # drift in machine speed between rounds cancels
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(t / u for t, u in zip(traced_s, raw_pass_s)), "unit": "ratio"}
        info["traced_passes"] = n
        info["traced_pass_mean_s"] = sum(traced_s) / n
        info["layer_self_sum_s"] = sum(derived[k][0] for k in LAYER_SELF if k in derived)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
