"""binarx benchmark: entry point.

    python3 perfbench/run.py --workload size-study --seed 1 --seconds 10 --trace 0

Workloads: size-study, calibrate, monitor-stream, power-study-2t, or "all"
(each in turn, for a quick look).  Inputs are generated from --seed outside
every timed region and cached under perfbench/.cache; binarx is imported from
src/ of the checkout this file sits in, in fresh child processes
(perfbench/child.py).  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a separate traced run.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; lines before it name every
metric with its unit, the sample counts and the run's metadata.  See
perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import ensure_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
OUT = HERE / ".out"

WORKLOADS = ("size-study", "calibrate", "monitor-stream", "power-study-2t")
SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
RUN_BUDGET_S = 170.0  # every run must end within 180 s
RSS_POLL_S = 0.05


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of a process and all its descendants (0 once gone)."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            status = Path(f"/proc/{p}/status").read_text()
            for task in os.listdir(f"/proc/{p}/task"):
                stack += [int(c) for c in Path(f"/proc/{p}/task/{task}/children").read_text().split()]
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total += int(line.split()[1])
    return total


def run_child(mode: str, workload: str, seed: int, seconds: int, inputs: Path, deadline: float):
    """One fresh child process; returns (result dict, spawn time, peak tree RSS in kB)."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"child-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    args = {
        "mode": mode, "workload": workload, "seed": seed, "seconds": seconds,
        "src": str(SRC), "inputs": str(inputs), "result": str(result_path),
    }
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(args)],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    peak = 0
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError(f"{mode} run of {workload} exceeded the time budget")
            peak = max(peak, tree_rss_kb(proc.pid))
            time.sleep(RSS_POLL_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        try:  # pool workers left behind by a crashed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{mode} run of {workload} failed with exit code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, spawned, peak


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def stream_contract() -> str:
    """README's "Reproducibility contract" section, as one line."""
    readme = ROOT / "README.md"
    if not readme.exists():
        return "unknown (no README.md)"
    text = readme.read_text()
    start = text.find("## Reproducibility contract")
    if start < 0:
        return "unknown (no contract section)"
    body = text[start:].split("\n", 1)[1]
    end = body.find("\n## ")
    return " ".join((body if end < 0 else body[:end]).split())


def metadata(child: dict) -> dict:
    return {
        **child.get("versions", {}),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_binarx_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "binarx").glob("*.py"))
        ),
        "stream_contract": stream_contract(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    inputs = ensure_inputs(CACHE, seed, monitors=workload == "monitor-stream")
    lines = []
    if trace:
        child, _, _ = run_child("trace", workload, seed, seconds, inputs, deadline)
        metrics = child.get("metrics", {})
        detail = child.get("trace", {})
        for name in detail.get("missing", []):
            lines.append(f"{workload} {name} MISSING (no span of its layer was recorded)")
        for phase in ("untraced", "traced"):
            if phase in detail:
                s = detail[phase]
                lines.append(f"{workload} {phase} phase: {s['raw_ops_per_s']:.6g} ops/s (raw), {s['ops']} ops")
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe, spawned, _ = run_child("setup", workload, seed, seconds, inputs, deadline)
            setups.append(probe["setup_end"] - spawned)
        child, spawned, peak_kb = run_child("measure", workload, seed, seconds, inputs, deadline)
        setups.append(child["setup_end"] - spawned)
        loop = child["loop"]
        peak_mb = max(peak_kb, child["self_maxrss_kb"]) / 1024.0
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(loop["ops_per_s"], "1/s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        lines.append(
            f"{workload} samples: setup {len(setups)}, calls {loop['calls']} in {loop['windows']} "
            f"windows, ops {loop['ops']} in {loop['busy_s']:.6g} s, "
            f"reference kernel timings {loop['ref_samples']}"
        )
        lines.append(
            f"{workload} not gated: raw ops_per_s {loop['raw_ops_per_s']:.6g} 1/s, "
            f"slowdown factor {loop['slowdown']:.6g}"
        )
        if workload == "monitor-stream":
            lines.append(
                f"{workload} not gated: monitor_update raw op_us_p50 {loop['op_us_p50']:.6g} us, "
                f"op_us_p99 {loop['op_us_p99']:.6g} us ({loop['lat_samples']} samples, whole run)"
            )
    correct = bool(child.get("correct"))
    attempted = max(1, int(child.get("attempted", 0)))
    failed = attempted if not correct else int(child.get("failed", 0))
    if not correct:
        lines.append(f"{workload} CHECK FAILED: {child.get('check_error')}")
    for name, m in metrics.items():
        lines.append(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    lines.append(f"{workload} failed_fraction {failed / attempted:.6g} ({failed} of {attempted})")
    lines.append(f"{workload} meta {json.dumps(metadata(child), sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, "child": child, "metrics": metrics}
    (OUT / f"last-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"lines": lines, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binarx" / "__init__.py").is_file():
        print(f"error: no binarx sources at {SRC / 'binarx'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    results = []
    for workload in workloads:
        try:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(res["lines"]), flush=True)
        results.append((workload, res))
    if len(results) == 1:
        metrics = results[0][1]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for _, res in results),
        "attempted": sum(res["attempted"] for _, res in results),
        "failed": sum(res["failed"] for _, res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
