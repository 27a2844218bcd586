#!/usr/bin/env python3
"""Repository benchmark: host time of the DISCO simulator, end to end and
layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--holdout-seed <n>]

Run from the repository root. It builds `perfbench/` (release profile,
default features) into $CARGO_TARGET_DIR (default `.bench_build`), runs
one workload for `--seconds` of repetitions, checks every repetition's
outputs, prints each metric with its unit, writes the full result and
spans under `<target dir>/perfbench-out/`, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = (
    "parsec-dedup-disco",
    "parsec-swaptions-disco",
    "noc-uniform-16x16",
    "codec-corpus",
)

END_TO_END = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# What `work_per_s` counts on each workload, under the name the docs use.
WORK_UNIT = {
    "parsec-dedup-disco": "accesses_per_s",
    "parsec-swaptions-disco": "accesses_per_s",
    "noc-uniform-16x16": "flit_hops_per_s",
    "codec-corpus": "lines_per_s",
}

SCHEMES = ("delta", "fpc", "sfpc", "bdi", "sc2", "cpack")

PER_LAYER = {
    "noc.tick_ns_per_flit_hop": "ns/flit-hop",
    "noc.tick_ns_per_router_cycle": "ns/router-cycle",
    "noc.inject_share": "ratio",
    "noc.tick_share": "ratio",
    "noc.eject_share": "ratio",
    "noc.flit_hops": "count",
    "noc.flit_hops_per_router_cycle": "1/router-cycle",
    "noc.sa_loss_ratio": "ratio",
    "noc.avg_packet_latency_cyc": "cycles",
    "engine.started": "count",
    "engine.useful_ratio": "ratio",
    "engine.abort_ratio": "ratio",
    "engine.low_confidence": "count",
    "engine.flits_saved": "count",
    "cache.l1_miss_ratio": "ratio",
    "cache.llc_miss_ratio": "ratio",
    "cache.dir_invalidations": "count",
    "cache.dram_reads": "count",
    **{
        f"compress.{s}.{m}": unit
        for s in SCHEMES
        for m, unit in (
            ("compress_ns_per_line", "ns/line"),
            ("decompress_ns_per_line", "ns/line"),
            ("ratio", "ratio"),
        )
    },
    "workloads.generate_s": "s",
    "system.build_s": "s",
    "system.step_window_ms_p50": "ms",
    "system.step_window_ms_p90": "ms",
    "system.report_s": "s",
    "system.ns_per_sim_cycle": "ns/sim-cycle",
    "trace.overhead": "ratio",
}

# Median seconds of the host-speed probe (src/probe.rs) on an
# uncontended 2-core host. A run's host factor is its probe median over
# this, and its end-to-end times are divided by that factor (rates
# multiplied), which puts runs made under different host load on one
# scale: seconds of a host where the probe takes 60 ms.
PROBE_REF_S = 0.060

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# Statistics


def summarize(values):
    """Median, first and third quartile (as `statistics.quantiles(n=4)`
    gives them) and the sample count."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children count once).
    `spans` are dicts with id, parent, start_ns and end_ns."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(s["id"], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[s["id"]] = (end - start) - covered
    return out


def tracing_overhead(samples):
    """How much slower traced repetitions ran, as a fraction (0.02 means
    2%): the median over traced repetitions of each one's wall time
    against the untraced repetition just before it. Pairing neighbours
    keeps host drift over the run out of the comparison."""
    ratios = []
    for before, s in zip(samples, samples[1:]):
        if s["traced"] and not before["traced"]:
            ratios.append(wall(s) / wall(before))
    return statistics.median(ratios) - 1.0


def wall(sample):
    return sample["setup_s"] + sample["run_s"]


# ---------------------------------------------------------------------------
# Metrics


def host_factor(probe_s):
    """How much slower than the reference host this run's host was."""
    return statistics.median(probe_s) / PROBE_REF_S


def scaled(summary, factor):
    return {k: (v * factor if k != "n" else v) for k, v in summary.items()}


def end_to_end(raw):
    """End-to-end metrics over the untraced repetitions, with times on
    the reference host's scale."""
    untraced = [s for s in raw["samples"] if not s["traced"]]
    factor = host_factor(raw["probe_s"])
    return {
        "work_per_s": scaled(summarize(s["work"] / s["run_s"] for s in untraced), factor),
        "setup_s": scaled(summarize(s["setup_s"] for s in untraced), 1.0 / factor),
        "peak_rss_mb": summarize([raw["peak_rss_kb"] / 1024.0]),
    }


def per_layer(raw, spans):
    """Per-layer metrics of a traced run. A layer that does no work, or
    is not timed apart, on this workload reads 0."""
    metrics = {name: 0.0 for name in PER_LAYER}
    counters = raw["counters"]
    inputs = raw["inputs"]
    for name, value in counters.items():
        if name in metrics and value is not None:
            metrics[name] = value

    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(selfs[s["id"]])

    def total(name):
        return sum(by_name.get(name, ()))

    reps = len(by_name.get("rep", ()))
    if "noc.window" in by_name:
        loop = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "noc.window")
        tick = total("noc.tick")
        metrics["noc.inject_share"] = total("noc.inject") / loop
        metrics["noc.tick_share"] = tick / loop
        metrics["noc.eject_share"] = total("noc.eject") / loop
        metrics["noc.tick_ns_per_flit_hop"] = tick / (counters["noc.flit_hops"] * reps)
        metrics["noc.tick_ns_per_router_cycle"] = tick / (
            inputs["routers"] * inputs["window_cycles"] * reps
        )
    if "system.step_window" in by_name:
        windows_ms = [ns / 1e6 for ns in by_name["system.step_window"]]
        deciles = statistics.quantiles(windows_ms, n=10)
        metrics["workloads.generate_s"] = statistics.median(by_name["workloads.generate"]) / 1e9
        metrics["system.build_s"] = statistics.median(by_name["system.build"]) / 1e9
        metrics["system.step_window_ms_p50"] = statistics.median(windows_ms)
        metrics["system.step_window_ms_p90"] = deciles[8]
        metrics["system.report_s"] = statistics.median(by_name["system.report"]) / 1e9
        metrics["system.ns_per_sim_cycle"] = total("system.step_window") / (
            raw["sim"]["sim_cycles"] * reps
        )
    for scheme in SCHEMES:
        for op in ("compress", "decompress"):
            span = f"compress.{scheme}.{op}"
            if span in by_name:
                metrics[f"compress.{scheme}.{op}_ns_per_line"] = total(span) / (
                    inputs["lines"] * reps
                )

    metrics["trace.overhead"] = tracing_overhead(raw["samples"])
    return metrics


# ---------------------------------------------------------------------------
# Driving the measuring program


def build(target_dir):
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=BUILD_TIMEOUT_S,
    )
    return os.path.join(target_dir, "release", "disco-perfbench")


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def fmt(v):
    return f"{v:.6g}"


def report(args, raw, metrics, units):
    print(f"workload {raw['workload']}  seed {raw['seed']}  trace {int(raw['trace'])}")
    host = raw["host"]
    print(
        f"host: nproc {host['nproc']}  build {host['profile']}  features {host['features']}"
        f"  kernel serial, 1 thread"
    )
    print("inputs: " + "  ".join(f"{k} {fmt(v)}" for k, v in raw["inputs"].items()))
    print(
        f"host factor {fmt(host_factor(raw['probe_s']))}: probe median"
        f" {fmt(statistics.median(raw['probe_s']))} s against {PROBE_REF_S} s"
        f" (n {len(raw['probe_s'])}); end-to-end times are on the reference scale"
    )
    for name, m in metrics.items():
        if isinstance(m, dict):
            alias = f" ({WORK_UNIT[args.workload]})" if name == "work_per_s" else ""
            print(
                f"  {name}{alias} = {fmt(m['median'])} {units[name]}"
                f"  [q1 {fmt(m['q1'])}, q3 {fmt(m['q3'])}, n {m['n']}]"
            )
        else:
            print(f"  {name} = {fmt(m)} {units[name]}")
    error_rate = raw["failed"] / raw["attempted"]
    print(f"  error_rate = {fmt(error_rate)} ({raw['failed']} of {raw['attempted']} runs)")
    for k, v in raw["sim"].items():
        print(f"  sim {k} = {fmt(v)} (not gated)")
    for c in raw["claims"]:
        print(f"  claim {c['name']} = {fmt(c['value'])} in [{c['lo']}, {c['hi']}]: {c['holds']}")
    if raw["holdout"] is not None:
        ok = all(c["holds"] for c in raw["holdout"]["claims"])
        print(f"  holdout seed {raw['holdout']['seed']}: claims hold {ok}")
    for e in raw["errors"]:
        print(f"  FAILED {e}")


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout-seed", type=int)
    args = p.parse_args(argv)
    if args.seed < 0 or args.holdout_seed is not None and args.holdout_seed < 0:
        p.error("seeds must be non-negative")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = os.path.join(target_dir, "perfbench-out")
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    spans_path = os.path.join(out_dir, f"spans-{stem}.jsonl")
    started = time.monotonic()
    binary = build(target_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", spans_path]
    if args.holdout_seed is not None:
        cmd += ["--holdout-seed", str(args.holdout_seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = per_layer(raw, read_spans(spans_path))
        units = PER_LAYER
    else:
        metrics = end_to_end(raw)
        units = END_TO_END
    report(args, raw, metrics, units)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump({"raw": raw, "metrics": metrics, "wall_s": time.monotonic() - started}, f)

    values = {k: (m["median"] if isinstance(m, dict) else m) for k, m in metrics.items()}
    correct = raw["failed"] == 0 and all(
        isinstance(v, (int, float)) and v == v for v in values.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
