#!/usr/bin/env python3
"""End-to-end synthesis benchmark: time to verdict, with a traced layer split.

    python3 e2ebench/run.py --workload c1_cli_fast --seed 1 --seconds 50 --trace 0
    python3 e2ebench/run.py --workload all --seed 1     # all three, one by one

Builds the harness (e2ebench/harness.cpp plus the library from src/) into
.bench_build/, runs the workload in fresh harness processes, one pass each,
for as long as another pass still fits in --seconds (always at least one),
checks the outputs and prints every metric by name with its unit and sample
count. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Exit codes: 0 success, 1 a wrong output (digest mismatch, soundness
violation, exception, deadline), 2 usage or a missing source tree, 3 a run
that refuses to record (pool width 1 or an unoptimized build).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
HARNESS = BUILD_DIR / "scs_e2e"
# The first two are the gated workloads of BENCHMARK.json; c9_table2_smoke
# is the RL-dominated view, run on request (README.md says why).
WORKLOADS = ("c1_cli_fast", "family64", "c9_table2_smoke")
# Default pipeline and family seed: the problem each workload solves.
# README.md names the held-out seed for verifying claims.
PROBLEM_SEED = 2024
SETUP_REPS = 15         # set-up-only processes timed before each pass
RUN_TIMEOUT_S = 170     # hard cap on one harness process

# name -> unit, for the lines printed and the JSON metrics.
END_TO_END = {
    "time_to_verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pac_eps": "1",
}
PER_LAYER = {
    "core.rl_s": "s", "core.pac_s": "s", "core.barrier_s": "s",
    "core.validation_s": "s", "core.other_s": "s",
    "rl.train_s": "s", "rl.eval_s": "s", "rl.env_steps": "count",
    "rl.train_us_per_step": "us", "rl.updates": "count",
    "pac.attempts": "count", "pac.samples": "count", "pac.attempt_s": "s",
    "pac.scenario_s": "s", "pac.design_s": "s", "pac.minimax_s": "s",
    "opt.simplex_pivots": "count", "opt.pivots_per_fit": "count",
    "barrier.sos_programs": "count", "barrier.accept_ratio": "ratio",
    "opt.sdp_solves": "count", "opt.sdp_iterations": "count",
    "opt.sdp_stalls": "count", "opt.sdp_restarts": "count",
    "opt.sdp_solve_s": "s", "barrier.self_s": "s",
    "validation.check_s": "s", "validation.checked": "count",
    "pool.cpu_util": "ratio", "pool.tasks_submitted": "count",
    "pool.queue_depth_max": "count", "obs.trace_overhead": "ratio",
}


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the harness into .bench_build/."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"no library sources under {ROOT / 'src'}; run from a full "
                "checkout of the repository")
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "scs_e2e",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                fail(1, "build failed:\n" + "\n".join(tail))


def clean_env():
    """The environment without SCS_* knobs (trace, metrics, ledger, cache,
    thread count), so timed runs see none of them."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SCS_")}


def run_harness(args, out, extra=()):
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--pipeline-seed", str(args.pipeline_seed),
           "--family-seed", str(args.family_seed), "--out", str(out),
           "--spawn-ns", str(time.monotonic_ns()), *extra]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{args.workload}: harness exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(1, f"{args.workload}: harness exited {proc.returncode}\n"
                + proc.stderr[-2000:])
    return json.loads(Path(out).read_text())


def source_digest():
    """Content hash of the library sources and the benchmark itself: the
    identity under which result digests are remembered across runs."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def outcome_failures(systems):
    """Failed operations among system records: an exception, a stop
    (deadline or cancel), or a VERIFIED result the checker rejects. An
    UNVERIFIED verdict is an answer, not a failure. The pipeline reports an
    exception as failure stage "exception", or "rl" when stage 1 threw (RL
    has no other way to fail)."""
    bad = []
    for s in systems:
        if (s["failure_stage"] in ("exception", "rl")
                or s["verdict"] in ("DEADLINE", "CANCELLED")):
            bad.append(f"{s['name']}: {s['verdict']} at {s['failure_stage']}")
        elif s["verdict"] == "VERIFIED" and not (s["checked"] and s["check_accepted"]):
            bad.append(f"{s['name']}: VERIFIED but rejected by independent_check")
    return bad


def remembered_digests(key, digests):
    """Compare with the digests an earlier run of the same sources, workload
    and seeds recorded in .bench_build/digests.json; record them if new."""
    store = BUILD_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        return stats.digest_mismatches(known[key], digests)
    known[key] = digests
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return []


def end_to_end_metrics(raw, setup_samples):
    passes = raw["passes"]
    ttv = stats.summarize([s["wall_s"] for p in passes for s in p["systems"]])
    first = passes[0]["systems"]
    n = len(first)
    m = {
        "time_to_verdict_s": (ttv["median"], ttv["n"]),
        "setup_s": (stats.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (stats.median(raw["peak_rss_mb"]),
                        len(raw["peak_rss_mb"])),
        "pac_eps": (stats.median([s["pac_eps"] for s in first]), n),
    }
    # Printed for the reader, not gated (see README.md "Metrics").
    info = {
        "systems_per_min": (stats.median([60.0 * n / p["wall_s"] for p in passes]),
                            len(passes), "1/min"),
        "verified_rate": (sum(s["verdict"] == "VERIFIED" for s in first) / n, n, "1"),
        "pac_error": (stats.median([s["pac_e"] for s in first]), n, "1"),
        "checked": (sum(s["checked"] for s in first), n, "count"),
    }
    if "tail" in ttv:
        info[f"time_to_verdict_p{int(ttv['tail_pct'])}_s"] = (ttv["tail"], ttv["n"], "s")
    return m, info


def per_layer_metrics(raw):
    t = raw["traced"]
    systems = t["pass"]["systems"]
    spans = [tuple(s) for s in t["spans"]]
    counters, gauges = t["counters"], t["gauges_max"]
    total = lambda key: sum(s[key] for s in systems)  # noqa: E731
    ns = 1e-9
    wall = total("wall_s")
    stage_sum = sum(total(k) for k in ("rl_s", "pac_s", "barrier_s", "validation_s"))
    steps = total("rl_env_steps")
    train_s = stats.span_total(spans, "bench.rl.train") * ns
    sos = total("sos_programs")
    untraced = raw["passes"][0]
    width = raw["provenance"]["pool_width"]
    values = {
        "core.rl_s": total("rl_s"),
        "core.pac_s": total("pac_s"),
        "core.barrier_s": total("barrier_s"),
        "core.validation_s": total("validation_s"),
        "core.other_s": wall - stage_sum,
        "rl.train_s": train_s,
        "rl.eval_s": stats.span_total(spans, "bench.rl.evaluate") * ns,
        "rl.env_steps": steps,
        "rl.train_us_per_step": 1e6 * train_s / max(steps, 1),
        "rl.updates": total("rl_updates"),
        "pac.attempts": total("pac_attempts"),
        "pac.samples": total("pac_samples"),
        "pac.attempt_s": total("pac_attempt_s"),
        "pac.scenario_s": t["replay"]["scenario_s"],
        "pac.design_s": t["replay"]["design_s"],
        "pac.minimax_s": t["replay"]["minimax_s"],
        "opt.simplex_pivots": counters.get("simplex.pivots", 0),
        "opt.pivots_per_fit": counters.get("simplex.pivots", 0) / max(total("pac_attempts"), 1),
        "barrier.sos_programs": sos,
        "barrier.accept_ratio": total("barrier_success") / max(sos, 1),
        "opt.sdp_solves": counters.get("sdp.solves", 0),
        "opt.sdp_iterations": counters.get("sdp.iterations", 0),
        "opt.sdp_stalls": counters.get("sdp.stalls", 0),
        "opt.sdp_restarts": counters.get("sdp.restarts", 0),
        "opt.sdp_solve_s": stats.span_total(spans, "sdp.solve") * ns,
        "barrier.self_s": stats.total_self_time(spans, "stage.barrier", "sdp.solve") * ns,
        "validation.check_s": stats.span_total(spans, "bench.check") * ns,
        "validation.checked": total("checked"),
        "pool.cpu_util": untraced["cpu_s"] / (untraced["wall_s"] * width),
        "pool.tasks_submitted": counters.get("pool.tasks_submitted", 0),
        "pool.queue_depth_max": gauges.get("pool.queue_depth", 0),
        "obs.trace_overhead": t["pass"]["wall_s"] / untraced["wall_s"] - 1.0,
    }
    n = len(systems)
    return {k: (values[k], n) for k in PER_LAYER}


def run_processes(args, work, tag):
    """Harness processes, one pass each, while another still fits in
    --seconds (a traced run makes one). Each pass follows SETUP_REPS timed
    set-up-only processes. Returns the first process's record with every
    process's pass in "passes" and its peak RSS in "peak_rss_mb", and the
    set-up samples."""
    extra = ["--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-file", str(work / f"{tag}.trace.json")]
    records, setup_samples = [], []
    start = time.monotonic()
    while True:
        setup_samples += [run_harness(args, work / f"{tag}.setup.json",
                                      ["--setup-only"])["setup_s"]
                          for _ in range(SETUP_REPS)]
        began = time.monotonic()
        out = work / f"{tag}.{len(records)}.json"
        records.append(run_harness(args, out, extra))
        setup_samples.append(records[-1]["setup_s"])
        now = time.monotonic()
        if args.trace or now - start + (now - began) > args.seconds:
            break
    raw = dict(records[0], passes=[r["pass"] for r in records],
               peak_rss_mb=[r["peak_rss_mb"] for r in records])
    return raw, setup_samples


def run_workload(args):
    """One workload in fresh harness processes. Returns (result, exit code)."""
    work = BUILD_DIR / "runs"
    work.mkdir(exist_ok=True)
    tag = (f"{args.workload}-s{args.seed}-p{args.pipeline_seed}"
           f"-f{args.family_seed}-t{args.trace}")
    raw, setup_samples = run_processes(args, work, tag)

    prov = dict(raw["provenance"], git_sha=git_sha(), source=source_digest(),
                workload=args.workload, seconds=args.seconds, trace=args.trace)
    print(f"# {args.workload} provenance: {json.dumps(prov, sort_keys=True)}")
    if prov["pool_width"] <= 1 or not prov["optimized"]:
        print(f"run.py: refusing to record {args.workload}: pool width "
              f"{prov['pool_width']}, optimized={prov['optimized']}",
              file=sys.stderr)
        return None, 3

    # ---- Correctness: outcomes, pass-to-pass and traced-vs-untraced
    # digests, and digests remembered from earlier runs of these sources.
    problems = []
    passes = raw["passes"] + ([raw["traced"]["pass"]] if args.trace else [])
    attempted = sum(len(p["systems"]) for p in passes)
    failed = 0
    for p in passes:
        bad = outcome_failures(p["systems"])
        failed += len(bad)
        problems += bad
    reference = {s["name"]: s["digest"] for s in passes[0]["systems"]}
    for i, p in enumerate(passes[1:], 1):
        label = "traced pass" if args.trace and i == len(passes) - 1 else f"pass {i}"
        diff = stats.digest_mismatches(
            reference, {s["name"]: s["digest"] for s in p["systems"]})
        failed += len(diff)
        problems += [f"{name}: {label} digest differs from pass 0" for name in diff]
    # Results do not depend on the run seed (it only orders the batch).
    key = (f"{args.workload}|pipeline_seed={args.pipeline_seed}"
           f"|family_seed={args.family_seed}|src={prov['source']}")
    diff = remembered_digests(key, reference)
    failed += len(diff)
    problems += [f"{name}: digest differs from an earlier run" for name in diff]
    if args.trace and raw["traced"]["trace_dropped"]:
        problems.append(f"trace dropped {raw['traced']['trace_dropped']} events")

    if args.trace:
        metrics = per_layer_metrics(raw)
        units = PER_LAYER
        replay = raw["traced"]["replay"]
        print(f"# {args.workload} PAC replay: {replay['rows']} attempts, "
              f"{replay['exact']} reproduced exactly")
    else:
        metrics, info = end_to_end_metrics(raw, setup_samples)
        units = END_TO_END
        for name, (value, n, unit) in info.items():
            print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for name, (value, n) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} (n={n})")
    print(f"{args.workload} failure_rate = {failed / attempted:.6g} 1 "
          f"(n={attempted})")
    for p in problems:
        print(f"run.py: {args.workload}: {p}", file=sys.stderr)

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in metrics.items()}}
    return result, 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True,
                    help="run seed: the submission order of family64's batch")
    ap.add_argument("--pipeline-seed", type=int, default=PROBLEM_SEED,
                    help="pipeline seed of the C1 and C9 workloads")
    ap.add_argument("--family-seed", type=int, default=PROBLEM_SEED,
                    help="family (and pipeline) seed of family64's systems")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, code = {}, 0
    for name in names:
        args.workload = name
        result, rc = run_workload(args)
        if result is None:
            sys.exit(rc)
        results[name] = result
        code = max(code, rc)
        if len(names) > 1:
            print(json.dumps(result))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(code)


if __name__ == "__main__":
    main()
