#!/usr/bin/env python3
"""The repository benchmark of the racetrack-memory simulator.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py steady --workload NAME [--workload ...]
                           [--runs 10] [--trace 0|1] [--out SET.json]
  python3 perfbench/run.py ab BASE_CHECKOUT --workload NAME [...]
                           [--runs 10] [--out DIR]
  python3 perfbench/run.py compare BASE.json NEW.json

The first form builds the simulator from src/ (once, into
$CARGO_TARGET_DIR or .bench_build), runs the workload as repeated cold
processes of the rtm_perfbench program, checks the outputs and
prints one JSON result object on the last line of stdout. `steady`
repeats it over seeds 1..runs and reports each metric's spread against
its bound; `ab` runs this checkout and another one in alternating,
adjacent pairs; `compare` puts two result sets side by side.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# RTM_THREADS of each workload.
WORKLOADS = {"llc-sweep": 4, "rm-policy": 2, "fault-mc": 1}
# The host speed timings are scaled to: a typical hostSpeed() reading
# of rtm_perfbench (iterations/s of its fixed kernel, on a 4-vCPU Intel
# Xeon VM). It only sets the unit; compare is relative.
REF_SPEED = 6.5e7
# Largest relative gap between the medians of two separately made
# steady sets of the same code (README.md). compare of such sets calls
# no smaller difference better or worse; `ab` sets are exempt.
DRIFT_FLOOR = 0.10
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def benchmark_definition():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def work_dir(*parts):
    return os.path.join(ROOT, ".bench_work", *parts)


# --- build -----------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cached_source_dir(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure once, then (re)build; returns rtm_perfbench's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.hh")):
        raise BenchError("simulator sources not found under src/ "
                         "(run from the repository root)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    bdir = build_dir()
    source = cached_source_dir(bdir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(bdir)
        source = None
    steps = []
    if source is None:
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, env=env,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log(r.stdout[-8000:])
            raise BenchError("build failed: " + " ".join(cmd))
    binary = os.path.join(bdir, "rtm_perfbench")
    if not os.path.isfile(binary):
        raise BenchError("build produced no rtm_perfbench")
    return binary


# --- inputs ----------------------------------------------------------


def seeded_spec(name, seed, out_path):
    """The workload's spec with every section's seed set to `seed`."""
    spec = load_json(os.path.join(HERE, "specs", name + ".json"))
    for section in ("matrix", "campaign", "stress", "montecarlo"):
        if section in spec:
            spec[section]["seed"] = seed
    write_json(out_path, spec)


# --- processes -------------------------------------------------------


def run_bench(binary, args, threads):
    """One cold rtm_perfbench process; returns its last-line report."""
    env = dict(os.environ)
    env["RTM_THREADS"] = str(threads)
    env.pop("RTM_PROFILE", None)
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("rtm_perfbench timed out: " + " ".join(args))
    if proc.returncode != 0:
        log(err[-4000:])
        raise BenchError("rtm_perfbench exited %d: %s"
                         % (proc.returncode, " ".join(args)))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("rtm_perfbench printed no report")
    return json.loads(lines[-1])


def fresh_dir(path):
    """An empty output directory. Every process writes new files: the
    journal open is part of setup_s, and truncating a previous run's
    journal costs more than creating one."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def timed_processes(binary, spec_path, workload, tag, seconds):
    """Cold `run` processes one after the other until `seconds` have
    passed, and at least MIN_PROCESSES of them; returns their reports."""
    reports = []
    start = time.monotonic()
    while len(reports) < MIN_PROCESSES or \
            time.monotonic() - start < seconds:
        out = fresh_dir(work_dir("runs", "%s-%s-%d"
                                 % (workload, tag, len(reports))))
        reports.append(run_bench(binary, ["run", "--spec", spec_path,
                                          "--out", out],
                                 WORKLOADS[workload]))
    return reports


# --- statistics ------------------------------------------------------


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def spread(values):
    q1, q2, q3 = summary(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


# --- provenance ------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                        "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    return r.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(binary, workload, seed, report):
    info = run_bench(binary, ["info"], 1)
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "platform": platform.platform(),
        "workload": workload,
        "rtm_threads": WORKLOADS[workload],
        "seed": seed,
        "cells": report["cells"],
        "requests": report["requests"],
    }


# --- one benchmark run -----------------------------------------------


def pinned_digests():
    """Each workload's result digest at the default seed ("seed")."""
    return load_json(os.path.join(HERE, "digests.json"))


def check_reports(reports, workload, seed):
    """Failures of the program's checks and of the digest pins."""
    failures = []
    pinned = pinned_digests()
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        failures.append("processes disagree on the result digest: %s"
                        % sorted(digests))
    if seed == pinned["seed"] and reports[0]["digest"] != pinned[workload]:
        failures.append("digest %s != pinned %s" % (reports[0]["digest"],
                                                   pinned[workload]))
    for key in ("sim_exec_s_geomean", "shift_steps_per_access"):
        if len({r[key] for r in reports}) != 1:
            failures.append("processes disagree on " + key)
    for r in reports:
        failures.extend(r["failures"])
    return failures


def attempted_failed(reports, failures):
    attempted = sum(r["cells"] for r in reports)
    if failures:
        return attempted, attempted
    return attempted, sum(r["failed_cells"] for r in reports)


def scaled(report):
    """
    A process's host timings scaled to the reference host speed.

    Each cell's wall time is multiplied by the mean of the host-speed
    readings its worker took right before it (after its previous cell)
    and right after it, over REF_SPEED; the process's other timings by
    the cell-time-weighted mean of those ratios. The readings' own time
    is taken out first.
    """
    walls = report["cell_ms"]
    speeds = []
    previous = {}  # lane -> its last reading; cells are in claim order
    for lane, reading in zip(report["cell_lane"], report["cell_speed"]):
        speeds.append((previous.get(lane, reading) + reading) / 2)
        previous[lane] = reading
    factor = (sum(w * s for w, s in zip(walls, speeds))
              / (sum(walls) * REF_SPEED))
    calibration_s = report["calibration_s"]
    return {
        "factor": factor,
        "run_s": (report["run_s"] - calibration_s / report["threads"])
        * factor,
        "setup_s": report["setup_s"] * factor,
        "cpu_s": (report["cpu_s"] - calibration_s) * factor,
        "cell_ms": [w * s / REF_SPEED for w, s in zip(walls, speeds)],
    }


def end_to_end(reports):
    """Every end-to-end metric with its quartiles."""
    procs = [scaled(r) for r in reports]
    cells = [ms for p in procs for ms in p["cell_ms"]]
    cell_tail, pct, n = tail(cells)
    per_process = {
        "run_s": [p["run_s"] for p in procs],
        "setup_s": [p["setup_s"] for p in procs],
        "sim_req_per_s": [r["requests"] / p["run_s"]
                          for r, p in zip(reports, procs)],
        "cpu_s": [p["cpu_s"] for p in procs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "speed_factor": [p["factor"] for p in procs],
        "raw_run_s": [r["run_s"] for r in reports],
    }
    out = {}
    for name, values in per_process.items():
        q1, med, q3 = summary(values)
        out[name] = {"value": med, "q1": q1, "q3": q3,
                     "samples": len(values)}
    q1, med, q3 = summary(cells)
    out["cell_ms_p50"] = {"value": med, "q1": q1, "q3": q3,
                          "samples": len(cells)}
    out["cell_ms_tail"] = {"value": cell_tail, "percentile": pct,
                           "samples": n}
    for key in ("sim_exec_s_geomean", "shift_steps_per_access"):
        out[key] = {"value": reports[0][key], "samples": len(reports)}
    return out


def run_benchmark(args):
    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload '%s' (%s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    definition = benchmark_definition()
    binary = build()
    tag = "s%d-t%d" % (args.seed, args.trace)
    spec_path = work_dir("specs", "%s-%s.json" % (args.workload, tag))
    seeded_spec(args.workload, args.seed, spec_path)
    started = time.time()

    if args.trace == 0:
        reports = timed_processes(binary, spec_path, args.workload, tag,
                                  args.seconds)
        failures = check_reports(reports, args.workload, args.seed)
        detail = end_to_end(reports)
        wanted = definition["end_to_end"]
    else:
        # Untraced baseline processes for trace_overhead_frac over half
        # the run; the traced process, which replays every layer, takes
        # about the other half.
        probe_path = work_dir("specs", "probe-%s.json" % tag)
        seeded_spec("probe", args.seed, probe_path)
        out = fresh_dir(work_dir("runs", "%s-%s-traced" % (args.workload,
                                                           tag)))
        reports = timed_processes(binary, spec_path, args.workload, tag,
                                  args.seconds / 2)
        traced = run_bench(binary, ["trace", "--spec", spec_path,
                                     "--probe", probe_path, "--out", out],
                            WORKLOADS[args.workload])
        untraced_run_s = statistics.median(scaled(r)["run_s"]
                                           for r in reports)
        traced_run_s = scaled(traced)["run_s"]
        layers = dict(traced["layers"])
        layers["trace_overhead_frac"] = traced_run_s / untraced_run_s - 1
        failures = check_reports(reports + [traced], args.workload,
                                 args.seed)
        reports.append(traced)
        detail = {name: {"value": v} for name, v in layers.items()}
        detail["trace_overhead_frac"]["traced_run_s"] = traced_run_s
        detail["trace_overhead_frac"]["untraced_run_s"] = untraced_run_s
        wanted = definition["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in detail:
            raise BenchError("no measurement for metric " + m["name"])
        detail[m["name"]]["unit"] = m["unit"]
        metrics[m["name"]] = {"value": detail[m["name"]]["value"],
                              "unit": m["unit"]}
    attempted, failed = attempted_failed(reports, failures)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = {
        "provenance": provenance(binary, args.workload, args.seed,
                                 reports[0]),
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.time() - started,
        "result": result,
        "detail": detail,
        "failures": failures,
        "processes": reports,
    }
    path = work_dir("results", "%s-%s.json" % (args.workload, tag))
    write_json(path, record)

    for m in wanted:
        d = detail[m["name"]]
        extra = ""
        if "q1" in d:
            extra = "  [q1 %.6g, q3 %.6g, n=%d]" % (d["q1"], d["q3"],
                                                    d["samples"])
        elif "percentile" in d:
            extra = "  [p%.1f of %d cells]" % (d["percentile"],
                                               d["samples"])
        print("%-32s %14.6g %-8s%s" % (m["name"], d["value"], m["unit"],
                                       extra))
    for f in failures:
        print("FAILED: " + f)
    print("result file: " + os.path.relpath(path, ROOT))
    print(json.dumps(result, separators=(",", ":")))
    return 0


# --- steadiness check and comparison -----------------------------------


def run_once(root, workload, seed, trace):
    """One benchmark run of the checkout at `root`, in its own process;
    returns its result object with the seed and, from the result file,
    the unscaled run_s median added."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(benchmark_definition()["run_seconds"]),
           "--trace", str(trace)]
    env = dict(os.environ)
    if root != ROOT:
        # Another checkout builds into its own tree.
        env["CARGO_TARGET_DIR"] = ".bench_build"
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                       env=env)
    if r.returncode != 0:
        raise BenchError("run failed in %s: %s" % (root, " ".join(cmd)))
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    for line in lines:
        if line.startswith("result file: "):
            detail = load_json(os.path.join(
                root, line[len("result file: "):]))["detail"]
            if "raw_run_s" in detail:
                result["raw_run_s"] = detail["raw_run_s"]["value"]
    return result


def new_set(trace):
    return {"seconds": benchmark_definition()["run_seconds"],
            "trace": trace, "workloads": {}}


def cmd_steady(argv):
    p = argparse.ArgumentParser(prog="run.py steady")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    definition = benchmark_definition()
    bounds = {m["name"]: m.get("bound") for m in definition["end_to_end"]}
    out = new_set(args.trace)
    ok = True
    for workload in args.workload:
        runs = [run_once(ROOT, workload, seed, args.trace)
                for seed in range(1, args.runs + 1)]
        ok = ok and all(r["correct"] for r in runs)
        out["workloads"][workload] = runs
        print("%s: %d runs, all correct: %s" % (
            workload, len(runs), all(r["correct"] for r in runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if s < bound / 3 else (
                    "within bound" if s <= bound else "TOO WIDE")
            print("  %-30s median %-12.6g IQR/median %.4f  bound %s  %s"
                  % (name, statistics.median(values), s, bound, verdict))
    path = args.out or work_dir("sets", "steady-%d.json" % int(time.time()))
    write_json(path, out)
    print("set file: " + os.path.relpath(path, ROOT))
    return 0 if ok else 1


def quartile_text(values):
    q1, med, q3 = summary(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def cmd_ab(argv):
    p = argparse.ArgumentParser(prog="run.py ab")
    p.add_argument("base", help="root of the base checkout")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    roots = {"base": os.path.abspath(args.base), "new": ROOT}
    if not os.path.isfile(os.path.join(roots["base"], "perfbench",
                                       "run.py")):
        raise BenchError("no perfbench/run.py under " + roots["base"])
    session = "%d-%d" % (int(time.time()), os.getpid())
    sets = {side: dict(new_set(0), session=session) for side in roots}
    for workload in args.workload:
        for seed in range(1, args.runs + 1):
            # Alternate which side runs first; the two runs of a seed
            # are adjacent in time, so they see the same host.
            order = ("base", "new") if seed % 2 else ("new", "base")
            for side in order:
                result = run_once(roots[side], workload, seed, 0)
                sets[side]["workloads"].setdefault(workload, []).append(
                    result)
                log("%s %s seed %d: correct %s" % (
                    side, workload, seed, result["correct"]))
    out = args.out or work_dir("sets", "ab-" + session)
    for side in roots:
        write_json(os.path.join(out, side + ".json"), sets[side])
    print("set files: " + os.path.relpath(out, ROOT) + "/{base,new}.json")
    compare(sets["base"], sets["new"])
    return 0


def load_set(path):
    """A set file of steady or ab, or one result file wrapped as a set."""
    doc = load_json(path)
    if "workloads" in doc:
        return doc
    result = dict(doc["result"])
    result["seed"] = doc["provenance"]["seed"]
    return {"seconds": doc["seconds"], "trace": doc["trace"],
            "workloads": {doc["provenance"]["workload"]: [result]}}


def verdict(base, new, better, bound, floor):
    """better / worse / unresolved, by the rules in README.md."""
    sign = 1.0 if better == "higher" else -1.0
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    q1, _, q3 = summary(base)
    base_iqr = q3 - q1
    gain = sign * (n_med - b_med)
    rel = gain / abs(b_med) if b_med else 0.0
    if bound is not None and -rel > bound:
        return win_rate, "worse", "median worse by more than the bound"
    if floor and abs(rel) <= floor:
        return win_rate, "unresolved", \
            "within the drift between separate sets; use ab"
    if bound is None and pairs and losses / len(pairs) >= 0.9 \
            and -gain > base_iqr:
        return win_rate, "worse", "loses 9/10 pairs beyond the IQR"
    if win_rate >= 0.9 and gain > base_iqr:
        return win_rate, "better", "wins 9/10 pairs beyond the IQR"
    if bound is not None and spread(base) > bound:
        if min(sign * n for n in new) > max(sign * b for b in base):
            return win_rate, "better", "every new run beats every base run"
        return win_rate, "unresolved", "spread wider than the bound"
    return win_rate, "unresolved", "no gain shown; within the bound"


def compare(base, new):
    """Print each side's quartiles, the pair win rate and the verdict
    for every metric and workload the two sets share."""
    if base["seconds"] != new["seconds"] or base["trace"] != new["trace"]:
        raise BenchError("the sets differ in run length or trace mode")
    definition = benchmark_definition()
    meta = {m["name"]: m for m in
            definition["end_to_end"] + definition["per_layer"]}
    paired = base.get("session") is not None and \
        base.get("session") == new.get("session")
    floor = 0.0 if paired else DRIFT_FLOOR
    print("pairs: %s" % ("adjacent (one ab session)" if paired else
                         "by seed across separate sets; drift floor %g"
                         % floor))
    print("%-10s %-30s %-32s %-32s %5s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "new median [q1, q3]", "wins", "verdict"))
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_runs = {r["seed"]: r for r in base["workloads"][workload]}
        n_runs = {r["seed"]: r for r in new["workloads"][workload]}
        seeds = sorted(set(b_runs) & set(n_runs))
        if not seeds:
            raise BenchError("no shared seeds on " + workload)
        b_list = [b_runs[s] for s in seeds]
        n_list = [n_runs[s] for s in seeds]
        rows = [(name, [r["metrics"][name]["value"] for r in b_list],
                 [r["metrics"][name]["value"] for r in n_list], meta[name])
                for name in b_list[0]["metrics"]
                if name in n_list[0]["metrics"] and name in meta]
        if all("raw_run_s" in r for r in b_list + n_list):
            # Judged too because the host-speed readings partly track
            # the cells' own load (README.md, host-speed scaling).
            rows.append(("raw_run_s", [r["raw_run_s"] for r in b_list],
                         [r["raw_run_s"] for r in n_list], meta["run_s"]))
        for name, bv, nv, m in rows:
            win_rate, word, why = verdict(bv, nv, m["better"],
                                          m.get("bound"), floor)
            print("%-10s %-30s %-32s %-32s %4.0f%%  %s (%s)" % (
                workload, name, quartile_text(bv), quartile_text(nv),
                100 * win_rate, word, why))


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    compare(load_set(args.base), load_set(args.new))
    return 0


def main(argv):
    try:
        if argv and argv[0] == "steady":
            return cmd_steady(argv[1:])
        if argv and argv[0] == "ab":
            return cmd_ab(argv[1:])
        if argv and argv[0] == "compare":
            return cmd_compare(argv[1:])
        p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, default=pinned_digests()["seed"])
        p.add_argument("--seconds", type=int, default=None)
        p.add_argument("--trace", type=int, default=0, choices=(0, 1))
        args = p.parse_args(argv)
        if args.seconds is None:
            args.seconds = benchmark_definition()["run_seconds"]
        return run_benchmark(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
