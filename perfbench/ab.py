#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two git revisions.

Usage (from inside the repository):

    python3 perfbench/ab.py --base HEAD~1 --head HEAD \\
        [--workloads tenant_mix,client_scan] [--pairs 10] \\
        [--workdir .bench_ab] [--out ab.json]

Each revision is exported with `git archive` into <workdir>/<label>-<sha>,
and this tree's BENCHMARK.json and perfbench/ are copied over it, so both
sides run the same benchmark code against their own src/. Every run is
untraced and lasts BENCHMARK.json's run_seconds. Pair i runs seed
1000 + i on both sides and alternates which side goes first.

For every workload and metric it reports each side's median and
quartiles and the share of pairs the head side wins (ties count for
neither side), and writes the same as JSON to --out. It also prints
each side's failed-check and failed-operation counts per workload, and
exits with 1 when a correctness check failed on either side. A gain
should be claimed only when the head wins at least 9 pairs in 10 and the
medians differ by more than the base's own quartile spread.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)


def git(*args, cwd=TREE):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, label, workdir):
    """Exports `rev` with the current benchmark files; returns its path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    dest = os.path.join(workdir, "%s-%s" % (label, sha[:12]))
    if not os.path.exists(os.path.join(dest, "src")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=TREE,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit("git archive %s failed" % rev)
    shutil.copy2(os.path.join(TREE, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {"label": label, "rev": rev, "sha": sha, "path": dest}


FIRST_SEED = 1000


def run(side, workload, seed, seconds, build_only=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if build_only:
        cmd.append("--build-only")
    proc = subprocess.run(cmd, cwd=side["path"], capture_output=True,
                          text=True)
    if build_only:
        if proc.returncode != 0:
            sys.exit("%s: build failed\n%s" % (side["label"], proc.stderr))
        return None
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    if proc.returncode not in (0, 1) or not last.startswith("{"):
        sys.exit("%s %s seed %d failed (exit %d)\n%s" % (
            side["label"], workload, seed, proc.returncode,
            proc.stderr[-2000:]))
    return json.loads(last)


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="baseline git revision")
    p.add_argument("--head", required=True, help="candidate git revision")
    p.add_argument("--workloads", default="",
                   help="comma-separated (default: all in BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workdir", default=os.path.join(TREE, ".bench_ab"))
    p.add_argument("--out", default="")
    args = p.parse_args()

    with open(os.path.join(TREE, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    os.makedirs(args.workdir, exist_ok=True)
    sides = [export(args.base, "base", args.workdir),
             export(args.head, "head", args.workdir)]
    for side in sides:
        run(side, workloads[0], 0, seconds, build_only=True)

    load_start = os.getloadavg()
    results = {}
    for workload in workloads:
        samples = {"base": [], "head": []}
        # Runs whose correctness checks failed, and failed operations.
        checks = {"base": {"failed_runs": 0, "failed_ops": 0},
                  "head": {"failed_runs": 0, "failed_ops": 0}}
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                r = run(side, workload, seed, seconds)
                samples[side["label"]].append(r["metrics"])
                checks[side["label"]]["failed_runs"] += not r["correct"]
                checks[side["label"]]["failed_ops"] += r["failed"]
            print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr)
        per_metric = {}
        for name in samples["base"][0]:
            base = [m[name]["value"] for m in samples["base"]]
            head = [m[name]["value"] for m in samples["head"]]
            sign = 1 if better.get(name, "lower") == "higher" else -1
            wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
            per_metric[name] = {
                "unit": samples["base"][0][name]["unit"],
                "better": better.get(name, "lower"),
                "base": summary(base), "head": summary(head),
                "head_win_share": wins / len(base),
                "base_values": base, "head_values": head}
        results[workload] = {"checks": checks, "metrics": per_metric}

    report = {"base": {k: sides[0][k] for k in ("rev", "sha")},
              "head": {k: sides[1][k] for k in ("rev", "sha")},
              "pairs": args.pairs, "seconds": seconds,
              "hardware_threads": os.cpu_count(),
              "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
              "results": results}
    print("%-12s %-34s %14s %22s %14s %22s %8s %6s" % (
        "workload", "metric", "base_med", "base[q1,q3]", "head_med",
        "head[q1,q3]", "delta", "wins"))
    for workload, res in results.items():
        print("%-12s %-34s base %d, head %d of %d runs; failed ops: base %d, "
              "head %d" % (
                  workload, "failed_checks",
                  res["checks"]["base"]["failed_runs"],
                  res["checks"]["head"]["failed_runs"], args.pairs,
                  res["checks"]["base"]["failed_ops"],
                  res["checks"]["head"]["failed_ops"]))
        for name, m in res["metrics"].items():
            b, h = m["base"], m["head"]
            delta = ((h["median"] - b["median"]) / b["median"] * 100
                     if b["median"] else float("nan"))
            print("%-12s %-34s %14.6g [%9.4g,%9.4g] %14.6g [%9.4g,%9.4g] "
                  "%+7.2f%% %5.0f%%" % (
                      workload, name, b["median"], b["q1"], b["q3"],
                      h["median"], h["q1"], h["q3"], delta,
                      100 * m["head_win_share"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    failed = sorted(w for w, res in results.items()
                    if any(c["failed_runs"] for c in res["checks"].values()))
    if failed:
        print("ab: correctness checks failed on %s; do not compare these "
              "figures" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
