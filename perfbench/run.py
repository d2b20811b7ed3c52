#!/usr/bin/env python3
"""Benchmark runner for the pde pipeline.

Run one workload (builds `pde` and the benchmark from source first):

    python3 perfbench/run.py --workload sync --seed 1 --seconds 20 --trace 0

The last stdout line is the result object. Every run also appends one
record to `.bench_out/records.jsonl` (never rewriting earlier lines).

Compare two sets of records of the same host (alternating-pair rule):

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

Run the benchmark's own tests:

    python3 perfbench/run.py selftest
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RECORDS = OUT / "records.jsonl"
# A run that has not finished by then is killed and prints no result.
RUN_TIMEOUT_S = 170
# The default workload seed, and the held-out seed kept for checking a
# claimed gain on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Build `pde` and the benchmark binary; None when the sources are absent."""
    manifests = [ROOT / "Cargo.toml", HERE / "Cargo.toml"]
    if not all(m.is_file() for m in manifests) or not (ROOT / "crates").is_dir():
        print("error: the repository sources are missing; nothing to build", file=sys.stderr)
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for manifest, extra in ((manifests[0], ["--bin", "pde"]), (manifests[1], [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    release = target_dir() / "release"
    return release / "pde", release / "pde-perfbench"


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources that build the measured binaries."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "kernel": platform.release()}


def steal_ticks():
    """Clock ticks the hypervisor has taken from this machine's CPUs."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def read_records(path):
    if not Path(path).is_file():
        return []
    out = []
    for line in Path(path).read_text().splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            continue
    return out


def count_drift(record, earlier):
    """Exact counts that differ from an earlier traced run of the same
    sources, workload, seed and window."""
    key = ("digest", "workload", "seed", "seconds")
    drift = set()
    for old in earlier:
        if old.get("trace") != 1 or any(old.get(k) != record.get(k) for k in key):
            continue
        for name, value in record.get("exact_counts", {}).items():
            if name in old.get("exact_counts", {}) and old["exact_counts"][name] != value:
                drift.add(name)
    return sorted(drift)


def run_workload(argv):
    built = build()
    if built is None:
        return 1
    pde, bench = built
    OUT.mkdir(exist_ok=True)
    cmd = [str(bench), *argv, "--pde", str(pde), "--work-dir", str(OUT)]
    steal = steal_ticks()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"error: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-2])
    result = lines[-1]
    commit = git("rev-parse", "HEAD")
    record.update({
        "commit": commit or "unknown",
        "dirty": bool(git("status", "--porcelain")) if commit else None,
        "digest": source_digest(),
        "host": host(),
        # Host contention during the run: it moves every timing.
        "steal_ticks": steal_ticks() - steal,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    if record["trace"] == 1:
        record["count_drift"] = count_drift(record, read_records(RECORDS))
        for name in record["count_drift"]:
            print(f"count drift: {name} differs from an earlier run of these sources",
                  file=sys.stderr)
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(result)
    return 0


# ---- compare -------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The verdict for one metric on one workload.

    `parent` and `change` are the per-run values of alternating pairs, in
    run order. A gain needs ≥ 9/10 pairs won and a median gap wider than
    the parent's IQR; a regression is a median worse than the parent's by
    more than `bound`. Returns (verdict, detail)."""
    pairs = list(zip(parent, change))
    n = len(pairs)
    if n < 10:
        return "unresolved", f"{n} pairs (need 10)"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = pq3 - pq1
    gain = sign * (cmed - pmed)
    detail = (f"parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}] change {cmed:.6g} "
              f"wins {wins}/{n} losses {losses}/{n}")
    if wins >= 0.9 * n and gain > iqr:
        return "improved", detail
    if -gain > bound * abs(pmed):
        return "regressed", detail
    spread = iqr / abs(pmed) if pmed else float("inf")
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved", detail + f" (parent spread {spread:.3f} > bound {bound})"
    return "unchanged", detail


def compare(parent_records, change_records, bench):
    """One row per workload: each end-to-end metric's verdict."""
    hosts = {json.dumps(r.get("host"), sort_keys=True) for r in parent_records + change_records}
    if len(hosts) > 1:
        raise ValueError("records come from different hosts; refusing to compare")
    rows = {}
    for workload in sorted({r["workload"] for r in parent_records}):
        p = [r for r in parent_records if r["workload"] == workload and r["trace"] == 0]
        c = [r for r in change_records if r["workload"] == workload and r["trace"] == 0]
        row = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c if name in r["metrics"]]
            row[name] = verdict(pv, cv, m["better"], m["bound"])
        rows[workload] = row
    return rows


def compare_main(argv):
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(read_records(argv[0]), read_records(argv[1]), bench)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for workload, row in rows.items():
        print(f"{workload}: " + " ".join(f"{m}={v}" for m, (v, _) in row.items()))
        for m, (v, detail) in row.items():
            print(f"    {m}: {v}: {detail}")
    return 0


def selftest():
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", str(HERE),
                            "-p", "test_*.py"], cwd=ROOT).returncode
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cargo = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                            "--manifest-path", str(HERE / "Cargo.toml")], cwd=ROOT,
                           env=env).returncode
    return 1 if tests or cargo else 0


def main(argv):
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["selftest"]:
        return selftest()
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
