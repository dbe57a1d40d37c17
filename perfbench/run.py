#!/usr/bin/env python3
"""Host-time benchmark of the simulator: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload flagship-lb --seed 3 --seconds 10 --trace 0

It builds perfbench/ (and the simulator libraries under src/) into
.bench_build/, runs the measuring binary, checks every executed run's
virtual results against perfbench/reference.json, and prints the metrics
by name with their units. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (no instrumentation); --trace 1
reports the per-layer breakdown. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "agcm_perfbench")
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The workload seed picks one of SEED_COUNT model seeds; the reference holds
# the virtual results of every one of them.
SEED_BASE = 1996
SEED_COUNT = 64
MAX_MASS_DRIFT = 1e-12
RUN_TIMEOUT_S = 170


def model_seed(seed):
    return SEED_BASE + seed % SEED_COUNT


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the measuring binary; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [configure,
             ["cmake", "--build", BUILD_DIR, "--target", "agcm_perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 3)


def run_binary(mode, workload, seed_value, seconds):
    cmd = [BINARY, mode, "--workloads", WORKLOAD_DIR, "--workload", workload,
           "--model-seed", str(seed_value), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s %s timed out" % (mode, workload), 4)
    if proc.returncode != 0:
        fail("%s %s exited with %d" % (mode, workload, proc.returncode), 4)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def check_failure(check, expected_digest):
    """Why one executed run fails its output check, or None."""
    if "error" in check:
        return "threw: " + check["error"]
    reasons = []
    if not check["mass_drift"] <= MAX_MASS_DRIFT:
        reasons.append("mass drift %.3g" % check["mass_drift"])
    if check["reference"] and check["digest"] != expected_digest:
        reasons.append("digest %s != reference %s"
                       % (check["digest"], expected_digest))
    if "equal_to" in check and check["digest"] != check["equal_to"]:
        reasons.append("digest %s != run_model %s"
                       % (check["digest"], check["equal_to"]))
    return "; ".join(reasons) or None


def make_reference(workloads):
    reference = {"seed_base": SEED_BASE, "seed_count": SEED_COUNT,
                 "workloads": {}}
    for name in workloads:
        entries = {}
        for k in range(SEED_COUNT):
            out = run_binary("reference", name, SEED_BASE + k, 0)
            (check,) = out["checks"]
            entry = {"digest": check["digest"]}
            entry.update({key: value for key, (value, _unit)
                          in out["metrics"].items()})
            entries[str(SEED_BASE + k)] = entry
            print("%s seed %d: %s" % (name, SEED_BASE + k, entry), flush=True)
        reference["workloads"][name] = entries
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference file to check against")
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate reference.json (re-baselines the "
                             "virtual side; only on purpose)")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    build()
    if args.make_reference:
        make_reference([args.workload] if args.workload else names)
        return
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))

    seed_value = model_seed(args.seed)
    with open(args.reference) as f:
        reference = json.load(f)
    if (reference.get("seed_base"), reference.get("seed_count")) != \
            (SEED_BASE, SEED_COUNT):
        fail("reference seed range does not match this benchmark")
    expected = reference["workloads"].get(args.workload, {}) \
        .get(str(seed_value), {}).get("digest", "missing")

    mode = "trace" if args.trace else "measure"
    out = run_binary(mode, args.workload, seed_value, args.seconds)
    fingerprint = out["fingerprint"]
    if not fingerprint["optimised"]:
        fail("the measuring binary is not an optimised build")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in out["metrics"]:
            fail("metric %s was not measured" % m["name"])
        value, unit = out["metrics"][m["name"]]
        if unit != m["unit"]:
            fail("metric %s has unit %s, expected %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}

    failures = [(c["label"], reason) for c in out["checks"]
                for reason in [check_failure(c, expected)] if reason]
    attempted = len(out["checks"])

    print("workload %s  seed %d (model seed %d)  mode %s"
          % (args.workload, args.seed, seed_value, mode))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for m in wanted:
        entry = metrics[m["name"]]
        print("  %-34s %16.6g %-6s (%s is better)"
              % (m["name"], entry["value"], entry["unit"], m["better"]))
    for note in out["notes"]:
        print("  note: " + note)
    print("  checks: %d runs, %d failed (failed_frac %.3g)"
          % (attempted, len(failures), len(failures) / max(attempted, 1)))
    for label, reason in failures:
        print("  FAILED %s: %s" % (label, reason))

    record = {"workload": args.workload, "seed": args.seed, "mode": mode,
              "fingerprint": fingerprint, "metrics": metrics,
              "attempted": attempted, "failed": len(failures)}
    with open(os.path.join(BUILD_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
