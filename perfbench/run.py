#!/usr/bin/env python3
"""tempo's benchmark: one command, three workloads (``BENCHMARK.json``
lists ``eval_gcc`` and ``daemon_drift``; ``offline_perl`` runs by hand).

    python3 perfbench/run.py --workload eval_gcc --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. It builds ``perfbench/`` (a package of its
own, against the repository's crates by path), sets the workload up
several times (seeded TMP2 inputs plus reference outputs, written to a
scratch directory under ``.bench_work/``), measures it for ``--seconds``
in a separate process, checks every output against the reference, and
prints one JSON object as the last line of standard output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` half
the window runs untraced and half traced, and it reports the per-layer
metrics. A human-readable report goes to standard error.

See ``perfbench/README.md`` for the workloads, the metrics and the ledger.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

WORKLOADS = ("offline_perl", "eval_gcc", "daemon_drift")
# Set-up runs this many times per run; its median is `setup_s`.
SETUP_REPEATS = 3
# Limits, in seconds: a set-up process, the measure process beyond its
# window (warm-ups and the pass that crosses the end), and a cold build.
# A warm run stays inside 180 s even if every limit is reached.
SETUP_TIMEOUT = 20
MEASURE_SLACK = 50
BUILD_TIMEOUT = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # The program reads TEMPO_* variables (ingest path, log format); the
    # benchmark measures its defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("TEMPO_")}


def run_child(argv, timeout):
    """Runs a child to completion and returns (stdout, rusage). A child
    still running after `timeout` seconds is killed; either way it is
    reaped before this returns, and a non-zero exit raises."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    except BaseException:  # a signal or an error: stop the child too
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        # wait4, not wait: the child's own rusage carries its peak RSS.
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with {proc.returncode}")
    return out.decode(), rusage


def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        raise RuntimeError("not a tempo checkout: crates/core is missing")
    env = child_env()
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("cargo build failed")
    return os.path.join(target, "release", "tempo-perfbench")


def load_reference_tsv(path):
    with open(path) as f:
        return dict(line.rstrip("\n").split("\t", 1) for line in f if line.strip())


def recorded_reference(workload, seed):
    with open(os.path.join(HERE, "reference.json")) as f:
        recorded = json.load(f)
    return recorded["seeds"].get(str(seed), {}).get(workload)


def main():
    # Terminated from outside: unwind, so every child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            out, _ = run_child([binary, "setup", "--workload", args.workload,
                                "--seed", str(args.seed), "--dir", work], SETUP_TIMEOUT)
            setup_s.append(json.loads(out)["setup_s"])
        out, rusage = run_child(
            [binary, "measure", "--workload", args.workload, "--dir", work,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + MEASURE_SLACK)
        raw = json.loads(out)
        computed = load_reference_tsv(os.path.join(work, "reference.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    untraced = raw["untraced"]
    attempted = untraced["attempted"]
    failed = untraced["failed"]
    failures = list(untraced["failures"])
    if args.trace:
        traced = raw["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
    recorded = recorded_reference(args.workload, args.seed)
    if recorded is not None:
        mismatches = benchlib.compare_reference(recorded, computed)
        attempted += len(recorded)
        failed += len(mismatches)
        failures += mismatches

    if args.trace:
        metrics = benchlib.per_layer(untraced, traced)
    else:
        metrics = benchlib.end_to_end(untraced, setup_s, rusage.ru_maxrss)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    rendered = benchlib.render(metrics, declared, unexercised_ok=bool(args.trace))

    log(f"{args.workload} seed {args.seed}: {len(untraced['pass_s'])} untraced passes"
        + (f", {len(traced['pass_s'])} traced" if args.trace else "")
        + f", {attempted} operations checked, {failed} failed"
        + ("" if recorded is None else " (recorded reference values included)"))
    for f in failures:
        log(f"  FAILED {f}")
    for name, r in rendered.items():
        v = metrics.get(name)
        if v is None:
            base = "  (not exercised)"
        elif isinstance(v, benchlib.Ratio):
            base = f"  (base {v.base:g})"
        else:
            base = ""
        log(f"  {name:<34} {r['value']:>14.6g} {r['unit']}{base}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": rendered,
    }))


if __name__ == "__main__":
    try:
        main()
    except Exception as e:  # any failure: no result line, non-zero exit
        log(f"perfbench: {e}")
        sys.exit(1)
