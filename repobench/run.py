"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload cold_ladder --seed 1 \
        --seconds 45 --trace 0

Every workload runs in fresh processes started here (see
``workloads.py``): set-up is measured in several of them and reported
as the median; the last one also runs the timed loop (``--trace 0``,
end-to-end metrics) or the traced run (``--trace 1``, per-layer
metrics).  The program is imported from the checkout's ``src/`` and
nowhere else; without it the benchmark exits with an error.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".repobench_work"
WORKLOADS = ("cold_ladder", "warm_sweep")
#: Set-up is measured in this many fresh processes, the timed one last.
SETUP_SAMPLES = 4
#: Fresh interpreters timing ``import repro.cli`` in a traced run.
IMPORT_SAMPLES = 3
#: Everything, set-up samples included, must end within this.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A child failed, timed out or printed no result."""


def child(role, args, work, deadline):
    """Run ``workloads.py`` in a fresh interpreter; returns its JSON line.

    Each process gets a directory of its own under ``work``.
    """
    work = work / f"{role}-{len(list(work.iterdir()))}"
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    command = [sys.executable, str(HERE / "workloads.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work", str(work)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {role} process")
    try:
        done = subprocess.run(command + ["--spawned-at", repr(time.time())],
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining, cwd=str(ROOT), env=env,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Terminated from outside: unwind, so subprocess.run kills and reaps
    # the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"repobench: no program source at {SRC}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            imports = [child("import", args, work, deadline)["import_s"]
                       for _ in range(IMPORT_SAMPLES)]
            memory = child("memory", args, work, deadline)["rss_mb"]
            result = child("trace", args, work, deadline)
            result["metrics"]["cli.import_s"] = {
                "value": statistics.median(imports), "unit": "s"}
            for name, value in memory.items():
                result["metrics"][name] = {"value": value, "unit": "MB"}
        else:
            setups = [child("setup", args, work, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = child("run", args, work, deadline)
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (BenchError, ValueError, KeyError) as error:
        print(f"repobench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
