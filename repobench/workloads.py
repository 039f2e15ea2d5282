"""One benchmark workload in one fresh process (started by ``run.py``).

Roles:

* ``setup`` — import, generate the inputs, run the untimed warm-up, and
  report how long that took since the launcher spawned this process;
* ``run`` — the same set-up, then closed-loop timed operations (one
  client) for ``--seconds``, then the record checks and a cache replay
  of the first operation's records; prints the end-to-end metrics;
* ``trace`` — the same set-up, untraced operations for half the time
  and traced operations for the other half, the layer probes and the
  checks; prints the per-layer metrics;
* ``memory`` — import and generate the inputs, then solve them cold and
  staged, recording how far circuit build, stage 1 and the solve each
  raise the peak resident set;
* ``import`` — time ``import repro.cli`` in a fresh interpreter.

The last line of standard output is one JSON object.  Only the standard
library is imported at module level, so the ``import`` role times a
cold import.
"""

import argparse
import json
import math
import pathlib
import random
import resource
import shutil
import statistics
import sys
import time

import record_checks as rc

LADDER = ("c432", "c1355", "c7552")
WARM_CIRCUITS = ("c1355", "c7552")
WARM_SLACKS = (1.02, 1.1)
WARM_NOISE = (0.1, 0.2)
WARM_TOLERANCES = (0.01, 0.003, 0.001)
#: Repetitions of each single call timed at the fixed point.
PROBE_CALLS = 5


def _median(values):
    return float(statistics.median(values))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stages:
    """Wall time per named layer, or how far three layers raise peak RSS.

    With ``memory=True`` each stage named by ``rss=`` records how much
    it raised the process's peak resident set (MB).  That is only
    meaningful in a process that has run nothing before, so a memory
    pass runs in a fresh process of its own.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.seconds = {}
        self.rss_mb = {}

    def time(self, name, fn, *args, rss=None):
        peak = _peak_rss_mb() if self.memory and rss else 0.0
        started = time.perf_counter()
        value = fn(*args)
        elapsed = time.perf_counter() - started
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        if self.memory and rss:
            self.rss_mb[rss] = self.rss_mb.get(rss, 0.0) + \
                _peak_rss_mb() - peak
        return value

    def total(self):
        return sum(self.seconds.values())


def staged_artifacts(stages, session, scenario):
    """Build a session's artifacts one call at a time, as a cold solve does.

    The order is the one :class:`ScenarioBatch` needs them in: circuit,
    compiled form, sweep plan, fingerprint, similarity analyzer, stage 1,
    coupling, engine.  On a warm session every call is a memo hit.
    Returns the engine.
    """
    config = scenario.config
    seed = scenario.seed
    stages.time("circuit.build_s", lambda: session.circuit,
                rss="circuit.build_rss_mb")
    compiled = stages.time("circuit.compile_s", lambda: session.compiled)
    stages.time("timing.sweep_plan_s", compiled.sweep_plan)
    stages.time("runtime.fingerprint_s", session.fingerprint)
    stages.time("simulate.similarity_s", session.analyzer,
                config.n_patterns, seed)
    stages.time("noise.stage1_s", session.stage1, config.ordering,
                config.n_patterns, seed, rss="noise.stage1_rss_mb")
    stages.time("noise.coupling_s", session.coupling, config.ordering,
                config.n_patterns, seed, config.miller_mode,
                config.coupling_order)
    return stages.time("timing.engine_s", session.engine, config.ordering,
                       config.n_patterns, seed, config.miller_mode,
                       config.coupling_order, config.delay_mode)


class OpResult:
    """One timed operation: its records, wall time and first-record time.

    :meth:`Workload.settle` checks the records, sums what the metrics
    need from them and drops them from every operation but the first.
    """

    def __init__(self, records, seconds, first_record_s, stages=None):
        self.records = records
        self.count = len(records)
        self.seconds = seconds
        self.first_record_s = first_record_s
        self.stages = stages
        self.problems = []
        self.area = self.iterations = self.repair_evals = None


class Workload:
    """Inputs, operation, replay and checks shared by the workloads."""

    name = ""
    #: Whether each operation solves through a fresh runner, so that its
    #: time is also the serial cold solve a queue drain is compared with.
    cold_operations = True

    def __init__(self, repro, seed, work):
        self.repro = repro
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = work
        self.scenarios = self.make_scenarios()
        self._facts = {}
        self.probe_target = None    # (session, scenario, record)
        self.notes = []             # run-report lines from extra_checks

    # -- per-workload hooks ------------------------------------------------

    def make_scenarios(self):
        raise NotImplementedError

    def warm_up(self):
        self.operation()

    def runner(self):
        """The :class:`BatchRunner` an operation solves through."""
        return self.repro.BatchRunner(jobs=1)

    def extra_checks(self, ops):
        """Workload-specific checks run once after the timed loop."""
        return []

    # -- operation ---------------------------------------------------------

    def operation(self):
        runner = self.runner()
        started = time.perf_counter()
        records = []
        first = None
        for record in runner.iter_records(self.scenarios):
            if first is None:
                first = time.perf_counter() - started
            records.append(record)
        return OpResult(records, time.perf_counter() - started, first)

    def traced_operation(self):
        runner = self.runner()
        pool = runner.session_pool()
        stages = Stages()
        started = time.perf_counter()
        sessions = {}
        for scenario in self.scenarios:
            session = pool.session(scenario.circuit)
            sessions[scenario.circuit] = session
            staged_artifacts(stages, session, scenario)
        records = stages.time("core.solve_s",
                              lambda: list(runner.iter_records(
                                  self.scenarios)),
                              rss="core.solve_rss_mb")
        op = OpResult(records, time.perf_counter() - started, None, stages)
        last = self.scenarios[-1]
        self.probe_target = (sessions[last.circuit], last, records[-1])
        return op

    # -- replay ------------------------------------------------------------

    def replay(self, op):
        """Serve the operation's records back from a result cache.

        The cache is filled with the operation's records; the replayed
        records are byte-compared with them and problems go to the
        operation.
        """
        cache = self.repro.ResultCache(self.work / "cache")
        for scenario, record in zip(self.scenarios, op.records):
            cache.put(scenario, record)
        runner = self.repro.BatchRunner(jobs=1, cache=cache)
        op.problems.extend(rc.identity_problems(
            f"{self.name} cache replay", op.records,
            runner.run(self.scenarios)))

    # -- checks ------------------------------------------------------------

    def facts(self, ref):
        value = self._facts.get(ref)
        if value is None:
            value = self._facts[ref] = rc.CircuitFacts(ref.build())
        return value

    def settle(self, op, first):
        """Check a finished operation's records, outside its timing.

        They must pass every record check and be byte-identical to those
        of ``first``, the run's first operation.  The area, iterations
        and repair evaluations the metrics need are summed; then only
        ``first`` keeps its records, so the process's memory does not
        grow with the number of operations a run makes.
        """
        for record in op.records:
            op.problems.extend(rc.record_problems(
                record, self.facts(record.scenario.circuit)))
        op.problems.extend(rc.identity_problems(
            f"{self.name} repeat of operation 1", first.records,
            op.records))
        op.area = math.fsum(self.facts(r.scenario.circuit).area(r.sizes)
                            for r in op.records)
        op.iterations = sum(r.iterations for r in op.records)
        op.repair_evals = sum(r.diagnostics.get("repair_evals", 0)
                              for r in op.records)
        if op is not first:
            op.records = None

    def check(self, ops):
        """Run-level checks; returns ``(failed, correct, report)``.

        An operation with any failed check counts as failed; the run is
        correct only if no check failed.
        """
        extra = self.extra_checks(ops)
        failed = 0
        faults = {}
        for op in ops:
            if op.problems:
                failed += 1
                for check, message in op.problems:
                    faults.setdefault(check, message)
        report = [f"{self.name}: checked {sum(o.count for o in ops)} "
                  f"records from {len(ops)} operations"]
        report.extend(f"{self.name}: {note}" for note in self.notes)
        report.extend(f"{self.name}: CHECK FAILED {message}"
                      for _, message in extra)
        report.extend(f"{self.name}: CHECK FAILED [{check}] {message}"
                      for check, message in faults.items())
        return failed, not (failed or extra), report

    # -- probes ------------------------------------------------------------

    def memory_pass(self):
        """Peak-RSS growth of circuit build, stage 1 and solve.

        The operation's circuit groups are solved cold, staged, through
        a fresh :class:`SessionPool`; run it in a fresh process with no
        warm-up (see :class:`Stages`).
        """
        from repro.core.session import SessionPool

        stages = Stages(memory=True)
        pool = SessionPool()
        groups = {}
        for scenario in self.scenarios:
            groups.setdefault(scenario.circuit, []).append(scenario)
        for ref, group in groups.items():
            staged_artifacts(stages, pool.session(ref), group[0])
            stages.time("core.solve_s", self.repro.runtime.run_scenario_group,
                        group, pool, rss="core.solve_rss_mb")
        return stages.rss_mb

    def kernel_probes(self):
        """Single calls into the solver's layers at one fixed point.

        The point is a traced record's sizes on its circuit's engine
        (the operation's last, largest circuit), with the paper's A1
        multipliers.
        """
        import numpy as np
        from repro.core.lrs import LagrangianSubproblemSolver
        from repro.core.multipliers import MultiplierState
        from repro.timing.metrics import evaluate_metrics

        session, scenario, record = self.probe_target
        stages = Stages()
        engine = staged_artifacts(stages, session, scenario)
        x = np.array(record.sizes)
        mult = MultiplierState.initial(engine.compiled)
        lrs = LagrangianSubproblemSolver(engine)
        timings = {"core.lrs_pass_s": [], "timing.delay_arrival_s": [],
                   "timing.metrics_s": [], "core.projection_s": []}
        for _ in range(PROBE_CALLS):
            started = time.perf_counter()
            passes = lrs.solve(mult, x0=x).passes
            timings["core.lrs_pass_s"].append(
                (time.perf_counter() - started) / max(passes, 1))
            started = time.perf_counter()
            engine.arrival_times(engine.delays(x))
            timings["timing.delay_arrival_s"].append(
                time.perf_counter() - started)
            started = time.perf_counter()
            evaluate_metrics(engine, x)
            timings["timing.metrics_s"].append(time.perf_counter() - started)
            started = time.perf_counter()
            mult.project()
            timings["core.projection_s"].append(
                time.perf_counter() - started)
        return {name: _median(values) for name, values in timings.items()}

    def queue_round(self, serial_s=None):
        """Submit, drain with one in-process worker, gather; time each.

        Per-shard overhead is the drain time less the time the same
        circuit groups take through ``run_scenario_group`` on a fresh
        :class:`SessionPool` (the worker's starting state): solved here,
        unless ``serial_s`` already measured it.  Returns the gathered
        records, the runtime-layer figures and any byte-identity
        problems.
        """
        from repro.core.session import SessionPool

        runtime = self.repro.runtime
        queue = runtime.SweepQueue(self.work / "queue")
        out = {}
        started = time.perf_counter()
        shards = queue.submit(self.scenarios)
        out["runtime.submit_s"] = time.perf_counter() - started
        mark = time.perf_counter()
        worker = runtime.Worker(queue)
        worker.run()
        out["runtime.drain_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        records = queue.gather()
        out["runtime.gather_s"] = time.perf_counter() - mark
        out["runtime.events"] = len(runtime.read_events(queue.events_path))
        out["runtime.event_bytes"] = queue.events_path.stat().st_size
        out["runtime.files"] = sum(1 for p in queue.root.rglob("*")
                                   if p.is_file())
        out["runtime.sessions_built"] = worker.sessions.misses
        shutil.rmtree(queue.root, ignore_errors=True)

        problems = []
        if serial_s is None:
            pool = SessionPool()
            solved = []
            solve_started = time.perf_counter()
            for shard in shards:
                solved.extend(runtime.run_scenario_group(shard.scenarios,
                                                         pool))
            serial_s = time.perf_counter() - solve_started
            problems = rc.identity_problems(
                f"{self.name} queue gather vs run_scenario_group",
                solved, records)
        out["runtime.shard_overhead_ms"] = \
            (out["runtime.drain_s"] - serial_s) / len(shards) * 1e3
        return records, out, problems


class ColdLadder(Workload):
    """A fresh runner per operation: every artifact is built cold."""

    name = "cold_ladder"

    def make_scenarios(self):
        config = self.repro.FlowConfig(seed=self.rng.randrange(1, 2 ** 16))
        return [self.repro.Scenario(self.repro.CircuitRef.iscas85(name),
                                    config) for name in LADDER]


class WarmSweep(Workload):
    """One runner for the whole run; its sessions are warmed in set-up."""

    name = "warm_sweep"
    cold_operations = False

    def make_scenarios(self):
        config = self.repro.FlowConfig(seed=self.rng.randrange(1, 2 ** 16))
        scenarios = []
        for name in WARM_CIRCUITS:
            ref = self.repro.CircuitRef.iscas85(name)
            for slack in WARM_SLACKS:
                for noise in WARM_NOISE:
                    for tolerance in WARM_TOLERANCES:
                        scenarios.append(self.repro.Scenario(
                            ref, config.replace(delay_slack=slack,
                                                noise_fraction=noise,
                                                tolerance=tolerance)))
        #: One scenario per circuit re-solved cold for byte identity.
        self.sample = [self.rng.choice([s for s in scenarios
                                        if s.circuit.name == name])
                       for name in WARM_CIRCUITS]
        return scenarios

    def runner(self):
        runner = getattr(self, "_runner", None)
        if runner is None:
            runner = self._runner = self.repro.BatchRunner(jobs=1)
        return runner

    def warm_up(self):
        # The loosest tolerance converges fastest; solving it builds
        # every session artifact and the lockstep workspace the mix uses.
        loose = [s for s in self.scenarios
                 if s.config.tolerance == max(WARM_TOLERANCES)]
        self.runner().run(loose)

    def extra_checks(self, ops):
        from repro.core.session import SolverSession

        pairs, problems = rc.weak_duality_problems(ops[0].records)
        by_scenario = {r.scenario: r for r in ops[0].records}
        cold = [SolverSession.for_ref(s.circuit).solve([s])[0]
                for s in self.sample]
        problems.extend(rc.identity_problems(
            "warm_sweep sample vs cold one-off SolverSession solves",
            cold, [by_scenario[s] for s in self.sample]))
        self.notes.append(f"weak duality checked on {pairs} nested record "
                          "pairs")
        self.notes.append(f"{len(cold)} sampled records compared with cold "
                          "one-off SolverSession solves")
        return problems


WORKLOADS = {cls.name: cls for cls in (ColdLadder, WarmSweep)}


def timed_loop(workload, seconds, operation, first=None):
    """Closed loop, one client: whole operations until ``seconds`` pass.

    Each operation is settled against ``first`` (by default the loop's
    own first operation) before the next starts.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        op = operation()
        if first is None:
            first = op
        workload.settle(op, first)
        ops.append(op)
    return ops


def run_untraced(workload, seconds):
    ops = timed_loop(workload, seconds, workload.operation)
    peak = _peak_rss_mb()
    workload.replay(ops[0])
    failed, correct, report = workload.check(ops)
    metrics = {
        "scenarios_per_s": (_median([op.count / op.seconds
                                     for op in ops]), "1/s"),
        "first_record_s": (_median([op.first_record_s for op in ops]), "s"),
        "peak_rss_mb": (peak, "MB"),
        "sized_area_um2": (_median([op.area for op in ops]), "um2"),
    }
    return ops, failed, correct, report, metrics


def run_traced(workload, seconds):
    """Untraced operations, then traced ones, then the layer probes.

    Each half gets ``seconds / 2``; ``trace.overhead_s`` is the
    difference of their median operation times, so the traced figures
    never enter the end-to-end metrics.
    """
    plain = timed_loop(workload, seconds / 2.0, workload.operation)
    traced = timed_loop(workload, seconds / 2.0, workload.traced_operation,
                        plain[0])
    layers = {}
    for name in sorted({n for op in traced for n in op.stages.seconds}):
        layers[name] = _median([op.stages.seconds.get(name, 0.0)
                                for op in traced])
    records = sum(op.count for op in traced)
    layers["core.iterations"] = sum(op.iterations for op in traced) / records
    layers["core.repair_evals"] = sum(op.repair_evals
                                      for op in traced) / records
    layers["unattributed_s"] = _median([op.seconds - op.stages.total()
                                        for op in traced])
    serial_s = _median([op.seconds for op in plain]) \
        if workload.cold_operations else None
    gathered, runtime, problems = workload.queue_round(serial_s)
    plain[0].problems.extend(problems)
    plain[0].problems.extend(rc.identity_problems(
        f"{workload.name} queue gather vs operation",
        plain[0].records, gathered))
    layers.update(runtime)
    workload.replay(plain[0])
    layers.update(workload.kernel_probes())
    layers["trace.overhead_s"] = (_median([op.seconds for op in traced])
                                  - _median([op.seconds for op in plain]))
    failed, correct, report = workload.check(plain + traced)
    return plain + traced, failed, correct, report, layers


PER_LAYER_UNITS = {
    "circuit.build_rss_mb": "MB", "noise.stage1_rss_mb": "MB",
    "core.solve_rss_mb": "MB", "core.iterations": "count",
    "core.repair_evals": "count", "runtime.events": "count",
    "runtime.event_bytes": "bytes", "runtime.files": "count",
    "runtime.sessions_built": "count", "runtime.shard_overhead_ms": "ms",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True,
                        choices=("setup", "run", "trace", "memory",
                                 "import"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", type=pathlib.Path)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="launcher's time.time() just before spawning")
    args = parser.parse_args(argv)

    if args.role == "import":
        started = time.perf_counter()
        import repro.cli  # noqa: F401
        print(json.dumps({"import_s": time.perf_counter() - started}))
        return 0

    import repro
    import repro.runtime

    workload = WORKLOADS[args.workload](repro, args.seed, args.work)
    if args.role == "memory":
        print(json.dumps({"rss_mb": workload.memory_pass()}))
        return 0
    workload.warm_up()
    setup_s = time.time() - args.spawned_at
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.role == "run":
        ops, failed, correct, report, metrics = run_untraced(
            workload, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    else:
        ops, failed, correct, report, layers = run_traced(
            workload, args.seconds)
        metrics = {name: (value, PER_LAYER_UNITS.get(name, "s"))
                   for name, value in layers.items()}
    print(json.dumps({
        "correct": bool(correct), "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
