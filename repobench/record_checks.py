"""Correctness checks the benchmark applies to every record it times.

Each check recomputes what it needs from inputs the program does not
get to shape: the circuit's node list (built once per circuit, outside
any timed region) and the scenario's bound factors.  A check never
trusts a quantity the record reports about itself when it can derive
it independently — the area is recomputed as ``Σ α·x`` from the node
list, the bounds are rebuilt from the initial metrics and the factors.

Problems are ``(check, message)`` pairs, so a caller can tell one named
fault (say ``"area"``) from any other.
"""

import math

#: The solver's documented feasibility tolerance: ``OGWSOptimizer``
#: accepts a relative constraint excess up to ``feasibility_tolerance``
#: (default 1e-3) as feasible.
FEASIBILITY_TOL = 1e-3

#: Relative agreement required between a record's area and ``Σ α·x``.
AREA_RTOL = 1e-9

#: Relative slack for the weak-duality comparison (float rounding only).
DUALITY_RTOL = 1e-12

#: Check names, as they appear in problem tuples.
FINITE, BOUNDS, FEASIBLE, CONSTRAINTS, AREA, GAP, DUALITY, IDENTITY = (
    "finite", "size-bounds", "feasible", "constraints", "area", "gap",
    "weak-duality", "byte-identity")


class CircuitFacts:
    """Per-node ``α`` and size bounds of one built circuit."""

    def __init__(self, circuit):
        self.sizable = []
        for index, node in enumerate(circuit.nodes):
            if node.is_gate or node.is_wire:
                self.sizable.append((index, node.alpha, node.lower,
                                     node.upper))
        self.num_nodes = len(circuit.nodes)

    def area(self, sizes):
        """``Σ α_i·x_i`` over the sizable components, exactly rounded."""
        return math.fsum(alpha * sizes[index]
                         for index, alpha, _, _ in self.sizable)


def _metric_values(metrics):
    return (metrics.noise_pf, metrics.delay_ps, metrics.power_mw,
            metrics.area_um2, metrics.total_cap_ff)


def derived_bounds(record):
    """``(delay_ps, noise_pf, total_cap_ff)`` bounds of the record's problem.

    Rebuilt from the record's initial metrics and its scenario's
    factors (``A0 = slack·delay``, ``X_B = fraction·noise``,
    ``P' = fraction·Σc``); a circuit without coupling has no noise
    bound.
    """
    config = record.scenario.config
    init = record.initial_metrics
    noise = (config.noise_fraction * init.noise_pf if init.noise_pf > 0
             else math.inf)
    return (config.delay_slack * init.delay_ps, noise,
            config.power_fraction * init.total_cap_ff)


def record_problems(record, facts):
    """Every check one record fails, against its circuit's ``facts``."""
    problems = []
    sizes = record.sizes
    label = record.scenario.label
    values = _metric_values(record.metrics) + \
        _metric_values(record.initial_metrics)
    if len(sizes) != facts.num_nodes:
        return [(FINITE, f"{label}: {len(sizes)} sizes for "
                         f"{facts.num_nodes} nodes")]
    if not all(math.isfinite(x) for x in sizes) or \
            not all(math.isfinite(v) for v in values):
        return [(FINITE, f"{label}: non-finite sizes or metrics")]
    outside = [index for index, _, lower, upper in facts.sizable
               if not lower <= sizes[index] <= upper]
    if outside:
        problems.append((BOUNDS, f"{label}: {len(outside)} sizes outside "
                                 f"[lower, upper], first node {outside[0]}"))
    if not record.feasible:
        problems.append((FEASIBLE, f"{label}: record is not feasible"))
    final = record.metrics
    for name, value, bound in zip(
            ("delay", "noise", "power"),
            (final.delay_ps, final.noise_pf, final.total_cap_ff),
            derived_bounds(record)):
        if value / bound - 1.0 > FEASIBILITY_TOL:
            problems.append((CONSTRAINTS, f"{label}: {name} {value!r} exceeds "
                                          f"bound {bound!r} by "
                                          f"{value / bound - 1.0:.3g}"))
    area = facts.area(sizes)
    if not abs(final.area_um2 - area) <= AREA_RTOL * abs(area):
        problems.append((AREA, f"{label}: area {final.area_um2!r} but "
                               f"sum(alpha*x) = {area!r} "
                               f"({final.area_um2 / area - 1.0:+.3%})"))
    if record.converged and not \
            0.0 <= record.duality_gap <= record.scenario.config.tolerance:
        problems.append((GAP, f"{label}: converged with gap "
                              f"{record.duality_gap!r} outside "
                              f"[0, {record.scenario.config.tolerance!r}]"))
    return problems


def _problem_key(record):
    """Records sharing a key solve one problem family differing in bounds."""
    config = record.scenario.config.replace(
        delay_slack=1.0, noise_fraction=1.0, power_fraction=1.0,
        tolerance=1.0, max_iterations=1, update="multiplicative")
    return record.scenario.circuit, config


def weak_duality_problems(records):
    """Check ``area_loose·(1 − gap_loose) ≤ area_tight`` on nested pairs.

    Two feasible records of one circuit and one engine configuration
    are a pair when every bound of the *loose* one is at least the
    *tight* one's: the loose record's dual bound is a lower bound on
    the loose optimum, which cannot exceed any area feasible under the
    tighter bounds.  Returns ``(pairs_checked, problems)``.
    """
    families = {}
    for record in records:
        if record.feasible and math.isfinite(record.duality_gap):
            families.setdefault(_problem_key(record), []).append(record)
    pairs = 0
    problems = []
    for members in families.values():
        bounds = [derived_bounds(r) for r in members]
        for i, loose in enumerate(members):
            dual = loose.metrics.area_um2 * (1.0 - loose.duality_gap)
            for j, tight in enumerate(members):
                if i == j or not all(a >= b for a, b in
                                     zip(bounds[i], bounds[j])):
                    continue
                pairs += 1
                limit = tight.metrics.area_um2
                if dual > limit * (1.0 + DUALITY_RTOL):
                    problems.append((DUALITY, (
                        f"{loose.scenario.label}: dual bound {dual!r} of "
                        f"bounds {bounds[i]} exceeds area {limit!r} "
                        f"feasible under tighter bounds {bounds[j]}")))
    return pairs, problems


def identity_problems(what, expected, actual):
    """Byte-compare two record lists by their canonical JSON."""
    expected = [r.canonical_json() for r in expected]
    actual = [r.canonical_json() for r in actual]
    if len(expected) != len(actual):
        return [(IDENTITY, f"{what}: {len(actual)} records, "
                           f"expected {len(expected)}")]
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return [(IDENTITY, f"{what}: record {index} differs from the "
                               "reference bytes")]
    return []
