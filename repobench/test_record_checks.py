"""Each record check rejects a record doctored to carry its fault."""

import dataclasses
import math

import pytest

import record_checks as rc
from repro.runtime import BatchRunner, CircuitRef, FlowConfig, Scenario

REF = CircuitRef.random(6, 5, 2, seed=11, name="c17x")


@pytest.fixture(scope="module")
def solved():
    """Records of one circuit under nested delay bounds, and its facts."""
    records = BatchRunner(jobs=1).run([
        Scenario(REF, FlowConfig(delay_slack=slack))
        for slack in (1.05, 1.3)])
    return records, rc.CircuitFacts(REF.build())


def _checks(record, facts):
    return {check for check, _ in rc.record_problems(record, facts)}


def _with_metrics(record, **changes):
    return dataclasses.replace(
        record, metrics=dataclasses.replace(record.metrics, **changes))


def test_solver_records_pass(solved):
    records, facts = solved
    for record in records:
        assert rc.record_problems(record, facts) == []
    pairs, problems = rc.weak_duality_problems(records)
    assert pairs == 1 and problems == []


def test_nan_size_is_rejected(solved):
    record, facts = solved[0][0], solved[1]
    index = facts.sizable[0][0]
    sizes = list(record.sizes)
    sizes[index] = math.nan
    doctored = dataclasses.replace(record, sizes=tuple(sizes))
    assert _checks(doctored, facts) == {rc.FINITE}


def test_size_outside_bounds_is_rejected(solved):
    record, facts = solved[0][0], solved[1]
    index, _, _, upper = facts.sizable[0]
    sizes = list(record.sizes)
    sizes[index] = upper * 1.5
    doctored = dataclasses.replace(record, sizes=tuple(sizes))
    assert rc.BOUNDS in _checks(doctored, facts)


def test_area_off_by_one_millionth_is_rejected(solved):
    record, facts = solved[0][0], solved[1]
    doctored = _with_metrics(record,
                             area_um2=record.metrics.area_um2 * (1 + 1e-6))
    assert _checks(doctored, facts) == {rc.AREA}


def test_infeasible_flag_is_rejected(solved):
    record, facts = solved[0][0], solved[1]
    doctored = dataclasses.replace(record, feasible=False)
    assert _checks(doctored, facts) == {rc.FEASIBLE}


@pytest.mark.parametrize("excess, rejected", [(2e-3, True), (5e-4, False)])
def test_bound_excess_beyond_solver_tolerance(solved, excess, rejected):
    record, facts = solved[0][0], solved[1]
    delay_bound = rc.derived_bounds(record)[0]
    doctored = _with_metrics(record, delay_ps=delay_bound * (1 + excess))
    assert (rc.CONSTRAINTS in _checks(doctored, facts)) is rejected


@pytest.mark.parametrize("gap", [0.02, -1e-9])
def test_converged_gap_outside_tolerance_is_rejected(solved, gap):
    record, facts = solved[0][0], solved[1]
    assert record.converged
    doctored = dataclasses.replace(record, duality_gap=gap)
    assert _checks(doctored, facts) == {rc.GAP}


def test_broken_weak_duality_pair_is_rejected(solved):
    tight, loose = solved[0]
    assert rc.derived_bounds(loose)[0] > rc.derived_bounds(tight)[0]
    # The loose record now claims a dual bound above an area that is
    # feasible under tighter bounds.
    doctored = dataclasses.replace(loose, duality_gap=0.0)
    doctored = _with_metrics(doctored,
                             area_um2=tight.metrics.area_um2 * 1.001)
    pairs, problems = rc.weak_duality_problems([tight, doctored])
    assert pairs == 1
    assert [check for check, _ in problems] == [rc.DUALITY]


def test_byte_mismatch_between_paths_is_rejected(solved):
    records = solved[0]
    sizes = list(records[1].sizes)
    sizes[-2] = math.nextafter(sizes[-2], math.inf)
    doctored = dataclasses.replace(records[1], sizes=tuple(sizes))
    assert rc.identity_problems("paths", records, list(records)) == []
    problems = rc.identity_problems("paths", records, [records[0], doctored])
    assert [check for check, _ in problems] == [rc.IDENTITY]
    assert rc.identity_problems("paths", records, records[:1])
