"""The correctness gate must fail when provoked."""

from run import gate


def _record(mode, **changes):
    record = {
        "mode": mode, "events": 1000, "completed": 40,
        "executed_rate": 400.0, "p99_latency": 0.002,
    }
    record.update(changes)
    return record


def test_agreeing_records_pass():
    assert gate([_record("timed"), _record("timed"), _record("sim")]) == []


def test_mismatched_completed_fails():
    problems = gate([_record("timed"), _record("sim", completed=41)])
    assert len(problems) == 1
    assert "completed" in problems[0] and "41" in problems[0]


def test_timed_children_must_repeat_exactly():
    problems = gate([_record("timed"), _record("timed", events=1001)])
    assert problems and "events" in problems[0]


def test_profile_records_only_carry_events():
    profile = {"mode": "profile", "events": 1000}
    assert gate([_record("sim"), profile]) == []
    assert gate([_record("sim"), dict(profile, events=999)])


def test_synthetic_violation_fails():
    violation = {"invariant": "order-agreement", "message": "node1 diverged"}
    problems = gate([_record("sim"), _record("trace")], [violation])
    assert problems == ["invariant order-agreement violated: node1 diverged"]


def test_zero_completions_fail():
    records = [_record("timed", completed=0), _record("sim", completed=0)]
    assert "no request completed" in gate(records)
