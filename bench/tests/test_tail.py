"""The tail-percentile rule: the highest rung with >= 10 samples beyond."""

from drive import tail_rung


def test_ladder_sample_supports_p75():
    assert tail_rung(47) == 0.75  # 11.75 beyond p75, 4.7 beyond p90


def test_thousands_of_samples_support_p99():
    assert tail_rung(7930) == 0.99
    assert tail_rung(1000) == 0.99  # exactly 10 beyond
    assert tail_rung(999) == 0.95


def test_intermediate_rungs():
    assert tail_rung(200) == 0.95
    assert tail_rung(199) == 0.90
    assert tail_rung(100) == 0.90
    assert tail_rung(99) == 0.75


def test_too_few_samples_fall_back_to_the_median():
    assert tail_rung(39) == 0.5
    assert tail_rung(40) == 0.75
