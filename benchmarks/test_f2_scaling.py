"""f=1 vs f=2 fault-free scaling (the paper runs both, §VI-A).

Moving from 4 to 7 nodes grows the PROPAGATE exchange quadratically and
every quorum from 3 to 5, so the fault-free peak drops — but the system
stays comfortably in the same order of magnitude and all the robustness
properties (Figs 8b/10b) carry over.
"""

from repro.experiments import current_scale, probe_capacity


def test_f2_capacity_within_same_order_of_magnitude():
    f1 = probe_capacity("rbft", 8, current_scale(), f=1)
    f2 = probe_capacity("rbft", 8, current_scale(), f=2)
    print("\nRBFT fault-free peak: f=1 %.1f kreq/s, f=2 %.1f kreq/s"
          % (f1 / 1e3, f2 / 1e3))
    assert f2 < f1  # larger quorums and more propagation cost something
    assert f2 > 0.4 * f1  # but not an order of magnitude
