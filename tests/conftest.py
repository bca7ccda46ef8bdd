"""Shared fixtures: a small multi-zone Herd deployment."""

import pytest

from repro.faults.plan import FaultKind, FaultSpec
from repro.simulation.testbed import HerdTestbed, build_testbed

__all__ = ["HerdTestbed", "build_testbed", "MIX_AND_SP_CRASH",
           "MIX_CRASH_AND_SP_DEGRADE"]

_MIX_CRASH = FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0,
                       target="zone-ctl/mix-0", duration_s=5.0,
                       detection_delay_s=1.0)

#: The §3.5/§3.6.4 acceptance faults: an unclean mix crash (1 s
#: detection delay, recovers at +5 s) plus an SP crash mid-call.
MIX_AND_SP_CRASH = (
    _MIX_CRASH,
    FaultSpec(kind=FaultKind.SP_CRASH, at_s=3.0,
              target="zone-live/sp-1"),
)

#: Same mix crash, but the SP is not killed: its link degrades until
#: the mix's SPMonitor blacklists it — the same failover path.
MIX_CRASH_AND_SP_DEGRADE = (
    _MIX_CRASH,
    FaultSpec(kind=FaultKind.LINK_DEGRADE, at_s=2.0,
              target="zone-live/sp-1", duration_s=4.0,
              loss=0.30, jitter_ms=80.0),
)


@pytest.fixture
def testbed():
    return build_testbed()


@pytest.fixture
def call_pair(testbed):
    """A caller in zone-EU and a callee in zone-NA, ready to talk."""
    caller = testbed.add_client("alice", "zone-EU")
    callee = testbed.add_client("bob", "zone-NA")
    testbed.ready_for_calls("alice")
    testbed.ready_for_calls("bob")
    return testbed, caller, callee
