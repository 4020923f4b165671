"""The runner itself: each child's own peak, and a timeout that kills."""
import time

import pytest


def test_each_child_reads_its_own_peak(run):
    # RUSAGE_CHILDREN would read the first child's 150 MB for the second
    assert run("-c", "x = b'1' * (150 << 20)").peak_mb > 150
    assert run("-c", "pass").peak_mb < 50


def test_a_child_past_its_timeout_is_killed(run, request):
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match=f"{request.node.name}: killed after 1 s"):
        run("-c", "import time; time.sleep(60)", timeout=1)
    assert time.monotonic() - start < 10
