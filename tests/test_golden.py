"""Golden run-log digests: refactors must reproduce the logs byte for byte.

Each digest is the SHA-256 of ``ScenarioLog.to_csv()`` for a 6 s run at
the default seed, measured on Python 3.11.7 with numpy 2.4.6 (600 rows
each).  A mismatch means the change altered the simulated trajectory,
the controller's schedule, the noise stream or the CSV format.
"""

import hashlib

import pytest

from tailsim.config import Config, apply_overrides
from tailsim.scenarios import run_scenario

GOLDEN = {
    ("hover", "complementary"):
        "4392f5dca55c5c9e9917896fcd385f86299dd1a41d4a1bbf76e5261187ecfefb",
    ("circle", "perfect"):
        "2de26c03364941c850ffb72115ef1d0b919bd8d30760bbfc441d34a62fe1cf28",
    ("waypoint", "perfect"):
        "4517f22836eb29258c4a275d1e3fc57e3bb11035edef1ee11c10a4cb657eb197",
    ("star", "complementary"):
        "aa076790223389e1feaef03987ea3a6cc717ba9c5be726c47c2b432098697674",
}


@pytest.mark.parametrize("scenario,estimator", sorted(GOLDEN))
def test_log_digest_matches_golden(scenario, estimator):
    cfg = apply_overrides(
        Config(), {"scenario": scenario, "estimator": estimator, "duration_s": "6"}
    )
    log, _ = run_scenario(cfg)
    assert len(log) == 600
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    assert digest == GOLDEN[(scenario, estimator)]
