"""``tests/cram_readings.py`` at smoke size: both readings of a CRAM merge."""

from __future__ import annotations

import cram_readings


def test_readings_script_on_a_small_homogeneous_pool(capsys):
    assert cram_readings.main(["--pool", "smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(cram_readings.READINGS)
    rows = {row["reading"]: row for row in cram_readings.measure("smoke")}
    # Today CRAM commits merges past the scheme it returns; a capped
    # reading refuses them, so its last merge is the returned scheme.
    assert rows["today"]["merges_past_best"] > 0
    for reading in ("capped", "capped-unclustered"):
        assert rows[reading]["merges_past_best"] == 0
        assert rows[reading]["returned_iteration"] > 0
    for row in rows.values():
        assert row["violations"] == 0
