"""The seed-0 bench configs against their recorded outputs (tests/golden/).

Under the recording's fingerprint every CSV and summary must match byte for
byte.  Elsewhere (another numpy, BLAS or CPU feature set) only
the exit statuses and the PASS/FAIL lines must match, and the test reports
the reduced comparison as a skip.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

MANIFEST = json.loads(Path(record.MANIFEST).read_text(encoding="utf-8"))
SAME_ENVIRONMENT = record.fingerprint() == MANIFEST["fingerprint"]


def test_manifest_covers_both_batches():
    ids = record.config_ids()
    assert sorted(MANIFEST["runs"]) == sorted(ids)
    assert [i.split("/")[0] for i in ids].count("green") == 11
    assert [i.split("/")[0] for i in ids].count("dynamics") == 22


@pytest.mark.parametrize("config_id", record.config_ids())
def test_golden_output(config_id, tmp_path):
    want = MANIFEST["runs"][config_id]
    got = record.run(config_id, str(tmp_path))
    assert (got["status"], got["verdicts"]) == (want["status"], want["verdicts"])
    if not SAME_ENVIRONMENT:
        pytest.skip("fingerprint differs from the recording: exit statuses and "
                    "PASS/FAIL lines compared, bytes not")
    assert got == want
