"""Every subcommand on a tiny fixed configuration writes the bytes of its
golden artifact in tests/fixtures/golden/ (regenerated by
tests/make_golden_fixtures.py)."""

import pytest

from make_golden_fixtures import CASES, GOLDEN, run_case


@pytest.mark.parametrize("name", CASES)
def test_artifact_bytes_match_golden(tmp_path, name):
    code, out = run_case(name, tmp_path)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)
