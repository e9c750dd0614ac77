"""Every golden CLI command still gives the exit code and the bytes pinned in
tests/golden/manifest.json; see tests/golden_cli.py for the commands and for
how to rewrite the manifest after an intended change."""

import pytest

from golden_cli import CASES, load_manifest, run_case

MANIFEST = load_manifest()


def test_manifest_names_every_case():
    assert sorted(MANIFEST) == sorted(case.name for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_golden_output(tmp_path, case):
    assert run_case(case, tmp_path) == MANIFEST[case.name]
