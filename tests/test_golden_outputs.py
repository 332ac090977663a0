"""Output bytes of the small configs in ``golden.py`` match the golden table.

A refactor that claims unchanged output must leave every hash in place; a
change that moves bytes on purpose regenerates the table (see ``golden.py``)
and declares the moved files.  Hashes depend on numpy and the BLAS build, so
the table is keyed by an environment fingerprint and a host with no entry
skips, printing its fingerprint.
"""

import pytest

import golden


def test_outputs_match_golden_table(tmp_path):
    key = golden.fingerprint()
    expected = golden.load_table().get(key)
    if expected is None:
        pytest.skip(f"no golden outputs for this host: {key}")
    got = {name: golden.output_hashes(name, tmp_path) for name in golden.CONFIGS}
    assert golden.moved_files(expected, got) == []
