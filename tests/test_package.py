"""The package's export list."""

import machlab


def test_every_export_resolves_and_appears_once():
    names = machlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(machlab, name)]
    assert missing == []
