import groupopt


def test_every_export_resolves():
    missing = [name for name in groupopt.__all__ if not hasattr(groupopt, name)]
    assert missing == []
