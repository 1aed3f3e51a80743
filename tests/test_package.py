import binperiod


def test_every_exported_name_resolves():
    missing = [name for name in binperiod.__all__ if not hasattr(binperiod, name)]
    assert missing == []
    assert len(set(binperiod.__all__)) == len(binperiod.__all__)
