"""Every name ``crtrack`` exports resolves, so a stale entry in
``__all__`` fails here rather than at a user's ``from crtrack import *``."""

import crtrack


def test_every_exported_name_resolves():
    missing = [name for name in crtrack.__all__ if not hasattr(crtrack, name)]
    assert missing == []

