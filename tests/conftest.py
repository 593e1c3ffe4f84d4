"""Shared fixtures."""

import pytest

from confal import annihilation


@pytest.fixture
def flipped_closed_form(monkeypatch):
    """Flip the sign of every closed-form bracket ``[L(1,0), y]``.

    The mode expansion then disagrees with the closed form on each of those
    pairs.  Returns the unpatched closed form.
    """
    original = annihilation._closed_form_table

    def flipped(*args):
        table, escaping = original(*args)
        for (x, y), (target, c) in list(table.items()):
            if x == (1, 0):
                table[(x, y)] = (target, -c)
        return table, escaping

    monkeypatch.setattr(annihilation, "_closed_form_table", flipped)
    return original
