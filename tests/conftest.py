"""Shared fixtures."""

import pytest

from confal import annihilation, modules


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


@pytest.fixture
def blind_submodule_search(monkeypatch):
    """Make the submodule search find no invariant span in any module.

    The search then calls every rank-one module irreducible, so it disagrees
    with the criterion on each reducible one (``delta = 0``).
    """

    def blind(mod, g):
        return modules.SubmoduleResult(
            invariant=False, module=None, offending_generator=0, remainder=g)

    monkeypatch.setattr(modules, "submodule_action", blind)
