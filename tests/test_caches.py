"""Every functools.lru_cache in nvalue is cleared by the acceptance suite's
``_clear_caches``, so its timed criteria start cold."""

import re
from pathlib import Path

import nvalue
from nvalue import construct, mvgroup, symdecomp

from helpers import _caches
from test_acceptance import _clear_caches


def test_clear_caches_empties_every_cache():
    caches = _caches()
    # every decorator in the source is one module-level cache _caches finds
    decorators = sum(len(re.findall(r"^\s*@(?:functools\.)?lru_cache\b", p.read_text(), re.M))
                     for p in Path(nvalue.__file__).parent.glob("*.py"))
    assert len(caches) == decorators

    symdecomp.recompose(symdecomp.decompose(construct.build_pn(4)))
    assert mvgroup.roots_match_pn(0.3 + 0.1j, -0.2j, 4, 1e-7)
    unfilled = [name for name, f in caches.items() if not f.cache_info().currsize]
    assert not unfilled, f"fill these caches first: {unfilled}"

    _clear_caches()
    left = [name for name, f in caches.items() if f.cache_info().currsize]
    assert not left, f"_clear_caches leaves {left}"
