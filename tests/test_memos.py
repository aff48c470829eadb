"""Every per-size memo in kronkit is an lru_cache, except the character-row
memo characters._rows, whose entries grow in place.  A reporter of memo
sizes and hit rates can then read them all through cache_info()."""

import sys

import kronkit
import kronkit.cli  # noqa: F401  (with verify, the modules the package does not import)
from kronkit import characters, kronecker, lr, partitions, reductions, verify

MEMOS = [
    partitions.cycle_types,
    partitions._conjugate,
    partitions._cells,
    characters.class_weights,
    characters._counts,
    characters._row,
    reductions._widen,
    lr._skew,
    lr._chains,
    lr._decomp,
    kronecker._pack,
    kronecker._weighted,
    verify._direct_memo,
    kronkit.cli.build_parser,
]


def test_every_memo_has_cache_info():
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.currsize >= 0, memo


def test_no_memo_is_left_off_the_list():
    # A new lru_cache anywhere in the package must join MEMOS on purpose.
    found = {
        id(value): name
        for module_name, module in sys.modules.items()
        if module_name.split(".")[0] == "kronkit"
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert set(found) == set(map(id, MEMOS)), sorted(found.values())


def test_each_memo_sits_beside_the_function_it_caches():
    # A module may read another module's memo, but not wrap another module's
    # function in a cache of its own.
    for memo in MEMOS:
        home = sys.modules[memo.__wrapped__.__module__]
        assert getattr(home, memo.__wrapped__.__name__, None) is memo, memo


def test_cycle_types_is_one_memo():
    assert kronkit.cycle_types is characters.cycle_types is partitions.cycle_types
