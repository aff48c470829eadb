import pytest

import kronkit
from kronkit import characters, kronecker, lr, partitions, reductions


@pytest.mark.parametrize("module", [partitions, lr, characters, reductions, kronecker])
def test_package_exports_every_public_name(module):
    for name in module.__all__:
        assert getattr(kronkit, name, None) is getattr(module, name), name
