"""The package's public names are its modules' ``__all__`` lists.

``hyperrect`` star-imports each module, so a name in two module lists
would silently resolve to whichever module is imported last.
"""

from collections import Counter

import hyperrect
from hyperrect import adder_mac, entropy, exponents, hypercontractivity, oracle, sweeps, verify

MODULES = (entropy, oracle, exponents, hypercontractivity, adder_mac, sweeps, verify)


def test_module_lists_are_disjoint():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_package_exports_every_module_list():
    expected = [name for module in MODULES for name in module.__all__]
    assert hyperrect.__all__ == [*expected, "__version__"]

