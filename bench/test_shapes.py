"""Self-test: each bench scenario reproduces its acceptance construction.

Usage, from the repository root:  python3 bench/test_shapes.py
(or ``python -m pytest bench/test_shapes.py``).

The direct ``run(...)`` call of the low2 shape is the helper of
``tests/test_acceptance.py`` itself.  That module builds the other two
shapes inline, so they are rebuilt below exactly as there (criteria 5
and 6).  The trace digest of ``Scenario.execute(seed=s)`` on the bench
scenario file must equal the digest of the direct call for the same
seed.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from injurylab import low_alpha, nonlow_alpha  # noqa: E402
from injurylab.approximation import (BoundedCaAdversary,  # noqa: E402
                                     DeltaTwoAdversary)
from injurylab.functional import UseFunctional  # noqa: E402
from injurylab.ordinal import OMEGA, nat, omega_power  # noqa: E402
from injurylab.scenario import load_scenario  # noqa: E402
from test_acceptance import _low2_seed  # noqa: E402

SEEDS = (0, 3)


def _low2(seed):
    return _low2_seed(seed)[0]


def _low_alpha(seed):
    shift = 1000 * seed
    advs = [BoundedCaAdversary("f0", OMEGA, seed=3 + shift, change_prob=0.3),
            BoundedCaAdversary("f1", nat(4), seed=4 + shift, change_prob=0.3)]
    funs = []
    for e in range(2):
        fn = UseFunctional(e)
        fn.configure(e, first=2 + e)
        funs.append(fn)
    return low_alpha.run(advs, funs, omega_power(nat(2)), 10_000, seed)


def _nonlow_alpha(seed):
    shift = 1000 * seed
    psis = {0: DeltaTwoAdversary("p0", "random", seed=5 + shift,
                                 flip=0.3, stab=60)}
    fadvs = {0: BoundedCaAdversary("f0", OMEGA, seed=6 + shift,
                                   change_prob=0.3)}
    fn = UseFunctional(0)
    for x in range(8):
        fn.configure(x, first=2 + 4 * x)
    return nonlow_alpha.run(psis, fadvs, {0: fn}, omega_power(OMEGA),
                            10_000, seed)


def _check(scenario, direct):
    with open(os.path.join(HERE, "scenarios", scenario)) as fh:
        sc = load_scenario(fh.read())
    for seed in SEEDS:
        trace, _ = sc.execute(seed=seed)
        assert trace.digest() == direct(seed).digest(), (scenario, seed)


def test_low2_shape():
    _check("campaign-low2.txt", _low2)


def test_low_alpha_shape():
    _check("campaign-low-alpha.txt", _low_alpha)


def test_nonlow_alpha_shape():
    _check("campaign-nonlow-alpha.txt", _nonlow_alpha)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} pass")
