"""The benchmark's scenario self-test, run with the test suite.

``bench/test_shapes.py`` calls each construction's ``run`` directly and
checks that the bench scenario files reproduce those runs.  Running it
here makes a signature change that breaks those direct calls fail the
suite, not only the benchmark.
"""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                    "test_shapes.py")


def load_shapes():
    spec = importlib.util.spec_from_file_location("bench_test_shapes", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SHAPES = load_shapes()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(n for n in vars(SHAPES)
                                        if n.startswith("test_")))
def test_bench_scenario_reproduces_direct_run(name):
    getattr(SHAPES, name)()
