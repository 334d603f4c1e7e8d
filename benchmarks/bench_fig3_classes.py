"""F3 — Figure 3: the classes C_i of H_4 (Property 5).

Regenerates the class partition and checks |C_0| = 1, |C_i| = 2^{i-1}, the
partition covers the cube, and each class is exactly the set of nodes with
the same most-significant-bit position.
"""

import numpy as np

from repro.topology.hypercube import Hypercube
from repro.viz.class_render import render_classes

FIGURE_DIMENSION = 4


def class_partition(d: int):
    h = Hypercube(d)
    return h, h.classes()


def test_fig3_classes(benchmark, report):
    h, classes = benchmark(class_partition, FIGURE_DIMENSION)

    assert len(classes[0]) == 1
    for i in range(1, FIGURE_DIMENSION + 1):
        assert len(classes[i]) == 2 ** (i - 1)
    flat = [x for cls in classes for x in cls]
    assert sorted(flat) == list(range(16))
    for i, members in enumerate(classes):
        assert all(h.msb(x) == i for x in members)

    report("fig3_classes_H4", render_classes(h))


def test_fig3_vectorized_census_agrees(benchmark):
    """The NumPy census path agrees with the per-node classification on a
    much larger cube (hot path of the analysis layer)."""
    h = Hypercube(14)
    census = benchmark(h.class_census)
    expected = np.array([1] + [2**i for i in range(14)])
    assert np.array_equal(census, expected)
