"""Benchmark targets reproducing the paper's Table 1 and Figures 1–11.

One parametrised target over the experiment names: each case regenerates
its table or figure through :func:`_util.run_experiment` (which writes the
rendered rows/series to ``benchmarks/output/<name>.txt``) under
``pytest-benchmark`` timing and asserts the paper's qualitative shape.
What each experiment shows is documented on its function in
:mod:`repro.harness.experiments` and, with measured results, in
EXPERIMENTS.md.  Run one with ``-k``::

    pytest benchmarks/bench_paper.py --benchmark-only -k figure9
"""

import pytest

from _util import assert_shape, run_experiment

PAPER_EXPERIMENTS = (
    "table1", "figure1", "figure23", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11",
)


@pytest.mark.parametrize("name", PAPER_EXPERIMENTS)
def test_experiment(benchmark, name):
    """Regenerate one table/figure and assert its qualitative shape."""
    result = benchmark.pedantic(run_experiment, args=(name,), rounds=1, iterations=1)
    assert_shape(result)
