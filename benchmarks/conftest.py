"""Shared fixtures for the benchmark harnesses (one bench per paper figure).

The benches use deliberately modest dataset sizes (see
``repro.experiments.config``) so that a full ``pytest benchmarks/
--benchmark-only`` run finishes in a few minutes while still exercising every
code path of the corresponding experiment.  Each bench prints the series its
figure plots; measured end-to-end runs come from the ``beasbench`` benchmark
(see ``beasbench/README.md``).
"""

from __future__ import annotations

import pytest

from repro.experiments import build_beas
from repro.workloads import QueryGenerator, airca, tfacc, tpch


@pytest.fixture(scope="session")
def tpch_workload():
    return tpch.generate(scale=2, seed=13)


@pytest.fixture(scope="session")
def tfacc_workload():
    return tfacc.generate(accidents=3000, stops=800, seed=41)


@pytest.fixture(scope="session")
def airca_workload():
    return airca.generate(flights=4000, airports=40, seed=29)


@pytest.fixture(scope="session")
def tpch_beas(tpch_workload):
    return build_beas(tpch_workload)


@pytest.fixture(scope="session")
def tfacc_beas(tfacc_workload):
    return build_beas(tfacc_workload)


@pytest.fixture(scope="session")
def airca_beas(airca_workload):
    return build_beas(airca_workload)


@pytest.fixture(scope="session")
def tpch_queries(tpch_workload):
    return QueryGenerator(tpch_workload, seed=7).workload_mix(count=6)


@pytest.fixture(scope="session")
def tfacc_queries(tfacc_workload):
    return QueryGenerator(tfacc_workload, seed=7).workload_mix(count=6)


@pytest.fixture(scope="session")
def airca_queries(airca_workload):
    return QueryGenerator(airca_workload, seed=7).workload_mix(count=6)
