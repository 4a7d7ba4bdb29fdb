"""Serving never loads networkx; the independent checks load it on use.

networkx backs only the max-flow oracle and the grouping cross-check, so
a process that imports the library, the CLI, the service and the wire
front end and then serves requests must not have it in ``sys.modules``.
The check runs in one fresh interpreter: this test process has already
imported whatever other tests needed.
"""

import os
import subprocess
import sys

#: Child script: import the serving side, serve Example 1 on both
#: kernels, check networkx is absent, then run the checks that need it.
_CHILD = """
import sys

import repro
import repro.cli
import repro.net.client
import repro.net.server
import repro.service
from repro.core.grouping import form_groups, form_groups_networkx
from repro.core.overlap import OverlapGraph
from repro.service import ServiceConfig, ValidationService
from repro.validation.flow import FlowFeasibilityOracle
from repro.workloads.scenarios import example1

scenario = example1()
logs = []
for kernel in ("tree", "dense"):
    with ValidationService(scenario.pool, ServiceConfig(kernel=kernel)) as service:
        outcomes = service.process(scenario.usages)
        assert [o.accepted for o in outcomes] == [True, True], outcomes
        logs.append(service.log)
assert "networkx" not in sys.modules, "serving loaded networkx"

graph = OverlapGraph.from_pool(scenario.pool)
assert form_groups_networkx(graph) == form_groups(graph)
exported = graph.to_networkx()
assert sorted(tuple(sorted(edge)) for edge in exported.edges()) == sorted(
    graph.edges()
)
oracle = FlowFeasibilityOracle(scenario.pool.aggregate_array())
assert all(oracle.feasible_log(log) for log in logs)
assert "networkx" in sys.modules
print("ok")
"""


def test_serving_does_not_import_networkx():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
