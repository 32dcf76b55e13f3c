"""Lazy re-exports: what a package names resolves, and what a check loads.

Every package ``__init__`` re-exports its names lazily (``repro._lazy``),
so these tests run each scenario in a fresh interpreter: an import order
set up by an earlier test would hide the failures they look for.

* Every ``__all__`` name of every package resolves to the object a
  defining module holds, never to a module, before and after every
  submodule has been imported, and ``from <package> import *`` works.
  The import system rebinds a package attribute to a submodule of the
  same name when it first imports it; the two such names,
  ``repro.typecheck`` and ``repro.pebble.output_automaton``, are bound
  eagerly to their functions.
* A cold ``python -m repro typecheck`` of the filter example loads no
  module of the exact route, the MSO compiler, the XML-QL front end or
  the serving stack.
* A worker pool imports the job path before it forks, and after that
  import no job imports a ``repro`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC_DIR)
EXAMPLES = os.path.join(ROOT, "examples")

PACKAGES = [
    "repro", "repro.runtime", "repro.pebble", "repro.lang",
    "repro.automata", "repro.typecheck", "repro.regex", "repro.trees",
    "repro.xmlio", "repro.mso", "repro.data", "repro.ext",
]

#: Modules a stylesheet check between two DTDs never runs.
NOT_ON_THE_CLI_PATH = [
    "repro.mso", "repro.mso.annotations", "repro.mso.compile",
    "repro.mso.semantics", "repro.mso.syntax",
    "repro.lang.xmlql", "repro.lang.patterns",
    "repro.pebble.to_regular", "repro.pebble.two_way",
    "repro.pebble.product", "repro.pebble.quotient", "repro.pebble.to_mso",
    "repro.pebble.starfree", "repro.pebble.classic",
    "repro.automata.alternating",
    "repro.runtime.service", "repro.runtime.diskcache",
    "repro.runtime.supervisor",
]

#: Modules a pool's parent holds once it has started its workers.
JOB_PATH = [
    "repro.typecheck.engine", "repro.typecheck.routing",
    "repro.typecheck.stylesheet", "repro.lang.xslt",
    "repro.pebble.to_regular", "repro.pebble.two_way", "repro.audit",
]

#: Imports every repro module but the ``python -m repro`` entry point.
IMPORT_ALL = """
def import_all():
    import importlib, pkgutil
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
"""


def run_python(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter; its stdout."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


EXPORTS_SCRIPT = IMPORT_ALL + """
import sys, types

package_name, order = sys.argv[1], sys.argv[2]
if order == "submodules-first":
    import_all()
package = __import__(package_name, fromlist=["*"])
star = {}
exec(f"from {package_name} import *", star)
first = {name: getattr(package, name) for name in package.__all__}
import_all()
problems = []
for name in package.__all__:
    value = getattr(package, name)
    if name not in star:
        problems.append(f"{name}: missing from 'import *'")
    elif star[name] is not value:
        problems.append(f"{name}: 'import *' gave another object")
    if first[name] is not value:
        problems.append(f"{name}: changed once every submodule was imported")
    if isinstance(value, types.ModuleType):
        problems.append(f"{name}: resolves to module {value.__name__}")
    holders = [
        module.__name__ for module in list(sys.modules.values())
        if isinstance(module, types.ModuleType)
        and module.__name__.startswith("repro.")
        and not hasattr(module, "__path__")
        and vars(module).get(name) is value
    ]
    if not holders and name != "__version__":  # the root's own
        problems.append(f"{name}: no defining module holds this object")
print("\\n".join(problems))
"""


@pytest.mark.parametrize("order", ["names-first", "submodules-first"])
@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_object(package, order):
    assert run_python(EXPORTS_SCRIPT, package, order).strip() == ""


@pytest.mark.parametrize("setup", [
    "",
    "import repro.typecheck.routing",
    "import repro.typecheck",
    "import_all()",
])
def test_from_repro_import_typecheck_is_the_function(setup):
    out = run_python(IMPORT_ALL + setup + """
import sys
from repro import typecheck
from repro.pebble import output_automaton
print(typecheck is sys.modules["repro.typecheck.engine"].typecheck,
      output_automaton
      is sys.modules["repro.pebble.output_automaton"].output_automaton)
""")
    assert out.split() == ["True", "True"]


def test_a_submodule_reads_as_a_package_attribute():
    out = run_python("""
import repro.data, repro.pebble
print(repro.data.samples.__name__, repro.pebble.two_way.__name__,
      hasattr(repro.pebble, "no_such_module"))
""")
    assert out.split() == ["repro.data.samples", "repro.pebble.two_way",
                           "False"]


def test_names_imported_into_the_engine_stay_importable():
    out = run_python("""
import sys
from repro.typecheck.engine import (
    as_automaton, bu_to_td, explore_product, output_language,
    pebble_automaton_to_ta, transducer_times_automaton, trim_quotient,
    walking_summary,
)
print(bu_to_td is sys.modules["repro.automata.convert"].bu_to_td,
      walking_summary is sys.modules["repro.pebble.two_way"].walking_summary)
""")
    assert out.split() == ["True", "True"]


def test_a_cold_cli_typecheck_loads_none_of_the_unused_machinery():
    out = run_python("""
import json, runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
""", "typecheck",
        "--input-dtd", os.path.join(EXAMPLES, "filter_input.dtd"),
        "--output-dtd", os.path.join(EXAMPLES, "filter_output.dtd"),
        os.path.join(EXAMPLES, "filter.xsl"))
    lines = out.splitlines()
    assert "verdict: ok (exact proof)" in lines
    report = json.loads(lines[-1])
    assert report["code"] == 0
    assert "repro.typecheck.stylesheet" in report["modules"]
    loaded = sorted(set(NOT_ON_THE_CLI_PATH) & set(report["modules"]))
    assert loaded == []


def test_a_started_pool_holds_the_job_path():
    out = run_python("""
import json, sys
from repro.runtime.supervisor import WorkerPool
before = sorted(sys.modules)
pool = WorkerPool(1)
pool.start()
try:
    print(json.dumps([before, sorted(sys.modules)]))
finally:
    pool.close()
""")
    before, after = json.loads(out)
    assert "repro.pebble.two_way" not in before
    assert set(JOB_PATH) <= set(after)


def test_no_job_imports_once_the_job_path_is_imported():
    out = run_python("""
import json, sys
from repro.runtime.jobs import execute_classified, import_job_path

examples = sys.argv[1]
paths = {name: f"{examples}/filter{suffix}" for name, suffix in (
    ("stylesheet", ".xsl"), ("input_dtd", "_input.dtd"),
    ("output_dtd", "_output.dtd"), ("document", "_input.xml"))}
import_job_path()
before = set(sys.modules)
statuses = []
for output_dtd_text in (None, "out := thing+\\nthing :="):
    for method in ("auto", "exact", "bounded"):
        params = {"stylesheet": paths["stylesheet"],
                  "input_dtd": paths["input_dtd"],
                  "output_dtd": paths["output_dtd"],
                  "method": method, "audit": "full"}
        if output_dtd_text is not None:
            params["output_dtd_text"] = output_dtd_text
        outcome = execute_classified({"kind": "typecheck", "params": params})
        statuses.append(outcome["status"])
for kind, params in (
    ("run", {"stylesheet": paths["stylesheet"],
             "document": paths["document"]}),
    ("validate", {"dtd": paths["input_dtd"],
                  "document": paths["document"]}),
):
    statuses.append(execute_classified({"kind": kind, "params": params})
                    ["status"])
new = sorted(name for name in set(sys.modules) - before
             if name.startswith("repro"))
print(json.dumps({"statuses": statuses, "new": new}))
""", EXAMPLES)
    report = json.loads(out)
    assert report["statuses"] == ["ok"] * 3 + ["type-error"] * 3 + ["ok"] * 2
    assert report["new"] == []
