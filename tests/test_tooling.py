"""The tools around the package, checked against it.

The per-layer tracer of benchmarks/layers.py wraps package functions by
name; a rename or deletion in the package would crash a traced run.  Its
wrappers are applied here to copies of the modules, so the package stays
as it is.  The CI calls each pin of tools/pins.py by name; a lost step or
a renamed pin shows here, without running the pins."""

import importlib.util
import re
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

from fordspheres import arith, farey, gint, moment, region

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "benchmarks" / "layers.py"


def test_every_traced_attribute_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclass looks itself up there
    spec.loader.exec_module(layers)
    a, f, g, m, r = (SimpleNamespace(**vars(mod)) for mod in (arith, farey, gint, moment, region))
    reg = layers.Registry()
    layers.wrap_setup(reg, a, m)
    layers.wrap_workload(reg, g, f, r, m)
    assert set(reg.spans) >= {
        "arith.get_sieve",
        "moment.constant_C",
        "moment.moment_first_counting",
        "moment.consecutive_partner_counts",
        "moment.moment_first_direct",
        "region.omega_lattice_count",
        "gint.factor",
        "farey.consecutive_pairs",
        "farey.enumerate_gs",
        "farey.is_consecutive",
        "gint.is_coprime",
    }
    # arith.sieve.cells counts the cells the door hands out: those with
    # norm <= 8^2, whatever larger sieve an earlier test cached
    a.get_sieve(8)
    sieve = reg.spans["arith.get_sieve"]
    assert (sieve.calls, sieve.items) == (1, len(arith.canonical_cells(64)[2]))


def test_every_pin_is_one_ci_step():
    pins = runpy.run_path(str(ROOT / "tools" / "pins.py"))["PINS"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = workflow.split("\n      - name: ")[1:]
    called = [[n for m in re.finditer(r"python tools/pins\.py((?: +\w+)+)", step) for n in m[1].split()] for step in steps]
    # a step calls at most one pin, so a failure names its step; every pin
    # is called once, and no call names anything else
    assert all(len(names) <= 1 for names in called)
    assert sorted(n for names in called for n in names) == sorted(pins)
    assert "<<" not in workflow  # no heredoc Python left in a step
