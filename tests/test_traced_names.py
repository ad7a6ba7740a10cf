"""The benchmark's tracer wraps crowdirl functions by name; every traced name must exist.

A name the package no longer defines only shows in a traced benchmark run, as a
missing entry point, so this reads the names out of bench/tracer.py.
"""
import importlib
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# span(module, "name", ...) and tracer.patch(module, "name", ...)
TRACED = re.compile(r'\b(?:span|tracer\.patch)\((\w+), "(\w+)"')


def test_every_traced_name_exists_in_its_module():
    pairs = TRACED.findall(TRACER.read_text(encoding="utf-8"))
    assert len(pairs) >= 20
    missing = [f"crowdirl.{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(f"crowdirl.{module}"), name)]
    assert missing == []
