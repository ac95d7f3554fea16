"""The benchmark tracer wraps coverdepth functions by name; keep those names alive.

bench/tracer.py replaces each name in its SPANNED table on the coverdepth
module of that layer (or on FieldSpec). A rename or deletion in the package
would break traced benchmark runs, so this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

from coverdepth.gf import FieldSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("coverdepth_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.SPANNED.items():
        module = importlib.import_module(f"coverdepth.{layer}")
        for name in names:
            owner, attr = module, name
            if name.startswith("FieldSpec."):
                owner, attr = FieldSpec, name.split(".", 1)[1]
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{layer}.{name}")
    assert not missing
