"""The scripts under bench/ still import: every engellab name they import
exists, and so does every attribute they read off an engellab module or
class, or off the benchmark's workloads module.  No round runs; micro.py's
normal-form counts run on one pair."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _library(owner):
    if inspect.ismodule(owner):
        return owner.__name__.split(".")[0] in ("engellab", "workloads")
    return isinstance(owner, type) and owner.__module__.startswith("engellab")


def _load(script, monkeypatch):
    # the scripts put src/ (and perfbench/) on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = BENCH / script
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, path


@pytest.mark.parametrize("script", ["digests.py", "micro.py"])
def test_bench_script_names_exist(script, monkeypatch):
    module, path = _load(script, monkeypatch)
    reads = {(node.value.id, node.attr) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and isinstance(node.ctx, ast.Load)}
    checked = [(owner, attr) for owner, attr in sorted(reads)
               if _library(getattr(module, owner, None))]
    assert checked
    missing = [f"{owner}.{attr}" for owner, attr in checked
               if not hasattr(getattr(module, owner), attr)]
    assert not missing, f"{script} reads names that do not exist: {missing}"


def test_micro_normal_form_counts(monkeypatch):
    module, _ = _load("micro.py", monkeypatch)
    counts = module.normal_form_counts(module.cli._random_pair(np.random.default_rng(4)))
    names = [f"{call}_{count}" for call in ("normalize_pair_o4", "verify_o4")
             for count in ("kernel_products", "product_terms", "composer_tables")]
    assert sorted(counts) == sorted(names)
    for call in ("normalize_pair_o4", "verify_o4"):
        tables = counts[f"{call}_composer_tables"]
        assert sorted(tables) == ["full", "linear", "origin"] and sum(tables.values()) > 0
        assert counts[f"{call}_product_terms"] > counts[f"{call}_kernel_products"] > 0
