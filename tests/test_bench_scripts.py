"""The scripts under bench/ still import: every engellab name they import
exists, and so does every attribute they read off an engellab module or
class, or off the benchmark's workloads module.  No round runs; micro.py's
normal-form counts run on two pairs."""

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
        assert sorted(tables) == ["full", "linear", "near_origin", "origin"]
        assert sum(tables.values()) > 0
        assert counts[f"{call}_product_terms"] > counts[f"{call}_kernel_products"] > 0
    # the normal-form round's second pair at seed 1 composes inners whose
    # constants are near zero, not zero; none of them is counted as full
    tables = module.normal_form_counts(module.round_pair(), "round_pair_")[
        "round_pair_normalize_pair_o4_composer_tables"]
    assert tables["near_origin"] > 0 and tables["full"] == 0


def test_micro_l2_items(monkeypatch):
    # each timed call runs once, untimed
    module, _ = _load("micro.py", monkeypatch)
    monkeypatch.setattr(module, "per_call_us", lambda fn: (fn(), {"median_us": 1.0})[1])
    items = {}
    module.l2_items(items, {})
    for name in ("flag_ranks_prolonged_batch200_per_point",
                 "characteristic_lines_angles_prolonged_batch200_per_point",
                 "contactify_principal_angles_batch60_per_pair",
                 "normalize_pair_o4_batch10_per_pair", "verify_o4_batch10_per_pair"):
        assert items[name]["median_us"] > 0


def test_micro_l3_items(monkeypatch):
    # each timed call runs once, untimed; a 4-sample report calls V1 on its
    # stack of lanes, so it makes fewer field calls than 4 returns alone
    module, _ = _load("micro.py", monkeypatch)
    monkeypatch.setattr(module, "per_call_us", lambda fn: (fn(), {"median_us": 1.0})[1])
    items, counts = {}, {}
    module.l3_items(items, counts)
    assert items["v1_stack_4_lanes"]["median_us"] > 0
    assert items["closedness_4_samples"]["median_us"] > 0
    assert 0 < counts["closedness_4_samples_field_calls"] < 4 * counts["first_return_field_evals"]
