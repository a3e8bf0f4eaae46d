"""Every exported name resolves, and the removed forwarders stay removed."""

import importlib
import inspect

import pytest

import fuzzymaps

MODULES = ["fuzzymaps"] + [
    f"fuzzymaps.{m}"
    for m in ("cli", "dynamics", "errors", "model_io", "models", "supermatrix")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from fuzzymaps import *", namespace)
    assert set(fuzzymaps.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "module, name",
    [
        ("supermatrix", "make_partition"),
        ("supermatrix", "block"),
        ("supermatrix", "transpose_matrix"),
        ("supermatrix", "transpose_vector"),
        ("supermatrix", "flatten"),
        ("supermatrix", "reassemble"),
        ("dynamics", "unit_seed"),
        ("models", "_expected_kind"),
        ("model_io", "_policy_dict"),
        ("models", "PolicyOverrides"),
        ("model_io", "_rule_json"),
    ],
)
def test_removed_names_stay_removed(module, name):
    # partitions, blocks, transposes and flattening are methods of
    # Partition, SuperMatrix and SuperVector
    assert not hasattr(importlib.import_module(f"fuzzymaps.{module}"), name)
    assert not hasattr(fuzzymaps, name)


def test_threshold_rule_has_no_apply():
    # thresholding is apply_threshold's alone
    assert not hasattr(fuzzymaps.ThresholdRule, "apply")


def test_sweep_records_no_trace():
    # only a single run records a trace
    params = inspect.signature(fuzzymaps.sweep_unit_seeds).parameters
    assert "record_trace" not in params
