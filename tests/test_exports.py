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


# the package's __all__ before it was derived from its modules' lists, by
# the module that defines each name
EXPORTED_BEFORE = {
    "supermatrix": [
        "EntryDomain", "Kind", "MatrixKind", "Orientation", "Partition",
        "SuperMatrix", "SuperVector", "check_entry_domain", "classify",
        "partition_matrix",
    ],
    "dynamics": [
        "Attractor", "AttractorCensus", "Attractors", "Comparator", "Direction",
        "FirstStepMode", "HiddenPattern", "PatternKind", "Side", "StateVector",
        "StepRecord", "ThresholdPolicy", "ThresholdRule", "apply_threshold",
        "apply_update", "enumerate_attractors", "run_hidden_pattern",
        "special_product", "step", "sweep_unit_seeds",
    ],
    "models": [
        "Diagnostic", "ModelKind", "ModelSpec", "describe", "run_model",
        "seed_from_labels", "validate_model",
    ],
    "model_io": [
        "FIXTURE_NAMES", "RunReport", "build_report", "emit_dot", "fixture_text",
        "load_fixture", "parse_model", "report_to_text", "serialize_model",
        "serialize_report",
    ],
}
# names the modules exported that the package now republishes too
EXPORTED_SINCE = {
    "supermatrix": ["partition_from_cuts"],
    "dynamics": ["GT_ZERO"],
    "model_io": ["FORMAT_VERSION", "REPORT_VERSION"],
}


def test_package_all_is_its_modules_all():
    # each public name is listed once, in its own module
    modules = [fuzzymaps.supermatrix, fuzzymaps.dynamics, fuzzymaps.models,
               fuzzymaps.model_io]
    joined = [name for mod in modules for name in mod.__all__]
    assert fuzzymaps.__all__ == joined + ["errors"]
    assert fuzzymaps.errors is importlib.import_module("fuzzymaps.errors")


@pytest.mark.parametrize("module", list(EXPORTED_BEFORE))
def test_exports_resolve_to_their_modules_objects(module):
    mod = importlib.import_module(f"fuzzymaps.{module}")
    names = EXPORTED_BEFORE[module] + EXPORTED_SINCE.get(module, [])
    assert len(names) == len(set(names))
    for name in names:
        assert name in fuzzymaps.__all__
        assert getattr(fuzzymaps, name) is getattr(mod, name)


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
        ("supermatrix", "SuperMatrix.simple"),
        ("dynamics", "AttractorCensus.basin_sizes"),
        ("dynamics", "ThresholdPolicy.named_rules"),
        ("dynamics", "ThresholdRule.compare"),
        ("cli", "build_parser"),
    ],
)
def test_removed_names_stay_removed(module, name):
    # partitions, blocks, transposes and flattening are methods of
    # Partition, SuperMatrix and SuperVector; a plain grid is
    # partition_matrix's, basin sizes are the census's basins column, the
    # CLI's one parser is built at import, and a rule's comparison is
    # apply_threshold's.  "Class.name" is a class attribute.
    owner, _, attr = name.rpartition(".")
    for space in (importlib.import_module(f"fuzzymaps.{module}"), fuzzymaps):
        if owner:
            space = getattr(space, owner)
        assert not hasattr(space, attr)


def test_threshold_rule_has_no_apply():
    # thresholding is apply_threshold's alone
    assert not hasattr(fuzzymaps.ThresholdRule, "apply")


def test_sweep_records_no_trace():
    # only a single run records a trace
    params = inspect.signature(fuzzymaps.sweep_unit_seeds).parameters
    assert "record_trace" not in params
