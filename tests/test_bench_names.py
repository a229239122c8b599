"""Every `ntfusion` name the benchmark under `bench/` reaches still exists and
takes the arguments the benchmark passes, so that renaming or deleting one
fails here and not only in the benchmark's own tests. The benchmark's files
are read as source text, never imported or run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from ntfusion.experiments import ExperimentSpec
from ntfusion.fusion import FusionPlan
from ntfusion.training import TrainConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _assigned(name, var):
    """The expression that bench/<name> assigns to the variable `var`."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == var for t in node.targets):
            return node.value
    raise AssertionError(f"bench/{name} defines no {var}")


def _traced_names():
    """The keys of `spans.TRACED`: "<module>.<function>" in ntfusion."""
    return [ast.literal_eval(key) for key in _assigned("spans.py", "TRACED").keys]


def _workload_bindings():
    """Local name -> ntfusion object of every `from ntfusion... import` in
    bench/workloads.py."""
    out = {}
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ntfusion":
            module = importlib.import_module(node.module)
            for alias in node.names:
                out[alias.asname or alias.name] = (
                    getattr(module, alias.name) if hasattr(module, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    return out


def _resolve(node, bindings):
    """The ntfusion object an expression like `experiments.train` names, or None."""
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bindings)
        if inspect.ismodule(owner):
            assert hasattr(owner, node.attr), f"{owner.__name__}.{node.attr} is gone"
            return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"ntfusion.{module}"), attr))


def test_workload_method_table_is_the_cli_s():
    """The in-process fusion timings build `FusionPlan`s from
    `workloads.CLI_TO_PLAN`, a copy of the CLI's method table: a method
    renamed in one and not the other times the wrong fusion or none."""
    from ntfusion import cli

    assert ast.literal_eval(_assigned("workloads.py", "CLI_TO_PLAN")) == cli._METHODS


def test_workload_calls_match_their_signatures():
    """Each call in bench/workloads.py to an ntfusion function or class binds
    to its signature: the same number of positional arguments and keyword
    names it accepts (e.g. `FusionPlan(finetune=...)`)."""
    bindings = _workload_bindings()
    calls = 0
    for node in ast.walk(_tree("workloads.py")):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, bindings)
        if target is None or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        inspect.signature(target).bind_partial(*[None] * len(node.args), **keywords)
        calls += 1
    assert calls >= 20


def test_names_the_workloads_reach_by_string():
    """`Meter` wraps `experiments.train`, `distill` and `train_members` and
    `training.evaluate` by attribute name, and reads `cfg` and `train_ds`
    from the arguments of the first two."""
    from ntfusion import experiments, training

    for fn in (experiments.train, experiments.distill):
        assert {"cfg", "train_ds"} <= set(inspect.signature(fn).parameters)
    params = list(inspect.signature(experiments.train_members).parameters)
    assert params[:3] == ["specs", "train_ds", "test_ds"]
    assert callable(training.evaluate)
    cfg = TrainConfig(epochs=1, lr=0.05)
    spec = ExperimentSpec(name="n", dataset={}, arch={}, k=2, seeds=(1,), train=cfg,
                          plan=FusionPlan(method="nt", pipeline="merge_prune_ft", finetune=cfg))
    assert spec.plan.finetune is cfg and cfg.reseeded(3).epochs == 1
