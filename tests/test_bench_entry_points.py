"""The benchmark's span tracer patches program entry points by dotted name.

``perfbench/child.py`` is read as text, never imported: a renamed or
dropped entry point must fail here, not show up as a metric whose value is
``null`` in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

from exoforecast.data import SynthConfig, prepare_splits, synth_generate

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
NAMES = ("SPANS", "TAPE_CLASS", "PREDICT", "EVALUATE", "ADAMW")


def _child_module() -> ast.Module:
    return ast.parse(CHILD.read_text(), filename=str(CHILD))


def _constants() -> dict:
    """The literal module-level assignments of ``NAMES`` in child.py."""
    found = {}
    for node in _child_module().body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in NAMES:
                found[target.id] = ast.literal_eval(node.value)
    return found


def _resolve(path: str):
    """The object at ``path``: the longest importable module prefix, then a
    ``getattr`` chain, as the tracer resolves it."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name)
        return owner
    raise ImportError(f"no importable module in {path}")


def _entry_points() -> list[str]:
    """Each patched name once, in order: a span's entry point may also be a
    marker, and strict parametrization ids reject a repeat."""
    consts = _constants()
    tape = consts.get("TAPE_CLASS")
    return list(dict.fromkeys(
        [path for _, path, _ in consts.get("SPANS", ())]
        + ([tape + ".__enter__", tape + ".__exit__"] if tape else [])
        + [consts[name] for name in ("PREDICT", "EVALUATE", "ADAMW") if name in consts]))


def _imported_names() -> list[str]:
    """``module.name`` for every ``from exoforecast... import name`` in child.py."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(_child_module())
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "exoforecast"
            for alias in node.names]


def test_child_names_its_entry_points():
    consts = _constants()
    assert sorted(consts) == sorted(NAMES)
    assert len(consts["SPANS"]) > 0


@pytest.mark.parametrize("path", _entry_points())
def test_traced_entry_point_resolves(path):
    assert callable(_resolve(path))


@pytest.mark.parametrize("path", _imported_names())
def test_imported_name_resolves(path):
    _resolve(path)


def test_prepared_data_keeps_the_split_attributes():
    """The window-bytes probe reads these three attributes of the result."""
    prepared = prepare_splits(synth_generate(SynthConfig(nodes=2, steps=120)), 6, 4)
    for split in ("train", "val", "test"):
        assert len(getattr(prepared, split)) > 0


COUNTED = ("data.make_rollout_windows", "training.evaluate", "training.stack_samples")


def test_traced_entry_points_are_called(tmp_path, monkeypatch):
    """The CLI calls the names the tracer wraps, one rollout and one evaluate
    per horizon per command, so a traced span cannot silently read 0."""
    from exoforecast.cli import main
    from exoforecast.data import save_panel

    paths = {span: path for span, path, _ in _constants()["SPANS"]}
    calls = dict.fromkeys(COUNTED, 0)
    for span in COUNTED:
        module, attr = paths[span].rsplit(".", 1)
        owner = importlib.import_module(module)
        real = getattr(owner, attr)

        def counted(*args, _span=span, _real=real, **kwargs):
            calls[_span] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    panel = synth_generate(SynthConfig(nodes=3, steps=200, seed=2))
    save_panel(panel, tmp_path / "panel.csv", tmp_path / "panel.schema.json")
    tiny = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
            "--mix-hidden", "4", "--backbone", "mlp-mixer", "--epochs", "2",
            "--batch", "64"]
    assert main(["train", "--data", str(tmp_path / "panel.csv"),
                 "--schema", str(tmp_path / "panel.schema.json"), *tiny,
                 "--horizon-days", "2", "--out", str(tmp_path / "run")]) == 0
    trained = dict(calls)
    batches = -(-len(prepare_splits(panel, 6, 4).train) // 64)
    # per epoch: each batch and the validation split; then each test horizon
    assert trained == {"data.make_rollout_windows": 2, "training.evaluate": 2,
                       "training.stack_samples": 2 * (batches + 1) + 2}
    assert main(["eval", "--model-dir", str(tmp_path / "run"),
                 "--out", str(tmp_path / "eval")]) == 0
    assert {span: calls[span] - trained[span] for span in COUNTED} == {
        "data.make_rollout_windows": 2, "training.evaluate": 2,
        "training.stack_samples": 2}
