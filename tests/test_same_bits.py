"""The CLI's outputs keep their bits.

A fixed list of commands runs in process through ``cli.main`` from a fresh
directory, with relative paths, so ``config.json`` holds no absolute path.
The SHA-256 of every file they write (``timing.txt`` left out) and of each
command's stdout must equal the committed ``same_bits_manifest.json``.

The bits depend on Python, numpy and the BLAS build and core type, so the
manifest records that stamp; on another stamp the test fails and names both.
The CLI runs at tiny shapes, where a fused node's rows fit in one
``BLOCK`` chunk and a ``predict`` in one slice. So the manifest also holds,
under ``paper_shape``, the digests of one seeded training step per backbone
at the paper shape (N = 24, T = 24 -> 24, H = 64, K = 4, batch 8), whose
rows span several chunks, and of a 2-worker ``predict`` of 13 windows, five
3-window slices, two forecast by the caller and three by a forked child;
both are checked under 1 and 2 BLAS threads.

A change that alters bits on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_same_bits.py

and names each changed entry in ``CHANGES.md``; the manifest's diff is the
record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast import model as model_module
from exoforecast import training
from exoforecast.cli import main

MANIFEST = Path(__file__).with_name("same_bits_manifest.json")

DATA = ["--data", "panel/panel.csv", "--schema", "panel/panel.schema.json"]
TINY = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
        "--mix-hidden", "3", "--graph-k", "2", "--epochs", "2", "--batch", "32",
        "--patience", "5"]


def _runs() -> dict[str, list[str]]:
    """Each trained run's directory name and its model flags."""
    runs = {f"{backbone}-{fusion}": ["--backbone", backbone, "--fusion", fusion]
            for backbone in ("grugcn", "mlp-mixer")
            for fusion in ("context", "shared", "simple", "learnable", "attention")}
    runs |= {f"grugcn-{graph}": ["--backbone", "grugcn", "--graph", graph]
             for graph in ("adaptive", "adaptive-directed", "identity")}
    runs["mlp-mixer-lean"] = ["--backbone", "mlp-mixer", "--loss", "mse",
                              "--no-use-future", "--no-selector", "--keep-prob", "0.8"]
    return runs


def commands() -> list[list[str]]:
    out = [["synth", "--out", "panel", "--nodes", "4", "--steps", "300", "--seed", "3"]]
    for name, flags in _runs().items():
        out.append(["train", *DATA, *TINY, *flags, "--seed", "1", "--horizon-days", "2",
                    "--out", f"runs/{name}"])
        out.append(["eval", "--model-dir", f"runs/{name}", "--horizon-days", "3",
                    "--out", f"evals/{name}"])
    out += [["graph", *DATA, *TINY[:4], "--graph", graph, "--graph-k", "2", "--seed", "4",
             "--out", f"graph-{graph}.tsv"]
            for graph in ("pearson", "identity", "adaptive", "adaptive-directed")]
    out += [["eval", "--model-dir", "runs/grugcn-context", "--corrupt", strategy,
             "--corrupt-ratio", "0.5", "--out", f"evals/corrupt-{strategy}"]
            for strategy in ("zero", "random")]
    out.append(["corrupt-eval", "--model-dir", "runs/mlp-mixer-context",
                "--out", "evals/corrupt-grid"])
    out.append(["ablate", *DATA, *TINY, "--backbone", "mlp-mixer", "--epochs", "1",
                "--out", "ablate"])
    return out


def stamp() -> dict:
    """The environment the bits depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("openblas configuration") or blas.get("name")}


def digests() -> dict[str, str]:
    """Run ``commands()`` in the current directory; the SHA-256 of each
    command's stdout and of every file written, by name."""
    out = {}
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        assert rc == 0, argv
        out["stdout: " + " ".join(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    for path in sorted(Path().rglob("*")):
        if path.is_file() and path.name != "timing.txt":
            out[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def paper_shape_digests() -> dict[str, str]:
    """For each backbone at the paper shape: the digests of one seeded
    training step's loss, of every grad and every updated parameter, and
    of a 2-worker ``predict`` of 13 windows by the updated model."""
    rng = np.random.default_rng(7)
    n, t, batch = 24, 24, 8
    series = rng.normal(size=(n, 96))
    x, e_p, e_f, y = (rng.normal(size=(13, n, t, f)) for f in (1, 5, 5, 1))
    out = {}
    for backbone in ("grugcn", "mlp-mixer"):
        model = model_module.ExoModel(model_module.ModelConfig(
            n_nodes=n, past_exo_dim=5, future_exo_dim=5, t_past=t, t_future=t,
            hidden=64, experts=4, backbone=backbone, seed=1), target_series=series)
        params = model.parameters()
        with ad.Tape() as tape:
            pred, _ = model.forward(x[:batch], e_p[:batch], e_f[:batch],
                                    rng=np.random.default_rng(2))
            loss = training._loss_tensor(pred, y[:batch], "mae")
        tape.backward(loss)
        training.adamw_step(params, training.AdamWState(), 1e-2, weight_decay=1e-4)
        out[f"{backbone} loss"] = _sha(loss.values)
        out |= {f"{backbone} grad {name}": _sha(p.grad) for name, p in params.items()}
        out |= {f"{backbone} step {name}": _sha(p.values) for name, p in params.items()}
        workers = model_module.PREDICT_WORKERS
        model_module.PREDICT_WORKERS = 2
        try:
            out[f"{backbone} predict"] = _sha(model.predict(x, e_p, e_f))
        finally:
            model_module.PREDICT_WORKERS = workers
    return out


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    here = stamp()
    assert manifest["stamp"] == here, (
        f"manifest stamp {manifest['stamp']} differs from this environment's "
        f"{here}; its digests hold only for its own stamp")
    monkeypatch.chdir(tmp_path)
    got, want = digests(), manifest["digests"]
    changed = sorted(k for k in got.keys() & want.keys() if got[k] != want[k])
    assert (changed, sorted(got.keys() - want.keys()),
            sorted(want.keys() - got.keys())) == ([], [], []), \
        "(changed, new, missing) entries against the manifest"


@pytest.mark.skipif(model_module._BLAS_THREADS is None,
                    reason="numpy's OpenBLAS thread control is unreachable")
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_paper_shape_matches_the_manifest(blas_threads):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["stamp"] == stamp(), "the manifest's digests hold only for its own stamp"
    get_threads, set_threads = model_module._BLAS_THREADS
    before = get_threads()
    set_threads(blas_threads)
    try:
        got = paper_shape_digests()
    finally:
        set_threads(before)
    want = manifest["paper_shape"]
    assert sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k)) == [], \
        "paper-shape entries that differ from the manifest"


def test_predict_uses_every_core():
    """On the manifest's stamp, numpy's OpenBLAS thread control and
    ``os.fork`` are reachable, so ``predict`` forwards its chunks on one
    process per core, forking all but the caller, not serially."""
    if json.loads(MANIFEST.read_text())["stamp"] != stamp():
        pytest.skip("the manifest's stamp differs from this environment's")
    assert model_module._BLAS_THREADS is not None and hasattr(os, "fork") and \
        model_module.PREDICT_WORKERS == len(os.sched_getaffinity(0)), (
        "predict fell back to one worker: numpy's OpenBLAS thread functions "
        "scipy_openblas_{get,set}_num_threads64_ or os.fork were not found")


if __name__ == "__main__":
    import tempfile

    home = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            result = {"stamp": stamp(), "digests": digests(),
                      "paper_shape": paper_shape_digests()}
        finally:
            os.chdir(home)
    MANIFEST.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(result['digests'])} + "
          f"{len(result['paper_shape'])} entries)")
