"""``python -m exoforecast <command> --help`` lists the same commands and flags.

Each flag's dest is the name of the config field it sets, so a dest can
change while the flag it spells must not. These lists pin every subcommand's
option strings, in order, as a user types them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = ["synth", "train", "eval", "ablate", "corrupt-eval", "graph"]

RUN_OPTIONS = [
    "-h", "--help", "--data", "--schema", "--t-past", "--t-future", "--experts",
    "--hidden", "--backbone", "--mix-hidden", "--graph", "--graph-k", "--fusion",
    "--keep-prob", "--no-selector", "--use-past", "--no-use-past",
    "--use-future", "--no-use-future", "--use-date", "--no-use-date", "--epochs",
    "--batch", "--patience", "--lr-max", "--lr-min", "--weight-decay", "--loss",
    "--out", "--seed", "--horizon-days",
]

OPTIONS = {
    "synth": ["-h", "--help", "--out", "--nodes", "--steps", "--lag", "--noise",
              "--past-coef", "--future-coef", "--seed"],
    "train": RUN_OPTIONS,
    "eval": ["-h", "--help", "--model-dir", "--out", "--horizon-days", "--corrupt",
             "--corrupt-ratio", "--corrupt-seed"],
    "ablate": RUN_OPTIONS,
    "corrupt-eval": ["-h", "--help", "--model-dir", "--out", "--horizon-days",
                     "--corrupt-seed"],
    "graph": ["-h", "--help", "--data", "--schema", "--t-past", "--t-future",
              "--graph", "--graph-k", "--seed", "--out"],
}


def _help(*words: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "exoforecast", *words, "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and not done.stderr, done.stderr
    return done.stdout


def test_subcommands_in_order():
    assert "{" + ",".join(COMMANDS) + "}" in _help().splitlines()[0]


@pytest.mark.parametrize("command", COMMANDS)
def test_option_strings(command):
    options = _help(command).split("\noptions:\n", 1)[1]
    found = [flag for line in options.splitlines() if line.startswith("  -")
             for flag in re.findall(r"(?:^|[\s,])(--?[a-z][a-z-]*)", line)]
    assert found == OPTIONS[command]
