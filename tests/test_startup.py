"""Start-up contract: only the commands that need scipy import it.

Each check runs the commands in a fresh interpreter, because the test
modules themselves import scipy in this process.
"""
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs the given cli.main argument lists in order and prints their exit codes
# and the scipy modules loaded by then; the reports themselves are discarded.
CHILD = """
import contextlib, io, json, sys
from mcprep import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

SPEC_4Q = "0.8 1100\n0.6 0110\n"
HAM_4Q = "-0.5 ZIII\n0.25 IZII\n0.3 ZZII\n0.35 XIXI\n0.35 YIYI\n0.15 IXIX\n0.15 IYIY\n"
SPEC_8Q = "0.8 11000000\n0.6 10010000\n"
HAM_8Q = "-0.5 ZIIIIIII\n0.25 IIIZIIII\n0.2 ZIIZIIII\n0.3 XIIXIIII\n0.3 YIIYIIII\n"


def run_fresh(argvs):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def inputs(tmp_path):
    paths = {}
    for name, text in (("spec4", SPEC_4Q), ("ham4", HAM_4Q), ("spec8", SPEC_8Q), ("ham8", HAM_8Q)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    paths["circuit"] = tmp_path / "circuit.json"
    return {name: str(path) for name, path in paths.items()}


def test_commands_without_optimizer_start_without_scipy(tmp_path):
    p = inputs(tmp_path)
    result = run_fresh([
        ["synth", "--spec", p["spec4"], "--method", "ssp", "--out", p["circuit"]],
        ["verify", "--spec", p["spec4"], "--circuit", p["circuit"]],
        ["synth", "--spec", p["spec8"], "--method", "gr"],
        ["resources", "--spec", p["spec4"]],
        ["moments", "--spec", p["spec4"], "--hamiltonian", p["ham4"]],
        ["spectrum", "--hamiltonian", p["ham4"]],
        ["sceom", "--hamiltonian", p["ham4"], "--orbitals", "2", "--electrons", "2",
         "--element-resources"],
        ["qcels", "--spec", p["spec8"], "--hamiltonian", p["ham8"], "--tau", "0.5"],
    ])
    assert result["codes"] == [0] * 8
    assert result["scipy"] == []


def test_vqe_imports_the_optimizer(tmp_path):
    p = inputs(tmp_path)
    result = run_fresh([
        ["vqe", "--spec", p["spec4"], "--hamiltonian", p["ham4"], "--restarts", "1"],
    ])
    assert result["codes"] == [0]
    assert "scipy.optimize" in result["scipy"]
