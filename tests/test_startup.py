"""Start-up contract: numpy and scipy load only where a command needs them.

Importing the package executes no numpy: its modules bind numpy lazily, so
input that the CLI error contract rejects as it is read, and every usage
error, exits before numpy loads. Numeric commands load numpy at their first array
operation, and only the commands that need scipy import it. Numpy counts as
loaded once any ``numpy.*`` submodule is in ``sys.modules``, which holds on
numpy 1.x and 2.x alike.

Each check runs in a fresh interpreter, because the test modules themselves
import numpy and scipy in this process.
"""
import json
import math
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs the given cli.main argument lists in order and prints, for each, its
# exit code and whether numpy was loaded by then; then the scipy modules
# loaded, and whether every module's np is the fully loaded sys.modules entry.
# Reports and error lines are discarded.
CHILD = """
import contextlib, io, json, sys, types
from mcprep import algorithms, circuits, cli, paulis, simulator
steps = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    steps.append([code, any(m.startswith("numpy.") for m in sys.modules)])
np = sys.modules.get("numpy")
print(json.dumps({
    "steps": steps,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_shared": all(m.np is np for m in (algorithms, circuits, paulis, simulator)),
    "numpy_loaded": type(np) is types.ModuleType,
}))
"""

SPEC_4Q = "0.8 1100\n0.6 0110\n"
HAM_4Q = "-0.5 ZIII\n0.25 IZII\n0.3 ZZII\n0.35 XIXI\n0.35 YIYI\n0.15 IXIX\n0.15 IYIY\n"
HAM_6Q = "0.5 ZIIIII\n0.25 IIIIIZ\n"
SPEC_8Q = "0.8 11000000\n0.6 10010000\n"
HAM_8Q = "-0.5 ZIIIIIII\n0.25 IIIZIIII\n0.2 ZIIZIIII\n0.3 XIIXIIII\n0.3 YIIYIIII\n"
# The 8-qubit pair padded to 12 qubits: the operator conserves particle
# number, so QCELS solves its 66-row two-particle block and needs no scipy.
SPEC_12Q = "".join(f"{line}0000\n" for line in SPEC_8Q.splitlines())
HAM_12Q = "".join(f"{line}IIII\n" for line in HAM_8Q.splitlines())


def circuit_doc(gates, n_qubits=4) -> str:
    return json.dumps({"schema": "mcprep/circuit/1", "n_qubits": n_qubits, "gates": gates})


X_ON_0 = {"kind": "X", "targets": [0]}
# One input of each class of the CLI error contract, as file contents.
REJECTED_FILES = {
    "malformed.txt": "0.6x 1100\n0.8 0110\n",
    "inf.txt": "inf 1100\n0.6 0110\n",
    "nan_spec.txt": "nan 1100\n1.0 0110\n",
    "nan_op.txt": "0.5 ZIII\nnan IZII\n",
    "shape.json": circuit_doc([X_ON_0, {"kind": "X"}]),
    "nan_angle.json": circuit_doc([X_ON_0, {"kind": "Ry", "targets": [1], "angle": math.nan}]),
    "fractional.json": circuit_doc([{"kind": "X", "targets": [0.5]}]),
    "targets_int.json": circuit_doc([{"kind": "X", "targets": 0}]),
    "controls_int.json": circuit_doc([{**X_ON_0, "controls": 5}]),
    "gates_int.json": circuit_doc(7),
    "six.json": circuit_doc([X_ON_0], n_qubits=6),
}


def child_env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_code(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )


def run_fresh(argvs):
    done = run_code(CHILD, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def inputs(tmp_path):
    paths = {}
    for name, text in (("spec4", SPEC_4Q), ("ham4", HAM_4Q), ("ham6", HAM_6Q), ("spec8", SPEC_8Q),
                       ("ham8", HAM_8Q), ("spec12", SPEC_12Q), ("ham12", HAM_12Q)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    for name, text in REJECTED_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    paths["circuit"] = tmp_path / "circuit.json"
    return {name: str(path) for name, path in paths.items()}


def test_importing_any_module_executes_no_numpy():
    modules = sorted(p.stem for p in (SRC / "mcprep").glob("*.py") if p.stem != "__init__")
    code = "import importlib, sys; importlib.import_module(sys.argv[1]); " \
           "print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    for name in ["mcprep", *(f"mcprep.{m}" for m in modules)]:
        done = run_code(code, name)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n", name


def test_rejected_inputs_exit_before_numpy_loads(tmp_path):
    p = inputs(tmp_path)

    def verify(circuit, *extra):
        return ["verify", "--spec", p["spec4"], "--circuit", p[circuit], *extra]

    def qcels(*extra):
        return ["qcels", "--spec", p["spec4"], "--hamiltonian", p["ham4"], *extra]

    rejected = [
        ["synth", "--spec", p["malformed.txt"]],
        ["synth", "--spec", p["inf.txt"]],
        ["synth", "--spec", p["nan_spec.txt"]],
        ["moments", "--spec", p["spec4"], "--hamiltonian", p["nan_op.txt"]],
        *(verify(name) for name in ("shape.json", "nan_angle.json", "fractional.json",
                                    "targets_int.json", "controls_int.json", "gates_int.json")),
        ["moments", "--spec", p["spec4"], "--hamiltonian", p["ham6"]],
        verify("six.json"),
        ["sceom", "--hamiltonian", p["ham4"], "--orbitals", "2", "--electrons", "2",
         "--ansatz", p["six.json"]],
        verify("six.json", "--tolerance", "2"),
        ["spectrum", "--hamiltonian", p["ham4"], "--count", "-1"],
        qcels("--tau", "nan"),
        qcels("--tau", "0.5", "--samples", "0"),
    ]
    result = run_fresh([*rejected, [], ["synth", "--spec", p["spec4"]]])
    # Every rejection ends in the error contract (1) or a usage error (2)
    # with numpy still unexecuted; the first numeric command loads it.
    assert result["steps"] == [[1, False]] * len(rejected) + [[2, False], [0, True]]
    assert result["numpy_shared"] and result["numpy_loaded"]


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
        ["qcels", "--spec", p["spec12"], "--hamiltonian", p["ham12"], "--tau", "0.5"],
        ["vqe", "--spec", p["spec4"], "--hamiltonian", p["ham4"], "--restarts", "1"],
    ])
    assert [code for code, _ in result["steps"]] == [0] * 10
    assert result["scipy"] == []


# Prints the synth report of the spec file named by argv[1], after binding
# numpy first when argv[2] says so, and checks that every module shares it.
LIBRARY_CALLER = """
import sys
if sys.argv[2] == "numpy first":
    import numpy
from mcprep import algorithms, circuits, cli, paulis, simulator
np = sys.modules["numpy"]
assert sys.argv[2] != "numpy first" or np is numpy
assert all(m.np is np for m in (algorithms, circuits, paulis, simulator))
sys.exit(cli.main(["synth", "--spec", sys.argv[1]]))
"""

# Imports mcprep.cli with numpy hidden, by a meta-path finder when argv[1]
# says so and by a None entry in sys.modules otherwise.
HIDDEN_NUMPY = """
import sys
class Hide:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
if sys.argv[1] == "finder":
    sys.meta_path.insert(0, Hide())
else:
    sys.modules["numpy"] = None
try:
    import mcprep.cli
except ModuleNotFoundError as err:
    print(err.name)
"""


def test_library_callers_keep_their_numpy(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_4Q)
    first, lazy = (run_code(LIBRARY_CALLER, str(spec), order) for order in ("numpy first", "lazy"))
    assert first.returncode == lazy.returncode == 0, first.stderr + lazy.stderr
    assert '"verified": true' in first.stdout
    assert first.stdout == lazy.stdout


def test_missing_numpy_fails_at_import():
    for how in ("finder", "none entry"):
        done = run_code(HIDDEN_NUMPY, how)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "numpy\n", how
