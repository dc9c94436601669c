"""Command-line front end.

Every subcommand returns its report body; `main` prints it as a single JSON
report to stdout. The exit code is nonzero when parsing or synthesis fails
(an `error:` line on stderr) or when the report says `"verified": false`.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

from . import algorithms, fileio
from .circuits import Circuit, compile_circuit, count_resources, gateset_by_name
from .configs import StateSpec, cisd_excitations, hartree_fock_config
from .paulis import PauliSum
from .simulator import (
    MAX_DENSE_EIGEN_QUBITS, exact_spectrum, fidelity_up_to_phase, moments, run_circuit, spec_state,
)

REPORT_SCHEMA = "mcprep/1"
SYNTH_FIDELITY = 1e-9

# The package's own input errors (ParseError, SpecValidationError,
# AngleUnderflowError, PlanError, MergeError, TauTooLarge) are ValueErrors.
_USER_ERRORS = (ArithmeticError, ValueError, OSError)


def _read(path: str) -> str:
    return pathlib.Path(path).read_text()


def _emit(command: str, body: dict) -> None:
    """Print the report; a non-finite number raises ValueError before any output."""
    report = {"schema": REPORT_SCHEMA, "command": command}
    report.update(body)
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _counts_dict(c: Circuit) -> dict:
    r = count_resources(c)
    return {
        "n_gates": r.n_gates,
        "two_qubit": r.two_qubit_total,
        "depth": r.depth,
        "by_kind": dict(sorted(r.counts.items())),
    }


def _check_register(what: str, n_qubits: int, holder: str, expected: int) -> None:
    if n_qubits != expected:
        raise fileio.ParseError(
            f"{what} acts on {n_qubits} qubits but the {holder} has {expected}"
        )


def _parse_matching_circuit(path: str, n_qubits: int, holder: str) -> Circuit:
    circuit = fileio.circuit_from_json(_read(path))
    _check_register("circuit", circuit.n_qubits, holder, n_qubits)
    return circuit


def _load_state_and_operator(args) -> tuple[StateSpec, PauliSum, dict]:
    """The --spec and --hamiltonian files, which must share a register, and
    the report head that names them and --method."""
    spec = fileio.parse_state_spec(_read(args.spec))
    h = fileio.parse_hamiltonian(_read(args.hamiltonian))
    _check_register("operator", h.n_qubits, "state", spec.n_q)
    return spec, h, {"spec": args.spec, "hamiltonian": args.hamiltonian, "method": args.method}


def _synth_one(spec_path: str, method: str, gateset_name: str, out: str | None) -> dict:
    """Report of one spec file's circuit; the circuit is written to `out` only
    if it passed self-verification."""
    spec = fileio.parse_state_spec(_read(spec_path))
    raw = algorithms.synthesize(spec, method)
    emitted = raw if gateset_name == "none" else compile_circuit(raw, gateset_by_name(gateset_name))
    # Verify the angles the file holds, so that verify reports this fidelity.
    fidelity = fidelity_up_to_phase(run_circuit(fileio.as_written(emitted)), spec_state(spec))
    ok = fidelity >= 1 - SYNTH_FIDELITY
    body = {
        "method": method,
        "gateset": gateset_name,
        "n_qubits": spec.n_q,
        "n_configs": spec.size,
        "fidelity": fidelity,
        "verified": ok,
        "resources": _counts_dict(emitted),
        "spec": spec_path,
    }
    if out and ok:
        pathlib.Path(out).write_text(fileio.circuit_to_json(emitted))
        body["circuit_file"] = out
    return body


def _cmd_synth(args) -> dict:
    if not args.spec_dir:
        return _synth_one(args.spec, args.method, args.gateset, args.out)
    paths = sorted(p for p in pathlib.Path(args.spec_dir).iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"no spec files in {args.spec_dir}")
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        by_stem: dict[str, pathlib.Path] = {}
        for path in paths:
            if (other := by_stem.setdefault(path.stem, path)) != path:
                raise ValueError(f"spec files {other} and {path} would both write "
                                 f"{path.stem}.circuit.json")
        out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for path in paths:
        out = str(out_dir / (path.stem + ".circuit.json")) if out_dir else None
        results.append(_synth_one(str(path), args.method, args.gateset, out))
    return {"verified": all(body["verified"] for body in results), "results": results}


def _cmd_verify(args) -> dict:
    if not 0 <= args.tolerance < 1:
        raise ValueError(f"--tolerance must be finite, at least 0 and below 1, got {args.tolerance}")
    spec = fileio.parse_state_spec(_read(args.spec))
    circuit = _parse_matching_circuit(args.circuit, spec.n_q, "state")
    fidelity = fidelity_up_to_phase(run_circuit(circuit), spec_state(spec))
    return {
        "spec": args.spec,
        "circuit": args.circuit,
        "fidelity": fidelity,
        "tolerance": args.tolerance,
        "verified": fidelity >= 1 - args.tolerance,
    }


def _cmd_resources(args) -> dict:
    spec = fileio.parse_state_spec(_read(args.spec))
    methods = ("gr", "ssp") if args.method == "both" else (args.method,)
    gateset = gateset_by_name(args.gateset)
    per_method = {}
    for method in methods:
        compiled = compile_circuit(algorithms.synthesize(spec, method), gateset)
        per_method[method] = _counts_dict(compiled)
    return {
        "spec": args.spec,
        "gateset": args.gateset,
        "n_qubits": spec.n_q,
        "n_configs": spec.size,
        "methods": per_method,
    }


def _add_exact_ground(body: dict, h: PauliSum, energy: float) -> None:
    """Add the exact ground energy and the error of `energy` against it,
    where the register is small enough for the dense eigensolve."""
    if h.n_qubits <= MAX_DENSE_EIGEN_QUBITS:
        exact = float(exact_spectrum(h)[0])
        body["exact_ground"] = exact
        body["error_vs_exact"] = energy - exact


def _cmd_vqe(args) -> dict:
    spec, h, body = _load_state_and_operator(args)
    result = algorithms.vqe_minimize(
        h, spec, args.method, restarts=args.restarts, seed=args.seed, maxiter=args.maxiter
    )
    body.update(dataclasses.asdict(result))
    _add_exact_ground(body, h, result.energy)
    return body


def _cmd_moments(args) -> dict:
    spec, h, body = _load_state_and_operator(args)
    state = run_circuit(algorithms.synthesize(spec, args.method))
    mu = moments(state, h, 4)
    c = algorithms.cumulants(mu)
    body.update(moments=mu, cumulants=dataclasses.asdict(c))
    for name, estimate in (("qcm4", algorithms.qcm4), ("cmx2", algorithms.cmx2)):
        try:
            body[name] = estimate(c)
        except ArithmeticError as err:
            body[name] = None
            body[f"{name}_skipped"] = str(err)
    return body


def _cmd_qcels(args) -> dict:
    spec, h, body = _load_state_and_operator(args)
    algorithms._validate_series_args(args.tau, args.samples)
    state = run_circuit(algorithms.synthesize(spec, args.method))
    series = algorithms.qcels_series(state, h, args.tau, args.samples)
    estimate = algorithms.qcels_estimate(series)
    body.update(tau=args.tau, samples=args.samples, estimate=estimate)
    _add_exact_ground(body, h, estimate)
    return body


def _cmd_sceom(args) -> dict:
    h = fileio.parse_hamiltonian(_read(args.hamiltonian))
    hf = hartree_fock_config(args.orbitals, args.electrons)
    if hf.n_qubits != h.n_qubits:
        raise fileio.ParseError(
            f"{args.orbitals} orbitals give {hf.n_qubits} qubits; operator has {h.n_qubits}"
        )
    excitations = cisd_excitations(hf)
    if args.ansatz:
        ansatz = _parse_matching_circuit(args.ansatz, h.n_qubits, "operator")
    else:
        ansatz = Circuit(h.n_qubits, ())
    m = algorithms.sceom_m_matrix(h, hf, excitations, ansatz, prep_method=args.prep)
    energies = algorithms.sceom_energies(m.values)
    body = {
        "hamiltonian": args.hamiltonian,
        "reference": str(hf),
        "prep_method": args.prep,
        "n_excitations": len(excitations),
        "ground_energy": m.ground_energy,
        "excitation_energies": [float(e) for e in energies],
        "m_matrix": [[float(v) for v in row] for row in m.values],
    }
    if args.element_resources:
        body["elements"] = [
            dataclasses.asdict(e)
            for e in algorithms.sceom_element_resources(hf, excitations, args.gateset)
        ]
    return body


def _cmd_spectrum(args) -> dict:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    h = fileio.parse_hamiltonian(_read(args.hamiltonian))
    values = exact_spectrum(h)
    count = min(args.count, values.size)
    return {
        "hamiltonian": args.hamiltonian,
        "n_qubits": h.n_qubits,
        "lowest": [float(v) for v in values[:count]],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcprep",
        description="Synthesize, verify, and use number-conserving state preparation circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_method(p, default="gr"):
        p.add_argument("--method", choices=("gr", "ssp"), default=default)

    p = sub.add_parser("synth", help="synthesize a circuit and verify it against the spec")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="state spec file")
    group.add_argument("--spec-dir", help="directory of state spec files")
    add_method(p)
    p.add_argument("--gateset", choices=("zz", "cx", "none"), default="zz")
    p.add_argument("--out", help="circuit JSON output path (directory with --spec-dir)")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("verify", help="check a circuit file against a state spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--tolerance", type=float, default=SYNTH_FIDELITY)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("resources", help="gate counts after compilation")
    p.add_argument("--spec", required=True)
    p.add_argument("--method", choices=("gr", "ssp", "both"), default="both")
    p.add_argument("--gateset", choices=("zz", "cx"), default="zz")
    p.set_defaults(run=_cmd_resources)

    p = sub.add_parser("vqe", help="variational ground-state search over the circuit's angles")
    p.add_argument("--spec", required=True)
    p.add_argument("--hamiltonian", required=True)
    add_method(p)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--maxiter", type=int, default=500)
    p.set_defaults(run=_cmd_vqe)

    p = sub.add_parser("moments", help="moment and cumulant energy estimates for a spec state")
    p.add_argument("--spec", required=True)
    p.add_argument("--hamiltonian", required=True)
    add_method(p)
    p.set_defaults(run=_cmd_moments)

    p = sub.add_parser("qcels", help="time-series phase estimation from a spec state")
    p.add_argument("--spec", required=True)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--samples", type=int, default=32)
    add_method(p)
    p.set_defaults(run=_cmd_qcels)

    p = sub.add_parser("sceom", help="excited-state energies from single/double excitations")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--orbitals", type=int, required=True)
    p.add_argument("--electrons", type=int, required=True)
    p.add_argument("--ansatz", help="circuit JSON applied after each probe prep")
    p.add_argument("--prep", choices=("gr", "ssp"), default="gr")
    p.add_argument("--element-resources", action="store_true")
    p.add_argument("--gateset", choices=("zz", "cx"), default="zz")
    p.set_defaults(run=_cmd_sceom)

    p = sub.add_parser("spectrum", help="lowest exact eigenvalues of an operator file")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--count", type=int, default=6)
    p.set_defaults(run=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body = args.run(args)
        _emit(args.command, body)
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    return 1 if body.get("verified") is False else 0


if __name__ == "__main__":
    sys.exit(main())
