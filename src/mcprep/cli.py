"""Command-line front end.

Every subcommand prints a single JSON report to stdout and returns a
nonzero exit code when parsing, synthesis, or verification fails.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import algorithms, fileio
from .circuits import Circuit, compile_circuit, count_resources, gateset_by_name
from .configs import cisd_excitations, hartree_fock_config
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


def _cmd_synth(args) -> int:
    if args.spec_dir:
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
        all_ok = all(body["verified"] for body in results)
        _emit("synth", {"verified": all_ok, "results": results})
        return 0 if all_ok else 1
    body = _synth_one(args.spec, args.method, args.gateset, args.out)
    _emit("synth", body)
    return 0 if body["verified"] else 1


def _cmd_verify(args) -> int:
    if not 0 <= args.tolerance < 1:
        raise ValueError(f"--tolerance must be finite, at least 0 and below 1, got {args.tolerance}")
    spec = fileio.parse_state_spec(_read(args.spec))
    circuit = _parse_matching_circuit(args.circuit, spec.n_q, "state")
    fidelity = fidelity_up_to_phase(run_circuit(circuit), spec_state(spec))
    ok = fidelity >= 1 - args.tolerance
    _emit(
        "verify",
        {
            "spec": args.spec,
            "circuit": args.circuit,
            "fidelity": fidelity,
            "tolerance": args.tolerance,
            "verified": ok,
        },
    )
    return 0 if ok else 1


def _cmd_resources(args) -> int:
    spec = fileio.parse_state_spec(_read(args.spec))
    methods = ("gr", "ssp") if args.method == "both" else (args.method,)
    gateset = gateset_by_name(args.gateset)
    per_method = {}
    for method in methods:
        compiled = compile_circuit(algorithms.synthesize(spec, method), gateset)
        per_method[method] = _counts_dict(compiled)
    _emit(
        "resources",
        {
            "spec": args.spec,
            "gateset": args.gateset,
            "n_qubits": spec.n_q,
            "n_configs": spec.size,
            "methods": per_method,
        },
    )
    return 0


def _add_exact_ground(body: dict, h: PauliSum, energy: float) -> None:
    """Add the exact ground energy and the error of `energy` against it,
    where the register is small enough for the dense eigensolve."""
    if h.n_qubits <= MAX_DENSE_EIGEN_QUBITS:
        exact = float(exact_spectrum(h)[0])
        body["exact_ground"] = exact
        body["error_vs_exact"] = energy - exact


def _cmd_vqe(args) -> int:
    spec = fileio.parse_state_spec(_read(args.spec))
    h = parse_matching_hamiltonian(args.hamiltonian, spec.n_q)
    result = algorithms.vqe_minimize(
        h, spec, args.method, restarts=args.restarts, seed=args.seed, maxiter=args.maxiter
    )
    body = {
        "spec": args.spec,
        "hamiltonian": args.hamiltonian,
        "method": args.method,
        "energy": result.energy,
        "parameters": result.parameters,
        "restarts_used": result.restarts_used,
        "stop_reason": result.stop_reason,
    }
    _add_exact_ground(body, h, result.energy)
    _emit("vqe", body)
    return 0


def parse_matching_hamiltonian(path: str, n_qubits: int) -> PauliSum:
    h = fileio.parse_hamiltonian(_read(path))
    if h.n_qubits != n_qubits:
        raise fileio.ParseError(
            f"operator acts on {h.n_qubits} qubits but the state has {n_qubits}"
        )
    return h


def _parse_matching_circuit(path: str, n_qubits: int, holder: str) -> Circuit:
    circuit = fileio.circuit_from_json(_read(path))
    if circuit.n_qubits != n_qubits:
        raise fileio.ParseError(
            f"circuit acts on {circuit.n_qubits} qubits but the {holder} has {n_qubits}"
        )
    return circuit


def _cmd_moments(args) -> int:
    spec = fileio.parse_state_spec(_read(args.spec))
    h = parse_matching_hamiltonian(args.hamiltonian, spec.n_q)
    state = run_circuit(algorithms.synthesize(spec, args.method))
    mu = moments(state, h, 4)
    c = algorithms.cumulants(mu)
    body = {
        "spec": args.spec,
        "hamiltonian": args.hamiltonian,
        "method": args.method,
        "moments": mu,
        "cumulants": {"c1": c.c1, "c2": c.c2, "c3": c.c3, "c4": c.c4},
    }
    try:
        body["qcm4"] = algorithms.qcm4(c)
    except ArithmeticError as err:
        body["qcm4"] = None
        body["qcm4_skipped"] = str(err)
    try:
        body["cmx2"] = algorithms.cmx2(c)
    except ArithmeticError as err:
        body["cmx2"] = None
        body["cmx2_skipped"] = str(err)
    _emit("moments", body)
    return 0


def _cmd_qcels(args) -> int:
    spec = fileio.parse_state_spec(_read(args.spec))
    h = parse_matching_hamiltonian(args.hamiltonian, spec.n_q)
    state = run_circuit(algorithms.synthesize(spec, args.method))
    series = algorithms.qcels_series(state, h, args.tau, args.samples)
    estimate = algorithms.qcels_estimate(series)
    body = {
        "spec": args.spec,
        "hamiltonian": args.hamiltonian,
        "method": args.method,
        "tau": args.tau,
        "samples": args.samples,
        "estimate": estimate,
    }
    _add_exact_ground(body, h, estimate)
    _emit("qcels", body)
    return 0


def _cmd_sceom(args) -> int:
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
            {
                "i": e.i,
                "j": e.j,
                "pair_distance": e.pair_distance,
                "gr_two_qubit": e.gr_two_qubit,
                "ssp_two_qubit": e.ssp_two_qubit,
            }
            for e in algorithms.sceom_element_resources(hf, excitations, args.gateset)
        ]
    _emit("sceom", body)
    return 0


def _cmd_spectrum(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    h = fileio.parse_hamiltonian(_read(args.hamiltonian))
    values = exact_spectrum(h)
    count = min(args.count, values.size)
    _emit(
        "spectrum",
        {
            "hamiltonian": args.hamiltonian,
            "n_qubits": h.n_qubits,
            "lowest": [float(v) for v in values[:count]],
        },
    )
    return 0


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
        return args.run(args)
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
