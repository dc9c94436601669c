"""Occupation-number configurations and state specifications.

Conventions used throughout the package:

- A configuration is a fixed-width bit string with one bit per spin orbital
  (= one qubit), value 1 meaning occupied. Qubit 0 is the leftmost character
  of the textual form.
- Spin orbitals interleave spins: qubit 2k hosts the spin-up member of
  spatial orbital k and qubit 2k + 1 its spin-down partner. This is an
  artifact convention; any fixed interleaving works as long as it is used
  consistently.
- Fermionic parity counts occupied modes with index strictly lower than the
  acted mode, and excitations apply their annihilations first, then their
  creations, each in ascending index order.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

NORM_TOLERANCE = 1e-3
"""Largest accepted deviation of sum(c**2) from 1 before exact renormalization."""

PRUNE_THRESHOLD = 1e-14
"""Coefficients smaller than this in magnitude are dropped during validation."""


class SpecValidationError(ValueError):
    """Raised when a state specification violates a structural invariant."""


@dataclasses.dataclass(frozen=True, order=True)
class OnConfig:
    """Occupation-number configuration over a fixed qubit register."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("configuration must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits}")

    @classmethod
    def from_string(cls, text: str) -> OnConfig:
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __getitem__(self, qubit: int) -> int:
        return self.bits[qubit]

    @property
    def n_qubits(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        """Number of occupied modes (Hamming weight)."""
        return sum(self.bits)

    @property
    def occupied(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @property
    def index(self) -> int:
        """Basis-state index with qubit 0 as the most significant bit."""
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def flipped(self, qubits: tuple[int, ...] | list[int]) -> OnConfig:
        bits = list(self.bits)
        for q in qubits:
            bits[q] ^= 1
        return OnConfig(tuple(bits))


def hamming(x: OnConfig, y: OnConfig) -> int:
    """Number of positions where two equal-length configurations differ."""
    if x.n_qubits != y.n_qubits:
        raise ValueError(f"length mismatch: {x.n_qubits} vs {y.n_qubits}")
    return sum(a ^ b for a, b in zip(x.bits, y.bits))


def xor_support(x: OnConfig, y: OnConfig) -> list[int]:
    """Ascending qubit indices where two configurations differ."""
    if x.n_qubits != y.n_qubits:
        raise ValueError(f"length mismatch: {x.n_qubits} vs {y.n_qubits}")
    return [i for i, (a, b) in enumerate(zip(x.bits, y.bits)) if a != b]


def restricted_hamming(x: OnConfig, y: OnConfig, qubits: tuple[int, ...] | list[int]) -> int:
    """Hamming distance restricted to the given qubit indices."""
    return sum(x[q] ^ y[q] for q in qubits)


@dataclasses.dataclass(frozen=True)
class ExcitationOp:
    """Particle-conserving excitation: annihilate the listed occupied modes,
    create the listed virtual ones. Index lists are strictly increasing,
    disjoint, and of equal length 1 (single) or 2 (double)."""

    annihilate: tuple[int, ...]
    create: tuple[int, ...]

    def __post_init__(self) -> None:
        ann, cre = self.annihilate, self.create
        if len(ann) != len(cre) or len(ann) not in (1, 2):
            raise ValueError(f"need equal index lists of length 1 or 2, got {ann} -> {cre}")
        for indices in (ann, cre):
            if any(i < 0 for i in indices):
                raise ValueError(f"negative mode index in {indices}")
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"indices must be strictly increasing: {indices}")
        if set(ann) & set(cre):
            raise ValueError(f"annihilate and create overlap: {ann} vs {cre}")


def _jw_parity(bits: list[int], mode: int) -> int:
    """Parity sign from occupied modes with index lower than the acted mode."""
    return -1 if sum(bits[:mode]) % 2 else 1


def apply_excitation(op: ExcitationOp, x: OnConfig) -> tuple[OnConfig, int] | None:
    """Apply an excitation to a configuration with fermionic sign tracking.

    Returns None when the excitation annihilates an empty mode or creates an
    occupied one. Otherwise returns the resulting configuration and the
    accumulated parity sign.
    """
    for i in itertools.chain(op.annihilate, op.create):
        if i >= x.n_qubits:
            raise ValueError(f"mode {i} outside register of {x.n_qubits} qubits")
    bits = list(x.bits)
    sign = 1
    for mode in op.annihilate:
        if not bits[mode]:
            return None
        sign *= _jw_parity(bits, mode)
        bits[mode] = 0
    for mode in op.create:
        if bits[mode]:
            return None
        sign *= _jw_parity(bits, mode)
        bits[mode] = 1
    return OnConfig(tuple(bits)), sign


def hartree_fock_config(n_orb: int, n_elec: int) -> OnConfig:
    """Closed-shell reference occupying the lowest n_elec / 2 spatial orbitals."""
    if n_orb < 1:
        raise ValueError(f"orbital count must be at least 1, got {n_orb}")
    if n_elec < 0:
        raise ValueError(f"electron count must not be negative, got {n_elec}")
    if n_elec % 2:
        raise ValueError(f"closed-shell reference needs an even electron count, got {n_elec}")
    if n_elec > 2 * n_orb:
        raise ValueError(f"{n_elec} electrons do not fit in {n_orb} orbitals")
    bits = [0] * (2 * n_orb)
    for k in range(n_elec // 2):
        bits[2 * k] = 1
        bits[2 * k + 1] = 1
    return OnConfig(tuple(bits))


def cisd_excitations(hf: OnConfig) -> list[ExcitationOp]:
    """All spin-conserving single and double excitations valid on a reference."""
    occ = [i for i, b in enumerate(hf.bits) if b]
    virt = [i for i, b in enumerate(hf.bits) if not b]
    ops: list[ExcitationOp] = []
    for a in occ:
        for c in virt:
            if a % 2 == c % 2:
                ops.append(ExcitationOp((a,), (c,)))
    for a1, a2 in itertools.combinations(occ, 2):
        for c1, c2 in itertools.combinations(virt, 2):
            if sorted((a1 % 2, a2 % 2)) == sorted((c1 % 2, c2 % 2)):
                ops.append(ExcitationOp((a1, a2), (c1, c2)))
    return ops


def generate_cisd_configs(n_orb: int, n_elec: int) -> list[OnConfig]:
    """Reference plus every configuration reachable by one spin-conserving
    single or double excitation. The reference comes first; the rest are
    sorted by their bit strings for determinism."""
    hf = hartree_fock_config(n_orb, n_elec)
    seen = {hf}
    for op in cisd_excitations(hf):
        result = apply_excitation(op, hf)
        if result is not None:
            seen.add(result[0])
    rest = sorted(seen - {hf}, key=str)
    return [hf, *rest]


@dataclasses.dataclass(frozen=True)
class StateSpec:
    """Normalized target state: real coefficients over distinct equal-weight
    configurations. Build through validate_spec to enforce the invariants."""

    entries: tuple[tuple[float, OnConfig], ...]
    n_q: int

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.entries)

    @property
    def configs(self) -> tuple[OnConfig, ...]:
        return tuple(x for _, x in self.entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> int:
        return self.entries[0][1].weight

    def reordered_largest_first(self) -> StateSpec:
        """Entries sorted by descending |coefficient| (stable)."""
        order = sorted(self.entries, key=lambda e: -abs(e[0]))
        return StateSpec(tuple(order), self.n_q)


def validate_spec(entries) -> StateSpec:
    """Check and canonicalize a list of (coefficient, configuration) pairs.

    A coefficient that is not finite is an error. Near-zero coefficients are
    dropped, the norm is checked against NORM_TOLERANCE and then renormalized
    exactly. Entry order is preserved.
    """
    pairs = []
    for coeff, config in entries:
        if isinstance(coeff, complex):
            if abs(coeff.imag) > 0.0:
                raise SpecValidationError(f"coefficients must be real, got {coeff}")
            coeff = coeff.real
        if isinstance(config, str):
            config = OnConfig.from_string(config)
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise SpecValidationError(f"coefficient {coeff!r} of {config} is not finite")
        pairs.append((coeff, config))
    if not pairs:
        raise SpecValidationError("empty specification")

    lengths = {x.n_qubits for _, x in pairs}
    if len(lengths) > 1:
        raise SpecValidationError(f"mixed register sizes: {sorted(lengths)}")
    width = lengths.pop()

    pairs = [(c, x) for c, x in pairs if abs(c) >= PRUNE_THRESHOLD]
    if not pairs:
        raise SpecValidationError("all coefficients are numerically zero")

    configs = [x for _, x in pairs]
    if len(set(configs)) != len(configs):
        dupes = sorted({str(x) for x in configs if configs.count(x) > 1})
        raise SpecValidationError(f"duplicate configurations: {dupes}")

    weights = {x.weight for x in configs}
    if len(weights) > 1:
        raise SpecValidationError(f"mixed Hamming weights: {sorted(weights)}")

    norm_sq = math.fsum(c * c for c, _ in pairs)
    if abs(norm_sq - 1.0) > NORM_TOLERANCE:
        raise SpecValidationError(
            f"squared norm {norm_sq:.6f} deviates from 1 beyond {NORM_TOLERANCE}"
        )
    scale = 1.0 / math.sqrt(norm_sq)
    return StateSpec(tuple((c * scale, x) for c, x in pairs), width)
