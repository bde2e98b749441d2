"""Two-level logic minimisation (Quine–McCluskey).

Used by the FSM synthesis path to keep the next-state / output logic of the
behavioural benchmarks compact, the same role Vivado's synthesis plays in the
paper's flow.  The implementation is exact prime-implicant generation plus a
greedy cover (classic QM with the usual essential-prime step); it is intended
for the small functions that arise from FSM synthesis (the largest Synthezza
stand-in has 9 variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Implicant:
    """A cube over ``num_vars`` variables.

    ``value`` holds the fixed bit values and ``mask`` marks which positions
    are don't-cares (1 = don't-care).  Bit ``i`` corresponds to variable
    ``i`` (LSB = variable 0).
    """

    value: int
    mask: int
    num_vars: int

    def covers(self, minterm: int) -> bool:
        """True if this cube covers the given minterm."""
        return (minterm & ~self.mask) == (self.value & ~self.mask)

    def literals(self) -> List[Tuple[int, bool]]:
        """The cube's literals as ``(variable_index, positive)`` pairs."""
        result = []
        for bit in range(self.num_vars):
            if not (self.mask >> bit) & 1:
                result.append((bit, bool((self.value >> bit) & 1)))
        return result

    def size(self) -> int:
        """Number of minterms covered (2^#don't-cares)."""
        return 1 << bin(self.mask).count("1")


def _combine(a: Implicant, b: Implicant) -> Optional[Implicant]:
    """Merge two cubes differing in exactly one specified bit, else None."""
    if a.mask != b.mask:
        return None
    diff = (a.value ^ b.value) & ~a.mask
    if diff == 0 or (diff & (diff - 1)) != 0:
        return None
    return Implicant(value=a.value & ~diff, mask=a.mask | diff, num_vars=a.num_vars)


def prime_implicants(minterms: Sequence[int], dont_cares: Sequence[int], num_vars: int) -> List[Implicant]:
    """Generate all prime implicants of the on-set (plus don't-cares)."""
    current: Set[Implicant] = {
        Implicant(value=m, mask=0, num_vars=num_vars)
        for m in set(minterms) | set(dont_cares)
    }
    primes: Set[Implicant] = set()
    while current:
        merged: Set[Implicant] = set()
        used: Set[Implicant] = set()
        ordered = sorted(current, key=lambda imp: (imp.mask, imp.value))
        # Group by popcount of value bits that are specified, classic QM step.
        by_count: Dict[Tuple[int, int], List[Implicant]] = {}
        for imp in ordered:
            ones = bin(imp.value & ~imp.mask).count("1")
            by_count.setdefault((imp.mask, ones), []).append(imp)
        for (mask, ones), group in by_count.items():
            partners = by_count.get((mask, ones + 1), [])
            for a in group:
                for b in partners:
                    combined = _combine(a, b)
                    if combined is not None:
                        merged.add(combined)
                        used.add(a)
                        used.add(b)
        primes.update(imp for imp in current if imp not in used)
        current = merged
    return sorted(primes, key=lambda imp: (imp.mask, imp.value))


def quine_mccluskey(
    minterms: Sequence[int],
    num_vars: int,
    *,
    dont_cares: Sequence[int] = (),
) -> List[Implicant]:
    """Return a small SOP cover of the on-set defined by ``minterms``.

    Don't-care minterms may be used to enlarge cubes but are not required to
    be covered.  The cover selection is the standard essential-prime pass
    followed by a greedy largest-coverage heuristic, which is adequate for
    synthesis purposes (it always returns a *valid* cover).
    """
    on_set = sorted(set(minterms))
    if not on_set:
        return []
    if not 0 <= min(on_set) and max(on_set) < (1 << num_vars):
        raise ValueError("minterm out of range")
    primes = prime_implicants(on_set, dont_cares, num_vars)

    uncovered: Set[int] = set(on_set)
    cover: List[Implicant] = []

    # Essential primes: minterms covered by exactly one prime.
    coverage: Dict[int, List[Implicant]] = {
        m: [p for p in primes if p.covers(m)] for m in on_set
    }
    for minterm, covering in coverage.items():
        if len(covering) == 1 and minterm in uncovered:
            essential = covering[0]
            if essential not in cover:
                cover.append(essential)
                uncovered -= {m for m in uncovered if essential.covers(m)}

    # Greedy selection for the rest.
    while uncovered:
        best = max(primes, key=lambda p: sum(1 for m in uncovered if p.covers(m)))
        gained = {m for m in uncovered if best.covers(m)}
        if not gained:  # pragma: no cover - cannot happen with valid primes
            raise RuntimeError("greedy cover failed to make progress")
        cover.append(best)
        uncovered -= gained
    return cover


def evaluate_cover(cover: Iterable[Implicant], assignment: int) -> int:
    """Evaluate an SOP cover on a packed input assignment (LSB = variable 0)."""
    return int(any(imp.covers(assignment) for imp in cover))
