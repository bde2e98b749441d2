"""DANA: Dataflow Analysis for gate-level Netlist reverse engineering
(Albartus et al., CHES 2020).

DANA groups the flip-flops of a flattened netlist into candidate high-level
registers by iteratively merging register sets with identical dataflow
neighbourhoods; the quality of the recovered grouping is scored against the
ground truth with Normalised Mutual Information (NMI).  On unmodified
designs DANA reaches NMI ≈ 0.87–0.99 (average 0.95); against Cute-Lock-Str
the paper's Table V shows scores spread across 0.00–0.99 with a 0.41 average,
because the inserted MUX trees and the counter rewire the FF-to-FF dataflow.

The reproduction implements the core pipeline:

1. build the register dependency graph (FF → FF combinational reachability);
2. iteratively merge register groups whose predecessor- and successor-group
   signatures coincide (the "evolution" rounds of the paper), preferring
   merges that keep group sizes plausible;
3. score the final grouping against a ground-truth register-to-word map with
   NMI.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit


@dataclass
class DanaReport:
    """Outcome of a DANA run (one row of the paper's Table V)."""

    circuit_name: str
    clusters: List[List[str]] = field(default_factory=list)
    nmi_score: Optional[float] = None
    cpu_time: float = 0.0
    rounds: int = 0
    degenerate: bool = False
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (campaign workers ship reports as JSON)."""
        from repro.jsonutil import jsonable

        return {
            "circuit_name": self.circuit_name,
            "clusters": [list(cluster) for cluster in self.clusters],
            "nmi_score": self.nmi_score,
            "cpu_time": self.cpu_time,
            "rounds": self.rounds,
            "degenerate": self.degenerate,
            "details": jsonable(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DanaReport":
        return cls(
            circuit_name=str(data["circuit_name"]),
            clusters=[list(cluster) for cluster in data.get("clusters", [])],  # type: ignore[union-attr]
            nmi_score=data.get("nmi_score"),  # type: ignore[arg-type]
            cpu_time=float(data.get("cpu_time", 0.0)),  # type: ignore[arg-type]
            rounds=int(data.get("rounds", 0)),  # type: ignore[arg-type]
            degenerate=bool(data.get("degenerate", False)),
            details=dict(data.get("details", {})),  # type: ignore[arg-type]
        )


# --------------------------------------------------------------------------- #
# register dependency graph
# --------------------------------------------------------------------------- #
def register_dependency_graph(circuit: Circuit) -> Dict[str, Set[str]]:
    """Map every flip-flop Q net to the set of FF Q nets feeding its D cone."""
    state = set(circuit.dffs.keys())
    predecessors: Dict[str, Set[str]] = {}
    for q, ff in circuit.dffs.items():
        cone = circuit.fanin_cone(ff.d, stop_at_dffs=True)
        predecessors[q] = {net for net in cone if net in state and net != q}
    return predecessors


# --------------------------------------------------------------------------- #
# normalised mutual information
# --------------------------------------------------------------------------- #
def normalized_mutual_information(
    labels_a: Mapping[str, object], labels_b: Mapping[str, object]
) -> float:
    """NMI between two labelings of the same element set.

    Only elements present in *both* labelings are scored.  Degenerate cases
    (zero entropy on either side) return 1.0 when the partitions coincide on
    the shared elements and 0.0 otherwise, matching common NMI conventions.
    """
    shared = sorted(set(labels_a) & set(labels_b))
    if not shared:
        return 0.0
    total = len(shared)

    def cluster_sizes(labels: Mapping[str, object]) -> Dict[object, int]:
        sizes: Dict[object, int] = {}
        for element in shared:
            sizes[labels[element]] = sizes.get(labels[element], 0) + 1
        return sizes

    sizes_a = cluster_sizes(labels_a)
    sizes_b = cluster_sizes(labels_b)

    joint: Dict[Tuple[object, object], int] = {}
    for element in shared:
        key = (labels_a[element], labels_b[element])
        joint[key] = joint.get(key, 0) + 1

    def entropy(sizes: Dict[object, int]) -> float:
        h = 0.0
        for count in sizes.values():
            p = count / total
            h -= p * math.log(p)
        return h

    h_a, h_b = entropy(sizes_a), entropy(sizes_b)
    if h_a == 0.0 or h_b == 0.0:
        partition_a = {frozenset(e for e in shared if labels_a[e] == label) for label in sizes_a}
        partition_b = {frozenset(e for e in shared if labels_b[e] == label) for label in sizes_b}
        return 1.0 if partition_a == partition_b else 0.0

    mutual = 0.0
    for (label_a, label_b), count in joint.items():
        p_joint = count / total
        p_a = sizes_a[label_a] / total
        p_b = sizes_b[label_b] / total
        mutual += p_joint * math.log(p_joint / (p_a * p_b))
    return max(0.0, min(1.0, mutual / math.sqrt(h_a * h_b)))


# --------------------------------------------------------------------------- #
# clustering
# --------------------------------------------------------------------------- #
def _cluster_signatures(
    clusters: List[Set[str]],
    predecessors: Dict[str, Set[str]],
    successors: Dict[str, Set[str]],
    activity_class: Optional[Dict[str, int]] = None,
) -> List[Tuple]:
    """Per-cluster (predecessor-cluster-set, successor-cluster-set) signature.

    When ``activity_class`` is given (FF Q net -> quantized toggle-rate
    class from a packed random simulation), the class set of the cluster's
    members is appended to the signature, so only clusters with matching
    dynamic behaviour merge.
    """
    cluster_of: Dict[str, int] = {}
    for index, members in enumerate(clusters):
        for q in members:
            cluster_of[q] = index
    signatures = []
    for index, members in enumerate(clusters):
        pred_clusters: Set[int] = set()
        succ_clusters: Set[int] = set()
        for q in members:
            pred_clusters.update(cluster_of[p] for p in predecessors.get(q, ()))
            succ_clusters.update(cluster_of[s] for s in successors.get(q, ()))
        pred_clusters.discard(index)
        succ_clusters.discard(index)
        signature: Tuple = (frozenset(pred_clusters), frozenset(succ_clusters))
        if activity_class is not None:
            signature += (frozenset(activity_class.get(q, -1) for q in members),)
        signatures.append(signature)
    return signatures


def _activity_classes(
    circuit: Circuit, *, cycles: int, buckets: int, seed: int
) -> Dict[str, int]:
    """Quantized per-FF toggle rates from one packed random simulation."""
    import random

    from repro.engine.equivalence import packed_toggle_counts
    from repro.engine.packed import random_bits, stimulus_words

    bits = random_bits(random.Random(seed), cycles * len(circuit.inputs))
    toggles = packed_toggle_counts(circuit, stimulus_words(bits, circuit.inputs), cycles)
    transitions = max(1, cycles - 1)
    return {
        q: min(buckets - 1, (toggles.get(q, 0) * buckets) // (transitions + 1))
        for q in circuit.dffs
    }


def cluster_registers(
    circuit: Circuit,
    *,
    max_rounds: int = 8,
    max_group_size: Optional[int] = 64,
    use_activity_signatures: bool = False,
    activity_cycles: int = 64,
    activity_buckets: int = 8,
    activity_seed: int = 0,
) -> Tuple[List[List[str]], int]:
    """Run the DANA-style register clustering.

    Returns the clusters (lists of FF Q nets) and the number of evolution
    rounds performed.  ``use_activity_signatures`` additionally constrains
    merges with per-FF switching-activity classes measured by the packed
    engine on ``activity_cycles`` random cycles (off by default, preserving
    the purely structural published pipeline).
    """
    activity_class: Optional[Dict[str, int]] = None
    if use_activity_signatures:
        activity_class = _activity_classes(
            circuit,
            cycles=activity_cycles,
            buckets=activity_buckets,
            seed=activity_seed,
        )
    predecessors = register_dependency_graph(circuit)
    successors: Dict[str, Set[str]] = {q: set() for q in predecessors}
    for q, preds in predecessors.items():
        for p in preds:
            successors.setdefault(p, set()).add(q)

    clusters: List[Set[str]] = [{q} for q in circuit.dffs]
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        signatures = _cluster_signatures(clusters, predecessors, successors, activity_class)
        # Keys are 2-tuples, or 3-tuples when activity classes are enabled.
        groups: Dict[Tuple, List[int]] = {}
        for index, signature in enumerate(signatures):
            groups.setdefault(signature, []).append(index)
        merged: List[Set[str]] = []
        changed = False
        for indices in groups.values():
            union: Set[str] = set()
            for index in indices:
                union |= clusters[index]
            if max_group_size is not None and len(union) > max_group_size and len(indices) > 1:
                # Oversized merge: keep the original clusters.
                merged.extend(clusters[index] for index in indices)
                continue
            if len(indices) > 1:
                changed = True
            merged.append(union)
        clusters = merged
        if not changed:
            break
    return [sorted(cluster) for cluster in clusters], rounds


def dana_attack(
    target: Union[LockedCircuit, Circuit],
    ground_truth: Optional[Mapping[str, object]] = None,
    *,
    max_rounds: int = 8,
    degenerate_as_zero: bool = True,
    singleton_failure_ratio: float = 0.6,
    use_activity_signatures: bool = False,
) -> DanaReport:
    """Run DANA register clustering and (optionally) score it against a
    ground-truth register-to-word assignment.

    ``ground_truth`` maps flip-flop Q nets of the *original* design to word
    labels (the benchmark generators in :mod:`repro.benchmarks_data` provide
    this).  Flip-flops added by a locking transform are not part of the
    ground truth and therefore do not contribute to the score directly — but
    their presence perturbs the clustering of the original registers, which
    is the effect the NMI drop measures.

    Following the convention of the DANA evaluation (and the paper's Table V,
    where an NMI of 0 means "the tool fails to identify the correct register
    groupings"), a *degenerate* clustering — one where the recovered groups
    carry no word-level information because most scored registers ended up as
    singletons, or almost everything collapsed into one group — is reported
    as 0.0 when ``degenerate_as_zero`` is set.
    """
    if isinstance(target, LockedCircuit):
        circuit = target.circuit
    else:
        circuit = target
    start = time.monotonic()
    clusters, rounds = cluster_registers(
        circuit,
        max_rounds=max_rounds,
        use_activity_signatures=use_activity_signatures,
    )

    report = DanaReport(circuit_name=circuit.name, clusters=clusters, rounds=rounds)
    if ground_truth is not None:
        predicted = {
            q: index for index, members in enumerate(clusters) for q in members
        }
        scored = [q for q in predicted if q in ground_truth]
        if scored:
            singleton_count = sum(
                1 for members in clusters
                if len([q for q in members if q in ground_truth]) == 1
                and any(q in ground_truth for q in members)
            )
            largest = max(
                (len([q for q in members if q in ground_truth]) for members in clusters),
                default=0,
            )
            report.degenerate = (
                singleton_count / len(scored) >= singleton_failure_ratio
                or largest >= 0.95 * len(scored) > 1
            )
        nmi = normalized_mutual_information(dict(ground_truth), predicted)
        if degenerate_as_zero and report.degenerate:
            report.details["raw_nmi"] = nmi
            nmi = 0.0
        report.nmi_score = nmi
    report.details["num_ffs"] = len(circuit.dffs)
    report.cpu_time = time.monotonic() - start
    return report
