"""The summarization service: incremental conceptual clustering of cells.

Cells produced by the mapping service are incorporated one by one into a
hierarchy of summaries, descending the tree top-down and choosing at each
level between four operators — *incorporate into the best child*, *create* a
new child, *merge* the two best children, *split* the best child — the choice
being driven by a partition score.  This mirrors the Cobweb-inspired process
described in Section 3.2.2 of the paper; the partition score is a
category-utility analogue computed over descriptor distributions.

The process is incremental: raw data are parsed once, and incorporating a cell
costs time proportional to the depth of the tree and the arity of its nodes,
which matches the paper's claim of linear overall complexity in the number of
cells (Section 3.2.3).

Cache-invariant contract
------------------------
The O(depth · arity) bound only holds because the scoring loop consumes the
aggregates each :class:`~repro.saintetiq.summary.Summary` materializes instead
of rescanning covered cells.  The division of labour is:

* **Deltas are owned by** ``Summary.apply_cell_delta`` — applied at every
  node a cell enters or is merged under, so by the time
  :meth:`SummaryBuilder._choose_operator` runs, ``node.profile`` already
  reflects the cell absorbed at that level.
* **One cell per key.**  Every node on a key's root-to-leaf path aliases the
  same ``Cell`` object and ``Cell.owner`` is the leaf holding it, so a cell
  for a covered key needs no descent: it is merged into the shared cell once
  and its delta applied along ``owner``'s root path.  Only a *new* key pays
  the scored descent, so leaves stay in one-to-one correspondence with
  populated grid cells and the hierarchy size is bounded by the
  background-knowledge grid (Section 6.1.1 of the paper).
* **Structural operators** (merge, split, arity enforcement) never edit cell
  maps in place; merge builds the replacement node's cell map (aliasing its
  children's cells) and cache as a child-union merge via
  ``Summary.recompute_from_children``, and split leaves every surviving
  node's cell map (hence cache) untouched.
* **Dirty flags are set** only by wholesale cell-map replacement (constructor
  supplied maps, ``Summary.invalidate_cache``) and **cleared** by the next
  aggregate access (lazy one-pass rebuild) or by
  ``recompute_from_children``.  The builder itself never marks nodes dirty —
  every mutation it performs goes through a delta-maintaining path.
* The scoring fast path additionally relies on the internal-node invariant
  (a node's cell map is the union of its children's): the candidate
  partitions of all four operators then share one parent distribution —
  ``node.profile`` — so the parent term of the score is computed once per
  level instead of once per candidate.

No builder calls the naive scoring — :func:`partition_score`,
:func:`_node_profile_fresh`, the four-way :func:`_candidates_reference`; it is
the reference that tests compare each step's candidates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell
from repro.saintetiq.summary import Summary

#: A descriptor-weight profile: descriptor -> weighted tuple count.
Profile = Dict[Descriptor, float]


@dataclass(frozen=True)
class ClusteringParameters:
    """Tunable knobs of the summarization service.

    Attributes
    ----------
    max_children:
        Target arity ``B`` of internal nodes.  When a node exceeds it, the two
        most similar children are merged, which keeps the hierarchy's storage
        cost at the ``k (B^{d+1}-1)/(B-1)`` bound used by the cost model.
    enable_merge / enable_split:
        Allow disabling the structural operators (useful for ablations).
    """

    max_children: int = 4
    enable_merge: bool = True
    enable_split: bool = True

    def __post_init__(self) -> None:
        if self.max_children < 2:
            raise SummaryError("max_children must be at least 2")


def _cell_profile(cell: Cell) -> Profile:
    return {descriptor: cell.tuple_count for descriptor in cell.key}


def _node_profile_fresh(node: Summary) -> Profile:
    """Rebuild the profile from the cell map, bypassing the cache.

    This is the original O(covered cells) computation, kept as the reference
    the cached fast path is validated against.
    """
    profile: Profile = {}
    for cell in node.cells.values():
        for descriptor in cell.key:
            profile[descriptor] = profile.get(descriptor, 0.0) + cell.tuple_count
    return profile


def _profile_total(profile: Profile) -> float:
    """Total tuple mass of a profile (counted once per cell, not per descriptor)."""
    # Each cell contributes its count once per attribute; dividing by the
    # number of attributes would recover the exact mass, but for scoring we
    # only need a quantity proportional to it, so the raw sum is fine as long
    # as it is used consistently.
    return sum(profile.values())


def _combine_profiles(*profiles: Profile) -> Profile:
    combined: Profile = {}
    for profile in profiles:
        for descriptor, weight in profile.items():
            combined[descriptor] = combined.get(descriptor, 0.0) + weight
    return combined


def partition_score(profiles: Sequence[Profile]) -> float:
    """Category-utility-like score of a candidate partition.

    Higher is better.  For children ``C_k`` with descriptor distributions
    ``P(d | C_k)`` and parent distribution ``P(d)``::

        score = (1 / n) * sum_k P(C_k) * sum_d [ P(d|C_k)^2 - P(d)^2 ]

    The score rewards partitions whose children concentrate descriptor mass
    (are internally homogeneous) relative to their parent.
    """
    profiles = [profile for profile in profiles if profile]
    if not profiles:
        return 0.0
    totals = [_profile_total(profile) for profile in profiles]
    grand_total = sum(totals)
    if grand_total <= 0.0:
        return 0.0
    parent = _combine_profiles(*profiles)
    parent_term = sum((weight / grand_total) ** 2 for weight in parent.values())
    score = 0.0
    for profile, total in zip(profiles, totals):
        if total <= 0.0:
            continue
        child_term = sum((weight / total) ** 2 for weight in profile.values())
        score += (total / grand_total) * (child_term - parent_term)
    return score / len(profiles)


def _candidates_reference(
    parameters: ClusteringParameters,
    children: Sequence[Summary],
    profiles: Sequence[Profile],
    cell_profile: Profile,
    ranked: Sequence[int],
) -> List[Tuple[float, str, Optional[int]]]:
    """The original candidate construction: four full partition scores."""
    best_index = ranked[0]
    candidates: List[Tuple[float, str, Optional[int]]] = []

    add_profiles = list(profiles)
    add_profiles[best_index] = _combine_profiles(profiles[best_index], cell_profile)
    candidates.append((partition_score(add_profiles), "add", best_index))

    create_profiles = list(profiles) + [dict(cell_profile)]
    candidates.append((partition_score(create_profiles), "create", None))

    if parameters.enable_merge and len(children) >= 2:
        second_index = ranked[1]
        merge_profiles = [
            profile
            for index, profile in enumerate(profiles)
            if index not in (best_index, second_index)
        ]
        merge_profiles.append(
            _combine_profiles(
                profiles[best_index], profiles[second_index], cell_profile
            )
        )
        candidates.append((partition_score(merge_profiles), "merge", second_index))

    best_child = children[best_index]
    if parameters.enable_split and not best_child.is_leaf:
        split_profiles = [
            profile for index, profile in enumerate(profiles) if index != best_index
        ]
        split_profiles.extend(
            _node_profile_fresh(grandchild) for grandchild in best_child.children
        )
        split_profiles.append(dict(cell_profile))
        candidates.append((partition_score(split_profiles), "split", None))

    return candidates


def _quantize_score(score: float) -> float:
    """Round a partition score to 12 significant digits.

    Candidate scores frequently tie *exactly* in real arithmetic (symmetric
    partitions), where the sub-ulp noise of float summation order would
    otherwise decide the operator.  Quantizing before the argmax makes the
    choice deterministic — ties break by candidate order (add, create, merge,
    split) — and independent of how the score was associated, so the cached
    fast path and the recompute-from-scratch reference pick identical
    operators.
    """
    return float(f"{score:.12e}")


def _term_stats(profile: Profile) -> Tuple[float, float]:
    """(total mass, sum of squared weights) of a profile in one pass."""
    total = 0.0
    squares = 0.0
    for weight in profile.values():
        total += weight
        squares += weight * weight
    return total, squares


class _PartitionScorer:
    """Scores the four candidate partitions of one tree level.

    All four candidates redistribute the *same* extent (the node's cells, the
    incoming cell included), so they share the parent distribution: the parent
    term is computed once from the node's cached profile, and each candidate
    only recomputes the terms of the children it actually modifies.
    """

    def __init__(self, node: Summary, profiles: Sequence[Profile]) -> None:
        parent_profile = node.profile
        self.grand_total = _profile_total(parent_profile)
        if self.grand_total > 0.0:
            inv = 1.0 / self.grand_total
            self.parent_term = sum(
                (weight * inv) ** 2 for weight in parent_profile.values()
            )
        else:
            self.parent_term = 0.0
        self.stats = [_term_stats(profile) for profile in profiles]
        self.nonempty = [bool(profile) for profile in profiles]
        self.base_count = sum(self.nonempty)
        self.base = sum(self.contribution(total, sq) for total, sq in self.stats)

    def contribution(self, total: float, squares: float) -> float:
        """One child's ``P(C_k) * (child_term - parent_term)`` summand."""
        if self.grand_total <= 0.0 or total <= 0.0:
            return 0.0
        child_term = squares / (total * total)
        return (total / self.grand_total) * (child_term - self.parent_term)

    def score(self, summed: float, count: int) -> float:
        if count <= 0 or self.grand_total <= 0.0:
            return 0.0
        return summed / count

    def without(self, *indices: int) -> Tuple[float, int]:
        """Base sum and non-empty count with the given children removed."""
        summed = self.base
        count = self.base_count
        for index in indices:
            summed -= self.contribution(*self.stats[index])
            if self.nonempty[index]:
                count -= 1
        return summed, count


class SummaryBuilder:
    """Incrementally builds and maintains a summary hierarchy from cells."""

    def __init__(self, parameters: Optional[ClusteringParameters] = None) -> None:
        self._parameters = parameters or ClusteringParameters()
        self._root = Summary()
        self._incorporated = 0

    @property
    def root(self) -> Summary:
        return self._root

    @property
    def parameters(self) -> ClusteringParameters:
        return self._parameters

    @property
    def incorporated_cells(self) -> int:
        """Number of cell incorporations performed so far."""
        return self._incorporated

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped by every mutating entry point.

        Every mutation of the tree (absorption, structural operators) happens
        inside :meth:`incorporate`, so derived caches — tree height, intent
        signatures — can key their validity on this counter.
        """
        return self._incorporated

    # -- public API --------------------------------------------------------------

    def incorporate(self, cell: Cell) -> None:
        """Incorporate one populated cell into the hierarchy."""
        if not cell.key:
            raise SummaryError("cannot incorporate an empty cell")
        shared = self._root.cells.get(cell.key)
        if shared is None:
            self._incorporate_at(self._root, cell.copy())
        else:
            # Covered key: no operator choice, no child scans, no copies.
            # Deltas go first so a cell of this very tree merges consistently.
            node = shared.owner
            while node is not None:
                node.apply_cell_delta(cell)
                node = node.parent
            shared.merge(cell)
        self._incorporated += 1

    def incorporate_all(self, cells: Iterable[Cell]) -> int:
        count = 0
        for cell in cells:
            self.incorporate(cell)
            count += 1
        return count

    def adopt_root(self, root: Summary, incorporated: int) -> None:
        """Install an externally rebuilt tree (exact deserialization).

        ``root`` must hold one shared cell per key (see the module notes).
        ``incorporated`` restores the mutation counter so caches keyed on
        :attr:`mutation_count` stay coherent with the original builder.
        Subsequent :meth:`incorporate` calls continue from that count, exactly
        as they would have on the adopted tree's original builder.
        """
        if incorporated < 0:
            raise SummaryError("incorporated count cannot be negative")
        self._root = root
        self._incorporated = incorporated

    # -- incorporation logic -------------------------------------------------------

    def _incorporate_at(self, node: Summary, cell: Cell) -> None:
        """Scored descent of a cell whose key is new to the tree."""
        node.alias_cell(cell)

        if node.is_leaf:
            if len(node.cells) > 1:
                # Leaf invariant — a leaf covers exactly one cell key: expand
                # it into one child per key.  (One key: a fresh root.)
                for covered in node.cells.values():
                    self._create_leaf(node, covered)
            return

        host = self._choose_operator(node, cell)
        if host is None:
            # A brand-new child was created for the cell; nothing to recurse into.
            return
        self._incorporate_at(host, cell)
        self._enforce_arity(node)

    @staticmethod
    def _create_leaf(parent: Summary, cell: Cell) -> None:
        child = Summary()
        child.alias_cell(cell)
        parent.add_child(child)

    def _choose_operator(self, node: Summary, cell: Cell) -> Optional[Summary]:
        """Pick the operator with the best partition score; return the host child.

        Returning ``None`` means a new child was created and the descent stops.
        """
        children = node.children
        cell_profile = _cell_profile(cell)
        profiles = [child.profile for child in children]

        ranked = self._rank_hosts(children, profiles, cell_profile)
        best_index = ranked[0]

        candidates = self._candidates(node, children, profiles, cell_profile, ranked)

        score, operator, argument = max(
            candidates, key=lambda item: _quantize_score(item[0])
        )
        del score  # only the argmax matters

        if operator == "add":
            assert argument is not None
            return children[argument]
        if operator == "create":
            self._create_leaf(node, cell)
            self._enforce_arity(node)
            return None
        if operator == "merge":
            assert argument is not None
            merged = self._merge_children(node, children[best_index], children[argument])
            return merged
        # operator == "split"
        best_child = children[best_index]
        self._split_child(node, best_child)
        # After the split the partition changed: pick the best host among the
        # new children with a plain "add" (no further structural operator, to
        # keep the incorporation cost bounded).
        new_children = node.children
        new_profiles = [child.profile for child in new_children]
        best = self._rank_hosts(new_children, new_profiles, cell_profile)[0]
        return new_children[best]

    def _candidates(
        self,
        node: Summary,
        children: Sequence[Summary],
        profiles: Sequence[Profile],
        cell_profile: Profile,
        ranked: Sequence[int],
    ) -> List[Tuple[float, str, Optional[int]]]:
        """Candidate scores sharing the parent term across the four operators."""
        best_index = ranked[0]
        scorer = _PartitionScorer(node, profiles)
        cell_total, cell_squares = _term_stats(cell_profile)
        candidates: List[Tuple[float, str, Optional[int]]] = []

        # Option 1: incorporate into the best existing child.  Only the
        # squared weights of the cell's own descriptors change.
        add_total = scorer.stats[best_index][0] + cell_total
        add_squares = scorer.stats[best_index][1]
        best_profile = profiles[best_index]
        for descriptor, weight in cell_profile.items():
            previous = best_profile.get(descriptor, 0.0)
            combined = previous + weight
            add_squares += combined * combined - previous * previous
        summed, count = scorer.without(best_index)
        candidates.append(
            (
                scorer.score(summed + scorer.contribution(add_total, add_squares), count + 1),
                "add",
                best_index,
            )
        )

        # Option 2: create a new child for the cell alone.
        candidates.append(
            (
                scorer.score(
                    scorer.base + scorer.contribution(cell_total, cell_squares),
                    scorer.base_count + 1,
                ),
                "create",
                None,
            )
        )

        # Option 3: merge the two best children and incorporate there.
        if self._parameters.enable_merge and len(children) >= 2:
            second_index = ranked[1]
            merged_profile = _combine_profiles(
                profiles[best_index], profiles[second_index], cell_profile
            )
            merged_total, merged_squares = _term_stats(merged_profile)
            summed, count = scorer.without(best_index, second_index)
            candidates.append(
                (
                    scorer.score(
                        summed + scorer.contribution(merged_total, merged_squares),
                        count + 1,
                    ),
                    "merge",
                    second_index,
                )
            )

        # Option 4: split the best child (promote its children) and re-add.
        best_child = children[best_index]
        if self._parameters.enable_split and not best_child.is_leaf:
            summed, count = scorer.without(best_index)
            for grandchild in best_child.children:
                grandchild_profile = grandchild.profile
                summed += scorer.contribution(*_term_stats(grandchild_profile))
                if grandchild_profile:
                    count += 1
            summed += scorer.contribution(cell_total, cell_squares)
            candidates.append((scorer.score(summed, count + 1), "split", None))

        return candidates

    def _rank_hosts(
        self,
        children: Sequence[Summary],
        profiles: Sequence[Profile],
        cell_profile: Profile,
    ) -> List[int]:
        """Children indices ranked by affinity with the incoming cell.

        Affinities are quantized like partition scores: real-arithmetic ties
        must rank by child order, not by sub-ulp float noise, or the cached
        and reference scorers could pick different hosts.
        """
        cell_descriptors = set(cell_profile)

        def affinity(index: int) -> Tuple[float, float]:
            profile = profiles[index]
            total = _profile_total(profile)
            if total <= 0.0:
                return (0.0, 0.0)
            overlap = sum(
                profile.get(descriptor, 0.0) for descriptor in cell_descriptors
            )
            return (_quantize_score(overlap / total), _quantize_score(overlap))

        return sorted(range(len(children)), key=affinity, reverse=True)

    # -- structural operators -----------------------------------------------------

    def _merge_children(
        self, parent: Summary, first: Summary, second: Summary
    ) -> Summary:
        """Replace two children by a single node having both as children."""
        merged = Summary()
        # Collapse trivial structure: if both were leaves the merged node keeps
        # them as children so the leaf invariant is preserved at the next level.
        parent.remove_child(first)
        parent.remove_child(second)
        merged.add_child(first)
        merged.add_child(second)
        # Cell map (aliasing the children's cells) and cached aggregates in
        # one child-union pass.
        merged.recompute_from_children()
        parent.add_child(merged)
        return merged

    def _split_child(self, parent: Summary, child: Summary) -> None:
        """Remove ``child`` and promote its children one level up."""
        grandchildren = list(child.children)
        parent.remove_child(child)
        for grandchild in grandchildren:
            child.remove_child(grandchild)
            parent.add_child(grandchild)

    def _enforce_arity(self, node: Summary) -> None:
        """Keep the number of children at or below ``max_children``."""
        while len(node.children) > self._parameters.max_children:
            profiles = [child.profile for child in node.children]
            index_a, index_b = _most_similar_pair(profiles)
            self._merge_children(node, node.children[index_a], node.children[index_b])


def _most_similar_pair(profiles: Sequence[Profile]) -> Tuple[int, int]:
    """Indices of the two profiles with the highest cosine-like similarity.

    Similarities are quantized like partition scores: exact ties (e.g. two
    pairs of proportional profiles, both at similarity 1.0) must break by pair
    order, not by sub-ulp float noise.
    """
    best_pair = (0, 1)
    best_similarity = -1.0
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            similarity = _quantize_score(_profile_similarity(profiles[i], profiles[j]))
            if similarity > best_similarity:
                best_similarity = similarity
                best_pair = (i, j)
    return best_pair


def _profile_similarity(first: Profile, second: Profile) -> float:
    """Cosine similarity between two descriptor-weight profiles."""
    shared = set(first) & set(second)
    if not shared:
        return 0.0
    dot = sum(first[d] * second[d] for d in shared)
    norm_first = sum(weight * weight for weight in first.values()) ** 0.5
    norm_second = sum(weight * weight for weight in second.values()) ** 0.5
    if norm_first == 0.0 or norm_second == 0.0:
        return 0.0
    return dot / (norm_first * norm_second)
