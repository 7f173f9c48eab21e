"""Resolution derivations for structural sweeping steps.

This module is the paper's core technical contribution: every *structural*
step of the sweeping engine — merging a node whose (class-reduced) fanins
hash-collide with an existing node, or collapsing a node whose reduced
fanins are constant/equal/complementary — corresponds to a short, fixed
resolution derivation over the Tseitin clauses and the already-derived
equivalence lemmas. The functions here build those chains and register the
resulting equivalence clauses in the proof store.

Derivations are assembled with a *skip-tolerant* chain builder
(:func:`derive_subset`): proposed resolution steps whose pivot is absent
from the running resolvent are skipped. This makes one generic chain
template cover all the degenerate identities (shared fanins, trivial
lemmas, lemmas strengthened to units by the SAT solver) without
case-splitting, while the final subset check keeps the construction honest.
"""

from ..proof.store import ProofError, resolve


class StitchError(ProofError):
    """A structural derivation could not be completed.

    Engines catch this and fall back to proving the same equivalence with
    an assumption-based SAT call, so a failed stitch costs time, never
    soundness.
    """


def derive_subset(store, target, start_id, steps):
    """Run a resolution chain, skipping inapplicable steps.

    Args:
        store: proof store providing clauses and receiving the result.
        target: iterable of literals; the final resolvent must be a subset.
        start_id: id of the first antecedent.
        steps: iterable of ``(pivot_var, clause_id)`` proposals. A step is
            skipped when the pivot does not occur in the current resolvent
            with a phase opposite to its occurrence in the antecedent. A
            pivot of ``None`` requests auto-detection: the unique variable
            occurring with opposite phases in the resolvent and the
            antecedent (skip when there is none, error when ambiguous).

    Returns:
        The id of the derived clause (or *start_id* when every step was
        skipped and the start clause already meets the target).

    Raises:
        StitchError: when the final resolvent is not a subset of *target*,
            an auto-pivot is ambiguous, or a resolution step degenerates.
    """
    current = store.clause(start_id)
    chain = [start_id]
    current_set = set(current)
    for pivot, clause_id in steps:
        if clause_id is None:
            continue
        other = store.clause(clause_id)
        if pivot is None:
            candidates = {abs(lit) for lit in other if -lit in current_set}
            if not candidates:
                continue
            if len(candidates) > 1:
                raise StitchError(
                    "ambiguous auto-pivot between %r and %r"
                    % (current, other)
                )
            pivot = candidates.pop()
        elif not (
            (pivot in current_set and -pivot in other)
            or (-pivot in current_set and pivot in other)
        ):
            continue
        try:
            current = resolve(current, other, pivot)
        except ProofError as exc:
            raise StitchError("degenerate stitch step: %s" % exc)
        current_set = set(current)
        chain.append((pivot, clause_id))
    target_set = set(target)
    if not current_set <= target_set:
        raise StitchError(
            "derived %r is not within target %r" % (current, tuple(target))
        )
    if len(chain) == 1:
        return start_id
    return store.add_derived(current, chain)


class EquivLemma:
    """The proof-store clauses recording ``var ≡ root``.

    Attributes:
        fwd_id: id of a clause containing ``-var`` (nominally
            ``(-var | root_lit)``), or None when that direction is vacuous
            (constant-1 merges).
        bwd_id: id of a clause containing ``var`` (nominally
            ``(var | -root_lit)``), or None for constant-0 merges.
    """

    __slots__ = ("fwd_id", "bwd_id")

    def __init__(self, fwd_id, bwd_id):
        self.fwd_id = fwd_id
        self.bwd_id = bwd_id


def map_steps(lemma, cnf_lit):
    """Step proposals rewriting an occurrence of *cnf_lit* to its root.

    A positive occurrence is eliminated with the forward lemma clause
    (which contains the negative literal); a negative occurrence with the
    backward clause. Returns a list of ``(pivot, clause_id)`` (possibly
    empty for root variables, where *lemma* is None).

    Raises:
        StitchError: when the needed direction is vacuous.
    """
    if lemma is None:
        return []
    needed = lemma.fwd_id if cnf_lit > 0 else lemma.bwd_id
    if needed is None:
        raise StitchError(
            "no usable lemma direction for literal %d" % cnf_lit
        )
    # Auto-pivot: the same lemma step serves leaf-to-root rewriting (pivot
    # is the leaf variable) and root-to-leaf rewriting (pivot is the root
    # variable) depending on which literal the running resolvent holds.
    return [(None, needed)]


class StructuralStitcher:
    """Builds equivalence-clause derivations for structural merges.

    Args:
        store: the proof store shared with the SAT solver.
        defining: mapping AIG AND var -> (c_a, c_b, c_o) clause ids of
            ``(~n|l1)``, ``(~n|l2)``, ``(n|~l1|~l2)`` (from the Tseitin
            encoder).
        lemma_of: callable AIG var -> :class:`EquivLemma` or None,
            querying the engine's merge registry.
    """

    def __init__(self, store, defining, lemma_of):
        self.store = store
        self.defining = defining
        self.lemma_of = lemma_of

    def _lemma_steps(self, cnf_lit, aig_var):
        return map_steps(self.lemma_of(aig_var), cnf_lit)

    def derive_const0(self, node, x, l1, l2, v1, v2, which):
        """Derive ``(-x)``: node ≡ 0 because a reduced fanin is 0 or the
        reduced fanins are complementary.

        Args:
            node: AIG var of the node.
            x: its CNF variable (positive literal).
            l1, l2: CNF literals of the two fanins.
            v1, v2: AIG vars of the two fanins.
            which: "fanin0" / "fanin1" when that single fanin reduces to
                constant 0; "complement" when the reduced fanins clash.

        Returns:
            Proof id of the derived clause (a subset of ``(-x,)``).
        """
        c_a, c_b, c_o = self.defining[node]
        if which == "fanin0":
            return derive_subset(
                self.store, (-x,), c_a, self._lemma_steps(l1, v1)
            )
        if which == "fanin1":
            return derive_subset(
                self.store, (-x,), c_b, self._lemma_steps(l2, v2)
            )
        # Complementary reduced fanins: derive (-x | r) and (-x | ~r),
        # then resolve them on r.
        root_lit = self._root_cnf_lit(l1, v1)
        fwd1 = derive_subset(
            self.store, (-x, root_lit), c_a, self._lemma_steps(l1, v1)
        )
        fwd2 = derive_subset(
            self.store, (-x, -root_lit), c_b, self._lemma_steps(l2, v2)
        )
        return derive_subset(
            self.store, (-x,), fwd1, [(abs(root_lit), fwd2)]
        )

    def _root_cnf_lit(self, cnf_lit, aig_var):
        """CNF literal *cnf_lit* maps to after lemma rewriting."""
        lemma = self.lemma_of(aig_var)
        if lemma is None:
            return cnf_lit
        target = lemma.fwd_id if cnf_lit > 0 else lemma.bwd_id
        if target is None:
            raise StitchError("vacuous lemma direction for %d" % cnf_lit)
        clause = self.store.clause(target)
        others = [lit for lit in clause if abs(lit) != abs(cnf_lit)]
        if len(others) != 1:
            raise StitchError(
                "lemma clause %r is not binary; cannot infer root" % (clause,)
            )
        return others[0]

    def derive_copy(self, node, x, l1, l2, v1, v2, root_lit, through):
        """Derive the pair for node ≡ root of one of its fanins.

        Used when the reduced fanins are equal (node = AND(r, r) = r) or
        one reduced fanin is constant 1 (node = AND(1, r) = r).

        Args:
            root_lit: the CNF literal of the shared/remaining root.
            through: "fanin0", "fanin1" or "both" — which defining clauses
                participate in the forward direction.

        Returns:
            ``(fwd_id, bwd_id)`` deriving ``(-x | root_lit)`` and
            ``(x | -root_lit)``.
        """
        c_a, c_b, c_o = self.defining[node]
        if through == "fanin0":
            fwd = derive_subset(
                self.store, (-x, root_lit), c_a, self._lemma_steps(l1, v1)
            )
        else:
            fwd = derive_subset(
                self.store, (-x, root_lit), c_b, self._lemma_steps(l2, v2)
            )
        # Backward: (x | ~l1 | ~l2), rewrite ~l1 and ~l2 occurrences.
        steps = self._lemma_steps(-l1, v1) + self._lemma_steps(-l2, v2)
        bwd = derive_subset(self.store, (x, -root_lit), c_o, steps)
        return fwd, bwd

    def derive_hash_merge(self, node, other, x, y, node_fanins, other_fanins):
        """Derive the pair for a reduced-structural-hash merge.

        Both *node* and *other* are AND nodes whose fanins reduce to the
        same ordered pair of root literals.

        Args:
            node, other: AIG vars.
            x, y: their CNF variables (positive literals).
            node_fanins: ((l1, v1), (l2, v2)) CNF literal / AIG var pairs.
            other_fanins: ((k1, w1), (k2, w2)) likewise.

        Returns:
            ``(fwd_id, bwd_id)`` deriving ``(-x | y)`` and ``(x | -y)``.
        """
        (l1, v1), (l2, v2) = node_fanins
        (k1, w1), (k2, w2) = other_fanins
        n_a, n_b, n_o = self.defining[node]
        m_a, m_b, m_o = self.defining[other]
        # Forward (-x | y): start from (y | ~k1 | ~k2); map ~k1,~k2 to
        # root literals; map root literals back to ~l1,~l2; cut with
        # (~x | l1), (~x | l2).
        steps = (
            self._lemma_steps(-k1, w1)
            + self._lemma_steps(-k2, w2)
            + self._lemma_steps(l1, v1)
            + self._lemma_steps(l2, v2)
            + [(abs(l1), n_a), (abs(l2), n_b)]
        )
        fwd = derive_subset(self.store, (-x, y), m_o, steps)
        # Backward (x | -y): symmetric.
        steps = (
            self._lemma_steps(-l1, v1)
            + self._lemma_steps(-l2, v2)
            + self._lemma_steps(k1, w1)
            + self._lemma_steps(k2, w2)
            + [(abs(k1), m_a), (abs(k2), m_b)]
        )
        bwd = derive_subset(self.store, (x, -y), n_o, steps)
        return fwd, bwd
