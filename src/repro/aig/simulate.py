"""Bit-parallel random simulation of AIGs.

Simulation assigns every variable a *signature*: a W-bit integer whose bit
k is the node's value under the k-th input pattern. Python's arbitrary-
precision integers make W-wide bitwise simulation a single pass of ``&``
and ``^`` per node, so hundreds of patterns are evaluated at once.

Signatures drive the sweeping engine: nodes with equal (or complementary)
signatures are *candidates* for equivalence; SAT decides. Counterexamples
returned by SAT are appended as new patterns to refine the partition —
batched through :meth:`Simulator.add_patterns` so one resimulation pass
absorbs a whole refinement round instead of one pass per pattern.
"""

import random


class Simulator:
    """Incremental bit-parallel simulator for one AIG.

    The simulator owns a pattern set of ``num_words * 64`` input patterns
    and the resulting per-variable signatures. Patterns can be appended
    one at a time (:meth:`add_pattern`), in batches (:meth:`add_patterns`)
    or replaced wholesale (:meth:`set_patterns`); every mutator triggers
    exactly one resimulation pass regardless of how many patterns it
    adds, and :attr:`num_resimulations` counts those passes so callers
    can measure how much work batching saves.
    """

    WORD_BITS = 64

    def __init__(self, aig, num_words=4, seed=2007):
        self.aig = aig
        self._rng = random.Random(seed)
        self._num_bits = 0
        self._mask_cache = 0
        self.num_resimulations = 0
        # Input patterns indexed by input position (not variable).
        self._patterns = [0] * aig.num_inputs
        self.signatures = [0] * aig.num_vars
        if num_words:
            self.add_random_patterns(num_words * self.WORD_BITS)

    @property
    def num_patterns(self):
        """Number of input patterns currently simulated."""
        return self._num_bits

    @property
    def mask(self):
        """Bit mask covering all current patterns (cached, not rebuilt)."""
        return self._mask_cache

    def add_random_patterns(self, count):
        """Append *count* uniformly random input patterns and re-simulate.

        ``count == 0`` is a no-op: no RNG draw, no resimulation pass,
        ``num_resimulations`` stays put (mirroring the empty-batch
        behavior of :meth:`add_patterns`).
        """
        if count < 0:
            raise ValueError("pattern count must be non-negative")
        if count == 0:
            return
        for idx in range(self.aig.num_inputs):
            self._patterns[idx] |= self._rng.getrandbits(count) << self._num_bits
        self._num_bits += count
        self._resimulate()

    def add_pattern(self, input_bits):
        """Append one explicit pattern (sequence of 0/1 per input)."""
        self.add_patterns([input_bits])

    def add_patterns(self, patterns):
        """Append many explicit patterns with a *single* resimulation pass.

        Args:
            patterns: iterable of patterns, each a sequence of 0/1 values
                with one entry per AIG input. An empty iterable is a
                no-op (no resimulation).
        """
        batch = [list(bits) for bits in patterns]
        num_inputs = self.aig.num_inputs
        for bits in batch:
            if len(bits) != num_inputs:
                raise ValueError(
                    "expected %d input bits, got %d" % (num_inputs, len(bits))
                )
        if not batch:
            return
        base = self._num_bits
        pattern_words = self._patterns
        for offset, bits in enumerate(batch):
            position = base + offset
            for idx, bit in enumerate(bits):
                if bit:
                    pattern_words[idx] |= 1 << position
        self._num_bits = base + len(batch)
        self._resimulate()

    def set_patterns(self, pattern_words, num_bits):
        """Replace the whole pattern set and re-simulate once.

        Args:
            pattern_words: one integer per AIG input (in input order)
                whose bit k is that input's value under the k-th pattern.
            num_bits: number of patterns the words encode; every word
                must fit in *num_bits* bits.
        """
        pattern_words = list(pattern_words)
        if len(pattern_words) != self.aig.num_inputs:
            raise ValueError(
                "expected %d input words, got %d"
                % (self.aig.num_inputs, len(pattern_words))
            )
        mask = (1 << num_bits) - 1
        for word in pattern_words:
            if word < 0 or word & ~mask:
                raise ValueError(
                    "pattern word %#x does not fit in %d bits"
                    % (word, num_bits)
                )
        self._patterns = pattern_words
        self._num_bits = num_bits
        self._resimulate()

    def _resimulate(self):
        aig = self.aig
        sigs = self.signatures = [0] * aig.num_vars
        # The mask is cached here, once per pass; lit_signature() and the
        # mask property reuse it instead of rebuilding (1 << n) - 1 on
        # every call (the dominant cost once patterns grow long).
        full = self._mask_cache = (1 << self._num_bits) - 1
        for pos, var in enumerate(aig.inputs):
            sigs[var] = self._patterns[pos]
        for var in aig.and_vars():
            f0, f1 = aig.fanins(var)
            a = sigs[f0 >> 1] ^ (full if f0 & 1 else 0)
            b = sigs[f1 >> 1] ^ (full if f1 & 1 else 0)
            sigs[var] = a & b
        self.num_resimulations += 1

    def lit_signature(self, lit):
        """Signature of a literal (complemented signatures are masked)."""
        sig = self.signatures[lit >> 1]
        return sig ^ self._mask_cache if lit & 1 else sig

    def output_signatures(self):
        """Signatures of all outputs."""
        return [self.lit_signature(lit) for lit in self.aig.outputs]

    def pattern(self, k):
        """The k-th input pattern as a list of 0/1 ints."""
        if not 0 <= k < self._num_bits:
            raise IndexError("pattern index out of range")
        return [(p >> k) & 1 for p in self._patterns]


def random_equivalence_test(aig_a, aig_b, rounds=256, seed=2007):
    """Cheap refutation test: simulate both AIGs on shared random patterns.

    Returns ``None`` when no difference was observed, otherwise a
    counterexample input assignment (list of 0/1).
    """
    if aig_a.num_inputs != aig_b.num_inputs:
        raise ValueError("input counts differ")
    if aig_a.num_outputs != aig_b.num_outputs:
        raise ValueError("output counts differ")
    rng = random.Random(seed)
    sim_a = Simulator(aig_a, num_words=0, seed=seed)
    sim_b = Simulator(aig_b, num_words=0, seed=seed)
    patterns = [rng.getrandbits(rounds) for _ in range(aig_a.num_inputs)]
    sim_a.set_patterns(patterns, rounds)
    sim_b.set_patterns(patterns, rounds)
    for out_a, out_b in zip(sim_a.output_signatures(), sim_b.output_signatures()):
        diff = out_a ^ out_b
        if diff:
            k = (diff & -diff).bit_length() - 1
            return sim_a.pattern(k)
    return None
