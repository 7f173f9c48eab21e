"""Content-addressed on-disk cache of equivalence-check certificates.

Entries are keyed by :func:`repro.aig.structhash.pair_key` — a
canonical structural hash of the (AIG, AIG) query pair, symmetric in
the two circuits, salted with a canonical encoding of the engine
options — and store the complete ``repro-cec-result/2`` document: the
verdict, the counterexample or the trimmed TraceCheck proof, the miter
netlist (the proof refutes its Tseitin CNF plus the output unit), and
the original run's stats. Because the certificate is self-contained, a
hit is served without touching any engine and the client can still
replay the proof end to end.

One entry rule applies to every verb (``lookup``, ``in``, ``keys()``
and ``store``): an entry is a JSON object tagged
``repro-cec-result/2`` whose ``equivalent`` is a bool. An undecided
result reflects the budget of the run that produced it, not the query,
so caching it would wrongly pin later, better-funded queries; a
``/1`` document left by an older version reads as a miss, is refused
by ``store``, and the next store of its key replaces it. A key names a
directory, so only the non-empty lowercase hex that ``pair_key``
produces is accepted.

Layout (under the cache root)::

    <key[:2]>/<key>/result.json   the repro-cec-result/2 document
    <key[:2]>/<key>/meta.json     verdict, timestamps, options echo

Writes are atomic (temp file + ``os.replace``) so a crashed or
concurrent writer never leaves a half-readable entry; double stores of
the same key are idempotent, and a store over an entry that breaks the
rule above replaces it.
"""

import json
import os
import re
import tempfile

from ..aig.structhash import pair_key
from ..core.cec import verdict_name
from ..analyze.schemas import CACHE_META_SCHEMA, RESULT_SCHEMA

#: SweepOptions fields that select the engine configuration and hence
#: the artifact; they are folded into the cache key in canonical form.
OPTION_FIELDS = (
    "sim_words", "seed", "structural_mode", "cex_neighbors",
    "max_conflicts", "validate_proof",
)

_HEX_KEY = re.compile(r"[0-9a-f]+\Z")


def canonical_options(options=None):
    """Canonical JSON encoding of an options mapping or ``SweepOptions``.

    Missing fields take the engine defaults, so a query that spells out
    the defaults and one that omits them share a cache entry.
    """
    from ..core.fraig import SweepOptions

    if options is None:
        options = SweepOptions()
    if not isinstance(options, dict):
        options = {
            field: getattr(options, field) for field in OPTION_FIELDS
        }
    defaults = SweepOptions()
    normalized = {
        field: options.get(field, getattr(defaults, field))
        for field in OPTION_FIELDS
    }
    return json.dumps(normalized, sort_keys=True)


def cache_key(aig_a, aig_b, options=None):
    """Cache key of one equivalence query (symmetric in the pair)."""
    return pair_key(aig_a, aig_b, salt=canonical_options(options))


def valid_key(key):
    """True when *key* is a non-empty lowercase-hex string."""
    return isinstance(key, str) and _HEX_KEY.match(key) is not None


def _decided(document):
    return (
        isinstance(document, dict)
        and document.get("schema") == RESULT_SCHEMA
        and isinstance(document.get("equivalent"), bool)
    )


class ProofCache:
    """On-disk certificate store, safe for concurrent readers/writers.

    Args:
        root: cache directory (created on first use).
        recorder: optional :class:`~repro.instrument.Recorder`; lookups
            and stores are timed under the ``cache/*`` phases and
            counted as ``cache/hits`` / ``cache/misses`` /
            ``cache/stores``.
    """

    def __init__(self, root, recorder=None):
        self.root = root
        self.recorder = recorder
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _entry_dir(self, key):
        if not valid_key(key):
            raise ValueError("cache key %r is not lowercase hex" % (key,))
        return os.path.join(self.root, key[:2], key)

    def result_path(self, key):
        """Path of the result document for *key* (may not exist)."""
        return os.path.join(self._entry_dir(key), "result.json")

    def meta_path(self, key):
        """Path of the metadata block for *key* (may not exist)."""
        return os.path.join(self._entry_dir(key), "meta.json")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def lookup(self, key):
        """The stored ``repro-cec-result/2`` document, or ``None``.

        An entry that breaks the entry rule (an older schema tag, an
        interrupted write predating the atomic-rename discipline,
        manual tampering) reads as a miss rather than an error; the
        next store replaces it.
        """
        recorder = self.recorder
        if recorder is not None:
            with recorder.phase("cache/lookup"):
                payload = self._read_result(key)
            recorder.count("cache/hits" if payload is not None
                           else "cache/misses")
            return payload
        return self._read_result(key)

    def _read_result(self, key):
        try:
            with open(self.result_path(key)) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        return document if _decided(document) else None

    def read_meta(self, key):
        """The ``repro-cec-cache/1`` metadata block for *key*, or ``None``.

        A metadata probe is the cheap half of an entry (verdict and
        provenance, no proof text); the fleet's ``cache`` verb answers
        a key probe that ``in`` confirms with it, without shipping the
        result document.
        """
        try:
            with open(self.meta_path(key)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def store(self, key, result_doc, meta=None):
        """Persist a decided result document under *key*.

        Documents that break the entry rule (undecided, malformed or
        of another schema) and non-hex keys are refused with
        ``ValueError`` before the disk is touched. Returns True
        when an entry was written, False when a valid one was already
        present (idempotent).
        """
        if not _decided(result_doc):
            raise ValueError(
                "refusing to cache an undecided, malformed or non-%s "
                "result (key %r)" % (RESULT_SCHEMA, key)
            )
        recorder = self.recorder
        if recorder is None:
            return self._write_entry(key, result_doc, meta)
        with recorder.phase("cache/store"):
            written = self._write_entry(key, result_doc, meta)
        if written:
            recorder.count("cache/stores")
        return written

    def _write_entry(self, key, result_doc, meta):
        entry_dir = self._entry_dir(key)
        result_path = self.result_path(key)
        if self._read_result(key) is not None:
            return False
        os.makedirs(entry_dir, exist_ok=True)
        # The cache owns the entry's schema, key and verdict: a put's
        # meta (a peer's, relayed by the router) may only add fields.
        meta_doc = dict(meta or {})
        meta_doc.update(
            schema=CACHE_META_SCHEMA,
            key=key,
            verdict=verdict_name(result_doc["equivalent"]),
        )
        self._atomic_write(self.meta_path(key), meta_doc)
        self._atomic_write(result_path, result_doc)
        return True

    @staticmethod
    def _atomic_write(path, document):
        directory = os.path.dirname(path)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def keys(self):
        """All keys whose entry a lookup would serve (directory scan;
        for tools and tests)."""
        found = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for key in os.listdir(shard_dir):
                if valid_key(key) and key in self:
                    found.append(key)
        return sorted(found)

    def __len__(self):
        return len(self.keys())

    def __contains__(self, key):
        # The entry rule of lookup, not file existence: a torn or
        # undecided result.json is a miss for a probe as for a get.
        return self._read_result(key) is not None
