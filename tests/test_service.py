"""The persistent CEC service: protocol, cache, jobs, server, client."""

import glob
import io
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import check_equivalence, cli
from repro.aig.aiger import read_aag, write_aag
from repro.circuits.benchmarks import by_name
from repro.analyze.schemas import CACHE_META_SCHEMA, RESULT_SCHEMA
from repro.circuits import (
    array_multiplier,
    kogge_stone_adder,
    ripple_carry_adder,
    wallace_multiplier,
)
from repro.core.certify import certify
from repro.core.serialize import result_from_dict, result_to_dict
from repro.exit_codes import EXIT_INVALID_INPUT, EXIT_OK
from repro.instrument import Recorder
from repro.instrument.recorder import validate_report
from repro.service import (
    CecServer,
    JobTable,
    ProofCache,
    QueueFullError,
    ServiceClient,
    ServiceError,
    cache_key,
    canonical_options,
    execute_job,
)
from repro.service import client_cli, protocol


def aag_text(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def adder_pair():
    return (
        aag_text(ripple_carry_adder(4)), aag_text(kogge_stone_adder(4))
    )


@pytest.fixture(scope="module")
def big_pair():
    return (
        aag_text(ripple_carry_adder(16)), aag_text(kogge_stone_adder(16))
    )


def as_version_1(document):
    """Equivalent *document* as a ``repro-cec-result/1`` cache entry,
    which also stored the refuted axiom set as a ``cnf`` block."""
    cnf = result_from_dict(document).cnf
    return dict(document, schema="repro-cec-result/1", cnf={
        "num_vars": cnf.num_vars,
        "clauses": [list(clause) for clause in cnf.clauses],
    })


def file_tree(root):
    """Every path under *root*, relative and sorted."""
    return sorted(
        os.path.relpath(os.path.join(directory, name), root)
        for directory, dirs, files in os.walk(root)
        for name in dirs + files
    )


@pytest.fixture()
def server(tmp_path):
    """In-process server on a Unix socket with a fresh cache dir."""
    instance = CecServer(
        str(tmp_path / "cec.sock"), workers=0,
        cache_dir=str(tmp_path / "cache"),
    )
    instance.start()
    yield instance
    instance.close()


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"verb": "ping", "x": [1, 2]}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_bad_json(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_parse_address_tcp(self):
        assert protocol.parse_address("localhost:7711") == (
            "tcp", ("localhost", 7711),
        )

    def test_parse_address_unix(self):
        assert protocol.parse_address("/tmp/x.sock") == (
            "unix", "/tmp/x.sock",
        )
        assert protocol.parse_address("./x.sock") == ("unix", "./x.sock")

    def test_parse_address_rejects_garbage(self):
        with pytest.raises(ValueError):
            protocol.parse_address("no-port-here")
        with pytest.raises(ValueError):
            protocol.parse_address("host:notaport")


class TestJobTable:
    def test_bounded_admission(self):
        table = JobTable(queue_limit=2)
        table.admit()
        table.admit()
        with pytest.raises(QueueFullError):
            table.admit()

    def test_release_frees_capacity(self):
        table = JobTable(queue_limit=1)
        job = table.admit()
        table.release(job)
        table.admit()  # does not raise

    def test_terminal_jobs_bypass_capacity(self):
        table = JobTable(queue_limit=1)
        table.admit()
        table.add_terminal()  # cache hits never count against the queue

    def test_job_ids_unique(self):
        table = JobTable(queue_limit=10)
        ids = {table.admit().id for _ in range(5)}
        assert len(ids) == 5

    def test_jobs_run_in_admission_order_one_per_worker(self):
        table = JobTable(queue_limit=10, workers=2)
        jobs = [table.admit() for _ in range(4)]
        assert [job.state for job in jobs] == \
            ["running", "running", "queued", "queued"]
        table.release(jobs[3])  # cancelled while queued: no worker freed
        assert jobs[2].state == "queued"
        table.release(jobs[0])
        assert jobs[2].state == "running"

    def test_terminal_eviction_bounds_table(self):
        table = JobTable(queue_limit=10, retain_terminal=2)
        jobs = [table.admit() for _ in range(4)]
        for job in jobs:
            table.release(job)
            job.finish("equivalent", {"equivalent": True})
            table.note_terminal(job)
        assert len(table) == 2
        assert table.get(jobs[0].id) is None
        assert table.get(jobs[1].id) is None
        assert table.get(jobs[3].id) is jobs[3]

    def test_non_terminal_jobs_survive_eviction_pressure(self):
        table = JobTable(queue_limit=10, retain_terminal=1)
        live = table.admit()
        for _ in range(3):
            job = table.admit()
            table.release(job)
            job.finish("equivalent", {"equivalent": True})
            table.note_terminal(job)
        assert table.get(live.id) is live


class TestCanonicalOptions:
    def test_defaults_match_explicit(self):
        from repro.core import SweepOptions

        assert canonical_options(None) == canonical_options({})
        assert canonical_options(None) == canonical_options(SweepOptions())

    def test_option_changes_key(self, adder_pair):
        from repro.aig.aiger import read_aag

        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        assert cache_key(a, b) != cache_key(a, b, {"sim_words": 9})
        assert cache_key(a, b) == cache_key(b, a)

    def test_keys_salted_with_a_removed_option_miss(self, adder_pair):
        # The salt once named nine option fields, one of them the
        # refinement batch size; those keys must not alias today's.
        from repro.aig.structhash import pair_key

        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        old = json.loads(canonical_options(None))
        old["refine_batch"] = 1
        old_salt = json.dumps(old, sort_keys=True)
        assert cache_key(a, b) != pair_key(a, b, salt=old_salt)

    def test_keys_salted_with_the_sweep_switches_miss(self, adder_pair):
        # Until the proof-logging and simulation switches were removed,
        # the salt named them too (both on by default).
        from repro.aig.structhash import pair_key

        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        old = json.loads(canonical_options(None))
        old.update(proof=True, use_simulation=True)
        old_salt = json.dumps(old, sort_keys=True)
        assert cache_key(a, b) != pair_key(a, b, salt=old_salt)

    def test_key_fields_are_the_sweep_options(self):
        from repro.core import SweepOptions
        from repro.service.cache import OPTION_FIELDS

        assert sorted(vars(SweepOptions())) == sorted(OPTION_FIELDS)


class TestProofCache:
    def _decided_doc(self, adder_pair):
        response = execute_job({
            "aag_a": adder_pair[0], "aag_b": adder_pair[1],
        })
        assert response["ok"]
        return response["result"]

    def test_store_and_lookup(self, tmp_path, adder_pair):
        cache = ProofCache(str(tmp_path / "c"))
        doc = self._decided_doc(adder_pair)
        assert cache.lookup("00deadbeef") is None
        assert cache.store("00deadbeef", doc) is True
        assert cache.lookup("00deadbeef") == doc
        assert "00deadbeef" in cache
        assert cache.keys() == ["00deadbeef"]

    def test_store_is_idempotent(self, tmp_path, adder_pair):
        cache = ProofCache(str(tmp_path / "c"))
        doc = self._decided_doc(adder_pair)
        assert cache.store("00aa", doc) is True
        assert cache.store("00aa", doc) is False
        assert len(cache) == 1

    def test_refuses_undecided(self, tmp_path):
        cache = ProofCache(str(tmp_path / "c"))
        with pytest.raises(ValueError):
            cache.store("00bb", {"equivalent": None})

    def test_corrupt_entry_reads_as_miss(self, tmp_path, adder_pair):
        cache = ProofCache(str(tmp_path / "c"))
        doc = self._decided_doc(adder_pair)
        cache.store("00cc", doc)
        with open(cache.result_path("00cc"), "w") as handle:
            handle.write("{truncated")
        assert cache.lookup("00cc") is None
        # The next store replaces it.
        assert cache.store("00cc", doc) is True
        assert cache.lookup("00cc") == doc

    def test_put_meta_cannot_override_owned_fields(self, tmp_path):
        cache = ProofCache(str(tmp_path / "c"))
        document = {"schema": RESULT_SCHEMA, "equivalent": True}
        assert cache.store("ab", document, meta={
            "verdict": "not_equivalent", "key": "cd", "schema": 5,
            "job": "j000007",
        }) is True
        meta = cache.read_meta("ab")
        assert meta["verdict"] == "equivalent"
        assert meta["key"] == "ab"
        assert meta["schema"] == CACHE_META_SCHEMA
        # Fields the cache does not own ride along.
        assert meta["job"] == "j000007"

    @pytest.mark.parametrize("text", ["[]", '{"equivalent": tru',
                                      '{"equivalent": null}'],
                             ids=["not-an-object", "torn", "undecided"])
    def test_probe_applies_the_lookup_rule(self, tmp_path, adder_pair,
                                           text):
        cache = ProofCache(str(tmp_path / "c"))
        cache.store("00ee", self._decided_doc(adder_pair))
        with open(cache.result_path("00ee"), "w") as handle:
            handle.write(text)
        assert cache.lookup("00ee") is None
        assert "00ee" not in cache
        assert cache.keys() == []

    def test_version_1_entry_is_absent_and_replaced(
        self, tmp_path, adder_pair,
    ):
        cache = ProofCache(str(tmp_path / "c"))
        doc = self._decided_doc(adder_pair)
        cache.store("00ff", doc)
        with open(cache.result_path("00ff"), "w") as handle:
            json.dump(as_version_1(doc), handle)
        assert cache.lookup("00ff") is None
        assert "00ff" not in cache
        assert cache.keys() == []
        with pytest.raises(ValueError):
            cache.store("00aa", as_version_1(doc))
        assert cache.store("00ff", doc) is True
        assert cache.lookup("00ff") == doc

    def test_recorder_counts(self, tmp_path, adder_pair):
        recorder = Recorder()
        cache = ProofCache(str(tmp_path / "c"), recorder=recorder)
        cache.lookup("00dd")
        cache.store("00dd", self._decided_doc(adder_pair))
        cache.lookup("00dd")
        assert recorder.counter("cache/misses") == 1
        assert recorder.counter("cache/hits") == 1
        assert recorder.counter("cache/stores") == 1


class TestExecuteJob:
    def test_bad_aiger_is_structured_error(self):
        response = execute_job({"aag_a": "garbage", "aag_b": "junk"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-input"

    def test_unknown_option_is_structured_error(self, adder_pair):
        response = execute_job({
            "aag_a": adder_pair[0], "aag_b": adder_pair[1],
            "options": {"warp_factor": 9},
        })
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-input"

    def test_budget_exhaustion_is_undecided(self, big_pair):
        response = execute_job({
            "aag_a": big_pair[0], "aag_b": big_pair[1],
            "time_limit": 0.0,
        })
        assert response["ok"] is True
        assert response["verdict"] == "undecided"
        assert response["stats"]["budget"]["exhausted"] == "time"

    def test_in_worker_certify(self, adder_pair):
        response = execute_job({
            "aag_a": adder_pair[0], "aag_b": adder_pair[1],
            "certify": True,
        })
        assert response["ok"] is True
        assert "service/certify" in response["stats"]["phases"]

    def test_in_worker_certify_with_jobs(self, server, adder_pair):
        """Older clients sent a ``jobs`` replay-process count with
        ``certify``. The server ignores that stale key: the job is
        still certified, sequentially, instead of failing."""
        with ServiceClient(server.address) as client:
            submitted = client.request({
                "verb": "submit",
                "aag_a": adder_pair[0], "aag_b": adder_pair[1],
                "certify": True, "jobs": "many",
            })
            response = client.result(submitted["job"], wait=True)
        assert response["verdict"] == "equivalent"
        assert "service/certify" in response["worker_stats"]["phases"]


class TestServerEndToEnd:
    def test_ping(self, server):
        with ServiceClient(server.address) as client:
            response = client.ping()
        assert response["ok"] is True
        assert response["protocol"] == "repro-service/1"

    def test_check_round_trip_and_cache_hit(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            # Miss: solved by the worker, certificate certifies locally.
            result, response = client.check(*adder_pair)
            assert response["verdict"] == "equivalent"
            assert response["cached"] is False
            certify(result)
            worker_stats = validate_report(response["worker_stats"])
            assert any(
                name.startswith("solver/") or "sweep" in name
                for name in worker_stats["phases"]
            )
            # Hit: same certificate, no solver ran.
            result2, response2 = client.check(*adder_pair)
            assert response2["cached"] is True
            assert response2["worker_stats"] is None
            job_stats = validate_report(response2["job_stats"])
            assert set(job_stats["phases"]) == {"cache/lookup"}
            assert response2["result"] == response["result"]
            certify(result2)

    def test_queue_wait_runs_to_the_worker_start(self, server, adder_pair,
                                                 big_pair, gate):
        # One worker: the second job queues behind the first one, which
        # the gate holds for a fixed time before it runs, so the second
        # job's wait does not depend on how fast the first one solves.
        gate.clear()
        with ServiceClient(server.address) as client:
            first = client.submit(*big_pair)["job"]
            second = client.submit(*adder_pair)["job"]
            time.sleep(0.2)
            gate.set()
            client.result(first, wait=True)
            response = client.result(second, wait=True)
        job = server.jobs.get(first)
        run = job.finished_at - job.started_at
        wait = response["job_stats"]["phases"]["service/queue-wait"]
        assert wait["seconds"] >= 0.5 * run > 0.0

    def test_a_job_waiting_for_the_worker_reads_queued(
        self, server, adder_pair, big_pair, gate,
    ):
        gate.clear()
        with ServiceClient(server.address) as client:
            submits = [client.submit(*big_pair), client.submit(*adder_pair)]
            jobs = [submitted["job"] for submitted in submits]
            held = [client.status(job)["state"] for job in jobs]
            progress = client.progress(jobs[1])["state"]
            gate.set()
            final = [client.result(job, wait=True)["state"] for job in jobs]
        assert [submitted["state"] for submitted in submits] == \
            ["running", "queued"]
        assert held == ["running", "queued"]
        assert progress == "queued"
        assert final == ["done", "done"]

    def test_a_trim_false_miss_caches_the_trimmed_proof(self, server):
        # `trim` is not a request field: the key is ignored like any
        # unknown one, so the entry every default submit hits holds
        # the trimmed proof.
        pair = (aag_text(ripple_carry_adder(8)),
                aag_text(kogge_stone_adder(8)))
        with ServiceClient(server.address) as client:
            submitted = client.request({
                "verb": "submit", "aag_a": pair[0], "aag_b": pair[1],
                "trim": False,
            })
            assert submitted["cached"] is False
            client.result(submitted["job"], wait=True)
            again = client.submit(*pair)
            assert again["cached"] is True
            served = client.result(again["job"])["result"]
        fresh = execute_job({"aag_a": pair[0], "aag_b": pair[1]})
        assert served["proof"] == fresh["result"]["proof"]
        assert len(result_from_dict(served).proof) == 385

    def test_symmetric_query_hits(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            client.check(*adder_pair)
            submitted = client.submit(adder_pair[1], adder_pair[0])
            assert submitted["cached"] is True
            stats = client.stats()
        assert stats["counters"]["service/cache-hits"] >= 1

    @pytest.mark.parametrize("verb", [["ping"], {"a": 1}, 7, None],
                             ids=["list", "object", "int", "missing"])
    def test_non_string_verb_is_an_invalid_request(self, server, verb):
        request = {} if verb is None else {"verb": verb}
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request(request)
            assert excinfo.value.code == protocol.ERR_INVALID_REQUEST
            # The connection survives the malformed request.
            assert client.ping()["ok"] is True

    @pytest.mark.parametrize("text", [
        "not an aiger file",
        # The header promises an AND row the body does not have.
        "aag 3 2 0 1 1\n2\n4\n6\n",
    ], ids=["garbage", "truncated-ands"])
    def test_bad_input_is_structured(self, server, adder_pair, text):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(text, adder_pair[0])
            # The connection survives the rejected submit.
            assert client.ping()["ok"] is True
        assert excinfo.value.code == "bad-input"

    def test_cache_only_submit_answers_hits_and_admits_nothing(
        self, server, adder_pair,
    ):
        # The router's field: answer a hit, admit no job on a miss.
        probe = {"verb": "submit", "aag_a": adder_pair[0],
                 "aag_b": adder_pair[1], "cache_only": True}
        with ServiceClient(server.address) as client:
            miss = client.request(probe)
            assert miss["cached"] is False and "job" not in miss
            assert len(server.jobs) == 0
            counters = client.stats()["counters"]
            assert counters["service/cache-probes"] == 1
            assert "service/jobs-submitted" not in counters
            assert "service/cache-misses" not in counters
            client.check(*adder_pair)
            hit = client.request(probe)
            assert hit["cached"] is True and hit["state"] == "done"
            assert client.result(hit["job"])["verdict"] == "equivalent"
            counters = client.stats()["counters"]
        assert counters["service/cache-probes"] == 1
        assert counters["service/jobs-submitted"] == 2
        assert counters["service/cache-misses"] == 1
        assert counters["service/cache-hits"] == 1

    @pytest.mark.parametrize("fields", [
        {"options": {"refine_batch": 1}},
        {"options": {"proof": False}},
        {"options": {"proof": True}},
        {"options": {"use_simulation": False}},
        {"options": {"sim_words": "4"}},
        {"options": {"max_conflicts": "5"}},
        {"options": {"sim_words": -1}},
        {"options": {"cex_neighbors": -2}},
        {"time_limit": "5"},
        {"time_limit": [1]},
        {"time_limit": -1},
        {"time_limit": True},
        {"time_limit": float("nan")},
        {"conflict_limit": "5"},
        {"conflict_limit": 2.5},
        {"conflict_limit": -1},
        {"conflict_limit": True},
    ], ids=["removed", "proof-off", "proof-on", "no-simulation",
            "str-words", "str-conflicts", "neg-words",
            "neg-neighbors", "str-time", "list-time", "neg-time",
            "bool-time", "nan-time", "str-conflict-limit",
            "float-conflict-limit", "neg-conflict-limit",
            "bool-conflict-limit"])
    def test_bad_options_rejected_at_submit(self, server, adder_pair,
                                            fields):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(*adder_pair, **fields)
            stats = client.stats()
        assert excinfo.value.code == "bad-input"
        assert stats["counters"]["service/jobs-rejected"] == 1
        assert len(server.jobs) == 0
        assert server.cache.keys() == []

    @pytest.mark.parametrize("fields", [
        {"time_limit": 0}, {"time_limit": 0.5}, {"time_limit": None},
        {"conflict_limit": 0}, {"conflict_limit": None},
    ], ids=["zero-time", "half-second", "null-time", "zero-conflicts",
            "null-conflicts"])
    def test_budget_boundaries_are_admitted(self, server, adder_pair,
                                            fields):
        request = {"verb": "submit", "aag_a": adder_pair[0],
                   "aag_b": adder_pair[1]}
        request.update(fields)
        with ServiceClient(server.address) as client:
            submitted = client.request(request)
            response = client.result(submitted["job"], wait=True)
        assert response["state"] == "done"

    def test_interface_mismatch_is_structured(self, server, adder_pair):
        small = aag_text(ripple_carry_adder(2))
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(adder_pair[0], small)
        assert excinfo.value.code == "bad-input"

    def test_unknown_job_is_structured(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.status("j999999")
        assert excinfo.value.code == "unknown-job"

    def test_budget_exhaustion_round_trip(self, server, big_pair):
        with ServiceClient(server.address) as client:
            submitted = client.submit(*big_pair, time_limit=0.0)
            response = client.result(submitted["job"], wait=True)
        assert response["verdict"] == "undecided"
        assert response["worker_stats"]["budget"]["exhausted"] == "time"

    def test_undecided_is_not_cached(self, server, big_pair):
        with ServiceClient(server.address) as client:
            first = client.submit(*big_pair, time_limit=0.0)
            client.result(first["job"], wait=True)
            second = client.submit(*big_pair, time_limit=0.0)
            assert second["cached"] is False
            client.result(second["job"], wait=True)

    def test_stats_verb_is_valid_report(self, server):
        with ServiceClient(server.address) as client:
            report = validate_report(client.stats())
        assert report["meta"]["tool"] == "repro-serve"


class TestCacheVerbs:
    """The ``repro-fleet/1`` cache protocol on a single shard."""

    @staticmethod
    def _key(pair):
        return cache_key(
            read_aag(io.StringIO(pair[0])), read_aag(io.StringIO(pair[1]))
        )

    def test_stats_track_lookups_and_stores(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            baseline = client.cache_stats()
            assert baseline["entries"] == 0
            client.check(*adder_pair)  # miss, solve, store
            client.check(*adder_pair)  # hit
            stats = client.cache_stats()
        assert stats["entries"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_probe_and_get_round_trip(self, server, adder_pair):
        key = self._key(adder_pair)
        with ServiceClient(server.address) as client:
            found, meta = client.cache_probe(key)
            assert (found, meta) == (False, None)
            client.check(*adder_pair)
            found, meta = client.cache_probe(key)
            assert found is True
            assert meta["verdict"] == "equivalent"
            document, got_meta = client.cache_get(key)
        assert got_meta["verdict"] == "equivalent"
        rebuilt = result_from_dict(document)
        assert rebuilt.equivalent is True
        certify(rebuilt)

    def test_idle_workers_on_miss_and_probe(self, server, adder_pair,
                                            big_pair, gate):
        miss = {"verb": "submit", "aag_a": big_pair[0],
                "aag_b": big_pair[1], "cache_only": True}
        key = self._key(big_pair)
        with ServiceClient(server.address) as client:
            idle = (client.request(miss)["idle_workers"],
                    client.request({"verb": "cache", "key": key}))
            gate.clear()
            job = client.submit(*adder_pair)["job"]
            busy = (client.request(miss)["idle_workers"],
                    client.request({"verb": "cache", "key": key}))
            gate.set()
            client.result(job, wait=True)
        assert idle[0] == idle[1]["idle_workers"] == 1
        assert busy[0] == busy[1]["idle_workers"] == 0
        assert idle[1]["found"] is busy[1]["found"] is False

    def test_torn_entry_is_absent_for_every_verb(self, server, adder_pair):
        key = self._key(adder_pair)
        with ServiceClient(server.address) as client:
            client.check(*adder_pair)
            with open(server.cache.result_path(key), "w") as handle:
                handle.write('{"equivalent": tru')
            assert client.cache_probe(key) == (False, None)
            assert client.cache_get(key) == (None, None)
            assert client.cache_stats()["entries"] == 0

    def test_version_1_entry_is_a_miss_for_every_verb(
        self, server, adder_pair,
    ):
        key = self._key(adder_pair)
        with ServiceClient(server.address) as client:
            result, _ = client.check(*adder_pair)
            document = result_to_dict(result)
            with open(server.cache.result_path(key), "w") as handle:
                json.dump(as_version_1(document), handle)
            assert client.cache_probe(key) == (False, None)
            assert client.cache_get(key) == (None, None)
            assert client.cache_stats()["entries"] == 0
            with pytest.raises(ServiceError) as err:
                client.cache_put("%040x" % 0xFEED, as_version_1(document))
            # The next submit solves the pair again, and its store
            # replaces the old entry.
            assert client.check(*adder_pair)[1]["cached"] is False
            assert client.submit(*adder_pair)["cached"] is True
            stored, _ = client.cache_get(key)
        assert err.value.code == protocol.ERR_BAD_INPUT
        assert stored["schema"] == RESULT_SCHEMA

    def test_get_miss_is_not_an_error(self, server):
        with ServiceClient(server.address) as client:
            assert client.cache_get("%040x" % 0xFEED) == (None, None)

    def test_put_installs_a_peer_entry_idempotently(
        self, server, adder_pair
    ):
        key = self._key(adder_pair)
        with ServiceClient(server.address) as client:
            client.check(*adder_pair)
            document, meta = client.cache_get(key)
            peer_key = "%040x" % 0xFEED
            assert client.cache_put(peer_key, document, meta=meta) is True
            assert client.cache_put(peer_key, document, meta=meta) is False
            found, put_meta = client.cache_probe(peer_key)
        assert found is True
        assert put_meta["verdict"] == "equivalent"

    def test_put_rejects_a_non_document(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as err:
                client.request(
                    {"verb": "cache-put", "key": "ab", "result": "nope"}
                )
        assert err.value.code == protocol.ERR_BAD_INPUT

    @pytest.mark.parametrize("verb", ["cache", "cache-get", "cache-put"])
    @pytest.mark.parametrize("kind", ["absolute", "dotdot", "slash",
                                      "upper"])
    def test_non_hex_key_is_refused_before_the_disk(
        self, tmp_path, verb, kind,
    ):
        # The cache root sits two levels down, so even the ".." key
        # would land inside tmp_path, where the tree check sees it.
        key = {"absolute": str(tmp_path / "abs"), "dotdot": "../outside",
               "slash": "ab/cd", "upper": "ABCDEF"}[kind]
        shard = CecServer(
            str(tmp_path / "s.sock"), workers=0,
            cache_dir=str(tmp_path / "a" / "cache"),
        )
        shard.start()
        try:
            before = file_tree(tmp_path)
            with ServiceClient(shard.address) as client:
                with pytest.raises(ServiceError) as err:
                    client.request({"verb": verb, "key": key,
                                    "result": {"equivalent": True}})
            after = file_tree(tmp_path)
        finally:
            shard.close()
        assert err.value.code == protocol.ERR_INVALID_REQUEST
        assert after == before

    @pytest.mark.parametrize("equivalent", ["yes", 2, 1])
    def test_put_of_an_undecided_document_is_bad_input(
        self, server, equivalent,
    ):
        key = "%040x" % 0xBAD
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as err:
                client.cache_put(key, {"schema": RESULT_SCHEMA,
                                       "equivalent": equivalent})
            # The handler survives: the same connection still answers.
            assert client.ping()["ok"] is True
        assert err.value.code == protocol.ERR_BAD_INPUT
        assert not os.path.exists(
            os.path.join(server.cache.root, key[:2], key)
        )

    @pytest.mark.parametrize("text", ["[]", '{"equivalent": tru'],
                             ids=["not-an-object", "torn"])
    def test_malformed_entry_is_solved_and_replaced(
        self, server, adder_pair, text,
    ):
        key = self._key(adder_pair)
        entry = os.path.join(server.cache.root, key[:2], key)
        os.makedirs(entry)
        with open(os.path.join(entry, "result.json"), "w") as handle:
            handle.write(text)
        with ServiceClient(server.address) as client:
            result, response = client.check(*adder_pair)
            assert response["cached"] is False
            assert result.equivalent is True
            assert client.submit(*adder_pair)["cached"] is True

    def test_blank_key_is_invalid(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as err:
                client.cache_get("")
        assert err.value.code == protocol.ERR_INVALID_REQUEST

    def test_cacheless_server_answers_err_no_cache(self, tmp_path):
        bare = CecServer(str(tmp_path / "bare.sock"), workers=0)
        bare.start()
        try:
            with ServiceClient(bare.address) as client:
                with pytest.raises(ServiceError) as err:
                    client.cache_stats()
        finally:
            bare.close()
        assert err.value.code == protocol.ERR_NO_CACHE


class TestQueueLimits:
    def test_queue_full_is_structured(self, tmp_path, adder_pair, big_pair,
                                      gate):
        server = CecServer(
            str(tmp_path / "q.sock"), workers=0, queue_limit=1,
        )
        server.start()
        try:
            with ServiceClient(server.address) as client:
                gate.clear()  # the first job holds the one slot
                slow = client.submit(*big_pair, time_limit=2.0)
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(*adder_pair)
                assert excinfo.value.code == "queue-full"
                gate.set()
                # The slow job still completes normally.
                response = client.result(slow["job"], wait=True)
                assert response["state"] == "done"
                stats = client.stats()
                assert stats["counters"]["service/queue-rejects"] == 1
        finally:
            server.close()

    def test_cancel_queued_job(self, tmp_path, big_pair, adder_pair):
        server = CecServer(
            str(tmp_path / "c.sock"), workers=0, queue_limit=4,
        )
        server.start()
        try:
            with ServiceClient(server.address) as client:
                slow = client.submit(*big_pair, time_limit=2.0)
                queued = client.submit(*adder_pair)
                cancelled = client.cancel(queued["job"])
                if cancelled["cancelled"]:
                    status = client.status(queued["job"])
                    assert status["state"] == "cancelled"
                    with pytest.raises(ServiceError) as excinfo:
                        client.result(queued["job"], wait=True)
                    assert excinfo.value.code == "cancelled"
                client.result(slow["job"], wait=True)
        finally:
            server.close()


class TestServerResilience:
    def test_cache_store_failure_still_finishes_job(
        self, server, adder_pair, monkeypatch
    ):
        def broken_store(key, result, meta=None):
            raise OSError("disk full")

        monkeypatch.setattr(server.cache, "store", broken_store)
        with ServiceClient(server.address) as client:
            # The job must still reach a terminal state with its
            # verdict and certificate; the cache failure is an
            # operational counter, not a job failure.
            result, response = client.check(*adder_pair)
            assert response["state"] == "done"
            assert response["verdict"] == "equivalent"
            certify(result)
            stats = client.stats()
        assert stats["counters"]["service/cache-store-failures"] == 1

    def test_terminal_jobs_evicted_end_to_end(self, tmp_path, adder_pair):
        server = CecServer(
            str(tmp_path / "e.sock"), workers=0, retain_jobs=1,
        )
        server.start()
        try:
            with ServiceClient(server.address) as client:
                first = client.submit(*adder_pair)
                client.result(first["job"], wait=True)
                second = client.submit(adder_pair[1], adder_pair[0])
                client.result(second["job"], wait=True)
                # Eviction happens in the second job's completion
                # callback, which may lag the result response briefly.
                deadline = time.time() + 5.0
                while True:
                    try:
                        client.status(first["job"])
                    except ServiceError as exc:
                        assert exc.code == "unknown-job"
                        break
                    assert time.time() < deadline, (
                        "old terminal job was never evicted"
                    )
                    time.sleep(0.02)
                assert client.status(second["job"])["state"] == "done"
        finally:
            server.close()


class TestClientRetrySemantics:
    def test_no_retry_after_request_sent(self):
        accepted = []
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(5)

        def serve(listener=listener):
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)
                # Read some request bytes, then drop the connection
                # without answering — the request may already be
                # executing server-side.
                try:
                    conn.recv(1)
                    conn.close()
                except OSError:
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        client = ServiceClient(
            "%s:%d" % (host, port),
            timeout=2.0, retries=3, backoff=0.01,
        )
        try:
            with pytest.raises(OSError):
                client.ping()
        finally:
            client.close()
            listener.close()
        # The request was written once, so it must not be re-sent.
        assert len(accepted) == 1

    @pytest.mark.parametrize("family", ["unix", "tcp"])
    def test_failed_connects_close_their_sockets(
        self, tmp_path, monkeypatch, family,
    ):
        created = []

        class RecordingSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        if family == "unix":
            address = str(tmp_path / "missing.sock")
        else:
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % probe.getsockname()[1]
            probe.close()  # nothing listens here any more
        monkeypatch.setattr(socket, "socket", RecordingSocket)
        client = ServiceClient(address, retries=2, backoff=0.01)
        with pytest.raises(OSError):
            client.ping()
        assert len(created) == 3
        assert [sock.fileno() for sock in created] == [-1, -1, -1]

    def test_connect_failures_exhaust_retries(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        client = ServiceClient(
            "127.0.0.1:%d" % port, retries=1, backoff=0.01,
        )
        with pytest.raises(OSError):
            client.ping()


@pytest.fixture
def http_address():
    """An address that answers a request line with one HTTP status line,
    as a shard's or router's ``/metrics`` port does, and then waits for
    the client to hang up: one connection."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            try:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.0 400 Bad request syntax\r\n"
                             b"Content-Type: text/html\r\n\r\n")
                conn.recv(1)
            except OSError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        thread.join(10.0)
        listener.close()


class TestForeignServer:
    """A client pointed at a port that is not a CEC server."""

    def test_client_drops_the_connection(self, http_address):
        client = ServiceClient(http_address, retries=0)
        try:
            with pytest.raises(protocol.ProtocolError):
                client.ping()
            assert client._sock is None and client._reader is None
        finally:
            client.close()

    @pytest.mark.parametrize("tool", ["repro-client", "repro-cec"])
    def test_clis_exit_invalid_input(self, http_address, adder_pair,
                                     tmp_path, tool, capsys):
        if tool == "repro-client":
            code = client_cli.main(["--server", http_address, "ping"])
        else:
            paths = []
            for name, text in zip("ab", adder_pair):
                paths.append(str(tmp_path / ("%s.aag" % name)))
                with open(paths[-1], "w") as handle:
                    handle.write(text)
            code = cli.main(paths + ["--server", http_address])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID_INPUT
        assert "error:" in err and "not a CEC server" in err
        assert "Traceback" not in err


class TestClientArguments:
    @pytest.mark.parametrize("kwargs", [
        {"retries": -1}, {"retries": 1.5}, {"retries": True},
        {"retries": "3"}, {"timeout": -1}, {"timeout": 0},
        {"timeout": "5"}, {"timeout": False}, {"backoff": -0.1},
        {"backoff": None},
    ], ids=repr)
    def test_bad_arguments_raise_value_error(self, kwargs):
        with pytest.raises(ValueError):
            ServiceClient("127.0.0.1:1", **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"retries": 0}, {"timeout": None}, {"timeout": 5.0},
        {"timeout": 10}, {"backoff": 0},
    ], ids=repr)
    def test_good_arguments_are_accepted(self, kwargs):
        ServiceClient("127.0.0.1:1", **kwargs)

    @pytest.mark.parametrize("flag", ["--retries", "--timeout"])
    def test_repro_client_rejects_negative_values(self, flag, capsys):
        argv = ["--server", "127.0.0.1:1", flag, "-1", "ping"]
        assert client_cli.main(argv) == EXIT_INVALID_INPUT
        assert "repro-client:" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["-1", "0"])
    def test_status_follow_rejects_non_positive_interval(self, interval,
                                                         capsys):
        argv = ["--server", "127.0.0.1:1", "status", "j000001",
                "--follow", "--interval", interval]
        assert client_cli.main(argv) == EXIT_INVALID_INPUT
        # Rejected before connecting: nothing listens on port 1.
        assert "--interval must be > 0" in capsys.readouterr().err


class TestClientBackoff:
    def test_retry_delay_is_full_jitter_with_cap(self, monkeypatch):
        draws = []

        def fake_uniform(low, high):
            draws.append((low, high))
            return 0.0

        monkeypatch.setattr(
            "repro.service.client.random.uniform", fake_uniform
        )
        client = ServiceClient("127.0.0.1:1", backoff=0.2)
        for attempt in range(1, 7):
            client.retry_delay(attempt)
        assert all(low == 0.0 for low, _ in draws)
        ceilings = [high for _, high in draws]
        # Exponential doubling from the base, clamped at BACKOFF_CAP.
        assert ceilings == pytest.approx([0.2, 0.4, 0.8, 1.6, 3.2, 5.0])

    def test_connect_retries_ride_out_a_late_server(self, tmp_path):
        # Regression: a server that comes up *after* the first connect
        # attempt must be reached by the jittered retry loop rather
        # than surfacing the initial refused connection.
        sock_path = str(tmp_path / "late.sock")
        holder = {}

        def start_late():
            time.sleep(0.3)
            holder["server"] = CecServer(sock_path, workers=0)
            holder["server"].start()

        thread = threading.Thread(target=start_late)
        thread.start()
        try:
            with ServiceClient(
                sock_path, retries=60, backoff=0.05
            ) as client:
                assert client.ping()["ok"] is True
        finally:
            thread.join()
            holder["server"].close()


class TestServeCliSignals:
    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        sock_path = tmp_path / "sig.sock"
        stats_path = tmp_path / "stats.json"
        src_dir = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.serve_cli",
             "--listen", str(sock_path), "--workers", "0",
             "--stats-json", str(stats_path)],
            env=env, stderr=subprocess.PIPE,
        )
        try:
            client = ServiceClient(
                str(sock_path), retries=30, backoff=0.1,
            )
            with client:
                assert client.ping()["ok"] is True
            proc.send_signal(signal.SIGTERM)
            # Before the shutdown-via-thread fix this deadlocked:
            # the signal handler called server.shutdown() on the same
            # thread serve_forever was blocking.
            returncode = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert returncode == 0
        report = validate_report(json.loads(stats_path.read_text()))
        assert report["meta"]["tool"] == "repro-serve"


class TestTcpAndProcessPool:
    def test_tcp_with_process_pool(self, adder_pair):
        server = CecServer("127.0.0.1:0", workers=2)
        server.start()
        try:
            with ServiceClient(server.address) as client:
                result, response = client.check(*adder_pair)
            assert response["verdict"] == "equivalent"
            certify(result)
        finally:
            server.close()

    def test_workers_forked_before_threads_start(self):
        # The fork-start pool is only safe because __init__'s warm-up
        # submit launches every worker while the server process is
        # still single-threaded (concurrency.fork-after-thread).
        server = CecServer("127.0.0.1:0", workers=2)
        try:
            processes = getattr(server._executor, "_processes", None)
            if processes is not None:  # CPython implementation detail
                assert len(processes) == 2
        finally:
            server.close()


class TestWorkerCrash:
    def test_killed_worker_costs_one_job_not_the_shard(self, tmp_path):
        # A worker SIGKILLed under a job breaks the process pool. The
        # job ends worker-failed; the next miss runs on a replacement
        # pool instead of being refused as shutting-down.
        before = {child.pid for child in multiprocessing.active_children()}
        server = CecServer(str(tmp_path / "w.sock"), workers=1,
                           cache_dir=str(tmp_path / "cache"),
                           progress_interval=0.01)
        server.start()
        try:
            [worker] = [child for child in multiprocessing.active_children()
                        if child.pid not in before]
            # About a second of search, so the kill lands mid-job.
            slow = (array_multiplier(7), wallace_multiplier(7))
            fast = by_name("add08").build()
            with ServiceClient(server.address) as client:
                job = client.submit(*map(aag_text, slow))["job"]
                deadline = time.monotonic() + 60
                while client.progress(job)["progress"] is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                os.kill(worker.pid, signal.SIGKILL)
                with pytest.raises(ServiceError) as failed:
                    client.result(job, wait=True)
                assert failed.value.code == protocol.ERR_WORKER_FAILED
                assert "BrokenProcessPool" in str(failed.value)
                assert server.idle_workers() == 0  # broken: no offloads
                result, response = client.check(*map(aag_text, fast))
                assert response["verdict"] == "equivalent"
                certify(result, pair=fast)
                stats = client.stats()
            assert stats["counters"]["service/pool-replacements"] == 1
            assert server.idle_workers() == 1
        finally:
            server.close()

    def test_jobs_queued_behind_a_killed_worker_run_on_the_new_pool(
            self, tmp_path):
        # The dead worker's pool fails every job it held; add08, queued
        # behind the killed job, never started and runs on the
        # replacement pool instead of failing with it.
        before = {child.pid for child in multiprocessing.active_children()}
        server = CecServer(str(tmp_path / "q.sock"), workers=1,
                           progress_interval=0.01)
        server.start()
        try:
            [worker] = [child for child in multiprocessing.active_children()
                        if child.pid not in before]
            slow = (array_multiplier(7), wallace_multiplier(7))
            fast = by_name("add08").build()
            with ServiceClient(server.address) as client:
                killed = client.submit(*map(aag_text, slow))["job"]
                queued = client.submit(*map(aag_text, fast))
                assert queued["state"] == "queued"
                deadline = time.monotonic() + 60
                while client.progress(killed)["progress"] is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                os.kill(worker.pid, signal.SIGKILL)
                with pytest.raises(ServiceError) as failed:
                    client.result(killed, wait=True)
                assert failed.value.code == protocol.ERR_WORKER_FAILED
                response = client.result(queued["job"], wait=True)
                assert response["state"] == "done"
                assert response["verdict"] == "equivalent"
                certify(result_from_dict(response["result"]), pair=fast)
                stats = client.stats()
            assert stats["counters"]["service/pool-replacements"] == 1
            assert stats["counters"]["service/jobs-failed"] == 1
        finally:
            server.close()

    def test_a_pool_shut_down_by_the_server_still_refuses(
            self, tmp_path, adder_pair):
        server = CecServer(str(tmp_path / "s.sock"), workers=1)
        try:
            server._executor.shutdown(wait=True)
            response = server._submit(
                {"aag_a": adder_pair[0], "aag_b": adder_pair[1]},
                cache_only=False,
            )
            assert response["error"]["code"] == protocol.ERR_SHUTTING_DOWN
            assert server.recorder.counter("service/pool-replacements") == 0
        finally:
            server.close()


class TestServerClose:
    def test_close_with_metrics_endpoint_is_idempotent(self):
        server = CecServer(
            "127.0.0.1:0", workers=0, metrics_address="127.0.0.1:0",
        )
        assert server.metrics_address is not None
        server.close()
        assert server.metrics_address is None
        server.close()  # second close must be a no-op

    def test_concurrent_close_and_metrics_reads(self):
        # close() swaps self._metrics_http under the lock; hammering
        # metrics_address from other threads while closing must never
        # raise on a half-torn-down endpoint.
        server = CecServer(
            "127.0.0.1:0", workers=0, metrics_address="127.0.0.1:0",
        )
        errors = []

        def read():
            for _ in range(200):
                try:
                    server.metrics_address
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        for thread in readers:
            thread.start()
        server.close()
        for thread in readers:
            thread.join()
        assert errors == []


class TestRecorderThreadSafety:
    def test_concurrent_mutation_is_consistent(self):
        recorder = Recorder()
        rounds = 500
        threads = 8

        def hammer(index):
            for _ in range(rounds):
                recorder.count("service/jobs-submitted")
                recorder.add_time("service/job", 0.001)
                recorder.gauge("service/queue-depth", index)
                with recorder.phase("cache/lookup"):
                    pass

        workers = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        report = validate_report(recorder.report())
        expected = rounds * threads
        assert report["counters"]["service/jobs-submitted"] == expected
        assert report["phases"]["service/job"]["count"] == expected
        assert report["phases"]["cache/lookup"]["count"] == expected

    def test_phase_stacks_are_thread_local(self):
        recorder = Recorder()
        seen = []
        barrier = threading.Barrier(2)

        def outer(name):
            with recorder.phase(name):
                barrier.wait(timeout=5)
                with recorder.phase("inner"):
                    pass
            seen.append(name)

        a = threading.Thread(
            target=outer, args=("service/check",), daemon=True
        )
        b = threading.Thread(
            target=outer, args=("service/certify",), daemon=True
        )
        a.start()
        b.start()
        a.join()
        b.join()
        phases = recorder.report()["phases"]
        # Each thread's inner phase nests under its own outer phase.
        assert "service/check/inner" in phases
        assert "service/certify/inner" in phases
        assert "service/check/certify" not in phases
        assert sorted(seen) == ["service/certify", "service/check"]


class TestResultDocumentFromWire:
    def test_wire_document_round_trips(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            _, response = client.check(*adder_pair)
        rebuilt = result_from_dict(response["result"])
        assert result_to_dict(rebuilt) == response["result"]


DATA = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "examples", "data"
)
ADD08 = [os.path.join(DATA, "add08_a.aag"), os.path.join(DATA, "add08_b.aag")]


def _drop_last_antecedent(document):
    lines = document["proof"].splitlines()
    parts = lines[-1].split()
    del parts[-2]
    document["proof"] = "\n".join(lines[:-1] + [" ".join(parts)]) + "\n"


def _add_foreign_proof_axiom(document):
    # (1 2) is no clause of Tseitin(miter) plus the output unit: its
    # two-literal clauses all hold a negative literal.
    lines = document["proof"].splitlines()
    next_id = int(lines[-1].split()[0]) + 1
    document["proof"] += "%d 1 2 0 0\n" % next_id


def _file_another_querys_certificate(document):
    # A valid certificate, but of cmp10: filed under add08's key, it
    # must not pass as add08's answer.
    cmp10 = [os.path.join(DATA, "cmp10_a.aag"),
             os.path.join(DATA, "cmp10_b.aag")]
    result = check_equivalence(*(read_aag(path) for path in cmp10))
    certify(result)
    document.clear()
    document.update(result_to_dict(result))


class TestCorruptCertificateFromCache:
    """A cache entry corrupted or mis-filed on disk reaches each
    certifying client as ``certificate INVALID`` and exit 3, never a
    traceback or a verdict."""

    @staticmethod
    def _tamper(server, mutate):
        (path,) = glob.glob(
            os.path.join(server.cache.root, "*", "*", "result.json")
        )
        with open(path) as handle:
            document = json.load(handle)
        mutate(document)
        with open(path, "w") as handle:
            json.dump(document, handle)

    @pytest.mark.parametrize(
        "mutate", [_drop_last_antecedent, _file_another_querys_certificate],
    )
    def test_repro_client_certify_local(self, server, mutate, capsys):
        argv = ["--server", server.address, "submit", *ADD08, "--wait",
                "--certify-local"]
        assert client_cli.main(argv) == EXIT_OK
        self._tamper(server, mutate)
        capsys.readouterr()
        assert client_cli.main(argv) == EXIT_INVALID_INPUT
        assert "certificate INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate", [_drop_last_antecedent, _file_another_querys_certificate],
    )
    def test_repro_cec_server_certify(self, server, mutate, capsys):
        argv = [*ADD08, "--server", server.address, "--certify", "--quiet"]
        assert cli.main(argv) == EXIT_OK
        self._tamper(server, mutate)
        capsys.readouterr()
        assert cli.main(argv) == EXIT_INVALID_INPUT
        assert "certificate INVALID" in capsys.readouterr().err

    def test_repro_cec_server_rejects_a_foreign_axiom(self, server, capsys):
        # The document decodes, but its proof has an axiom outside
        # the miter's axiom set.
        argv = [*ADD08, "--server", server.address, "--certify", "--quiet"]
        assert cli.main(argv) == EXIT_OK
        self._tamper(server, _add_foreign_proof_axiom)
        capsys.readouterr()
        assert cli.main(argv) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "certificate INVALID" in err
        assert "not a clause of the reference CNF" in err


class TestResultTimeoutValidation:
    @pytest.mark.parametrize("timeout", ["soon", [1], -1, True, {"s": 1}])
    def test_bad_timeout_is_an_invalid_request(
        self, server, adder_pair, timeout,
    ):
        with ServiceClient(server.address) as client:
            job = client.submit(*adder_pair)["job"]
            with pytest.raises(ServiceError) as err:
                client.request({"verb": "result", "job": job, "wait": True,
                                "timeout": timeout})
            assert err.value.code == protocol.ERR_INVALID_REQUEST
            # The connection survives and the job still answers.
            response = client.result(job, wait=True)
        assert response["verdict"] == "equivalent"

    @pytest.mark.parametrize("timeout", [None, 0, 2.5, 60])
    def test_good_timeouts_are_accepted(self, server, adder_pair, timeout):
        with ServiceClient(server.address) as client:
            job = client.submit(*adder_pair)["job"]
            client.result(job, wait=True)
            response = client.request({"verb": "result", "job": job,
                                       "wait": True, "timeout": timeout})
        assert response["verdict"] == "equivalent"
