"""Job bookkeeping for the CEC server: states, table, bounded admission.

A :class:`Job` tracks one submitted equivalence check from admission to
a terminal state. The :class:`JobTable` owns every job the server has
seen, enforces the bounded queue (admission fails with
:class:`QueueFullError` once the number of non-terminal jobs reaches
the limit — the server turns that into a structured ``queue-full``
response, never a crash), and is the single synchronization point
between handler threads and the worker pool's completion callbacks.
"""

import collections
import itertools
import threading
import time

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States from which a job can no longer change.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class QueueFullError(Exception):
    """Admission rejected: the bounded job queue is at capacity."""

    def __init__(self, limit):
        Exception.__init__(
            self, "job queue is full (%d jobs pending)" % limit
        )
        self.limit = limit


class Job:
    """One submitted equivalence check.

    Attributes:
        id: server-assigned job id (stable for the server's lifetime).
        key: structural-hash cache key of the query.
        state: one of the state constants above.
        cached: True when the answer came from the proof cache.
        verdict: ``"equivalent" | "not_equivalent" | "undecided"`` once
            done.
        result: the ``repro-cec-result/2`` document once done.
        error: ``{"code", "message"}`` once failed/cancelled.
        worker_stats: the worker's ``repro-stats/1`` report (None for
            cache hits — nothing ran).
        job_stats: the *server-side* ``repro-stats/1`` report for this
            job (cache lookup, queue wait, dispatch); on a cache hit
            this is the only stats block, and it records no solver
            phases.
        trace: the stitched ``repro-trace/1`` document once terminal
            (server-side spans plus the worker's), or None when the
            server records no spans for the job.
        progress_path: heartbeat spool file holding the newest
            ``repro-progress/1`` document the worker wrote while the
            job runs (None when progress is disabled or the job was
            cached).
        progress: the job's last observed heartbeat document; kept
            after the spool file is harvested at completion so late
            ``progress`` queries still see the final sample.
        recorder: the per-job server-side recorder; owned by the
            server, which uses it to assemble ``job_stats``/``trace``.
        span_id: span id of the job's root ``service/job`` span — the
            parent the worker's top-level phases attach under.
        payload: the worker request while the job is in the pool, kept
            so that a job a broken pool never started can run again.
    """

    def __init__(self, job_id, key=None):
        self.id = job_id
        self.key = key
        self.state = QUEUED
        self.cached = False
        self.verdict = None
        self.result = None
        self.error = None
        self.worker_stats = None
        self.job_stats = None
        self.trace = None
        self.recorder = None
        self.span_id = None
        self.trace_parent = None
        self.progress_path = None
        self.progress = None
        self.future = None
        self.payload = None
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None
        self._terminal = threading.Event()

    # ------------------------------------------------------------------
    # Transitions (called under the table lock or from the completion
    # callback; the event makes terminal-state waits race-free).
    # ------------------------------------------------------------------

    def finish(self, verdict, result, worker_stats=None, cached=False):
        self.verdict = verdict
        self.result = result
        self.worker_stats = worker_stats
        self.cached = cached
        self.state = DONE
        self.finished_at = time.time()
        self._terminal.set()

    def fail(self, code, message, cancelled=False):
        self.error = {"code": code, "message": message}
        self.state = CANCELLED if cancelled else FAILED
        self.finished_at = time.time()
        self._terminal.set()

    def wait(self, timeout=None):
        """Block until the job is terminal; True when it is."""
        return self._terminal.wait(timeout)

    @property
    def is_terminal(self):
        return self.state in TERMINAL_STATES

    def elapsed_seconds(self):
        """Wall time from submission to completion (or now)."""
        end = self.finished_at if self.finished_at is not None else time.time()
        return end - self.submitted_at

    def queue_wait_seconds(self):
        """Wall time from admission to the worker's start."""
        if self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)

    def snapshot(self):
        """JSON-compatible status block (no result payload)."""
        return {
            "job": self.id,
            "state": self.state,
            "cached": self.cached,
            "verdict": self.verdict,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds(),
        }


class JobTable:
    """Thread-safe registry of all jobs plus bounded admission.

    The pool runs jobs in admission order, one per worker, so the table
    knows which admitted jobs are running without asking the pool: the
    oldest ``workers`` unfinished ones. A job is admitted ``running``
    when a worker is free and ``queued`` otherwise, and each job that
    leaves promotes the oldest queued one. (When a worker actually
    picks a job up is known only from the worker's own start stamp,
    which the server copies into ``started_at`` once the job finishes.)

    Args:
        queue_limit: maximum number of *non-terminal* jobs (queued or
            running, across the whole pool). ``admit`` raises
            :class:`QueueFullError` beyond it.
        retain_terminal: how many terminal jobs (with their full result
            documents) to keep for late ``status``/``result`` queries.
            Older terminal jobs are evicted so a persistent server's
            memory stays bounded over its lifetime; querying an evicted
            job answers ``unknown job``. Non-terminal jobs are never
            evicted.
        workers: how many jobs the pool runs at once.
    """

    #: Default number of finished jobs retained for late queries.
    DEFAULT_RETAIN_TERMINAL = 256

    def __init__(self, queue_limit=32, retain_terminal=None, workers=1):
        self.queue_limit = queue_limit
        self.workers = workers
        self.retain_terminal = (
            self.DEFAULT_RETAIN_TERMINAL
            if retain_terminal is None else retain_terminal
        )
        self._lock = threading.Lock()
        self._jobs = {}
        self._pending = 0
        self._queued = collections.deque()
        self._terminal_order = collections.deque()
        self._ids = itertools.count(1)

    def new_job_id(self):
        return "j%06d" % next(self._ids)

    def admit(self, key=None):
        """Create, register, and return a new job (bounded).

        Raises:
            QueueFullError: when the pending-job cap is reached.
        """
        with self._lock:
            if self._pending >= self.queue_limit:
                raise QueueFullError(self.queue_limit)
            job = Job(self.new_job_id(), key=key)
            self._jobs[job.id] = job
            self._pending += 1
            self._queued.append(job)
            self._promote()
            return job

    def add_terminal(self, key=None):
        """Register a job that is already answered (cache hits).

        Cache hits never occupy queue capacity.
        """
        with self._lock:
            job = Job(self.new_job_id(), key=key)
            self._jobs[job.id] = job
            return job

    def release(self, job):
        """Account a job's transition to a terminal state (idempotent
        per job: call exactly once when the job leaves the queue)."""
        with self._lock:
            if self._pending > 0:
                self._pending -= 1
            if job in self._queued:  # cancelled before a worker took it
                self._queued.remove(job)
            self._promote()

    def _promote(self):
        while self._queued and \
                self._pending - len(self._queued) < self.workers:
            self._queued.popleft().state = RUNNING

    def queued(self):
        """The admitted jobs no worker runs yet, oldest first."""
        with self._lock:
            return list(self._queued)

    def note_terminal(self, job):
        """Record that *job* reached a terminal state; evict the oldest
        terminal jobs beyond ``retain_terminal`` so the table (and the
        result payloads it holds) stays bounded on a long-lived server.
        """
        with self._lock:
            self._terminal_order.append(job.id)
            while len(self._terminal_order) > self.retain_terminal:
                old_id = self._terminal_order.popleft()
                old = self._jobs.get(old_id)
                if old is not None and old.is_terminal:
                    del self._jobs[old_id]

    def get(self, job_id):
        """The job registered under *job_id*, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def pending(self):
        """Number of queued/running jobs."""
        with self._lock:
            return self._pending

    def __len__(self):
        with self._lock:
            return len(self._jobs)
