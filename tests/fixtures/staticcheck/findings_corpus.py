"""Golden corpus: one deliberate instance of every C-rule.

The expected findings (exact rule codes, lines, and messages) live in
``findings_corpus.expected``; the conformance test fails on any drift
in either direction — a new false positive and a lost true positive
both break the byte-exact comparison.
"""

from repro.simkernel import Lock, Timeout

SHARED_REGISTRY = {}


class CorpusWorker:
    def __init__(self, sim):
        self.sim = sim
        self.lock_a = Lock(sim)
        self.lock_b = Lock(sim)

    def hold_across_wait(self):
        yield self.lock_a.acquire()
        try:
            yield self.sim.timeout(1.0)
        finally:
            self.lock_a.release()

    def forward(self):
        yield self.lock_a.acquire()
        try:
            yield self.lock_b.acquire()
            self.lock_b.release()
        finally:
            self.lock_a.release()

    def backward(self):
        yield self.lock_b.acquire()
        try:
            yield self.lock_a.acquire()
            self.lock_a.release()
        finally:
            self.lock_b.release()

    def write_registry(self, key):
        yield self.sim.timeout(0.1)
        SHARED_REGISTRY[key] = self.sim.now

    def drop_timer(self):
        orphan = self.sim.timeout(5.0)
        yield self.sim.timeout(0.1)


class ControllerManager:
    def __init__(self, sim, client, store):
        self.sim = sim
        self.client = client
        self.store = store

    def reconcile(self, ops):
        yield self.client.transaction([], ops)
        self.store.put("/registry/x", b"value")
