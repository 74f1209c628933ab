"""Typed API client with client-side throttling and retries (client-go).

Every tenant control plane enables "Kubernetes built-in rate limit
control" (paper §III-C): this is the client-side QPS/burst token bucket
that smooths bursts into the apiserver, plus retry-with-backoff on
retryable API errors and on write conflicts where safe.
"""

from repro.apiserver.errors import Conflict, is_retryable
from repro.apiserver.ratelimit import TokenBucket


class Kubeconfig:
    """Access credential + server handle for one control plane."""

    __slots__ = ("api", "credential", "cluster_name")

    def __init__(self, api, credential, cluster_name=None):
        self.api = api
        self.credential = credential
        self.cluster_name = cluster_name or api.name

    def client(self, sim, **kwargs):
        return Client(sim, self.api, self.credential, **kwargs)


class Client:
    """A throttled, retrying client bound to one credential."""

    def __init__(self, sim, api, credential, qps=50.0, burst=100,
                 user_agent="client", max_retries=4, cpu_account=None):
        self.sim = sim
        self.api = api
        self.credential = credential
        self.user_agent = user_agent
        self.max_retries = max_retries
        self.cpu_account = cpu_account
        self._bucket = TokenBucket(sim, qps, burst,
                                   name=f"{user_agent}-qps")
        # Chaos hook (see repro.chaos.faults.NetworkPartition): when set,
        # requests from *this client only* can be failed, modelling a
        # network partition between this client and its apiserver while
        # the apiserver itself stays up for everyone else.
        self.fault_injector = None
        # Topology hook (see repro.network.link.NetworkLink): when set,
        # every request from this client traverses a simulated WAN/edge
        # uplink — added latency plus probabilistic loss surfaced as a
        # retryable ServerUnavailable.
        self.link = None
        # Watch streams this client opened, so a partition can sever them.
        self._watch_streams = []

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _call(self, op, *args, retry_conflicts=False, **kwargs):
        """Coroutine: throttle, invoke, retry retryable failures."""
        attempt = 0
        while True:
            yield from self._bucket.acquire()
            if self.cpu_account is not None:
                self.cpu_account.charge(0.00005)
            try:
                if self.fault_injector is not None:
                    self.fault_injector.check()
                if self.link is not None:
                    yield from self.link.traverse()
                result = yield from op(self.credential, *args, **kwargs)
                return result
            except Exception as exc:  # noqa: BLE001 - classified below
                retryable = is_retryable(exc) or (
                    retry_conflicts and isinstance(exc, Conflict))
                attempt += 1
                if not retryable or attempt > self.max_retries:
                    raise
                hint = getattr(exc, "retry_after", None)
                if hint:
                    # A server-provided Retry-After (APF shedding) wins
                    # over the exponential schedule; one-sided jitter
                    # decorrelates the herd that was shed together.
                    backoff = hint * (1.0 + 0.5 * self.sim.rng.random())
                else:
                    backoff = min(0.1 * (2 ** (attempt - 1)), 2.0)
                yield self.sim.timeout(backoff)

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------

    def create(self, obj, namespace=None):
        return self._call(self.api.create, obj, namespace=namespace)

    def get(self, plural, name, namespace=None):
        return self._call(self.api.get, plural, name, namespace=namespace)

    def list(self, plural, namespace=None, label_selector=None,
             field_selector=None):
        return self._call(self.api.list, plural, namespace=namespace,
                          label_selector=label_selector,
                          field_selector=field_selector)

    def update(self, obj):
        return self._call(self.api.update, obj)

    def update_status(self, obj):
        return self._call(self.api.update, obj, subresource="status")

    def patch(self, plural, name, patch, namespace=None):
        return self._call(self.api.patch, plural, name, patch,
                          namespace=namespace, retry_conflicts=True)

    def delete(self, plural, name, namespace=None):
        return self._call(self.api.delete, plural, name, namespace=namespace)

    def transaction(self, ops, fencing=None):
        """Batch of write ops as one request (see APIServer.transaction).

        One token-bucket acquire and one request round trip for the whole
        batch; per-op API errors come back in the result list rather than
        raising.  ``fencing`` is the optional (domain, token) guard an
        HA leader stamps on its downward writes.
        """
        return self._call(self.api.transaction, ops, fencing=fencing)

    def bind_pod(self, name, namespace, node_name):
        return self._call(self.api.bind_pod, name, namespace, node_name)

    def watch(self, plural, namespace=None, from_revision=None,
              label_selector=None, field_selector=None):
        """Open a watch (synchronous; server-side registration)."""
        if self.fault_injector is not None:
            self.fault_injector.check()
        if self.link is not None:
            self.link.check()
        stream = self.api.watch(self.credential, plural, namespace=namespace,
                                from_revision=from_revision,
                                label_selector=label_selector,
                                field_selector=field_selector)
        self._watch_streams = [s for s in self._watch_streams if not s.closed]
        self._watch_streams.append(stream)
        return stream

    def sever_watches(self):
        """Close every watch stream this client holds open (used by the
        partition fault: an established stream dies with the link)."""
        streams, self._watch_streams = self._watch_streams, []
        for stream in streams:
            if not stream.closed:
                stream.stop()
