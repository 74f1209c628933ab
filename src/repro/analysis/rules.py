"""The analysis rule catalog: determinism (D-pack) and concurrency
(C-pack) rules.

Each D-rule names one mechanism by which a code path can make a
scheduling-visible decision that is not a pure function of the
simulation seed — exactly the failures that silently break the repo's
byte-identical-convergence and chaos-replay claims.  They are checked
per-module by :mod:`repro.analysis.linter`.

Each C-rule names one concurrency or protocol hazard that is visible
in the source but only *manifests* under a particular schedule — the
bug classes the vector-clock race detector can catch only dynamically,
per-schedule, and that PR 9's kernel sweep fixed by hand.  They are
checked whole-program by :mod:`repro.analysis.staticcheck`, which
builds a project-wide symbol table and call graph first.

Suppression syntax
------------------

A finding can be acknowledged in place with a trailing comment::

    items = list(self._members)  # repro: allow[D003] snapshot, order unused

Multiple codes are comma-separated: ``# repro: allow[D003,D004]``.
Unknown codes are rejected (finding ``D000``), and under ``--strict``
a suppression on a line with no matching finding fails the run as
*stale*.  File-scoped exceptions live in the committed allowlist (see
:func:`repro.analysis.linter.load_allowlist`).
"""


class Rule:
    """One lint rule: code, title, and the rationale shown by ``rules``."""

    __slots__ = ("code", "title", "rationale")

    def __init__(self, code, title, rationale):
        self.code = code
        self.title = title
        self.rationale = rationale


RULES = {
    "D000": Rule(
        "D000", "invalid or stale suppression",
        "A '# repro: allow[...]' comment names an unknown rule code, or "
        "(--strict) suppresses a finding that no longer exists on that "
        "line.  Meta-rule: D000 itself cannot be suppressed."),
    "D001": Rule(
        "D001", "wall-clock time outside the sim clock",
        "Calls to time.time/monotonic/perf_counter/sleep or "
        "datetime.now/utcnow/today leak host wall-clock into the "
        "simulation.  Every timestamp must come from sim.now so two "
        "same-seed runs read identical clocks."),
    "D002": Rule(
        "D002", "module-level or unseeded randomness",
        "Calls through the module-level random generator (random.random, "
        "random.choice, ...) or random.SystemRandom share hidden global "
        "state seeded from the OS.  All draws must come from a "
        "random.Random(seed) owned by the simulation or chaos engine."),
    "D003": Rule(
        "D003", "unordered-set iteration reaching an ordering-sensitive sink",
        "Iterating a set (or frozenset / set expression) yields elements "
        "in hash order, which for strings varies per process with "
        "PYTHONHASHSEED — event fan-out, queue insertion, or list "
        "building driven by it diverges across runs.  Wrap the iterable "
        "in sorted(...) or keep an insertion-ordered dict.  Plain dict "
        "views (.keys()/.values()/.items()) are insertion-ordered in "
        "CPython >= 3.7 and therefore exempt."),
    "D004": Rule(
        "D004", "object identity used for ordering or keying",
        "id(obj) (and key=id sorts) depend on allocation addresses, "
        "which differ across processes and runs.  Allowed only inside "
        "__repr__/__str__/__format__, where the value is display-only."),
    "D005": Rule(
        "D005", "float accumulation feeding an event priority",
        "An augmented float accumulation (x += dt) on a value used as a "
        "heap priority or timeout delay drifts by accumulated rounding "
        "error; two code paths computing the 'same' priority can "
        "disagree in the last ulp and flip event order.  Recompute "
        "priorities absolutely (base + k*step) instead."),
    "D006": Rule(
        "D006", "non-canonical bytes fed to a stable hash",
        "crc32/hashlib inputs built from repr(), id(), hash(), or "
        "str() of a non-string depend on memory addresses or per-process "
        "hash seeds, so 'stable' routing or digests silently stop being "
        "stable (e.g. tenant->shard routing must hash canonical bytes)."),
    "C000": Rule(
        "C000", "invalid or stale staticcheck suppression",
        "A '# repro: allow[...]' comment names a C-rule with no matching "
        "staticcheck finding on that line (--strict), or an allowlist "
        "entry for a C-rule matches nothing.  Meta-rule: C000 itself "
        "cannot be suppressed."),
    "C001": Rule(
        "C001", "blocking kernel wait while holding a lock",
        "A sim process yields a blocking kernel wait (sim.timeout, "
        "any_of/all_of, a Condition) between Lock/Semaphore acquire and "
        "release.  Every other process needing that lock stalls for the "
        "full wait — and if the wait can only be satisfied by a process "
        "that needs the lock, the simulation deadlocks.  Model timed "
        "critical sections deliberately or release before waiting."),
    "C002": Rule(
        "C002", "lock-order inversion (deadlock cycle)",
        "The interprocedural lock-acquisition graph — an edge A->B when "
        "lock B is acquired (possibly through calls) while A is held — "
        "contains a cycle.  Two processes entering the cycle from "
        "different edges deadlock under the right schedule; the kernel's "
        "FIFO locks make this unrecoverable.  Acquire locks in one "
        "global order."),
    "C003": Rule(
        "C003", "module-level mutable state written from sim-process code",
        "A module-level dict/list/set/counter is mutated from code "
        "reachable by sim processes without a registered happens-before "
        "carrier.  It leaks state across Simulation instances in one "
        "interpreter (two same-seed sims minting different container "
        "serials, say), which breaks run-to-run determinism.  Own the "
        "state per-sim, or mark the definition "
        "'# repro: hb-carrier[why]' if access is provably "
        "kernel-ordered."),
    "C004": Rule(
        "C004", "orphaned Timeout/Event (created and dropped)",
        "A Timeout/Event is created but never awaited, cancelled, "
        "combined, stored, or returned on some path.  Orphaned timers "
        "sit in the heap/wheel until their deadline (the peak-heap blowup "
        "PR 9 fixed), and an orphaned Event that later fails crashes the "
        "run as an undefused failure with no waiter to attribute it to."),
    "C005": Rule(
        "C005", "unfenced store write from a leader-elected component",
        "A write path inside a leader-elected component (SyncerHA, "
        "ControllerManager, the ReplicatedStore coordinator) reaches the "
        "store without the fencing-token check: a transaction(...) with "
        "no fencing= argument, or a raw store put/delete/txn.  A deposed "
        "leader's in-flight writes would land after the new leader's "
        "fence barrier — the split-brain window fencing exists for."),
}

# Rule packs: prefix -> (name, checker) shown by `rules` and used to
# scope --strict staleness checks to the tool that owns the code.
RULE_PACKS = {
    "D": ("determinism", "python -m repro.analysis lint"),
    "C": ("concurrency/protocol", "python -m repro.analysis staticcheck"),
}

# Meta rules report invalid/stale suppressions and cannot themselves be
# suppressed.
META_RULES = frozenset(("D000", "C000"))

# Codes that may appear in allow[...] comments.
SUPPRESSIBLE = frozenset(code for code in RULES if code not in META_RULES)


class Finding:
    """One lint finding, pointing at a file/line/col."""

    __slots__ = ("path", "line", "col", "code", "message", "status")

    def __init__(self, path, line, col, code, message, status="active"):
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.message = message
        # "active" | "suppressed" | "allowlisted"
        self.status = status

    def format(self):
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "status": self.status,
        }

    def __repr__(self):
        return f"<Finding {self.code} {self.path}:{self.line}>"


def format_rule_catalog():
    """The ``python -m repro.analysis rules`` output (both packs)."""
    lines = ["analysis rule catalog", ""]
    for prefix in sorted(RULE_PACKS):
        pack_name, checker = RULE_PACKS[prefix]
        lines.append(f"{prefix}-pack: {pack_name} rules ({checker})")
        lines.append("")
        for code in sorted(code for code in RULES
                           if code.startswith(prefix)):
            rule = RULES[code]
            lines.append(f"{code}  {rule.title}")
            lines.append(f"      {rule.rationale}")
            lines.append("")
    lines.append("suppress in place:  # repro: allow[DXXX] justification")
    lines.append("exempt a checked happens-before carrier at its "
                 "definition:  # repro: hb-carrier[why]")
    return "\n".join(lines)
