"""Check 3: event-loop blocking ban.

The simulated fabric and the sequenced publish path are both driven
by single-threaded executors: sim/EventQueue callbacks and CommitLog
sequenced actions. A blocking primitive reachable from either stalls
every later event / every later sequence number, so the ban is on the
*reachability*, not the primitive: the pass roots a BFS at every
lambda handed to EventQueue::schedule{,After} or CommitLog::commit,
and at the named event-loop entry points in NAMED_EVENT_ROOTS
(following std::function callback slots and nested lambdas, but not
ThreadPool tasks, which run on worker threads) and reports:

  event-blocking-call  a condvar wait, sleep, file flush, thread
                       join, or future wait on any reachable path
  event-slow-mutex     acquiring a below-leaf-rank mutex that some
                       critical section in the program holds *across*
                       a blocking primitive — waiting on such a mutex
                       can block the loop for as long as the blocking
                       holder takes

Plain short-hold mutex acquisitions stay legal: the event-driven core
is allowed to synchronize, it is not allowed to wait on something
unbounded. Deliberate exceptions (the WAL's flush-on-commit
durability contract) are allowlisted with justifications rather than
special-cased here.

The pass also guards the self-tracing plane's emit side (DESIGN.md
§14): a second BFS roots at the span-emission entry points defined
under src/obs/ (begin/end/instant/flow*/sim* and the Span RAII
bodies), which run inline on every instrumented thread — including
inside EventQueue callbacks and CommitLog actions — so the bar is
stricter than for the event loop itself:

  span-blocking-call   any blocking primitive reachable from a span
                       emission entry point
  span-hot-path-lock   any mutex acquisition (even short-hold, even
                       leaf-rank) reachable from span emission — the
                       hot path must stay wait-free or a collector
                       holding the lock stalls every instrumented
                       thread at once

The read side (snapshot/export/dump under the kObs collector lock) is
not rooted: collectors are allowed to synchronize with each other.
"""

from __future__ import annotations

from ast_model import CTX_COMMIT, CTX_EVENT, LOCK_RANKS, UNRANKED, Finding

BLOCKING_CALL_TAILS = {
    "fflush", "fsync", "fdatasync", "flush", "sleep_for", "sleep_until",
    "usleep", "nanosleep", "join", "wait_for", "wait_until", "wait",
}

# Event-loop entry points that no schedule{,After} lambda leads to:
# the node kernel fires each core's run slot by calling runCore from
# its own loop (Kernel::runUntil), interleaved with the queue's events.
NAMED_EVENT_ROOTS = ("Kernel::runCore",)

KIND_DESC = {
    "condvar-wait": "condition-variable wait",
    "sleep": "sleep",
    "flush": "file flush",
    "join": "thread join",
    "future-wait": "future/timed wait",
}

# Span-emission entry points under src/obs/: everything that runs
# inline on an instrumented thread when a macro fires.  The read-side
# collectors (snapshot/chromeTraceJson/flightDump*) are deliberately
# absent — they hold the kObs lock and may block each other.
SPAN_EMIT_TAILS = {
    "begin", "end", "instant", "flowBegin", "flowEnd",
    "simInstant", "simSpan", "simFlowBegin", "simFlowEnd",
    "emitEvent", "setThreadName", "Span", "~Span",
}


def _tail(callee: str) -> str:
    for sep in (".", "->", "::"):
        if sep in callee:
            callee = callee.rsplit(sep, 1)[-1]
    return callee


def _named_root(qname: str) -> bool:
    return any(qname == r or qname.endswith("::" + r)
               for r in NAMED_EVENT_ROOTS)


def _slow_mutexes(index) -> dict[str, tuple]:
    """Mutex keys held across a blocking primitive anywhere in the
    program, mapped to one witness (function, line)."""
    slow: dict[str, tuple] = {}

    def note(tails, f, line):
        for h in tails:
            decl = index.mutex_for_expr(h, f.cls)
            if decl is not None:
                slow.setdefault(decl.key, (f.qname, line))

    for f in index.functions.values():
        for site in f.calls:
            if site.held and _tail(site.callee) in BLOCKING_CALL_TAILS:
                note(site.held, f, site.line)
        for op in f.lock_ops:
            if op.op == "wait":
                note([op.target] + list(op.held), f, op.line)
    return slow


def _path_str(path: tuple) -> str:
    tails = [p.rsplit("::", 1)[-1] if "<lambda" not in p
             else "<lambda@" + p.split("<lambda:")[1].split(":")[0] + ">"
             for p in path]
    if len(tails) > 5:
        tails = tails[:2] + ["..."] + tails[-2:]
    return " -> ".join(tails)


def _span_hot_path_findings(index) -> list[Finding]:
    roots = [q for q, f in index.functions.items()
             if f.file.startswith("src/obs/")
             and _tail(q) in SPAN_EMIT_TAILS]
    if not roots:
        return []
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for q, path in sorted(index.reachable_from(roots).items()):
        f = index.functions[q]
        for b in f.blocks:
            key = (f.file, b.line, "span-blocking-call")
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                check="event-block", rule="span-blocking-call",
                file=f.file, line=b.line,
                message=f"{KIND_DESC.get(b.kind, b.kind)} "
                        f"('{b.detail}') is reachable from span "
                        f"emission [{_path_str(path)}]",
                function=q))
        for op in f.lock_ops:
            if op.op not in ("acquire", "scoped"):
                continue
            key = (f.file, op.line, "span-hot-path-lock")
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                check="event-block", rule="span-hot-path-lock",
                file=f.file, line=op.line,
                message=f"acquires '{op.target}' on the span-emission "
                        f"hot path, which must stay wait-free "
                        f"[{_path_str(path)}]",
                function=q))
    return findings


def run(index) -> list[Finding]:
    findings_obs = _span_hot_path_findings(index)
    roots = [q for q, f in index.functions.items()
             if f.context in (CTX_EVENT, CTX_COMMIT) or _named_root(q)]
    if not roots:
        return findings_obs
    reach = index.reachable_from(roots)
    slow = _slow_mutexes(index)
    leaf = LOCK_RANKS["kLeaf"]

    findings: list[Finding] = list(findings_obs)
    seen: set[tuple] = set()
    for q, path in sorted(reach.items()):
        f = index.functions[q]
        ctx = index.functions[path[0]].context
        where = ("EventQueue callback" if ctx == CTX_EVENT
                 else "CommitLog action" if ctx == CTX_COMMIT
                 else "core run slot")
        for b in f.blocks:
            key = (f.file, b.line, "event-blocking-call")
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                check="event-block", rule="event-blocking-call",
                file=f.file, line=b.line,
                message=f"{KIND_DESC.get(b.kind, b.kind)} "
                        f"('{b.detail}') is reachable from a {where} "
                        f"[{_path_str(path)}]",
                function=q))
        for op in f.lock_ops:
            if op.op not in ("acquire", "scoped"):
                continue
            decl = index.mutex_for_expr(op.target, f.cls)
            if decl is None or decl.key not in slow:
                continue
            if decl.rank != UNRANKED and decl.rank >= leaf:
                continue
            key = (f.file, op.line, "event-slow-mutex")
            if key in seen:
                continue
            seen.add(key)
            wfn, wline = slow[decl.key]
            findings.append(Finding(
                check="event-block", rule="event-slow-mutex",
                file=f.file, line=op.line,
                message=f"acquires '{decl.key}', which "
                        f"{wfn.rsplit('::', 1)[-1]}:{wline} holds "
                        f"across a blocking call, from a {where} "
                        f"[{_path_str(path)}]",
                function=q))
    return findings
