#!/usr/bin/env python3
"""Validate an `existctl --self-trace` Chrome trace-event JSON file.

Checks the properties the observability PR promises (DESIGN.md §14):

  - the file parses as JSON with a ``traceEvents`` array;
  - at least ``--min-categories`` distinct span categories appear;
  - both clock domains are present: real-clock events on pid 1 and
    sim-clock events on pids >= 100;
  - duration events balance: every "B" has a matching "E" per
    (pid, tid), with proper nesting;
  - flow links pair up: every flow id with an "s" also has an "f";
  - process/thread metadata names the pids/tids that carry events;
  - each ``--nested PARENT/CHILD`` span opens at least once while its
    PARENT is open on the same thread.

Exit status 0 when all hold, 1 with a diagnostic otherwise.
"""
import argparse
import collections
import json
import sys


def fail(msg):
    print("check_selftrace: FAIL: %s" % msg, file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace", help="self-trace JSON file")
    ap.add_argument("--min-categories", type=int, default=8)
    ap.add_argument("--nested", action="append", default=[],
                    metavar="PARENT/CHILD",
                    help="require a CHILD span opened inside PARENT")
    args = ap.parse_args()

    with open(args.trace, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("no traceEvents array")

    cats = set()
    pids = set()
    open_stacks = collections.defaultdict(list)
    flows = collections.defaultdict(set)
    named_pids = set()
    named_tids = set()
    event_pids = set()
    event_tids = set()
    nested = set()

    for e in events:
        ph = e.get("ph")
        pid, tid = e.get("pid"), e.get("tid")
        if ph == "M":
            if e.get("name") == "process_name":
                named_pids.add(pid)
            elif e.get("name") == "thread_name":
                named_tids.add((pid, tid))
            continue
        event_pids.add(pid)
        event_tids.add((pid, tid))
        if e.get("cat"):
            cats.add(e["cat"])
        pids.add(pid)
        if ph == "B":
            for parent in open_stacks[(pid, tid)]:
                nested.add("%s/%s" % (parent, e.get("name")))
            open_stacks[(pid, tid)].append(e.get("name"))
        elif ph == "E":
            stack = open_stacks[(pid, tid)]
            if not stack:
                return fail("unmatched E on pid=%s tid=%s" % (pid, tid))
            stack.pop()
        elif ph in ("s", "f"):
            flows[e.get("id")].add(ph)

    for key, stack in open_stacks.items():
        if stack:
            return fail("unclosed B %r on pid=%s tid=%s"
                        % (stack[-1], key[0], key[1]))
    for fid, phases in flows.items():
        if phases != {"s", "f"}:
            return fail("flow %s has only %s" % (fid, sorted(phases)))

    for want in args.nested:
        if want not in nested:
            parent, _, child = want.partition("/")
            return fail("no %s span inside %s" % (child, parent))

    if len(cats) < args.min_categories:
        return fail("only %d categories (%s); need >= %d"
                    % (len(cats), ", ".join(sorted(cats)),
                       args.min_categories))
    if 1 not in pids:
        return fail("no real-clock events (pid 1)")
    if not any(isinstance(p, int) and p >= 100 for p in pids):
        return fail("no sim-clock events (pid >= 100)")
    if not event_pids <= named_pids:
        return fail("pids without process_name metadata: %s"
                    % sorted(event_pids - named_pids))
    if not event_tids <= named_tids:
        return fail("tids without thread_name metadata: %s"
                    % sorted(event_tids - named_tids))

    print("check_selftrace: OK: %d events, %d categories (%s), "
          "%d pids, flows balanced"
          % (sum(1 for e in events if e.get("ph") != "M"),
             len(cats), ", ".join(sorted(cats)), len(pids)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
