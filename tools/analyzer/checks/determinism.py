"""Check 4: determinism.

Everything that keeps reports byte-identical at the source level.
Two kinds of rule share one check:

Dataflow rules over the parsed functions, alias-aware (follows
`using` aliases to the underlying container) and taint-aware
(iteration order escaping through a collected-into local or a return
value is still a violation, even when the serialization loop itself
runs over an innocent std::vector):

  unordered-iteration      iterating an unordered container either
                           (a) inside the bit-identical-output
                           subsystems, or (b) anywhere, when the loop
                           body feeds a serialization sink
  unordered-taint-return   returning a container populated in
                           unordered iteration order without sorting

Mitigation is recognized in-function: passing the collected container
to std::sort (or member .sort()) clears the taint.

Lexical rules, where a spelling alone is the finding (the frontend
records every match; LEXICAL_RULES below scopes each one):

  raw-rand                 rand()/srand()/drand48() and friends,
                           std::random_device, std engines
                           (mt19937, ranlux*, ...) outside
                           util/rng.h: randomness must flow through
                           exist::Rng streams so results depend only
                           on (seed, id), never on draw order
  time-seeded-rng          a seed/Rng/rng expression reading the wall
                           clock (time(), clock(), *_clock::now) on
                           the same line: every run would differ
  raw-file-io              fopen/freopen/std::ofstream/std::fstream
                           outside src/durability/ and the cluster
                           storage layer: durable bytes must flow
                           through the checksummed, crash-point-
                           instrumented WAL/snapshot code
  obs-read-back            the self-trace plane's read side
                           (obs::snapshot, chromeTraceJson,
                           flightDump*, the obs counters) outside
                           src/obs/: span emission must never feed
                           report bytes
  pointer-keyed-container  a std::{unordered_,}{map,set,multimap,
                           multiset} keyed by a raw pointer anywhere
                           in the bit-identical-output subsystems
                           (members, parameters, locals, statics,
                           aliases): addresses vary across runs, so
                           the order does too
"""

from __future__ import annotations

import re

from ast_model import Finding

# Subsystems whose outputs must be bit-identical across runs.
ORDERED_OUTPUT_DIRS = (
    "src/analysis/", "src/cluster/", "src/decode/", "src/core/",
    "src/hwtrace/",
)
RNG_HOME = "src/util/rng.h"
# The durability plane (WAL + snapshots own all persistent bytes) and
# the simulated cluster storage layer.
FILE_IO_HOMES = ("src/durability/", "src/cluster/storage")
# The self-observability plane reads itself back; CLI, bench and test
# consumers live outside src/.
OBS_READ_HOMES = ("src/obs/",)

# rule -> (does it apply to this path?, why a match is a finding)
LEXICAL_RULES = {
    "raw-rand": (
        lambda path: path != RNG_HOME,
        "outside util/rng.h; draw from an exist::Rng stream so results "
        "depend only on (seed, id)"),
    "time-seeded-rng": (
        lambda path: True,
        "seeds an RNG from the wall clock; every run would differ"),
    "raw-file-io": (
        lambda path: not path.startswith(FILE_IO_HOMES),
        "outside src/durability/ and cluster storage; durable bytes "
        "must go through the WAL/snapshot code that recovery sees"),
    "obs-read-back": (
        lambda path: not path.startswith(OBS_READ_HOMES),
        "reads the self-trace plane back outside src/obs/; span "
        "timing must never feed report bytes"),
    "pointer-keyed-container": (
        lambda path: path.startswith(ORDERED_OUTPUT_DIRS),
        "is keyed by pointer value in a bit-identical-output "
        "subsystem; addresses vary across runs, so any ordered walk "
        "is nondeterministic"),
}

_ID_RE = re.compile(r"[A-Za-z_]\w*")


def _expr_tail(expr: str) -> str:
    ids = _ID_RE.findall(expr)
    return ids[-1] if ids else ""


def _is_unordered(index, f, tail: str) -> bool:
    """Is identifier `tail` (local or member) of unordered type?"""
    t = f.local_types.get(tail)
    if t is not None:
        return index.is_unordered_type(t) or "unordered_" in t
    cls = f.cls
    for qname, c in index.classes.items():
        if not cls or ("::" + cls + "::") not in ("::" + qname + "::"):
            continue
        for m in c.members:
            if m.name == tail:
                return m.is_unordered or \
                    index.is_unordered_type(m.type_text)
    return False


def run(index) -> list[Finding]:
    findings: list[Finding] = []

    for q, f in index.functions.items():
        in_ordered_dir = f.file.startswith(ORDERED_OUTPUT_DIRS)
        tainted: set[str] = set()
        for it in f.iters:
            tail = _expr_tail(it.container)
            unordered = _is_unordered(index, f, tail)
            taint_src = tail in tainted
            if not unordered and not taint_src:
                continue
            origin = ("unordered container" if unordered
                      else "container populated in unordered order")
            if it.sink_calls:
                findings.append(Finding(
                    check="determinism", rule="unordered-iteration",
                    file=f.file, line=it.sink_line or it.line,
                    message=f"loop over {origin} '{it.container}' "
                            f"feeds serialization sink "
                            f"'{it.sink_calls[0]}'; iteration order is "
                            "nondeterministic",
                    function=q))
            elif unordered and in_ordered_dir and not (
                    it.collects_into and
                    it.collects_into in f.sorted_idents):
                # Collect-then-sort is the sanctioned mitigation; a
                # bare unordered walk in these subsystems is not.
                findings.append(Finding(
                    check="determinism", rule="unordered-iteration",
                    file=f.file, line=it.line,
                    message=f"iteration over {origin} "
                            f"'{it.container}' in a "
                            "bit-identical-output subsystem; order "
                            "must not observably leak",
                    function=q))
            if it.collects_into and \
                    it.collects_into not in f.sorted_idents:
                tainted.add(it.collects_into)
        for r in f.returned_idents:
            if r in tainted and r not in f.sorted_idents:
                findings.append(Finding(
                    check="determinism", rule="unordered-taint-return",
                    file=f.file, line=f.line,
                    message=f"'{q.rsplit('::', 1)[-1]}' returns "
                            f"'{r}', populated in unordered iteration "
                            "order and never sorted; callers inherit "
                            "the nondeterminism",
                    function=q))
                break

    for tu in index.tus:
        for rule, line, spelling in tu.lexical:
            scope = LEXICAL_RULES.get(rule)
            if scope is not None and scope[0](tu.path):
                findings.append(Finding(
                    check="determinism", rule=rule, file=tu.path,
                    line=line, message=f"{spelling} {scope[1]}"))
    return findings
