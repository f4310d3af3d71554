"""Check 1: static lock-rank graph.

The static complement of the PR 4 runtime validator
(src/util/lock_order.{h,cc}): instead of checking the orders an
execution happens to exercise, build the full interprocedural
acquires-while-holding edge set — including edges that only exist
through CommitLog sequenced actions, EventQueue callbacks, and
std::function callback slots — and reject any edge that does not go
strictly *up* the kPool(0) < ... < kWal(45) < kStore < kMetrics <
kLeaf(100) hierarchy.

Rules
  unranked-mutex    an exist::Mutex declared without a LockRank
  lock-rank-order   acquiring rank <= a rank already held
  raw-locking       std::mutex & friends outside the wrapper homes
                    (a lexical fact: the spelling is the finding)
"""

from __future__ import annotations

from ast_model import LOCK_RANKS, RANK_NAMES, UNRANKED, Finding

WRAPPER_HOMES = (
    "src/util/thread_annotations.h",
    "src/util/lock_order.h",
    "src/util/lock_order.cc",
)


def _rank_name(rank: int) -> str:
    return RANK_NAMES.get(rank, f"rank{rank}")


def _chain_str(chain: tuple) -> str:
    parts = []
    for x in chain:
        if isinstance(x, str):
            parts.append(x.rsplit("::", 1)[-1])
    return " -> ".join(parts[:5])


def run(index) -> list[Finding]:
    findings: list[Finding] = []

    for key in sorted(index.mutex_by_key):
        decl = index.mutex_by_key[key]
        if decl.rank == UNRANKED:
            findings.append(Finding(
                check="lock-rank", rule="unranked-mutex",
                file=decl.file, line=decl.line,
                message=f"mutex '{key}' is declared without a LockRank; "
                        "every exist::Mutex must name its place in the "
                        "hierarchy"))

    for tu in index.tus:
        if tu.path in WRAPPER_HOMES:
            continue
        for rule, line, spelling in tu.lexical:
            if rule == "raw-locking":
                findings.append(Finding(
                    check="lock-rank", rule=rule, file=tu.path, line=line,
                    message=f"raw {spelling} bypasses exist::Mutex and "
                            "escapes rank enforcement; use the util "
                            "wrappers"))

    seen: set[tuple] = set()

    def edge(file, line, held_decl, tgt_decl, fn, via=""):
        if held_decl.key == tgt_decl.key:
            return  # instance aliasing; the runtime validator owns this
        if held_decl.rank == UNRANKED or tgt_decl.rank == UNRANKED:
            return  # unranked already reported above
        if held_decl.rank < tgt_decl.rank:
            return
        dkey = (file, line, held_decl.key, tgt_decl.key)
        if dkey in seen:
            return
        seen.add(dkey)
        rel = "==" if held_decl.rank == tgt_decl.rank else ">"
        msg = (f"acquires '{tgt_decl.key}' "
               f"({_rank_name(tgt_decl.rank)}) while holding "
               f"'{held_decl.key}' ({_rank_name(held_decl.rank)}); "
               f"{_rank_name(held_decl.rank)} {rel} "
               f"{_rank_name(tgt_decl.rank)} inverts the hierarchy")
        if via:
            msg += f" [via {via}]"
        findings.append(Finding(
            check="lock-rank", rule="lock-rank-order",
            file=file, line=line, message=msg, function=fn))

    # Direct edges: a lock op executed with other mutexes held.
    for q, f in index.functions.items():
        for op in f.lock_ops:
            if op.op not in ("acquire", "scoped"):
                continue
            tgt = index.mutex_for_expr(op.target, f.cls)
            if tgt is None:
                continue
            for h in op.held:
                hd = index.mutex_for_expr(h, f.cls)
                if hd is not None:
                    edge(f.file, op.line, hd, tgt, q)

    # Interprocedural edges: calling, with locks held, a function that
    # may (transitively) acquire.
    acq = index.may_acquire()
    for q, f in index.functions.items():
        for site in f.calls:
            if not site.held:
                continue
            for callee in index.resolve_call(site, f):
                for key, (rank, chain) in acq.get(callee, {}).items():
                    tgt = index.mutex_by_key.get(key)
                    if tgt is None:
                        continue
                    for h in site.held:
                        hd = index.mutex_for_expr(h, f.cls)
                        if hd is not None:
                            edge(f.file, site.line, hd, tgt, q,
                                 via=_chain_str(chain))
    return findings
