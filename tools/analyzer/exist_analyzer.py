#!/usr/bin/env python3
"""exist-analyzer: whole-program static analysis for the EXIST tree.

The one static gate for the source rules behind byte-identical
reports: five project-specific checks over a shared whole-program
index (DESIGN.md §13):

  lock-rank    static acquires-while-holding graph vs. the LockRank
               hierarchy; unranked mutexes; raw std locks outside the
               wrappers (raw-locking)
  guarded-by   members written in critical sections must carry
               EXIST_GUARDED_BY
  event-block  no blocking primitive reachable from EventQueue
               callbacks or CommitLog sequenced actions
  determinism  unordered-container iteration order must not taint
               serialized output, plus the lexical rules raw-rand,
               time-seeded-rng, raw-file-io, obs-read-back and
               pointer-keyed-container
  exhaustive   every MsgType / WAL RecordType enumerator handled in
               every protocol role (encode/decode/name/replay)

Driving: every .cc/.h/.cpp/.hpp file under the given paths (default
src/) is lowered by the bundled structural frontend
(frontend_native.py), which needs no toolchain.  Per-file lowered
facts are cached keyed by source-content hash, so warm runs re-parse
nothing.

Suppression, narrowest first:
  * inline `// lint-allow: <rule>` on (or directly above) the line;
  * a `path:rule` entry in tools/analysis_allow.txt with a
    justification comment.

Exit status: 0 = clean, 1 = non-allowlisted findings, 2 = usage or
internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ast_model import Finding, Index, TranslationUnit  # noqa: E402
import frontend_native  # noqa: E402
from checks import ALL_CHECKS  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

CACHE_SCHEMA = 1  # bump to invalidate every cached fact file

# bad_<check>[_<rule>]_<n>.cc / good_<check>[_<what>]_<n>.cc
FIXTURE_RE = re.compile(r"(bad|good)_(%s)(?:_(\w+?))?_\d+\.cc" % "|".join(
    c.replace("-", "_") for c in ALL_CHECKS))


def rel_path(path: str, root: str) -> str:
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")


# --- file discovery --------------------------------------------------------

def discover_files(roots: list[str]) -> list[str]:
    """Absolute paths of every file to lower, sorted."""
    files: set[str] = set()
    exts = (".cc", ".cpp", ".h", ".hpp")
    for r in roots:
        if os.path.isfile(r):
            files.add(os.path.abspath(r))
            continue
        for dirpath, _dirs, names in os.walk(r):
            for name in names:
                if name.endswith(exts):
                    files.add(os.path.join(dirpath, name))
    return sorted(files)


# --- fact cache ------------------------------------------------------------

class FactCache:
    def __init__(self, cache_dir: str | None):
        self.dir = cache_dir
        self.tag = f"v{frontend_native.FRONTEND_VERSION}-s{CACHE_SCHEMA}"
        self.hits = 0
        self.misses = 0
        if self.dir:
            os.makedirs(self.dir, exist_ok=True)

    def key(self, source: bytes) -> str:
        h = hashlib.sha256()
        h.update(self.tag.encode())
        h.update(b"\x00")
        h.update(source)
        return h.hexdigest()

    def load(self, key: str) -> TranslationUnit | None:
        if not self.dir:
            return None
        path = os.path.join(self.dir, key + ".json")
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as f:
                tu = TranslationUnit.from_dict(json.load(f))
            self.hits += 1
            return tu
        except (json.JSONDecodeError, OSError, KeyError, TypeError):
            return None  # corrupt entry: fall through to re-parse

    def store(self, key: str, tu: TranslationUnit):
        if not self.dir:
            return
        path = os.path.join(self.dir, key + ".json")
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(tu.to_dict(), f, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            pass  # cache is best-effort


def lower_files(files: list[str], root: str,
                cache: FactCache) -> list[TranslationUnit]:
    tus = []
    for path in files:
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as e:
            sys.stderr.write(f"exist-analyzer: cannot read {path}: {e}\n")
            continue
        key = cache.key(raw)
        tu = cache.load(key)
        if tu is None:
            cache.misses += 1
            text = raw.decode("utf-8", errors="replace")
            tu = frontend_native.parse_file(rel_path(path, root), text)
            cache.store(key, tu)
        tus.append(tu)
    return tus


# --- allowlisting ----------------------------------------------------------

def load_allowlist(path: str) -> set[tuple]:
    allow: set[tuple] = set()
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw in f:
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            if ":" not in entry:
                sys.stderr.write(
                    f"exist-analyzer: malformed allowlist entry "
                    f"{entry!r} (want path:rule)\n")
                sys.exit(2)
            allow.add(tuple(entry.rsplit(":", 1)))
    return allow


def apply_suppressions(findings: list[Finding], index: Index,
                       allowlist: set[tuple]) -> None:
    for fd in findings:
        if (fd.file, fd.rule) in allowlist or \
                (fd.file, fd.check) in allowlist:
            fd.waived = "allowlisted"
            continue
        lines = index.allow_lines.get(fd.file, {})
        for ln in (fd.line, fd.line - 1):
            rules = lines.get(ln)
            if rules and (fd.rule in rules or fd.check in rules):
                fd.waived = "lint-allow"
                break


# --- analysis --------------------------------------------------------------

def run_checks(index: Index, which: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for name in which:
        findings.extend(ALL_CHECKS[name](index))
    findings.sort(key=lambda f: (f.file, f.line, f.check, f.rule))
    return findings


def self_test(root: str, which: list[str]) -> int:
    """Check every fixture under fixtures/, each analyzed as its own
    single-file program so fixtures cannot mask each other:

      bad_<check>_<n>.cc          must trip <check>
      bad_<check>_<rule>_<n>.cc   must trip <rule> of <check>
      good_<check>[_<what>]_<n>.cc
                                  must trip nothing, and each inline
                                  lint-allow in it must waive a finding

    Every check needs at least one passing bad and good fixture."""
    fdir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
    names = sorted(n for n in os.listdir(fdir) if n.endswith(".cc")) \
        if os.path.isdir(fdir) else []
    if not names:
        sys.stderr.write(f"exist-analyzer: no fixtures under {fdir}\n")
        return 2
    failures = []
    covered: dict[str, set] = {c: set() for c in ALL_CHECKS}
    for name in names:
        m = FIXTURE_RE.fullmatch(name)
        if m is None:
            failures.append(f"{name}: want bad_<check>[_<rule>]_<n>.cc "
                            f"or good_<check>[_<what>]_<n>.cc with check "
                            f"in {sorted(ALL_CHECKS)}")
            continue
        kind, check = m.group(1), m.group(2).replace("_", "-")
        path = os.path.join(fdir, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        tu = frontend_native.parse_file(rel_path(path, root), text)
        index = Index([tu])
        findings = run_checks(index, which)
        apply_suppressions(findings, index, set())
        live = [fd for fd in findings if not fd.waived]
        if kind == "bad":
            rule = (m.group(3) or "").replace("_", "-")
            want = f"{check}/{rule}" if rule else check
            if not any(fd.check == check and rule in ("", fd.rule)
                       for fd in live):
                got = sorted({f"{fd.check}/{fd.rule}" for fd in live})
                failures.append(f"{name}: expected a {want} finding, "
                                f"got {got or 'nothing'}")
                continue
        else:
            stale = sorted(
                ln for ln in tu.allow_lines
                if not any(fd.waived and fd.line in (ln, ln + 1)
                           for fd in findings))
            if live or stale:
                failures.append(
                    f"{name}: expected clean, got " + "; ".join(
                        [f"{fd.check}/{fd.rule}@{fd.line}: {fd.message}"
                         for fd in live] +
                        [f"lint-allow@{ln} waives nothing"
                         for ln in stale]))
                continue
        covered[check].add(kind)
    for check, kinds in covered.items():
        missing = {"bad", "good"} - kinds
        if missing:
            failures.append(f"check {check}: no {'/'.join(sorted(missing))} "
                            "fixture present")
    if failures:
        for f in failures:
            sys.stderr.write(f"exist-analyzer self-test FAIL: {f}\n")
        return 1
    print(f"exist-analyzer self-test: {len(names)} fixtures OK "
          f"({len(covered)} checks, bad+good each)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description="whole-program static analysis for the EXIST tree")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: src/)")
    ap.add_argument("--root", default=REPO_ROOT,
                    help="repository root (default: auto)")
    ap.add_argument("--cache-dir", default=None,
                    help="fact-cache directory keyed by source content "
                         "hash (default: <root>/.analyzer-cache)")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--allowlist", default=None,
                    help="default: <root>/tools/analysis_allow.txt")
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="also write the findings as a JSON artifact")
    ap.add_argument("--checks", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of: " +
                         ", ".join(ALL_CHECKS))
    ap.add_argument("--self-test", action="store_true",
                    help="verify every check against its pass/fail "
                         "fixtures under tools/analyzer/fixtures/")
    ap.add_argument("--show-allowlisted", action="store_true",
                    help="also print the waived findings")
    ap.add_argument("--stats", action="store_true")
    args = ap.parse_args(argv)

    which = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in which:
        if c not in ALL_CHECKS:
            sys.stderr.write(f"exist-analyzer: unknown check {c!r} "
                             f"(have {', '.join(ALL_CHECKS)})\n")
            return 2

    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root, which)

    roots = [os.path.abspath(p) for p in args.paths] or \
        [os.path.join(root, "src")]
    for r in roots:
        if not os.path.exists(r):
            sys.stderr.write(f"exist-analyzer: no such path: {r}\n")
            return 2
    cache_dir = None if args.no_cache else (
        args.cache_dir or os.path.join(root, ".analyzer-cache"))
    allow_path = args.allowlist or os.path.join(
        root, "tools", "analysis_allow.txt")

    t0 = time.monotonic()
    files = discover_files(roots)
    cache = FactCache(cache_dir)
    tus = lower_files(files, root, cache)
    t_lower = time.monotonic() - t0
    index = Index(tus)
    findings = run_checks(index, which)
    apply_suppressions(findings, index, load_allowlist(allow_path))
    t_total = time.monotonic() - t0

    live = [f for f in findings if not f.waived]
    listed = sum(f.waived == "allowlisted" for f in findings)
    inline = sum(f.waived == "lint-allow" for f in findings)
    waived = (f"{listed} allowlisted finding(s), "
              f"{inline} waived by lint-allow")
    shown = findings if args.show_allowlisted else live
    for fd in shown:
        tag = f" ({fd.waived})" if fd.waived else ""
        print(f"{fd.file}:{fd.line}: [{fd.check}/{fd.rule}]{tag} "
              f"{fd.message}")

    if args.json:
        artifact = {
            "schema": CACHE_SCHEMA,
            "files": len(files),
            "checks": which,
            "findings": [f.to_dict() for f in findings],
            "summary": {"live": len(live), "allowlisted": listed,
                        "lint_allow": inline},
            "timing": {"lower_s": round(t_lower, 3),
                       "total_s": round(t_total, 3)},
            "cache": {"hits": cache.hits, "misses": cache.misses},
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(artifact, f, indent=2)

    if args.stats:
        print(f"exist-analyzer: {len(files)} files, cache "
              f"{cache.hits} hit / {cache.misses} miss, lowered in "
              f"{t_lower:.2f}s, total {t_total:.2f}s")

    if live:
        sys.stderr.write(
            f"exist-analyzer: {len(live)} finding(s) "
            f"({waived}); fix them, add an inline "
            "`// lint-allow: <rule>` with a justification, or extend "
            "tools/analysis_allow.txt\n")
        return 1
    print(f"exist-analyzer: clean — {len(files)} files, "
          f"{waived}, {t_total:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
