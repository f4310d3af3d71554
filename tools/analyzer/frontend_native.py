"""Native frontend: a structural C++ parser for the exist source tree.

Lowering a file into `ast_model` facts requires far less than full
C++ parsing: the repo's code is written in one consistent idiom
(annotated `exist::Mutex` members with brace initializers, `MutexLock`
RAII scopes, lambdas registered into `std::function` slots, `enum
class` protocols), and this parser understands exactly those
constructs at the token level — scopes, class bodies, member
declarations with their annotation macros, function bodies with lock
operations, call expressions, lambdas, range-for loops, writes, and
enum mentions.

Before parsing, one pass over the tokens records the lexical facts:
spellings that are findings by themselves wherever their rule applies
(a raw std RNG, a wall-clock seed, raw file IO, an obs read-back call,
a pointer-keyed container, a raw std lock).  The lexer has already
dropped comments and string literals, so neither can match.

Unknown syntax never crashes the parser: anything unrecognized simply
contributes no facts, and the fixture suite (`--self-test`) pins the
constructs the checks rely on.
"""

from __future__ import annotations

import re

from cpp_lexer import CHR, ID, NUM, PREPROC, PUNCT, STR, Token, lex, match_brace
from ast_model import (
    CTX_COMMIT, CTX_EVENT, CTX_POOL, LOCK_RANKS, UNRANKED,
    CallSite, CallbackReg, ClassInfo, EnumDef, EnumMention, FunctionInfo,
    IterSite, BlockOp, LockOp, Member, MutexDecl, TranslationUnit, WriteSite,
)

# Bump to invalidate cached facts when the lowering changes.
FRONTEND_VERSION = 5

ALLOW_RE = re.compile(r"lint-allow:\s*([\w,\- ]+)")
VPATH_RE = re.compile(r"analyzer-virtual-path:\s*(\S+)")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "case", "do",
    "new", "delete", "throw", "catch", "alignof", "decltype", "else",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "static_assert", "defined", "assert", "typeid", "noexcept",
}

SPECIFIERS = {
    "static", "const", "mutable", "constexpr", "inline", "explicit",
    "virtual", "extern", "friend", "typename", "volatile", "thread_local",
    "register", "consteval", "constinit", "using",
}

POST_PAREN_OK = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "try", "EXIST_REQUIRES", "EXIST_EXCLUDES", "EXIST_ACQUIRE",
    "EXIST_RELEASE", "EXIST_TRY_ACQUIRE", "EXIST_RETURN_CAPABILITY",
    "EXIST_NO_THREAD_SAFETY_ANALYSIS", "EXIST_SCOPED_CAPABILITY",
}

ANNOT_MACROS = {"EXIST_GUARDED_BY", "EXIST_PT_GUARDED_BY"}

# Lambda-taking calls that determine the executing context of the
# lambda argument.
CONTEXT_SINKS = {
    "schedule": CTX_EVENT,
    "scheduleAfter": CTX_EVENT,
    "commit": CTX_COMMIT,
    "submit": CTX_POOL,
    "parallelFor": CTX_POOL,
}

# Call tails that write data into a serialized output / accumulator —
# the sinks of the determinism dataflow check.
SINK_TAILS = {
    "putU8", "putU16", "putU32", "putU64", "putVarint", "putSVarint",
    "putString", "putBytes", "putDouble", "append", "snprintf",
    "fprintf", "sprintf", "write",
}

MUTATING_TAILS = {
    "push_back", "emplace_back", "pop_back", "push", "pop", "insert",
    "emplace", "erase", "clear", "resize", "assign", "store",
    "fetch_add", "fetch_sub", "exchange", "add", "record", "set",
    "push_front", "pop_front", "reserve",
}

BLOCKING_TAILS = {
    "sleep_for": "sleep", "sleep_until": "sleep", "usleep": "sleep",
    "nanosleep": "sleep", "fflush": "flush", "fsync": "flush",
    "fdatasync": "flush", "flush": "flush", "join": "join",
    "wait_for": "future-wait", "wait_until": "future-wait",
}

# Callee tails that take a lambda argument without being a callback
# registration: container mutators, std algorithms, thread spawns.  A
# lambda passed to one of these must not become a callback-slot
# target (or every later `x.emplace_back(...)` call would "invoke"
# the worker-thread body).
NOT_A_REGISTRATION = MUTATING_TAILS | {
    "sort", "stable_sort", "for_each", "transform", "remove_if",
    "erase_if", "find_if", "any_of", "all_of", "none_of", "count_if",
    "lower_bound", "upper_bound", "partition", "generate", "visit",
    "apply", "thread", "async", "min_element", "max_element",
}

# Lambdas handed to these run on their own thread, never in the
# caller's context.
THREAD_SPAWN_TAILS = {"thread", "async"}

# Spellings behind the lexical facts (see _scan_lexical).
RAW_RAND_CALLS = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
    "srand48", "random",
}
RAW_RAND_ENGINES = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "knuth_b", "default_random_engine",
}  # plus std::ranlux*
SEED_PREFIXES = ("seed", "srand", "Rng", "rng")
TIME_READS = ("time ( )", "time ( NULL )", "time ( nullptr )",
              "time ( 0 )", "clock ( )")  # space-joined tokens
WALL_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
FILE_IO_CALLS = {"fopen", "freopen"}
FILE_IO_STREAMS = {"ofstream", "fstream"}
OBS_READ_CALLS = {"chromeTraceJson", "flightDumpText", "flightDumpTo"}
OBS_READ_MEMBERS = {
    "snapshot", "eventsRecorded", "threadsRegistered", "threadsDropped",
}
KEYED_CONTAINERS = {
    "map", "set", "multimap", "multiset", "unordered_map",
    "unordered_set", "unordered_multimap", "unordered_multiset",
}
RAW_SYNC = {
    "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
    "shared_timed_mutex", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock", "condition_variable", "condition_variable_any",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}


def parse_file(rel_path: str, text: str) -> TranslationUnit:
    return _Parser(rel_path, text).run()


class _Parser:
    def __init__(self, rel_path: str, text: str):
        self.tokens, self.comments = lex(text)
        # Honor a fixture's virtual path so path-scoped checks are
        # testable without planting bad code under src/.
        for ln in sorted(self.comments)[:3]:
            if m := VPATH_RE.search(self.comments[ln]):
                rel_path = m.group(1)
                break
        self.tu = TranslationUnit(path=rel_path)
        for ln, text_ in self.comments.items():
            if m := ALLOW_RE.search(text_):
                self.tu.allow_lines[ln] = {
                    r.strip() for r in m.group(1).split(",")
                }
        self._lambda_counter = 0

    # -- helpers ------------------------------------------------------------

    def _match(self, i):
        return match_brace(self.tokens, i)

    def _find_stmt_end(self, i, end):
        """Next `;` or block `{` at bracket depth 0, or closing `}` of
        the current scope.  Returns (index, kind)."""
        depth = 0
        k = i
        while k < end:
            t = self.tokens[k]
            if t.kind == PUNCT:
                if t.text in "([":
                    k = self._match(k) + 1
                    continue
                if t.text == "{":
                    return k, "{"
                if t.text == "}":
                    return k, "}"
                if t.text == ";" and depth == 0:
                    return k, ";"
            k += 1
        return end, "eof"

    def run(self) -> TranslationUnit:
        self._scan_lexical()
        self._parse_scope(0, len(self.tokens), ns=[], cls=None)
        return self.tu

    # -- lexical facts ------------------------------------------------------

    def _scan_lexical(self):
        """Record one (rule, line, spelling) fact per rule and line for
        every spelling a lexical rule bans.  Path-blind: the facts are
        cached by content, and the checks own each rule's scope."""
        toks = self.tokens
        n = len(toks)
        seen: set[tuple] = set()

        def text(k):
            return toks[k].text if k < n else ""

        def add(rule, k, spelling):
            if (rule, toks[k].line) not in seen:
                seen.add((rule, toks[k].line))
                self.tu.lexical.append((rule, toks[k].line, spelling))

        for k, t in enumerate(toks):
            if t.kind != ID:
                continue
            name = t.text
            if text(k + 1) == "(":
                if name in RAW_RAND_CALLS:
                    add("raw-rand", k, name + "()")
                if name in FILE_IO_CALLS:
                    add("raw-file-io", k, name + "()")
                if name in OBS_READ_CALLS:
                    add("obs-read-back", k, name + "()")
            if name.startswith(SEED_PREFIXES) and \
                    (clock := self._wall_clock_after(k)):
                add("time-seeded-rng", k, clock)
            if text(k + 1) != "::" or k + 2 >= n or toks[k + 2].kind != ID:
                continue
            member = toks[k + 2].text
            if name == "obs" and member in OBS_READ_MEMBERS and \
                    text(k + 3) == "(":
                add("obs-read-back", k, f"obs::{member}()")
            if name != "std":
                continue
            spelling = "std::" + member
            if member in RAW_SYNC:
                add("raw-locking", k, spelling)
            if member in RAW_RAND_ENGINES or member.startswith("ranlux"):
                add("raw-rand", k, spelling)
            if member in FILE_IO_STREAMS:
                add("raw-file-io", k, spelling)
            if member in KEYED_CONTAINERS and self._pointer_key(k + 3):
                add("pointer-keyed-container", k, spelling + "<T *>")

    def _wall_clock_after(self, k):
        """The wall-clock read (`time()`, `clock()`, `*_clock::now`)
        after token k on its line and before any `;`, or ""."""
        toks = self.tokens
        for j in range(k + 1, len(toks)):
            t = toks[j].text
            if toks[j].line != toks[k].line or t == ";":
                break
            ahead = " ".join(x.text for x in toks[j:j + 4])
            if ahead.startswith(TIME_READS):
                return t + "()"
            if t in WALL_CLOCKS and ahead.startswith(t + " :: now"):
                return t + "::now"
        return ""

    def _pointer_key(self, k):
        """Does the template argument list opening at token k start
        with a pointer key: `< [const] name[::name]... [const] *`?"""
        toks = self.tokens
        n = len(toks)
        if k >= n or toks[k].text != "<":
            return False
        j = k + 1
        if j < n and toks[j].text == "const":
            j += 1
        if j < n and toks[j].text == "::":
            j += 1
        if j >= n or toks[j].kind != ID:
            return False
        j += 1
        while j + 1 < n and toks[j].text == "::" and \
                toks[j + 1].kind == ID:
            j += 2
        if j < n and toks[j].text == "const":
            j += 1
        return j < n and toks[j].text == "*"

    # -- scope-level parsing ------------------------------------------------

    def _parse_scope(self, i, end, ns, cls: ClassInfo | None):
        toks = self.tokens
        while i < end:
            t = toks[i]
            if t.kind == PREPROC:
                i += 1
                continue
            if t.kind == PUNCT:
                i += 1
                continue
            if t.kind != ID:
                i += 1
                continue

            if t.text == "template":
                i = self._skip_template_clause(i)
                continue
            if t.text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":":
                i += 2
                continue
            if t.text == "namespace":
                i = self._parse_namespace(i, end, ns)
                continue
            if t.text == "using":
                i = self._parse_using(i, end)
                continue
            if t.text == "enum":
                i = self._parse_enum(i, end, ns, cls)
                continue
            if t.text in ("class", "struct") and self._is_class_def(i):
                i = self._parse_class(i, end, ns, cls)
                continue
            if t.text == "extern" and i + 1 < end and \
                    toks[i + 1].kind == STR:
                i += 2  # extern "C" [ { ]: treat the block transparently
                if i < end and toks[i].text == "{":
                    i += 1
                continue

            # Generic declaration: function definition, function
            # declaration, or variable/member declaration.
            i = self._parse_declaration(i, end, ns, cls)
        return i

    def _skip_template_clause(self, i):
        toks = self.tokens
        k = i + 1
        if k < len(toks) and toks[k].text == "<":
            depth = 0
            while k < len(toks):
                if toks[k].text == "<":
                    depth += 1
                elif toks[k].text == ">":
                    depth -= 1
                    if depth == 0:
                        return k + 1
                elif toks[k].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return k + 1
                k += 1
        return k

    def _parse_namespace(self, i, end, ns):
        toks = self.tokens
        k = i + 1
        parts = []
        while k < end and (toks[k].kind == ID or toks[k].text == "::"):
            if toks[k].kind == ID:
                parts.append(toks[k].text)
            k += 1
        if k < end and toks[k].text == "{":
            close = self._match(k)
            self._parse_scope(k + 1, close, ns + parts, None)
            return close + 1
        return k + 1

    def _parse_using(self, i, end):
        toks = self.tokens
        stop, kind = self._find_stmt_end(i, end)
        # using Alias = some::type<...>;
        if kind == ";" and i + 2 < stop and toks[i + 1].kind == ID and \
                toks[i + 2].text == "=":
            alias = toks[i + 1].text
            rhs = "".join(tok.text for tok in toks[i + 3:stop])
            self.tu.aliases[alias] = rhs
        return stop + 1

    def _parse_enum(self, i, end, ns, cls):
        toks = self.tokens
        k = i + 1
        if k < end and toks[k].kind == ID and toks[k].text in ("class", "struct"):
            k += 1
        if k >= end or toks[k].kind != ID:
            stop, _ = self._find_stmt_end(i, end)
            return stop + 1
        name = toks[k].text
        line = toks[k].line
        k += 1
        while k < end and toks[k].text != "{" and toks[k].text != ";":
            k += 1
        if k >= end or toks[k].text == ";":
            return k + 1
        close = self._match(k)
        enumerators = []
        expect = True
        d = k + 1
        while d < close:
            t = toks[d]
            if expect and t.kind == ID:
                enumerators.append(t.text)
                expect = False
            elif t.text == ",":
                expect = True
            elif t.text in ("(", "{", "["):
                d = self._match(d)
            d += 1
        qparts = ns + ([cls.qname.rsplit("::", 1)[-1]] if cls else []) + [name]
        self.tu.enums.append(EnumDef(
            qname="::".join(qparts), file=self.tu.path, line=line,
            enumerators=enumerators))
        k = close + 1
        while k < end and toks[k].text != ";":
            k += 1
        return k + 1

    def _is_class_def(self, i):
        """True for `class X ... {`, false for forward decls, variable
        declarations of class type, and elaborated return types."""
        toks = self.tokens
        k = i + 1
        while k < len(toks) and (toks[k].kind == ID or
                                 toks[k].text in ("::", "<", ">", ",")):
            if toks[k].text == "<":
                depth = 0
                while k < len(toks):
                    if toks[k].text == "<":
                        depth += 1
                    elif toks[k].text in (">", ">>"):
                        depth -= 1 if toks[k].text == ">" else 2
                        if depth <= 0:
                            break
                    k += 1
            k += 1
        if k >= len(toks):
            return False
        if toks[k].text == "{":
            return True
        if toks[k].text == ":":  # base clause
            return True
        return False

    def _parse_class(self, i, end, ns, cls):
        toks = self.tokens
        k = i + 1
        # The class name is the LAST identifier before `{`, `:`, `<`,
        # or `;` — attribute macros (EXIST_SCOPED_CAPABILITY,
        # EXIST_CAPABILITY("m"), alignas(...)) precede it.
        name = None
        name_at = None
        while k < end and toks[k].text not in ("{", ":", ";", "<"):
            if toks[k].kind == ID:
                if k + 1 < end and toks[k + 1].text == "(":
                    k = self._match(k + 1) + 1  # macro(...) attribute
                    continue
                if toks[k].text not in ("final", "alignas"):
                    name = toks[k].text
                    name_at = k
            k += 1
        if name is not None:
            k = name_at
        if name is None:
            stop, _ = self._find_stmt_end(i, end)
            return stop + 1
        line = toks[k].line
        k += 1
        while k < end and toks[k].text not in ("{", ";"):
            if toks[k].text in ("(", "["):
                k = self._match(k)
            k += 1
        if k >= end or toks[k].text == ";":
            return k + 1
        close = self._match(k)
        outer = cls.qname.rsplit("::", 1)[-1] if cls else None
        qparts = ns + ([c for c in (cls.qname.split("::")[-1],)]
                       if cls else []) + [name]
        # Qualified name: namespace + lexically enclosing classes.
        if cls:
            qname = cls.qname + "::" + name
        else:
            qname = "::".join(ns + [name]) if ns else name
        info = ClassInfo(qname=qname, file=self.tu.path, line=line)
        self.tu.classes.append(info)
        self._parse_scope(k + 1, close, ns, info)
        k = close + 1
        while k < end and toks[k].text != ";":
            k += 1
        return k + 1

    # -- declarations -------------------------------------------------------

    def _parse_declaration(self, i, end, ns, cls):
        """Dispatch one declaration starting at i; returns the index
        just past it."""
        toks = self.tokens
        head_end, kind = self._find_stmt_end(i, end)
        if kind == "}":
            return head_end + 1
        if kind == "eof":
            return end

        # Find a function declarator: the first depth-0 `(` preceded
        # by an identifier (or operator) outside template angles.
        paren, name_start, name_end = self._find_declarator(i, head_end)
        if paren is not None:
            rparen = self._match(paren)
            body, decl_end = self._after_params(rparen + 1, end)
            if body is not None:
                fn = self._make_function(i, name_start, name_end, ns, cls)
                close = self._match(body)
                self._parse_params(fn, paren + 1, rparen)
                _BodyParser(self, fn, cls).parse(body + 1, close)
                self.tu.functions.append(fn)
                if cls is not None:
                    cls.methods.append(fn.qname)
                return close + 1
            if decl_end is not None:
                # Declaration without body (prototype / = default).
                if cls is not None:
                    name = "".join(
                        t.text for t in toks[name_start:name_end])
                    cls.methods.append(cls.qname + "::" + name)
                return decl_end + 1

        if kind == "{":
            # Braced initializer inside a declaration, e.g.
            # `Mutex mu_{rank, "name"};` — consume the brace group and
            # continue to the statement's `;`.
            close = self._match(head_end)
            stmt_end = close + 1
            while stmt_end < end and toks[stmt_end].text != ";":
                if toks[stmt_end].text in ("{", "(", "["):
                    stmt_end = self._match(stmt_end)
                stmt_end += 1
            self._parse_member_decl(i, stmt_end, head_end, ns, cls)
            return stmt_end + 1

        # Plain `... ;` declaration.
        self._parse_member_decl(i, head_end, None, ns, cls)
        return head_end + 1

    def _find_declarator(self, i, head_end):
        """Locate a function declarator's parameter `(` within the
        head.  Returns (paren_index, name_start, name_end) or
        (None, None, None)."""
        toks = self.tokens
        angle = 0
        k = i
        while k < head_end:
            t = toks[k]
            if t.text == "<" and k > i and toks[k - 1].kind == ID:
                angle += 1
            elif t.text == ">" and angle > 0:
                angle -= 1
            elif t.text == ">>" and angle > 0:
                angle = max(0, angle - 2)
            elif t.text == "(" and angle == 0:
                # Preceded by an identifier (or operator...)?
                p = k - 1
                if p >= i and toks[p].kind == ID:
                    if toks[p].text in KEYWORDS or \
                            toks[p].text in ANNOT_MACROS or \
                            toks[p].text.startswith("EXIST_"):
                        k = self._match(k) + 1
                        continue
                    # Collect qualified name backwards: ID (:: ID)*
                    name_end = k
                    ns_start = p
                    while ns_start - 2 >= i and \
                            toks[ns_start - 1].text == "::" and \
                            toks[ns_start - 2].kind == ID:
                        ns_start -= 2
                    if ns_start - 1 >= i and toks[ns_start - 1].text == "~":
                        ns_start -= 1
                    return k, ns_start, name_end
                if p >= i and toks[p].kind == PUNCT and p - 1 >= i and \
                        toks[p - 1].kind == ID and \
                        toks[p - 1].text == "operator":
                    return k, p - 1, k
                k = self._match(k) + 1
                continue
            k += 1
        return None, None, None

    def _after_params(self, k, end):
        """After a param list: find the function body `{`, or the end
        of a body-less declaration.  Returns (body_index|None,
        decl_end|None)."""
        toks = self.tokens
        while k < end:
            t = toks[k]
            if t.kind == ID and (t.text in POST_PAREN_OK or
                                 t.text.startswith("EXIST_")):
                k += 1
                if k < end and toks[k].text == "(":
                    k = self._match(k) + 1
                continue
            if t.text == "->":  # trailing return type
                k += 1
                while k < end and (toks[k].kind == ID or
                                   toks[k].text in ("::", "<", ">", "*",
                                                    "&", ",", ">>")):
                    k += 1
                continue
            if t.text == ":":  # ctor init list
                k += 1
                while k < end:
                    # init item: name, then (...) or {...}
                    while k < end and (toks[k].kind == ID or
                                       toks[k].text in ("::", "<", ">",
                                                        ">>")):
                        k += 1
                    if k < end and toks[k].text in ("(", "{"):
                        k = self._match(k) + 1
                    if k < end and toks[k].text == ",":
                        k += 1
                        continue
                    break
                continue
            if t.text == "{":
                return k, None
            if t.text == ";":
                return None, k
            if t.text == "=":  # = default / = delete / = 0
                while k < end and toks[k].text != ";":
                    k += 1
                return None, k
            # Unexpected: not a function after all.
            return None, None
        return None, None

    def _make_function(self, head_start, name_start, name_end, ns, cls):
        toks = self.tokens
        name = "".join(t.text for t in toks[name_start:name_end])
        if cls is not None:
            qname = cls.qname + "::" + name
            owner = cls.qname
        elif "::" in name:
            # Out-of-line member definition inside a namespace block:
            # prepend the namespace so the qname matches the in-class
            # declaration's (`exist::ThreadPool::submit`).
            qname = "::".join(ns + [name]) if ns else name
            owner = qname.rsplit("::", 1)[0]
        else:
            qname = "::".join(ns + [name]) if ns else name
            owner = ""
        ret = [t.text for t in toks[head_start:name_start]
               if t.kind == ID and t.text not in SPECIFIERS]
        returns_value = bool(ret) and ret[0] != "void"
        return FunctionInfo(
            qname=qname, file=self.tu.path,
            line=toks[name_start].line, cls=owner,
            returns_value=returns_value)

    def _parse_params(self, fn, i, end):
        """Record parameter names/types as locals."""
        toks = self.tokens
        depth = 0
        item_start = i
        k = i
        while k <= end:
            at_end = k == end
            t = toks[k] if not at_end else None
            if not at_end and t.text in ("(", "<", "[", "{"):
                if t.text == "<":
                    depth += 1
                    k += 1
                    continue
                k = self._match(k) + 1 if t.text != "<" else k + 1
                continue
            if not at_end and t.text in (">", ">>"):
                depth -= 1 if t.text == ">" else 2
                k += 1
                continue
            if at_end or (t.text == "," and depth <= 0):
                seg = toks[item_start:k]
                # name = last ID (before any default `= ...`)
                cut = len(seg)
                for j, s in enumerate(seg):
                    if s.text == "=":
                        cut = j
                        break
                ids = [s for s in seg[:cut] if s.kind == ID]
                if len(ids) >= 2:
                    pname = ids[-1].text
                    ptype = "".join(s.text for s in seg[:cut]
                                    if s is not ids[-1])
                    fn.local_types[pname] = ptype
                item_start = k + 1
            k += 1

    def _parse_member_decl(self, i, stmt_end, init_brace, ns, cls):
        """Variable/member declaration: detect mutexes, guarded
        members, condvars, callback slots, aliases of interest."""
        toks = self.tokens
        seg = toks[i:stmt_end]
        if not seg:
            return
        texts = [t.text for t in seg]
        if texts[0] in ("typedef", "friend", "using"):
            return

        is_static = "static" in texts
        is_const = "const" in texts and "constexpr" not in texts
        # `constexpr` members are compile-time: never guarded state.
        if "constexpr" in texts or "consteval" in texts:
            return

        guarded_by = ""
        pt_guarded_by = ""
        annot_at = None
        for j, t in enumerate(seg):
            if t.kind == ID and t.text in ANNOT_MACROS and \
                    j + 1 < len(seg) and seg[j + 1].text == "(":
                close = match_brace(seg, j + 1)
                arg = "".join(s.text for s in seg[j + 2:close])
                arg = arg.split(".")[-1].split(">")[-1].lstrip("-")
                if t.text == "EXIST_GUARDED_BY":
                    guarded_by = arg
                else:
                    pt_guarded_by = arg
                if annot_at is None:
                    annot_at = j

        # Find the declared name: the last identifier before `=`,
        # the annotation macro, the init `{`, `[`, or end.
        cut = len(seg)
        depth = 0
        for j, t in enumerate(seg):
            if t.text in ("(",):
                close = match_brace(seg, j)
                if close >= len(seg):
                    break
            if t.text == "<":
                depth += 1
            elif t.text in (">", ">>"):
                depth -= 1 if t.text == ">" else 2
            elif depth <= 0 and t.text in ("=", "[", "{"):
                cut = j
                break
            elif t.kind == ID and t.text in ANNOT_MACROS:
                cut = j
                break
        ids = [t for t in seg[:cut] if t.kind == ID and
               t.text not in SPECIFIERS and not t.text.startswith("EXIST_")]
        if not ids:
            return
        name_tok = ids[-1]
        name = name_tok.text
        type_ids = [t.text for t in ids[:-1]]
        type_text = "".join(
            t.text for t in seg[:cut]
            if t is not name_tok and t.kind in (ID, PUNCT) and
            t.text not in SPECIFIERS)

        # A `Mutex &mu_;` member references a mutex declared (and
        # ranked) elsewhere; it is not a declaration site.
        is_ref = any(t.text == "&" for t in seg[:cut])
        is_mutex = bool(type_ids) and type_ids[-1] == "Mutex" and \
            not is_ref
        is_condvar = bool(type_ids) and type_ids[-1] == "CondVar"

        if is_mutex:
            init = texts
            rank = UNRANKED
            rank_token = ""
            for j, x in enumerate(texts):
                if x in LOCK_RANKS:
                    rank = LOCK_RANKS[x]
                    rank_token = x
                    break
            label = ""
            for t in seg:
                if t.kind == STR and len(t.text) > 2:
                    label = t.text.strip('"')
                    break
            decl = MutexDecl(
                owner=cls.qname if cls else "::".join(ns) or "<file>",
                name=name, rank=rank, rank_token=rank_token,
                label=label, file=self.tu.path, line=name_tok.line)
            if cls is not None:
                cls.mutexes.append(decl)
            else:
                self.tu.mutex_decls.append(decl)
            return

        if cls is None:
            return

        rtype = type_text
        is_func_type = "function" in rtype or "Fn" in rtype or \
            "Callback" in rtype or \
            "function" in self.tu.aliases.get(rtype, "")
        cls.members.append(Member(
            name=name, type_text=type_text, guarded_by=guarded_by,
            pt_guarded_by=pt_guarded_by,
            is_atomic="atomic" in type_ids or "atomic" in type_text,
            is_const=is_const, is_static=is_static,
            is_condvar=is_condvar,
            is_unordered="unordered_map" in type_text or
                         "unordered_set" in type_text or
                         "unordered_multimap" in type_text or
                         "unordered_multiset" in type_text,
            is_func_type=is_func_type, line=name_tok.line))

    def new_lambda_name(self, parent_qname, line):
        self._lambda_counter += 1
        return f"{parent_qname}::<lambda:{line}:{self._lambda_counter}>"


class _BodyParser:
    """Parses one function body (or lambda body) token range."""

    def __init__(self, owner: _Parser, fn: FunctionInfo,
                 cls: ClassInfo | None):
        self.p = owner
        self.fn = fn
        self.cls = cls
        self.held: list[str] = []          # mutex tails currently held
        self.block_stack: list[list] = []  # per-{} list of scoped tails
        self.iter_stack: list[tuple] = []  # (IterSite, loop_close_index)

    def parse(self, i, end):
        toks = self.p.tokens
        self.block_stack.append([])
        k = i
        while k < end:
            t = toks[k]
            if t.kind == PREPROC:
                k += 1
                continue
            if t.kind == PUNCT:
                if t.text == "{":
                    self.block_stack.append([])
                    k += 1
                    continue
                if t.text == "}":
                    if self.block_stack:
                        for tail in self.block_stack.pop():
                            if tail in self.held:
                                self.held.remove(tail)
                    while self.iter_stack and self.iter_stack[-1][1] <= k:
                        self.iter_stack.pop()
                    k += 1
                    continue
                if t.text in ("++", "--") and k + 1 < end and \
                        toks[k + 1].kind == ID:
                    self._record_write(toks[k + 1].text, toks[k + 1].line)
                    k += 2
                    continue
                k += 1
                continue
            if t.kind != ID:
                k += 1
                continue

            if t.text == "for" and k + 1 < end and toks[k + 1].text == "(":
                k = self._parse_for(k, end)
                continue
            if t.text == "return":
                k = self._parse_return(k, end)
                continue
            if t.text == "MutexLock" and k + 2 < end and \
                    toks[k + 1].kind == ID and toks[k + 2].text == "(":
                k = self._parse_scoped_lock(k, end)
                continue
            if t.text == "static" and k + 1 < end and \
                    toks[k + 1].kind == ID and toks[k + 1].text == "Mutex":
                k = self._parse_static_mutex(k, end)
                continue

            # Enum-style mentions A::kFoo.
            if (k + 2 < end and toks[k + 1].text == "::"
                    and toks[k + 2].kind == ID
                    and toks[k + 2].text.startswith("k")
                    and not (k + 3 < end and toks[k + 3].text == "(")):
                self.fn.enum_mentions.append(EnumMention(
                    enum=t.text, enumerator=toks[k + 2].text,
                    line=t.line))
                k += 3
                continue

            # Call expression?  current ID followed by `(`.
            if k + 1 < end and toks[k + 1].text == "(" and \
                    t.text not in KEYWORDS and \
                    not t.text.startswith("EXIST_"):
                k = self._parse_call(k, end)
                continue

            # Local declaration / assignment / write detection is
            # handled opportunistically below.
            if k + 1 < end and toks[k + 1].kind == PUNCT and \
                    toks[k + 1].text in ASSIGN_OPS and \
                    toks[k + 1].text == "=" and k + 2 < end and \
                    toks[k + 2].text == "=":
                k += 3  # `==` comparison split weirdly; skip
                continue
            if k + 1 < end and toks[k + 1].kind == PUNCT and \
                    toks[k + 1].text in ASSIGN_OPS:
                self._record_write(t.text, t.line)
                # Lambda on the RHS.  `slot_ = [..]` wires a callback
                # slot; `auto fn = [..]` (any declaration) is a plain
                # local binding and must stay function-scoped, or every
                # `x.fn(...)` in the program would resolve to it.
                k2 = k + 2
                if k2 < end and toks[k2].text == "[":
                    prev = toks[k - 1] if k > 0 else None
                    is_decl = prev is not None and (
                        prev.kind == ID or prev.text in (">", "&", "*"))
                    lam = self._parse_lambda(
                        k2, end, context="",
                        reg_slot="" if is_decl else self._chain_tail(k))
                    if lam is not None:
                        if is_decl:
                            self.fn.local_types[t.text] = \
                                "@lambda:" + self.last_lambda_name
                        k = lam
                        continue
                if k2 + 2 < end and toks[k2].kind == ID and \
                        toks[k2].text == "std" and \
                        self.p.tokens[k2 + 2].text == "move":
                    # slot = std::move(x): forwarding registration.
                    close = self.p._match(k2 + 3)
                    inner = [s for s in toks[k2 + 4:close] if s.kind == ID]
                    if inner and inner[0].text in self.fn.local_types:
                        self.p.tu.callback_regs.append(CallbackReg(
                            slot=self._chain_tail(k),
                            target="@fwd:" +
                                   self.fn.qname.rsplit("::", 1)[-1],
                            file=self.p.tu.path, line=t.line))
                k += 2
                continue
            if k + 1 < end and toks[k + 1].text in ("++", "--"):
                self._record_write(t.text, t.line)
                k += 2
                continue

            self._maybe_local_decl(k, end)
            k += 1
        if self.block_stack:
            self.block_stack.pop()
        return end

    # -- statement pieces ---------------------------------------------------

    def _chain_tail(self, k):
        """The written member for a chain ending at token k (e.g. for
        `ep.deliver` returns `deliver`)."""
        return self.p.tokens[k].text

    def _chain_start(self, k):
        """Walk back over `a.b->c::d` chains; returns start index."""
        toks = self.p.tokens
        s = k
        while s - 2 >= 0 and toks[s - 1].kind == PUNCT and \
                toks[s - 1].text in (".", "->", "::") and \
                toks[s - 2].kind == ID:
            s -= 2
        # allow (*x).y style: stop at parens
        return s

    def _chain_text(self, s, k):
        return "".join(t.text for t in self.p.tokens[s:k + 1])

    def _record_write(self, member, line, via_call=""):
        self.fn.writes.append(WriteSite(
            member=member, line=line, held=list(self.held),
            via_call=via_call))

    def _maybe_local_decl(self, k, end):
        """Detect `Type name = ...` / `Type &name = ...` local
        declarations to feed local_types (for object-type
        resolution)."""
        toks = self.p.tokens
        # pattern: ID[::ID|<...>]* [&|*]* ID (=|{|;)
        j = k
        type_ids = []
        while j < end:
            t = toks[j]
            if t.kind == ID and t.text not in KEYWORDS:
                type_ids.append(t.text)
                j += 1
                if j < end and toks[j].text == "<":
                    depth = 0
                    while j < end:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text in (">", ">>"):
                            depth -= 1 if toks[j].text == ">" else 2
                            if depth <= 0:
                                j += 1
                                break
                        j += 1
                continue
            if t.text in ("::",):
                j += 1
                continue
            if t.text in ("&", "*"):
                j += 1
                continue
            break
        if len(type_ids) >= 2 and j - 1 >= 0 and j < end and \
                toks[j].text in ("=", "{", ";") and \
                toks[j - 1].kind == ID:
            name = type_ids[-1]
            ty = "".join(x for x in type_ids[:-1] if x not in SPECIFIERS)
            if ty and ty not in ("auto",):
                self.fn.local_types.setdefault(name, ty)

    def _parse_for(self, k, end):
        toks = self.p.tokens
        lparen = k + 1
        rparen = self.p._match(lparen)
        # Range-for: a depth-1 `:` that is not `::`.
        colon = None
        d = lparen + 1
        while d < rparen:
            t = toks[d]
            if t.text in ("(", "[", "{"):
                d = self.p._match(d)
            elif t.text == ":":
                colon = d
                break
            d += 1
        if colon is not None:
            container = "".join(t.text for t in toks[colon + 1:rparen])
            tail_idx = rparen - 1
            tail = toks[tail_idx].text if toks[tail_idx].kind == ID else \
                container
            # The loop variable is a local.
            seg = toks[lparen + 1:colon]
            ids = [t for t in seg if t.kind == ID and
                   t.text not in SPECIFIERS and t.text not in KEYWORDS]
            if len(ids) >= 2:
                self.fn.local_types.setdefault(
                    ids[-1].text,
                    "".join(t.text for t in seg if t is not ids[-1]
                            and t.kind in (ID, PUNCT)))
            # Loop body extent.
            if rparen + 1 < end and toks[rparen + 1].text == "{":
                close = self.p._match(rparen + 1)
            else:
                close, _ = self.p._find_stmt_end(rparen + 1, end)
            site = IterSite(container=container, line=toks[k].line)
            # Only iterations whose order can matter are kept; the
            # check decides unorderedness via the type index.
            self.fn.iters.append(site)
            self.iter_stack.append((site, close))
        return k + 1

    def _parse_return(self, k, end):
        toks = self.p.tokens
        stop = k + 1
        while stop < end and toks[stop].text != ";":
            if toks[stop].text in ("(", "{", "["):
                stop = self.p._match(stop)
            stop += 1
        idents = [t.text for t in toks[k + 1:stop] if t.kind == ID and
                  t.text not in KEYWORDS]
        if idents:
            self.fn.returned_idents.extend(idents[:4])
        if stop > k + 1:
            self.fn.returns_value = True
        return k + 1  # reparse the expression for calls

    def _parse_scoped_lock(self, k, end):
        toks = self.p.tokens
        lparen = k + 2
        rparen = self.p._match(lparen)
        expr = "".join(t.text for t in toks[lparen + 1:rparen])
        tail = self._expr_tail(lparen + 1, rparen)
        self.fn.lock_ops.append(LockOp(
            op="scoped", target=tail, target_expr=expr,
            line=toks[k].line, held=list(self.held)))
        self.held.append(tail)
        if self.block_stack:
            self.block_stack[-1].append(tail)
        return rparen + 1

    def _expr_tail(self, i, end):
        toks = self.p.tokens
        ids = [t.text for t in toks[i:end] if t.kind == ID]
        return ids[-1] if ids else ""

    def _parse_static_mutex(self, k, end):
        toks = self.p.tokens
        # static Mutex NAME ( ... );  or  { ... };
        if k + 2 >= end or toks[k + 2].kind != ID:
            return k + 1
        name = toks[k + 2].text
        stop, _ = self.p._find_stmt_end(k, end)
        texts = [t.text for t in toks[k:stop]]
        rank = UNRANKED
        rank_token = ""
        for x in texts:
            if x in LOCK_RANKS:
                rank = LOCK_RANKS[x]
                rank_token = x
                break
        label = ""
        for t in toks[k:stop]:
            if t.kind == STR and len(t.text) > 2:
                label = t.text.strip('"')
                break
        self.p.tu.mutex_decls.append(MutexDecl(
            owner=self.fn.qname, name=name, rank=rank,
            rank_token=rank_token, label=label, file=self.p.tu.path,
            line=toks[k].line))
        # The `( ... )` initializer may contain a brace for
        # `{ ... }` init; skip the whole statement.
        return stop + 1

    def _parse_call(self, k, end):
        """Handle `<chain>(args)` at the ID token preceding `(`."""
        toks = self.p.tokens
        start = self._chain_start(k)
        callee = self._chain_text(start, k)
        tail = toks[k].text
        lparen = k + 1
        rparen = self.p._match(lparen)
        line = toks[k].line

        # Lock primitives.
        if tail == "lock" and start != k:
            target = self._member_of_chain(start, k)
            self.fn.lock_ops.append(LockOp(
                op="acquire", target=target, target_expr=callee,
                line=line, held=list(self.held)))
            self.held.append(target)
            return rparen + 1
        if tail == "unlock" and start != k:
            target = self._member_of_chain(start, k)
            if target in self.held:
                self.held.remove(target)
            self.fn.lock_ops.append(LockOp(
                op="release", target=target, target_expr=callee,
                line=line, held=list(self.held)))
            return rparen + 1
        if tail == "wait":
            arg_ids = [t.text for t in toks[lparen + 1:rparen]
                       if t.kind == ID]
            if arg_ids:
                self.fn.lock_ops.append(LockOp(
                    op="wait", target=arg_ids[-1], target_expr=callee,
                    line=line, held=list(self.held)))
                self.fn.blocks.append(BlockOp(
                    kind="condvar-wait", detail=callee, line=line))
            else:
                self.fn.blocks.append(BlockOp(
                    kind="future-wait", detail=callee, line=line))
            return rparen + 1
        if tail in BLOCKING_TAILS:
            self.fn.blocks.append(BlockOp(
                kind=BLOCKING_TAILS[tail], detail=callee, line=line))
            # fall through: also record as a call (for the graph)

        if tail == "sort":
            arg_ids = [t.text for t in toks[lparen + 1:rparen]
                       if t.kind == ID]
            self.fn.sorted_idents.extend(arg_ids[:4])

        # Mutating member call => member write.
        if tail in MUTATING_TAILS and start != k:
            member = self._member_of_chain(start, k)
            if member:
                self._record_write(member, line, via_call=tail)

        site = CallSite(callee=callee, line=line, held=list(self.held))
        if self.iter_stack and tail in SINK_TAILS:
            it = self.iter_stack[-1][0]
            it.sink_calls.append(callee)
            if not it.sink_line:
                it.sink_line = line
        if self.iter_stack and tail in ("push_back", "emplace_back",
                                        "insert", "emplace"):
            it = self.iter_stack[-1][0]
            if start != k:
                it.collects_into = self._member_of_chain(start, k)
        self.fn.calls.append(site)

        # Scan args: lambda literals, nested calls, enum mentions.
        ctx = CONTEXT_SINKS.get(tail, "")
        if tail in THREAD_SPAWN_TAILS:
            ctx = CTX_POOL
        reg = "" if (ctx or tail in NOT_A_REGISTRATION) else tail
        d = lparen + 1
        while d < rparen:
            t = toks[d]
            if t.text in ("{",):
                d = self.p._match(d) + 1
                continue
            if t.text == "[" and self._looks_like_lambda(d):
                nd = self._parse_lambda(d, rparen, context=ctx,
                                        reg_slot=reg,
                                        call_site=site)
                if nd is not None:
                    d = nd
                    continue
                d = self.p._match(d) + 1
                continue
            if t.kind == ID:
                if d + 1 < rparen and toks[d + 1].text == "(" and \
                        t.text not in KEYWORDS and \
                        not t.text.startswith("EXIST_"):
                    d = self._parse_call(d, rparen)
                    continue
                if (d + 2 < rparen and toks[d + 1].text == "::"
                        and toks[d + 2].kind == ID
                        and toks[d + 2].text.startswith("k")
                        and not (d + 3 < rparen and
                                 toks[d + 3].text == "(")):
                    self.fn.enum_mentions.append(EnumMention(
                        enum=t.text, enumerator=toks[d + 2].text,
                        line=t.line))
                    d += 3
                    continue
            d += 1
        return rparen + 1

    def _member_of_chain(self, start, k):
        """`d.tasks.push_back` -> tasks; `mu_.lock` -> mu_."""
        toks = self.p.tokens
        p = k - 2
        if p >= start and toks[p].kind == ID:
            return toks[p].text
        return toks[start].text if toks[start].kind == ID else ""

    def _looks_like_lambda(self, d):
        toks = self.p.tokens
        close = self.p._match(d)
        if close >= len(toks) - 1:
            return False
        nxt = toks[close + 1].text
        return nxt in ("(", "{") or nxt == "mutable" or nxt == "->"

    def _parse_lambda(self, d, limit, context, reg_slot="",
                      call_site=None):
        """Parse `[caps](params) specs { body }`; returns index past
        the lambda or None if it isn't one."""
        toks = self.p.tokens
        cap_close = self.p._match(d)
        k = cap_close + 1
        params = (None, None)
        if k < len(toks) and toks[k].text == "(":
            rp = self.p._match(k)
            params = (k + 1, rp)
            k = rp + 1
        while k < len(toks) and (
                (toks[k].kind == ID and (toks[k].text in POST_PAREN_OK or
                                         toks[k].text == "mutable")) or
                toks[k].text == "->"):
            if toks[k].text == "->":
                k += 1
                while k < len(toks) and (toks[k].kind == ID or
                                         toks[k].text in ("::", "<", ">",
                                                          "*", "&")):
                    k += 1
                continue
            k += 1
        if k >= len(toks) or toks[k].text != "{":
            return None
        body_close = self.p._match(k)
        name = self.p.new_lambda_name(self.fn.qname, toks[d].line)
        self.last_lambda_name = name
        lam = FunctionInfo(
            qname=name, file=self.p.tu.path, line=toks[d].line,
            cls=self.fn.cls, context=context, is_lambda=True)
        # Captured locals keep their types for resolution.
        lam.local_types.update(self.fn.local_types)
        if params[0] is not None:
            self.p._parse_params(lam, params[0], params[1])
        sub = _BodyParser(self.p, lam, self.cls)
        sub.held = list(self.held) if context == "" else []
        sub.parse(k + 1, body_close)
        self.p.tu.functions.append(lam)
        if call_site is not None:
            call_site.lambda_args.append(name)
        if reg_slot:
            self.p.tu.callback_regs.append(CallbackReg(
                slot=reg_slot, target=name, file=self.p.tu.path,
                line=toks[d].line))
        return body_close + 1
