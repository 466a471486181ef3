#!/usr/bin/env python3
"""Repo-specific invariant linter for dnastore.

Generic tools (clang-tidy, sanitizers) cannot know this repo's
contracts; this linter machine-checks the four that reviews have had
to police by hand:

  1. no-throw-boundary
     Nothing under src/api/ or src/daemon/ may `throw`: the public
     facade and the daemon built on it report errors exclusively
     through api::Status / api::Result<T> (see api/status.hh). A throw
     that escapes either directory would tear down a daemon connection
     thread instead of producing a wire status. `std::async` is banned
     there too: it throws std::system_error when no thread can start.

  2. statuscode-wire-mapping
     Every enumerator of api::StatusCode (parsed from api/status.hh)
     must be mapped in api/wire.cc, in BOTH directions: a
     `case StatusCode::X` in statusCodeToWire and a
     `return StatusCode::X` in statusCodeFromWire. This makes wire
     exhaustiveness a source-level guarantee instead of a runtime
     hope when someone grows the taxonomy.

  3. determinism-hygiene
     src/{cluster,consensus,pipeline,lab,channel}/ carry the
     bit-identical-at-any-thread-count contract, so ambient
     nondeterminism sources are banned there: rand(), random_device,
     time(), and std::chrono *_clock::now(). The only sanctioned
     escapes live in ALLOWLIST below; every entry must still match
     real source (a stale entry is itself an error) so the list can
     only shrink, never silently rot.

  4. mirror-structs
     No two structs under src/ may declare the same ordered list of
     data-member names (3 or more members). Such a pair is one
     concept declared twice — a report mirrored field for field
     across a layer boundary and copied by hand at every crossing.
     Keep one definition and alias it where the other name is needed
     (`using Old = New;`).

Exit status: 0 clean, 1 violations found, 2 usage/internal error.

Run `lint_invariants.py --self-test` to prove each check still fires:
it seeds one violation of every class into a synthetic tree and
asserts detection (and that a clean tree passes). The `lint` CMake
target runs the self-test and then the real tree.
"""

import argparse
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Configuration: which directories carry which contracts.

NO_THROW_DIRS = ("src/api", "src/daemon")

DETERMINISM_DIRS = (
    "src/cluster",
    "src/consensus",
    "src/pipeline",
    "src/lab",
    "src/channel",
)

STATUS_HEADER = "src/api/status.hh"
WIRE_SOURCE = "src/api/wire.cc"

# Banned nondeterminism sources. Patterns run on comment/string-stripped
# source; identifier boundaries keep toStrand() from matching rand().
DETERMINISM_BANS = (
    ("rand()", re.compile(r"(?<![A-Za-z0-9_])rand\s*\(")),
    ("random_device", re.compile(r"(?<![A-Za-z0-9_])random_device(?![A-Za-z0-9_])")),
    ("time()", re.compile(r"(?<![A-Za-z0-9_])time\s*\(")),
    ("clock-now", re.compile(r"_clock\s*::\s*now\s*\(")),
)

# The explicit determinism allowlist: (relative path, ban name) pairs.
# Each entry must match at least one violation in the named file or the
# lint fails with "stale allowlist entry". Keep the justification next
# to the entry.
ALLOWLIST = {
    # SweepRunner measures wall_ms for the optional --timing report
    # column; the clock never feeds a trial, a seed, or any value that
    # lands in the deterministic (non---timing) report bytes. Verified
    # by the sweep-determinism suite's byte-compare across runs.
    ("src/lab/sweep.cc", "clock-now"),
}

SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")


def strip_comments_and_strings(text):
    """Blank out comments, string literals, and char literals.

    Replaces their contents with spaces (newlines preserved) so line
    numbers survive and banned tokens inside docs/messages don't trip
    the lint. A lexer-grade pass: handles //, /* */, "..." with
    escapes, '...' with escapes. Raw strings are rare in this tree and
    handled conservatively (R"( ... )" with empty delimiter).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j
        elif c == "R" and text[i : i + 3] == 'R"(':
            j = text.find(')"', i + 3)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at EOL
                    break
                j += 1
            seg = text[i:j]
            out.append(quote + " " * max(0, len(seg) - 2) + (quote if len(seg) > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_source_files(root, rel_dirs):
    for rel in rel_dirs:
        base = os.path.join(root, rel)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in sorted(os.walk(base)):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def read_text(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


class Violation:
    def __init__(self, check, path, line, detail):
        self.check = check
        self.path = path
        self.line = line
        self.detail = detail

    def __str__(self):
        where = self.path if self.line is None else "%s:%d" % (self.path, self.line)
        return "[%s] %s: %s" % (self.check, where, self.detail)


# --------------------------------------------------------------------------
# Check 1: no throw (and no throwing std::async) under src/api/ or
# src/daemon/.

NO_THROW_BANS = (
    (
        re.compile(r"(?<![A-Za-z0-9_])throw(?![A-Za-z0-9_])"),
        "`throw` inside the no-throw Status boundary "
        "(return api::Status / api::Result instead)",
    ),
    (
        re.compile(r"\bstd\s*::\s*async\b"),
        "`std::async` inside the no-throw Status boundary: it throws "
        "std::system_error when no thread can start (run the work on "
        "the caller's thread)",
    ),
)


def check_no_throw(root):
    violations = []
    for path in iter_source_files(root, NO_THROW_DIRS):
        stripped = strip_comments_and_strings(read_text(path))
        for lineno, line in enumerate(stripped.splitlines(), 1):
            for pattern, detail in NO_THROW_BANS:
                if pattern.search(line):
                    rel = os.path.relpath(path, root)
                    violations.append(
                        Violation("no-throw-boundary", rel, lineno, detail)
                    )
    return violations


# --------------------------------------------------------------------------
# Check 2: StatusCode <-> wire mapping exhaustiveness.

ENUM_RE = re.compile(
    r"enum\s+class\s+StatusCode\s*(?::[^{]*)?\{(?P<body>[^}]*)\}", re.S
)


def parse_status_codes(root):
    header = os.path.join(root, STATUS_HEADER)
    if not os.path.isfile(header):
        return None, [
            Violation(
                "statuscode-wire-mapping", STATUS_HEADER, None, "header not found"
            )
        ]
    stripped = strip_comments_and_strings(read_text(header))
    m = ENUM_RE.search(stripped)
    if not m:
        return None, [
            Violation(
                "statuscode-wire-mapping",
                STATUS_HEADER,
                None,
                "could not find `enum class StatusCode { ... }`",
            )
        ]
    names = []
    for part in m.group("body").split(","):
        name = part.split("=")[0].strip()
        if name and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            names.append(name)
    if not names:
        return None, [
            Violation(
                "statuscode-wire-mapping",
                STATUS_HEADER,
                None,
                "StatusCode enum parsed empty",
            )
        ]
    return names, []


def check_wire_mapping(root):
    names, violations = parse_status_codes(root)
    if names is None:
        return violations
    wire = os.path.join(root, WIRE_SOURCE)
    if not os.path.isfile(wire):
        return [
            Violation("statuscode-wire-mapping", WIRE_SOURCE, None, "source not found")
        ]
    stripped = strip_comments_and_strings(read_text(wire))
    for name in names:
        if not re.search(r"case\s+StatusCode\s*::\s*%s\b" % re.escape(name), stripped):
            violations.append(
                Violation(
                    "statuscode-wire-mapping",
                    WIRE_SOURCE,
                    None,
                    "StatusCode::%s has no `case` in statusCodeToWire "
                    "(unmapped on the way out)" % name,
                )
            )
        if not re.search(
            r"return\s+StatusCode\s*::\s*%s\b" % re.escape(name), stripped
        ):
            violations.append(
                Violation(
                    "statuscode-wire-mapping",
                    WIRE_SOURCE,
                    None,
                    "StatusCode::%s is never returned by statusCodeFromWire "
                    "(unmapped on the way in)" % name,
                )
            )
    return violations


# --------------------------------------------------------------------------
# Check 3: determinism hygiene.


def check_determinism(root):
    violations = []
    used_allowlist = set()
    for path in iter_source_files(root, DETERMINISM_DIRS):
        rel = os.path.relpath(path, root)
        stripped = strip_comments_and_strings(read_text(path))
        for lineno, line in enumerate(stripped.splitlines(), 1):
            for ban_name, ban_re in DETERMINISM_BANS:
                if not ban_re.search(line):
                    continue
                key = (rel.replace(os.sep, "/"), ban_name)
                if key in ALLOWLIST:
                    used_allowlist.add(key)
                    continue
                violations.append(
                    Violation(
                        "determinism-hygiene",
                        rel,
                        lineno,
                        "banned nondeterminism source %s in a "
                        "bit-identical subsystem (draw from the seeded "
                        "RNG stream, or add an ALLOWLIST entry with "
                        "justification)" % ban_name,
                    )
                )
    for key in sorted(ALLOWLIST - used_allowlist):
        violations.append(
            Violation(
                "determinism-hygiene",
                key[0],
                None,
                "stale allowlist entry (%s no longer matches anything; "
                "remove it)" % key[1],
            )
        )
    return violations


# --------------------------------------------------------------------------
# Check 4: no mirrored structs.

MIRROR_DIRS = ("src",)
MIRROR_MIN_MEMBERS = 3

STRUCT_RE = re.compile(
    r"(?<![A-Za-z0-9_])struct\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s+final)?\s*(?::[^{;()]*)?\{"
)
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:(?!:)")
NON_MEMBER_PREFIXES = (
    "using", "typedef", "friend", "static", "template", "static_assert",
    "constexpr", "enum", "struct", "class", "union",
)


def match_brace(text, open_idx):
    """Index just past the brace that closes text[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def split_top_level(text, sep):
    """Split on @p sep outside (), <> and [] nesting."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def member_names(body):
    """Ordered data-member names declared directly in a struct body.

    Nested braces are collapsed first: a `{...}` after a `)` is an
    inline function body (its declaration is dropped), any other one
    is a nested type or a brace initializer (kept as `{}`). Each
    top-level `;` statement that is not a function, type, alias or
    static then contributes its declarator names.
    """
    flat, i = [], 0
    while i < len(body):
        c = body[i]
        if c == "{":
            end = match_brace(body, i)
            if "".join(flat).rstrip().endswith(
                (")", "const", "override", "noexcept")
            ):
                flat.append(";")  # inline function body ends the decl
            else:
                flat.append("{}")
            i = end
            continue
        flat.append(c)
        i += 1
    names = []
    for stmt in "".join(flat).split(";"):
        stmt = stmt.strip()
        while True:
            m = ACCESS_RE.match(stmt)
            if not m:
                break
            stmt = stmt[m.end():].strip()
        if not stmt:
            continue
        words = IDENT_RE.findall(stmt)
        if words and words[0] in NON_MEMBER_PREFIXES:
            # `enum Kind {} kind;` still declares a member after the
            # nested type; a bare nested type or alias does not.
            if words[0] not in ("enum", "struct", "class", "union"):
                continue
            stmt = stmt.split("{}", 1)[1] if "{}" in stmt else ""
            if not stmt.strip():
                continue
        decl = re.split(r"[={]", stmt, 1)[0]
        if "(" in decl or "operator" in IDENT_RE.findall(decl):
            continue  # function declaration
        for part in split_top_level(decl, ","):
            part = re.sub(r"\[[^\]]*\]", "", part)  # array extents
            part = re.sub(r"(?<!:):\s*\w+\s*$", "", part)  # bit-field width
            idents = IDENT_RE.findall(part)
            if idents:
                names.append(idents[-1])
    return names


def iter_structs(root, rel_dirs):
    """Yield (rel path, line, name, member names) for every struct."""
    for path in iter_source_files(root, rel_dirs):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        stripped = strip_comments_and_strings(read_text(path))
        for m in STRUCT_RE.finditer(stripped):
            open_idx = m.end() - 1
            body = stripped[open_idx + 1 : match_brace(stripped, open_idx) - 1]
            line = stripped.count("\n", 0, m.start()) + 1
            yield rel, line, m.group("name"), member_names(body)


def check_mirror_structs(root):
    groups = {}
    for rel, line, name, members in iter_structs(root, MIRROR_DIRS):
        if len(members) >= MIRROR_MIN_MEMBERS:
            groups.setdefault(tuple(members), []).append((rel, line, name))
    violations = []
    for members, defs in sorted(groups.items(), key=lambda kv: kv[1]):
        if len(defs) < 2:
            continue
        rel, line, name = defs[0]
        others = ", ".join("%s (%s:%d)" % (n, r, l) for r, l, n in defs[1:])
        violations.append(
            Violation(
                "mirror-structs",
                rel,
                line,
                "struct %s is mirrored by %s: identical members (%s); keep "
                "one definition and alias it instead of copying field by "
                "field" % (name, others, ", ".join(members)),
            )
        )
    return violations


# --------------------------------------------------------------------------
# Driver.

ALL_CHECKS = (
    ("no-throw-boundary", check_no_throw),
    ("statuscode-wire-mapping", check_wire_mapping),
    ("determinism-hygiene", check_determinism),
    ("mirror-structs", check_mirror_structs),
)


def run_checks(root):
    violations = []
    for _name, fn in ALL_CHECKS:
        violations.extend(fn(root))
    return violations


# --------------------------------------------------------------------------
# Self-test: seed one violation of each class into a synthetic tree and
# assert each check fires; assert a clean tree passes.

CLEAN_STATUS_HH = """
namespace dnastore { namespace api {
enum class StatusCode { Ok = 0, InvalidArgument, Internal, };
}}
"""

CLEAN_WIRE_CC = """
#include "api/wire.hh"
namespace dnastore { namespace api {
unsigned statusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::Ok: return 0;
    case StatusCode::InvalidArgument: return 1;
    case StatusCode::Internal: return 8;
  }
  return 8;
}
StatusCode statusCodeFromWire(unsigned wire) {
  switch (wire) {
    case 0: return StatusCode::Ok;
    case 1: return StatusCode::InvalidArgument;
    default: return StatusCode::Internal;
  }
}
}}
"""


def write_tree(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def clean_tree_files():
    return {
        STATUS_HEADER: CLEAN_STATUS_HH,
        WIRE_SOURCE: CLEAN_WIRE_CC,
        # Comments and strings mentioning banned tokens must NOT trip
        # any check.
        "src/api/store.cc": (
            "// may throw? no: @throws is only documentation\n"
            "// std::async in a comment is fine\n"
            'const char *msg = "throw time() rand() std::async";\n'
        ),
        "src/daemon/server.cc": "int serve() { return 0; }\n",
        "src/cluster/greedy.cc": (
            "// time() in a comment is fine\n"
            "int toStrandCount(int n) { return n; }  // rand( in name\n"
        ),
        "src/pipeline/sim.cc": "int simulate(int seed) { return seed; }\n",
        # Same member names in a different order, or a shared prefix
        # of two members, are distinct concepts: no mirror.
        "src/pipeline/report.hh": (
            "struct UnitReport {\n"
            "    size_t reads = 0; bool ok{}; double rate = 0.0;\n"
            "    std::string toJson() const;\n"
            "};\n"
            "struct Pair { size_t reads; bool ok; };\n"
        ),
        "src/api/report.hh": (
            "struct Report {\n"
            "    bool ok = false; size_t reads = 0; double rate = 0.0;\n"
            "    size_t total() const { return reads; }\n"
            "};\n"
            "struct Other { size_t reads; bool ok; };\n"
        ),
    }


def expect(cond, what, failures):
    if not cond:
        failures.append(what)


def self_test():
    failures = []

    with tempfile.TemporaryDirectory() as root:
        write_tree(root, clean_tree_files())
        global ALLOWLIST
        saved_allowlist = ALLOWLIST
        ALLOWLIST = set()  # the synthetic tree needs no escapes
        try:
            violations = run_checks(root)
            expect(
                not violations,
                "clean synthetic tree must pass, got: %s"
                % "; ".join(str(v) for v in violations),
                failures,
            )

            # Seed 1: throw inside the boundary.
            seeded = dict(clean_tree_files())
            seeded["src/api/store.cc"] += (
                'int f() { throw 1; }\n'
            )
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "no-throw-boundary"]
            expect(len(got) == 1, "seeded throw-in-api not caught exactly once", failures)

            # Seed 1b: throw in daemon/.
            seeded = dict(clean_tree_files())
            seeded["src/daemon/server.cc"] = (
                "int serve() { throw 2; }\n"
            )
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "no-throw-boundary"]
            expect(len(got) == 1, "seeded throw-in-daemon not caught", failures)

            # Seed 1c: std::async (throws when no thread starts) in
            # api/ and in daemon/.
            for rel in ("src/api/store.cc", "src/daemon/server.cc"):
                seeded = dict(clean_tree_files())
                seeded[rel] += (
                    "auto f = std::async(std::launch::async, [] {});\n"
                )
                write_tree(root, seeded)
                got = [
                    v for v in run_checks(root) if v.check == "no-throw-boundary"
                ]
                expect(
                    len(got) == 1 and "std::async" in got[0].detail,
                    "seeded std::async in %s not caught exactly once" % rel,
                    failures,
                )

            # Seed 2: a StatusCode enumerator with no wire mapping.
            seeded = dict(clean_tree_files())
            seeded[STATUS_HEADER] = CLEAN_STATUS_HH.replace(
                "Internal, };", "Internal, Unmapped, };"
            )
            write_tree(root, seeded)
            got = [
                v for v in run_checks(root) if v.check == "statuscode-wire-mapping"
            ]
            expect(
                len(got) == 2 and all("Unmapped" in v.detail for v in got),
                "seeded unmapped StatusCode not caught in both directions",
                failures,
            )

            # Seed 3: each banned nondeterminism source, one per file.
            nondet_snippets = {
                "rand()": "int draw() { return rand(); }\n",
                "random_device": "#include <random>\nstd::random_device rd;\n",
                "time()": "#include <ctime>\nlong now() { return time(nullptr); }\n",
                "clock-now": (
                    "#include <chrono>\n"
                    "auto t() { return std::chrono::steady_clock::now(); }\n"
                ),
            }
            for ban_name, snippet in nondet_snippets.items():
                seeded = dict(clean_tree_files())
                seeded["src/cluster/greedy.cc"] = snippet
                write_tree(root, seeded)
                got = [
                    v for v in run_checks(root) if v.check == "determinism-hygiene"
                ]
                expect(
                    len(got) == 1 and ban_name in got[0].detail,
                    "seeded %s not caught" % ban_name,
                    failures,
                )

            # Seed 4: a report mirrored field for field across a layer,
            # its copy hiding behind access specifiers, a nested enum
            # member and an inline method.
            seeded = dict(clean_tree_files())
            seeded["src/api/report.hh"] += (
                "struct UnitReportEntry {\n"
                "  public:\n"
                "    size_t reads = 0;\n"
                "    bool ok() const { return reads > 0; }\n"
                "    enum Kind { A, B } ok{ A };\n"
                "    double rate[2];\n"
                "};\n"
            )
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "mirror-structs"]
            expect(
                len(got) == 1
                and "UnitReport" in got[0].detail
                and "UnitReportEntry" in got[0].detail,
                "seeded mirrored struct pair not caught exactly once",
                failures,
            )

            # Seed 3b: an allowlisted violation passes, and a stale
            # allowlist entry fails.
            ALLOWLIST = {("src/cluster/greedy.cc", "clock-now")}
            seeded = dict(clean_tree_files())
            seeded["src/cluster/greedy.cc"] = nondet_snippets["clock-now"]
            write_tree(root, seeded)
            got = [v for v in run_checks(root) if v.check == "determinism-hygiene"]
            expect(not got, "allowlisted clock-now still flagged", failures)

            write_tree(root, clean_tree_files())
            got = [v for v in run_checks(root) if v.check == "determinism-hygiene"]
            expect(
                len(got) == 1 and "stale allowlist" in got[0].detail,
                "stale allowlist entry not flagged",
                failures,
            )
        finally:
            ALLOWLIST = saved_allowlist

    if failures:
        for f in failures:
            print("SELF-TEST FAIL: %s" % f, file=sys.stderr)
        return 1
    print("lint_invariants self-test: all checks fire and clean trees pass")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "--report", default=None, help="also write the findings to this file"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="seed violations of each class and assert detection",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print("lint_invariants: no src/ under --root %s" % args.root, file=sys.stderr)
        return 2

    violations = run_checks(args.root)
    lines = [str(v) for v in violations]
    summary = (
        "lint_invariants: clean (%d checks over %d+%d dirs)"
        % (len(ALL_CHECKS), len(NO_THROW_DIRS), len(DETERMINISM_DIRS))
        if not violations
        else "lint_invariants: %d violation(s)" % len(violations)
    )
    report = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
