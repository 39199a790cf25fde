#!/usr/bin/env bash
# Surface census: every `pub` item in crates/*/src needs a caller.
#
# Lists each `pub` fn/struct/enum/trait/type/const/static/mod/union in
# crates/*/src whose name appears, as a whole word, in no code outside
# unit tests: non-test crates/*/src (its own definition lines excluded),
# crates/*/tests, tests/, examples/ and benchmark/src. Comments, `pub use`
# re-exports and items whose attributes carry `cfg(test)` or
# `test-support` (bodies included) are not code for this purpose, and
# such items are not listed either. Rows print as `path:line  name`,
# with methods named `Type::method`.
#
# Prints each row whose name is missing from ci/census-keep.txt (one
# `name reason` per line) and exits 1 if there is any, so a surface
# nothing reaches is either deleted or kept with a reason.
# Usage: ci/census.sh (from anywhere in the repository).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every line of the given files as `path:line:text`.
lines() { git grep --untracked -n -I -e '' -- "$@"; }

rows=$( {
    lines 'crates/*/src/*.rs' 'benchmark/src/*.rs' | sed 's/^/S:/'
    lines 'crates/*/tests/*.rs' 'tests/*.rs' 'examples/*.rs' | sed 's/^/T:/'
} | awk '
function count(s, c) { return gsub(c, "", s) }
FNR == NR { keep[$1] = 1; next }
{
    kind = substr($0, 1, 1); rest = substr($0, 3)
    p = index(rest, ":"); path = substr(rest, 1, p - 1); rest = substr(rest, p + 1)
    p = index(rest, ":"); loc = path ":" substr(rest, 1, p - 1); text = substr(rest, p + 1)
    sub(/\/\/.*/, "", text)
    if (path != file) { file = path; skip = 0; pending = 0; reexport = 0; owner = "" }
    if (kind == "S") {
        # Drop cfg(test) / test-support items and `pub use` lists.
        if (skip) {
            depth += count(text, "{") - count(text, "}")
            if (index(text, "{")) opened = 1
            if ((opened && depth <= 0) || (!opened && index(text, ";"))) skip = 0
            next
        }
        if (reexport) { if (index(text, ";")) reexport = 0; next }
        if (text ~ /^[ \t]*#\[cfg\((.*[(, ])?(test[,)]|.*test-support)/) { pending = 1; next }
        if (pending && text ~ /^[ \t]*(#\[.*)?$/) next
        if (pending) {
            pending = 0; depth = count(text, "{") - count(text, "}"); opened = index(text, "{") > 0
            if ((opened && depth > 0) || (!opened && !index(text, ";"))) skip = 1
            next
        }
        if (text ~ /^[ \t]*pub use /) { if (!index(text, ";")) reexport = 1; next }
        if (text ~ /^impl/) {
            owner = text; sub(/ *(where.*)?\{.*/, "", owner); sub(/.* /, "", owner); sub(/<.*/, "", owner)
            if (text ~ / for /) owner = ""
        }
        if (text ~ /^}/) owner = ""
        if (path ~ /^crates\// && match(text, /^[ \t]*pub ((const|unsafe|async|extern "C") )*(fn|struct|enum|trait|type|const|static|mod|union) [A-Za-z0-9_]+/)) {
            name = substr(text, RSTART, RLENGTH); sub(/.* /, "", name)
            def[name, loc] = 1; defs[++ndefs] = name; where[ndefs] = loc
            qual[ndefs] = (owner != "" && text ~ /^[ \t]/) ? owner "::" name : name
        }
    }
    code[++nlines] = text; at[nlines] = loc
}
END {
    for (i = 1; i <= ndefs; i++) wanted[defs[i]] = 1
    for (l = 1; l <= nlines; l++) {
        n = split(code[l], tok, /[^A-Za-z0-9_]+/)
        for (t = 1; t <= n; t++)
            if (tok[t] in wanted && !((tok[t], at[l]) in def)) used[tok[t]] = 1
    }
    for (i = 1; i <= ndefs; i++)
        if (!(defs[i] in used) && !(qual[i] in keep)) print where[i] "  " qual[i]
}' ci/census-keep.txt - )

[ -z "$rows" ] || { echo "$rows"; exit 1; }
