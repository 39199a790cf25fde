#!/usr/bin/env bash
# Surface census: every `pub` item, CLI flag, `repro trace` sub-command,
# environment variable and cargo feature in crates/ needs a caller.
#
# First pass (kind `pub`):
# Lists each `pub` fn/struct/enum/trait/type/const/static/mod/union in
# crates/*/src whose name appears, as a whole word, in no code outside
# unit tests: non-test crates/*/src (its own definition lines excluded),
# crates/*/tests, tests/, examples/ and benchmark/src. Comments, `pub use`
# re-exports and items whose attributes carry `cfg(test)` or
# `test-support` (bodies included) are not code for this purpose, and
# such items are not listed either. Methods are named `Type::method`.
#
# Second pass (kinds `flag`, `subcommand`, `env`, `feature`): each
# `"--name" =>` match arm, `Some("name") =>` arm of a binary (the
# `repro trace` sub-commands), `env::var("NAME")` and `[features]` entry
# must be named outside its own file by .github/workflows/ci.yml, ci/*.sh,
# tests/, crates/*/tests, examples/, benchmark/ or a Cargo.toml. A flag
# or sub-command belongs to a program: the binary whose file defines it,
# or every binary of the crate for a library file (pc-server and
# pc-loadgen share the engine flags). It is reached only where a caller
# line names it after a program token naming its own program, the
# nearest such token before it on that line: `repro`, `pc-server`,
# `pc-loadgen`, `pc-benchmark`, or ci/smoke.sh's `--server-args` and
# `--loadgen-args`, which pass their words to pc-server and pc-loadgen.
# A sub-command is named as `trace NAME`. The refusals in ci.yml's
# "Retired surface is gone" step call nothing. `--help` and `-h` are
# exempt.
#
# Rows print as `path:line  kind  name`. Prints each row whose `kind
# name` is missing from ci/census-keep.txt (one `kind name reason` per
# line) and exits 1 if there is any, so a surface nothing reaches is
# either deleted or kept with a reason.
# Usage: ci/census.sh (from anywhere in the repository).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every line of the given files as `path:line:text`.
lines() { git grep --untracked -n -I -e '' -- "$@"; }

pub_pass() { {
    lines 'crates/*/src/*.rs' 'benchmark/src/*.rs' | sed 's/^/S:/'
    lines 'crates/*/tests/*.rs' 'tests/*.rs' 'examples/*.rs' | sed 's/^/T:/'
} | awk '
function count(s, c) { return gsub(c, "", s) }
FNR == NR { keep[$1 " " $2] = 1; next }
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
        if (!(defs[i] in used) && !(("pub " qual[i]) in keep)) print where[i] "  pub  " qual[i]
}' ci/census-keep.txt -; }

surface_pass() { {
    lines Cargo.toml 'crates/*/Cargo.toml' 'crates/*/src/*.rs' | sed 's/^/D:/'
    lines .github/workflows/ci.yml 'ci/*.sh' ':!ci/census.sh' tests 'crates/*/tests' examples \
        benchmark Cargo.toml 'crates/*/Cargo.toml' | sed 's/^/C:/'
} | awk '
function add(kind, name) { n++; dkind[n] = kind; dname[n] = name; dloc[n] = loc; dpath[n] = path }
function quoted(s) { sub(/^[^"]*"/, "", s); sub(/".*/, "", s); return s }
function crate(p) { split(p, part, "/"); return part[2] }
function program(p) { sub(/.*\//, "", p); sub(/\.rs$/, "", p); gsub(/_/, "-", p); return p }
# Whether a caller names `needle` after a program token naming one of
# the programs of the definition at `p`.
function bound(needle, p,   progs, n, i) {
    progs = p ~ /\/bin\// ? program(p) : bins[crate(p)]
    n = split(progs, each, " ")
    for (i = 1; i <= n; i++) if ((needle, each[i]) in reached) return 1
    return 0
}
FNR == NR { keep[$1 " " $2] = 1; next }
{
    side = substr($0, 1, 1); rest = substr($0, 3)
    p = index(rest, ":"); path = substr(rest, 1, p - 1); rest = substr(rest, p + 1)
    p = index(rest, ":"); loc = path ":" substr(rest, 1, p - 1); text = substr(rest, p + 1)
    if (path != file) { file = path; features = 0; retired = 0 }
    if (path ~ /^crates\/[^\/]+\/src\/bin\/[^\/]+\.rs$/) bins[crate(path)] = bins[crate(path)] " " program(path)
    if (side == "C") {
        if (path == ".github/workflows/ci.yml" && text ~ /^ *- name:/) retired = text ~ /- name: Retired surface is gone/
        if (retired) next
        k = split(text, tok, /[^A-Za-z0-9_-]+/); prog = ""
        for (t = 1; t <= k; t++) {
            if (tok[t] ~ /^(repro|pc-server|pc-loadgen|pc-benchmark)$/) { prog = tok[t]; continue }
            if (tok[t] == "--server-args") { prog = "pc-server"; continue }
            if (tok[t] == "--loadgen-args") { prog = "pc-loadgen"; continue }
            hits[tok[t]]++; hits_in[tok[t], path]++; reached[tok[t], prog] = 1
            if (t > 1 && tok[t - 1] == "trace") reached["trace " tok[t], prog] = 1
        }
    } else if (path ~ /Cargo\.toml$/) {
        if (text ~ /^\[/) features = text ~ /^\[features\]/
        else if (features && match(text, /^[A-Za-z0-9_-]+/)) add("feature", substr(text, 1, RLENGTH))
    } else {
        sub(/\/\/.*/, "", text)
        if (text ~ /^[ \t]*"-[^"]*"( \| "-[^"]*")* =>/) {
            k = split(text, tok, "\"")
            for (t = 2; t < k; t += 2) if (tok[t] ~ /^-/ && tok[t] != "--help" && tok[t] != "-h") add("flag", tok[t])
        }
        if (path ~ /\/bin\// && match(text, /Some\("[a-z-]+"\) =>/)) add("subcommand", quoted(substr(text, RSTART)))
        if (match(text, /env::var(_os)?\("[A-Za-z0-9_]+"/)) add("env", quoted(substr(text, RSTART)))
    }
}
END {
    for (i = 1; i <= n; i++) {
        needle = dkind[i] == "subcommand" ? "trace " dname[i] : dname[i]
        if (dkind[i] == "flag" || dkind[i] == "subcommand") unreached = !bound(needle, dpath[i])
        else unreached = hits[needle] == hits_in[needle, dpath[i]]
        if (unreached && !((dkind[i] " " dname[i]) in keep))
            print dloc[i] "  " dkind[i] "  " dname[i]
    }
}' ci/census-keep.txt -; }

rows=$(pub_pass; surface_pass)

[ -z "$rows" ] || { echo "$rows"; exit 1; }
