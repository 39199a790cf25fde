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
# or, for a library file, each binary of its crate that calls a
# `parse_flag` (the engine flags of `EngineConfig::parse_flag`, which
# only pc-server reads). It is reached only where a caller line names it
# after a program token naming its own program, the nearest such token
# before it on that line: `repro`, `pc-server`, `pc-loadgen`,
# `pc-benchmark`, or ci/smoke.sh's `--server-args` and `--loadgen-args`,
# which pass their words to pc-server and pc-loadgen. A sub-command is
# named as `trace NAME`. The refusals in ci.yml's "Retired surface is
# gone" step call nothing. `--help` and `-h` are exempt.
#
# Third pass (kind `doc`): every inline code span of DESIGN.md, README.md
# and EXPERIMENTS.md (fenced blocks skipped) that is an identifier or a
# `Type::path` must occur, each `::` segment and with a trailing `()`
# dropped, as a whole word in crates/, tests/, examples/, benchmark/src,
# ci/ (this script and its keep file excluded) or .github/. Every
# `--flag` in a span must be a flag a program defines: the program the
# span names before it, as in the second pass, or any program if it
# names none; flags after `cargo` are cargo's. The flag half runs inside
# the second pass, which knows the definitions.
#
# Fourth pass (kind `ci`): every `- name:` step of
# .github/workflows/ci.yml must carry a `# guards:` line in the comment
# block directly above it, naming the promise, golden or test the step
# protects. A step without one is listed under its name.
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

# Inline code spans of the docs as `path:line:span`; a span may wrap a
# line, and is reported at the line it opens on.
doc_spans() { lines DESIGN.md README.md EXPERIMENTS.md | awk '
{
    p = index($0, ":"); path = substr($0, 1, p - 1); rest = substr($0, p + 1)
    p = index(rest, ":"); num = substr(rest, 1, p - 1); text = substr(rest, p + 1)
    if (path != file) { file = path; fence = 0; open = 0 }
    if (text ~ /^[ \t]*```/) { fence = !fence; next }
    if (fence) next
    if (text ~ /^[ \t]*$/) open = 0
    n = split(text, part, "`")
    for (i = 1; i <= n; i++) {
        if (open) span = span (i == 1 ? " " : "") part[i]
        if (i == n) break
        if (open) print at ":" span
        else { at = path ":" num; span = "" }
        open = !open
    }
}'; }

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
    doc_spans | sed 's/^/M:/'
} | awk '
function add(kind, name) { n++; dkind[n] = kind; dname[n] = name; dloc[n] = loc; dpath[n] = path }
function is_program(s) { return s ~ /^(repro|pc-server|pc-loadgen|pc-benchmark)$/ }
function quoted(s) { sub(/^[^"]*"/, "", s); sub(/".*/, "", s); return s }
function crate(p) { split(p, part, "/"); return part[2] }
function program(p) { sub(/.*\//, "", p); sub(/\.rs$/, "", p); gsub(/_/, "-", p); return p }
# The programs of the flag or sub-command defined at `p`, into `each`.
function programs(p) { return split(p ~ /\/bin\// ? program(p) : readers[crate(p)], each, " ") }
# Whether a caller names `needle` after a program token naming one of
# the programs of the definition at `p`.
function bound(needle, p,   n, i) {
    n = programs(p)
    for (i = 1; i <= n; i++) if ((needle, each[i]) in reached) return 1
    return 0
}
FNR == NR { keep[$1 " " $2] = 1; next }
{
    side = substr($0, 1, 1); rest = substr($0, 3)
    p = index(rest, ":"); path = substr(rest, 1, p - 1); rest = substr(rest, p + 1)
    p = index(rest, ":"); loc = path ":" substr(rest, 1, p - 1); text = substr(rest, p + 1)
    if (path != file) { file = path; features = 0; retired = 0 }
    if (path ~ /^crates\/[^\/]+\/src\/bin\/[^\/]+\.rs$/ && text ~ /\.parse_flag\(/)
        readers[crate(path)] = readers[crate(path)] " " program(path)
    if (side == "M") {
        k = split(text, tok, /[^A-Za-z0-9_-]+/); prog = ""
        for (t = 1; t <= k; t++) {
            if (is_program(tok[t]) || tok[t] == "cargo") prog = tok[t]
            else if (tok[t] ~ /^--[a-z]/ && tok[t] != "--help" && prog != "cargo") { m++; mname[m] = tok[t]; mprog[m] = prog; mloc[m] = loc }
        }
    } else if (side == "C") {
        if (path == ".github/workflows/ci.yml" && text ~ /^ *- name:/) retired = text ~ /- name: Retired surface is gone/
        if (retired) next
        k = split(text, tok, /[^A-Za-z0-9_-]+/); prog = ""
        for (t = 1; t <= k; t++) {
            if (is_program(tok[t])) { prog = tok[t]; continue }
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
        if (dkind[i] != "flag") continue
        defined[dname[i], ""] = 1
        for (j = programs(dpath[i]); j > 0; j--) defined[dname[i], each[j]] = 1
    }
    for (i = 1; i <= m; i++)
        if (!((mname[i], mprog[i]) in defined) && !(("doc " mname[i]) in keep))
            print mloc[i] "  doc  " mname[i]
}' ci/census-keep.txt -; }

docs_pass() {
    local ids
    ids=$(doc_spans | awk '{
        p = index($0, ":"); p += index(substr($0, p + 1), ":"); span = substr($0, p + 1)
        sub(/\(\)$/, "", span)
        if (span !~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*$/) next
        n = split(span, seg, "::")
        for (i = 1; i <= n; i++) print substr($0, 1, p - 1) "\t" seg[i]
    }')
    {
        awk '$1 == "doc" { print $2 }' ci/census-keep.txt
        cut -f2 <<<"$ids" | sort -u |
            git grep -h -o -w -F -f /dev/stdin -- crates tests examples benchmark/src ci .github \
                ':!ci/census.sh' ':!ci/census-keep.txt'
    } | awk -F'\t' 'FNR == NR { known[$0] = 1; next }
        !($2 in known) { print $1 "  doc  " $2 }' - <(printf '%s\n' "$ids")
}

ci_pass() { awk '
/^[ \t]*#/ { if ($0 ~ /^[ \t]*# guards:/) guarded = 1; next }
/^[ \t]*- name:/ && !guarded { name = $0; sub(/^[ \t]*- name:[ \t]*/, "", name); print FILENAME ":" FNR "  ci  " name }
{ guarded = 0 }' .github/workflows/ci.yml; }

rows=$(pub_pass; surface_pass; docs_pass; ci_pass)

[ -z "$rows" ] || { echo "$rows"; exit 1; }
