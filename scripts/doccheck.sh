#!/usr/bin/env bash
# doccheck: the prose may only name what exists. In README.md and
# docs/*.md, every back-ticked
#
#   pkg.Ident     a package of this module, then an identifier of that
#                 package (`tcq.Request`, `tc.DenseGraph.ReachFromCtx`;
#                 later components anywhere in the module's Go code);
#                 other package names (`errors.Is`) are not checked
#   Ident         a bare exported Go name, or a dotted chain of them
#                 (`ErrBadSnapshot`, `Site.DenseKernel`, `Epoch()`)
#   path          a path into the tree (`internal/store/decode.go`,
#                 `repro/pkg/tcq`, `scripts/*.sh`, `decode.go:46`): its
#                 first component is a top-level entry, or it is a bare
#                 source file name that exists somewhere
#   -flag         a command-line flag (`-store`, `-checkpoint-every N`):
#                 some cmd/*/main.go defines it; after a command
#                 (`tcload -addrs`, `bin/tcserver -pprof`) every -flag is
#                 one that command's main.go defines
#   tc_name       a metric (`tc_epoch`, `tc_http_requests_total{endpoint}`,
#                 `tc_fragments_{rebuilt,shared}_total`, `tc_store_*`): a
#                 family some Go code registers, or its _bucket, _sum or
#                 _count series; a trailing * or _ matches any family
#                 with that prefix
#
# must resolve. An identifier resolves when it occurs in Go code outside
# comments. Fenced code blocks are not checked. A historical mention is
# allowlisted below, one span per line with its reason; an entry whose
# span the docs no longer contain is itself an error.
#
# Usage: scripts/doccheck.sh
set -euo pipefail

cd "$(dirname "$0")/.."

allow=(
    # README "Removed in PR 14": the list of what was deleted, and when.
    'QueryParallel'                 # dsa.Store method, deleted in PR 14
    'ConnectedParallel'             # dsa.Store method, deleted in PR 14
    'RunPlan'                       # dsa.Store method, deleted in PR 14 (RunPlanCtx stays)
    'InsertEdge'                    # single-edge mutator, deleted in PR 14
    'DeleteEdge'                    # single-edge mutator, deleted in PR 14
    'Client.Refresh'                # tcq.Client method, deleted in PR 14
    'dsa.Store.Assemble'            # assembly, deleted in PR 17
    'dsa.Outcome'                   # assembly result, deleted in PR 17
    'Plan.ChainLegs'                # plan accessor, deleted in PR 17
    'BitsetReachableFrom'           # non-ctx tc twin, deleted in PR 17
    'DenseGraph.CostFrom'           # non-ctx tc twin, deleted in PR 17
    'CostVector'                    # non-ctx tc twin, deleted in PR 17
    'server.Config.SiteWorkers'     # worker-pool knob, deleted in PR 17
    'internal/server/pool.go'       # site worker pools, deleted in PR 19
    'ShortcutEdges()'               # CompInfo accessor, deleted in PR 19
    'loadgen.LoadConfig.WriteEdges' # load driver knob, deleted in PR 22
    'tc.CondensedClosure'           # second condensation closure, deleted (README history)
    'tc.DenseCostFrom'              # relation-fronted cost kernel, deleted (README history)
    'tc.DenseCostClosure'           # relation-fronted cost kernel, deleted (README history)
    'tc.ErrNodesNotInt64'           # non-int64 fallback sentinel, deleted (README history)
    'Graph.StronglyConnectedComponents' # id-form SCC wrapper, deleted (README history)
    'Graph.Condensation'            # condensation DAG, deleted (README history)
    'Graph.StatusScores'            # folded into TopByStatus (README history)
    'tcserver -site-workers'        # server flag, deleted with the per-site worker pools
    'tcserver -engine'              # server flag, deleted with the legacy routes
    'tcload -api'                   # load driver flag, deleted with the legacy routes
    # Flags of the go tool, not of a command of this module.
    '-race'                         # go test / go build race detector
    '-benchmem'                     # go test benchmark allocation report
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-files --cached --others --exclude-standard >"$tmp/files"
printf '%s\n' "${allow[@]}" >"$tmp/allow"

# Identifier index: "pkg word" for every identifier token of Go code,
# comments stripped; package names come from the package clauses.
grep '\.go$' "$tmp/files" | xargs awk -v q="'" '
    BEGIN {
        special = "//|/\\*|[\"`" q "]"
        closing["\""] = "^([^\"\\\\]|\\\\.)*\""
        closing[q] = "^([^" q "\\\\]|\\\\.)*" q
    }
    # The line without its comments. Block comments and raw strings may
    # span lines (blk, raw); a // inside a string literal is not a comment.
    function code(s,    out, c, p) {
        out = ""
        while (s != "") {
            if (blk) { p = index(s, "*/"); if (!p) return out; s = substr(s, p + 2); blk = 0; out = out " "; continue }
            if (raw) { p = index(s, "`"); if (!p) return out s; out = out substr(s, 1, p); s = substr(s, p + 1); raw = 0; continue }
            if (!match(s, special)) return out s
            out = out substr(s, 1, RSTART - 1); c = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            if (c == "//") return out
            if (c == "/*") blk = 1
            else if (c == "`") { raw = 1; out = out c }
            else if (match(s, closing[c])) { out = out c substr(s, 1, RLENGTH); s = substr(s, RLENGTH + 1) }
            else return out c s
        }
        return out
    }
    FNR == 1 { pkg = ""; blk = 0; raw = 0 }
    {
        line = code($0)
        if (pkg == "" && line ~ /^package /) { split(line, w, " "); pkg = w[2]; sub(/_test$/, "", pkg); print "P " pkg }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            print pkg " " substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
        }
    }' | sort -u >"$tmp/idents"

# Flag index: "command flag" for every flag a cmd/*/main.go defines.
for main in cmd/*/main.go; do
    grep -oE '\.(String|Int|Int64|Uint|Uint64|Bool|Float64|Duration|Func|BoolFunc|TextVar|Var|StringVar|IntVar|Int64Var|UintVar|Uint64Var|BoolVar|Float64Var|DurationVar)\((&?[A-Za-z_.]+, )?"[a-z0-9-]+"' "$main" |
        sed -E "s|.*\"([a-z0-9-]+)\"|$(basename "$(dirname "$main")") \1|"
done | sort -u >"$tmp/flags"

# Metric index: every family a registration names in non-test Go code.
grep '\.go$' "$tmp/files" | grep -v -e '_test\.go$' -e '/testdata/' | xargs grep -ohE \
    '\.(Counter|CounterVec|CounterFunc|Gauge|GaugeVec|GaugeFunc|Histogram|HistogramVec)\(\s*"tc_[a-z0-9_]+"' |
    sed -E 's/.*"(tc_[a-z0-9_]+)"/\1/' | sort -u >"$tmp/families"

awk -v files="$tmp/files" -v idents="$tmp/idents" -v allowf="$tmp/allow" -v flagf="$tmp/flags" -v famf="$tmp/families" '
    BEGIN {
        while ((getline f < files) > 0) {
            tracked[f] = 1
            base = f; sub(/.*\//, "", base); basename[base] = 1
            while (sub(/\/[^\/]*$/, "", f)) tracked[f] = 1
            top[f] = 1
        }
        while ((getline l < idents) > 0) {
            split(l, kv, " ")
            if (kv[1] == "P") pkgs[kv[2]] = 1
            else { inpkg[kv[1] " " kv[2]] = 1; word[kv[2]] = 1 }
        }
        while ((getline a < allowf) > 0) allowed[a] = 1
        while ((getline l < flagf) > 0) { split(l, kv, " "); cmds[kv[1]] = 1; cmdflag[l] = 1; anyflag[kv[2]] = 1 }
        while ((getline l < famf) > 0) family[l] = 1
        ident = "[A-Z][A-Za-z0-9_]*"
    }
    function bad(span, why) {
        if (span in allowed) { used[span] = 1; return }
        printf "%s:%d: `%s`: %s\n", file, start, span, why
        failed = 1
    }
    # A qualified chain pkg.A.B…: pkg a module package, A in it, the rest
    # anywhere.
    function qualified(span, q,    n, c, i) {
        n = split(q, c, ".")
        if (!(c[1] in pkgs)) return
        if (!((c[1] " " c[2]) in inpkg)) { bad(span, c[2] " is not in package " c[1]); return }
        for (i = 3; i <= n; i++) if (!(c[i] in word)) { bad(span, c[i] " is not in the Go code"); return }
    }
    function bare(span, q,    n, c, i) {
        n = split(q, c, ".")
        for (i = 1; i <= n; i++) if (!(c[i] in word)) { bad(span, c[i] " is not in the Go code"); return }
    }
    function path(span, p,    re, f, q) {
        sub(/^\.\//, "", p); sub(/^repro\//, "", p); sub(/:[0-9,]+$/, "", p); sub(/\/$/, "", p)
        if (p ~ /\// && match(p, "\\." ident "(\\." ident ")*$")) { # a package path, then a chain
            q = substr(p, RSTART); p = substr(p, 1, RSTART - 1)
            if (!(p in tracked)) { bad(span, "no such package directory"); return }
            f = p; sub(/.*\//, "", f)
            qualified(span, f q)
            return
        }
        if (p !~ /\//) {
            if (p ~ /\.(go|sh|md|json|yml|api|golden)$/ && !(p in tracked) && !(p in basename)) bad(span, "no such file")
            return
        }
        split(p, c, "/")
        if (!(c[1] in top) || p in tracked) return
        if (p ~ /\*/) {
            re = p; gsub(/\./, "\\.", re); gsub(/\*/, "[^/]*", re)
            for (f in tracked) if (f ~ "^" re "$") return
        }
        bad(span, "no such path")
    }
    # Flags: a span that starts with one, or every one after a command.
    function flags(span,    s, n, t, c, i, f) {
        s = span; sub(/^go run /, "", s)
        n = split(s, t, " ")
        c = t[1]; sub(/^(\.\/)?(bin|cmd)\//, "", c)
        if (c in cmds) {
            for (i = 2; i <= n; i++) if (t[i] ~ /^-[a-z]/) {
                f = substr(t[i], 2); sub(/=.*/, "", f)
                if (!((c " " f) in cmdflag)) { bad(span, "-" f " is not a flag of cmd/" c "/main.go"); return }
            }
        } else if (t[1] ~ /^-[a-z]/) {
            f = substr(t[1], 2); sub(/=.*/, "", f)
            if (!(f in anyflag)) bad(span, "-" f " is not a flag of any cmd/*/main.go")
        }
    }
    # A metric name, after its {labels} are cut and a {a,b} alternation
    # expanded: a family, a series of one, or a prefix of one.
    function metric(span, m,    pre, alt, post, n, a, i, p, f, ok) {
        if (match(m, /[^_]\{[^}]*\}$/)) m = substr(m, 1, RSTART)
        if (match(m, /_\{[^}]*\}/)) {
            pre = substr(m, 1, RSTART); alt = substr(m, RSTART + 2, RLENGTH - 3); post = substr(m, RSTART + RLENGTH)
            n = split(alt, a, ",")
            for (i = 1; i <= n; i++) metric(span, pre a[i] post)
            return
        }
        if (m ~ /[_*]$/) {
            p = m; sub(/\*$/, "", p)
            for (f in family) if (index(f, p) == 1) return
            bad(span, m " matches no registered metric family"); return
        }
        ok = m in family
        if (!ok && match(m, /_(bucket|sum|count)$/)) ok = substr(m, 1, RSTART - 1) in family
        if (!ok) bad(span, m " is not a registered metric family")
    }
    function check(span,    s, q) {
        flags(span)
        s = span
        while (match(s, /(^|[^A-Za-z0-9_])tc_[A-Za-z0-9_{},*]*/)) {
            q = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            sub(/^[^t]/, "", q)
            metric(span, q)
        }
        if (span ~ /^[^ ]+$/ && span ~ /^(\.\/)?[A-Za-z0-9_.*-]+(\/[A-Za-z0-9_.*-]*)*(:[0-9,]+)?$/ && span !~ /^[A-Za-z0-9_]+\.[A-Z]/) path(span, span)
        s = span
        while (match(s, "(^|[^A-Za-z0-9_.])[a-z][a-z0-9]*\\." ident "(\\." ident ")*")) {
            q = substr(s, RSTART, RLENGTH); sub(/^[^a-z]/, "", q)
            qualified(span, q)
            s = substr(s, RSTART + RLENGTH)
        }
        q = span; sub(/\(\)$/, "", q)
        if (q ~ "^" ident "(\\." ident ")*$" && q ~ /[a-z]/) bare(span, q)
    }
    function flush(    n, seg, i) {
        n = split(para, seg, "`")
        for (i = 2; i <= n; i += 2) if (i < n) check(seg[i])
        para = ""
    }
    FNR == 1 { flush(); fenced = 0 }
    /^[ \t]*```/ { flush(); fenced = !fenced; next }
    fenced { next }
    /^[ \t]*$/ { flush(); next }
    { if (para == "") { file = FILENAME; start = FNR }; para = para (para == "" ? "" : " ") $0 }
    END {
        flush()
        for (a in allowed) if (!(a in used)) { printf "scripts/doccheck.sh: allowlisted `%s` is in no checked doc; drop the entry\n", a; failed = 1 }
        exit failed
    }' README.md docs/*.md && exit 0

echo "FAIL: name what exists (or allowlist a historical mention, with its reason, in scripts/doccheck.sh)"
exit 1
