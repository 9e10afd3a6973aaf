#!/bin/sh
# Cross-checks the observability surface against its documentation:
#
#   1. every metric name declared in src/obs/names.hpp appears (backticked)
#      in docs/METRICS.md;
#   2. every backticked dotted metric name in docs/METRICS.md exists in
#      src/obs/names.hpp (no docs for phantom metrics);
#   3. every trace-kind wire name in src/obs/decision_trace.cpp appears in
#      docs/METRICS.md;
#   4. no instrumentation site under src/ registers a metric with a raw
#      string literal — all registrations go through obs::names constants,
#      so check 1 is exhaustive by construction;
#   5. every src/ or tools/ file a metric row cites in its "emitting site"
#      column contains that metric's obs::names constant, so the column
#      stays true when code moves between files.
#
# Run from the repository root (CI does; ctest registers it as
# ObsDocs.MetricsDocumented). Exits non-zero with one line per violation.
set -u

root=$(dirname "$0")/..
names_hpp="$root/src/obs/names.hpp"
trace_cpp="$root/src/obs/decision_trace.cpp"
metrics_md="$root/docs/METRICS.md"
fail=0

[ -f "$names_hpp" ] || { echo "missing $names_hpp"; exit 1; }
[ -f "$metrics_md" ] || { echo "missing $metrics_md"; exit 1; }

# 1. declared names must be documented.
for name in $(sed -n 's/.*= "\([a-z0-9_.]*\)";.*/\1/p' "$names_hpp"); do
    if ! grep -q "\`$name\`" "$metrics_md"; then
        echo "undocumented metric: $name (declared in src/obs/names.hpp," \
             "missing from docs/METRICS.md)"
        fail=1
    fi
done

# 2. documented dotted names must be declared.
for name in $(grep -o '`[a-z0-9_]*\.[a-z0-9_.]*`' "$metrics_md" \
                  | tr -d '\`' | sort -u); do
    case "$name" in
        *.hpp|*.cpp|*.md|*.sh|*.json|*.tsv|*.csv|*.yml) continue ;;
    esac
    if ! grep -q "\"$name\"" "$names_hpp"; then
        echo "phantom metric: $name (documented in docs/METRICS.md," \
             "not declared in src/obs/names.hpp)"
        fail=1
    fi
done

# 3. trace kinds must be documented.
for kind in $(sed -n 's/.*"\([a-z_][a-z_]*\)",.*/\1/p' "$trace_cpp"); do
    if ! grep -q "\`$kind\`" "$metrics_md"; then
        echo "undocumented trace kind: $kind (src/obs/decision_trace.cpp," \
             "missing from docs/METRICS.md)"
        fail=1
    fi
done

# 4. registrations must use obs::names constants, not string literals.
if grep -rn --include='*.cpp' --include='*.hpp' \
        -e '\.counter("' -e '\.gauge("' -e '\.histogram("' \
        "$root/src" | grep -v 'src/obs/'; then
    echo "raw metric-name literal above: use an obs::names constant" \
         "(and document it in docs/METRICS.md)"
    fail=1
fi

# 5. cited emitting-site files must mention the row's constant. Rows are
# "| `metric.name` | ... |"; the site column is found from each table's
# header row.
violations=$(
    awk -F'|' '
        !/^\|/ { col = 0; next }
        /emitting site/ {
            for (i = 2; i < NF; ++i) if ($i ~ /emitting site/) col = i
            next
        }
        col && $2 ~ /^ `[a-z0-9_]*\.[a-z0-9_.]*` $/ {
            name = $2; gsub(/[ `]/, "", name)
            n = split($col, parts, "`")
            for (i = 2; i <= n; i += 2) {
                if (parts[i] ~ /^(src|tools)\//) print name, parts[i]
            }
        }' "$metrics_md" |
    while read -r name file; do
        # The constant whose string value is "name" (the initialiser may
        # sit on the line after the declaration).
        const=$(awk -v want="\"$name\"" '
            match($0, /k[A-Za-z0-9]+ =/) { last = substr($0, RSTART, RLENGTH - 2) }
            index($0, want) { print last; exit }' "$names_hpp")
        if [ -z "$const" ] || [ ! -f "$root/$file" ] ||
           ! grep -q "$const" "$root/$file"; then
            echo "stale emitting site: $name (${const:-no constant})" \
                 "cited in $file, which does not mention it"
        fi
    done
)
if [ -n "$violations" ]; then
    echo "$violations"
    fail=1
fi

[ "$fail" -eq 0 ] && echo "metrics documentation: OK"
exit "$fail"
