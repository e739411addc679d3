#!/bin/sh
# bench_ab.sh <git-ref> — honest A/B of the fig8 bench matrix.
#
# Builds hidisc-bench from the working tree ("new") and from <git-ref>
# ("old"), then runs them interleaved (old, new, old, new, ...) for 3
# rounds. Interleaving means both binaries sample the same host-load
# conditions; taking each binary's minimum total discards the noise
# that only ever adds time. Each individual run is itself -bench-reps 1
# so a round is one full matrix pass per binary.
#
# The old ref is unpacked with `git archive`, so the working tree may be
# dirty and no worktree metadata is left behind.
set -eu

OLD_REF=$1
ROUNDS=${ROUNDS:-3}
GO=${GO:-go}
WORK=.bench-ab
rm -rf "$WORK"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

echo "bench-ab: building new (working tree)" >&2
$GO build -o "$WORK/bench-new" ./cmd/hidisc-bench

echo "bench-ab: building old ($OLD_REF)" >&2
mkdir -p "$WORK/src"
git archive "$OLD_REF" | tar -x -C "$WORK/src"
(cd "$WORK/src" && $GO build -o ../bench-old ./cmd/hidisc-bench)
rm -rf "$WORK/src"

total() {
    sed -n 's/.*"totalWallSeconds": \([0-9.]*\).*/\1/p' "$1"
}

old_min=""
new_min=""
i=1
while [ "$i" -le "$ROUNDS" ]; do
    echo "bench-ab: round $i/$ROUNDS old" >&2
    "$WORK/bench-old" -bench-json "$WORK/old.json" -bench-reps 1 2>/dev/null ||
        "$WORK/bench-old" -bench-json "$WORK/old.json" 2>/dev/null # pre-reps binaries lack -bench-reps
    o=$(total "$WORK/old.json")
    echo "bench-ab: round $i/$ROUNDS new" >&2
    "$WORK/bench-new" -bench-json "$WORK/new.json" -bench-reps 1 2>/dev/null
    n=$(total "$WORK/new.json")
    echo "bench-ab: round $i: old ${o}s new ${n}s" >&2
    old_min=$(awk -v a="$old_min" -v b="$o" 'BEGIN{print (a=="" || b+0<a+0) ? b : a}')
    new_min=$(awk -v a="$new_min" -v b="$n" 'BEGIN{print (a=="" || b+0<a+0) ? b : a}')
    i=$((i + 1))
done

awk -v o="$old_min" -v n="$new_min" -v ref="$OLD_REF" 'BEGIN {
    printf "bench-ab: old(%s) min %.3fs   new(worktree) min %.3fs   speedup %.3fx\n",
        ref, o, n, o / n
}'
