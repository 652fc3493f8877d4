#!/usr/bin/env bash
#===-- scripts/all_labels_paths_smoke.sh - Cross-path byte check -----------===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# `--query=all-labels` and `--query=labels` each reach their output
# through five paths: the live pipeline, a live run that also writes
# `--save-snapshot`, a `--load-snapshot` run over that file in a second
# process, and a `--snapshot-cache` miss (which fills the cache) followed
# by a hit (which serves from the mapped entry).  All five must print
# byte-identical output.  The in-process snapshot tests cannot catch a format field only
# one process interprets; this smoke can (docs/SNAPSHOT.md).
#
# Usage: scripts/all_labels_paths_smoke.sh <path-to-stcfa> [corpus...]
#        (default corpora: cubic:50 wide:4096)
#
#===------------------------------------------------------------------------===#

set -euo pipefail
bin="${1:?usage: all_labels_paths_smoke.sh <path-to-stcfa> [corpus...]}"
shift
corpora=("$@")
[[ ${#corpora[@]} -eq 0 ]] && corpora=(cubic:50 wide:4096)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Outputs run to hundreds of megabytes (wide:4096 prints ~670 MB), so
# each is compared by its SHA-1 digest rather than kept on disk.
digest() { "$@" | sha1sum | cut -d' ' -f1; }

for corpus in "${corpora[@]}"; do
  for query in all-labels labels; do
    run=("$bin" "--corpus=${corpus}" "--query=${query}")
    live=$(digest "${run[@]}")
    [[ "$live" != "$(digest true)" ]] ||
      { echo "${corpus}: --query=${query}: empty output"; exit 1; }
    declare -A via=()
    via[save]=$(digest "${run[@]}" --save-snapshot="$tmp/s.snap")
    via[load]=$(digest "$bin" --load-snapshot="$tmp/s.snap" "--query=${query}")
    via[miss]=$(digest "${run[@]}" --snapshot-cache="$tmp/cache" \
      --metrics-json="$tmp/miss.json")
    via[hit]=$(digest "${run[@]}" --snapshot-cache="$tmp/cache" \
      --metrics-json="$tmp/hit.json")
    grep -q '"snapshot.cache-misses": 1' "$tmp/miss.json"
    grep -q '"snapshot.cache-hits": 1' "$tmp/hit.json"
    for path in save load miss hit; do
      [[ "${via[$path]}" == "$live" ]] ||
        { echo "${corpus}: --query=${query} via ${path} differs from live"; exit 1; }
    done
    echo "${corpus}: --query=${query}: live, save, load, cache miss and hit byte-identical"
    rm -rf "$tmp/cache" "$tmp/s.snap"
  done
done

echo "all-labels-paths-smoke: ok"
