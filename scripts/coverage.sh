#!/usr/bin/env sh
# Combined statement-coverage gates for the mining core and the incremental
# subsystem. One full test run produces one profile over all gated packages;
# per-group percentages are computed straight from the profile's statement
# blocks, so adding a group costs no extra test time.
#
#   gates: internal/cspm + internal/invdb                  >= 93%  (the PR 2 level)
#          internal/graph + internal/shardcache
#            + internal/shardrpc + internal/serve
#              (incl. replication.go — the leader/replica
#               shipping, verify-before-swap and promotion
#               paths are inside the serve match)
#            + internal/serveclient (the typed client)
#            + internal/wal (and wal/crashfs)
#            + internal/dynamic
#            + internal/obs                                >= 85%  (subsystem bar:
#                                                          cache + transport +
#                                                          serving + replication +
#                                                          API client + durability
#                                                          + dynamic graphs +
#                                                          observability)
#
#   scripts/coverage.sh            # gate at the default thresholds
#   scripts/coverage.sh 90 80      # custom core / subsystem thresholds
set -eu
cd "$(dirname "$0")/.."
CORE_THRESHOLD="${1:-93.0}"
SUB_THRESHOLD="${2:-85.0}"
# Keep the test output: on failure it is the only diagnostic; on success the
# per-package coverage lines double as a breakdown.
go test -count=1 -coverprofile=coverage.out \
  -coverpkg=cspm/internal/cspm,cspm/internal/invdb,cspm/internal/graph,cspm/internal/shardcache,cspm/internal/shardrpc,cspm/internal/serve,cspm/internal/serveclient,cspm/internal/wal,cspm/internal/wal/crashfs,cspm/internal/dynamic,cspm/internal/obs ./...

# group_pct <file-path-regex>: statement coverage over the matching files.
# Blocks are deduped by position (the merged profile repeats blocks once per
# test binary); a block counts as covered if ANY repetition hit it — the same
# union `go tool cover -func` reports.
group_pct() {
  awk -v re="$1" '
    NR > 1 {
      split($1, a, ":")
      if (a[1] !~ re) next
      stmts[$1] = $2
      if ($3 + 0 > 0) hit[$1] = 1
    }
    END {
      total = covered = 0
      for (k in stmts) {
        total += stmts[k]
        if (k in hit) covered += stmts[k]
      }
      if (total == 0) { print "0.0"; exit }
      printf "%.1f", 100 * covered / total
    }
  ' coverage.out
}

gate() { # gate <label> <regex> <threshold>
  PCT=$(group_pct "$2")
  echo "$1 coverage: ${PCT}% (gate: $3%)"
  if ! awk -v t="$PCT" -v g="$3" 'BEGIN { exit (t + 0 >= g + 0) ? 0 : 1 }'; then
    echo "$1 coverage ${PCT}% fell below the $3% gate" >&2
    exit 1
  fi
}

gate "internal/cspm + internal/invdb" '^cspm/internal/(cspm|invdb)/' "$CORE_THRESHOLD"
gate "internal/graph + internal/shardcache + internal/shardrpc + internal/serve + internal/serveclient + internal/wal + internal/dynamic + internal/obs" '^cspm/internal/(graph|shardcache|shardrpc|serve|serveclient|wal|dynamic|obs)/' "$SUB_THRESHOLD"
