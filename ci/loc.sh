#!/usr/bin/env bash
# Count the non-test lines of Rust in the workspace's own code.
#
# Every `.rs` file under `crates/` and `src/` counts, except those in a
# `tests/` directory (integration tests, fixtures). Each file is cut at
# its first line that *starts* with `#[cfg(test)]`, where its unit tests
# begin; a `#[cfg(test)]` further along a line (a doc comment naming it)
# does not cut. Prints one `lines path` row per file, sorted by path,
# then the total.
#
# Run from anywhere; it reads the checkout it lives in.
set -euo pipefail

cd "$(dirname "$0")/.."
find crates src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort |
  while read -r file; do
    awk -v file="$file" '/^#\[cfg\(test\)\]/ { exit } { n++ }
      END { printf "%6d %s\n", n, file }' "$file"
  done |
  awk '{ print; total += $1 } END { printf "%6d total\n", total }'
