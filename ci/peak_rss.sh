#!/usr/bin/env bash
# Run a command and report its exit code, wall time and peak resident
# set size.
#
# Usage: ci/peak_rss.sh <cmd> [args…]
#
# The command's stdin, stdout and stderr pass through. When it exits,
# one line goes to stderr:
#
#   peak_rss: exit=<code> wall_s=<seconds> peak_rss_mib=<MiB>
#
# The peak is `ru_maxrss` of getrusage(RUSAGE_CHILDREN): the largest
# resident set of the command, or of any process it started and waited
# for (Linux reports KiB; printed here in MiB). Linux also counts the
# launcher's image the command was spawned from, so no reading falls
# below about 8 MiB. The script exits with the command's code (128 + the
# signal number if a signal killed it).
set -euo pipefail

if [ $# -eq 0 ]; then
  echo "usage: $0 <cmd> [args…]" >&2
  exit 2
fi
exec python3 -S -c '
import os, resource, sys, time

start = time.monotonic()
try:
    pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
except OSError as e:
    print(f"peak_rss: cannot run {sys.argv[1]}: {e}", file=sys.stderr)
    sys.exit(127)
code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
wall = time.monotonic() - start
code = 128 - code if code < 0 else code
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak_rss: exit={code} wall_s={wall:.3f} peak_rss_mib={peak:.1f}", file=sys.stderr)
sys.exit(code)
' "$@"
