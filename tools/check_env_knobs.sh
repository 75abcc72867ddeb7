#!/usr/bin/env bash
# Checks that README.md's runtime-knob table lists exactly the TRIAD_*
# environment variables src/ reads through GetEnvString, GetEnvInt or
# GetEnvDouble, so a knob cannot be added or deleted without its doc row.
# CI runs this on every push (see .github/workflows/ci.yml).
#
# The table is the one under the "Runtime knobs" heading; each row's first
# cell holds the variable name in backticks.
set -euo pipefail

cd "$(dirname "$0")/.."

# Joined into one line first so a call split after its '(' still matches.
read_knobs=$(find src -name '*.cc' -o -name '*.h' | sort | xargs cat |
  tr '\n' ' ' |
  grep -oE 'GetEnv(String|Int|Double)\( *"TRIAD_[A-Z0-9_]+"' |
  grep -oE 'TRIAD_[A-Z0-9_]+' | sort -u || true)

doc_knobs=$(awk '/^#+ Runtime knobs/ { in_table = 1; next }
                 /^#/ { in_table = 0 }
                 in_table' README.md |
  grep -oE '^\| *`TRIAD_[A-Z0-9_]+`' | grep -oE 'TRIAD_[A-Z0-9_]+' |
  sort -u || true)

if [[ -z "$read_knobs" ]]; then
  echo "env knob check FAILED: found no GetEnv* reads of TRIAD_* in src/"
  exit 1
fi

if [[ "$read_knobs" != "$doc_knobs" ]]; then
  echo "env knob check FAILED: README.md's runtime-knob table and src/ differ"
  echo "read in src/ but not in the table:"
  comm -23 <(echo "$read_knobs") <(echo "$doc_knobs") | sed '/^$/d; s/^/  /'
  echo "in the table but not read in src/:"
  comm -13 <(echo "$read_knobs") <(echo "$doc_knobs") | sed '/^$/d; s/^/  /'
  exit 1
fi

echo "env knob check OK ($(echo "$read_knobs" | wc -l) knobs)"
