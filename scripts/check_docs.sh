#!/usr/bin/env bash
# check_docs.sh — fail CI when the prose drifts from the code.
#
# Checks, over README.md and docs/ARCHITECTURE.md:
#   1. every relative markdown link target exists;
#   2. every package path named in the text (internal/..., rf/...,
#      cmd/..., examples/..., scripts/...) exists on disk;
#   3. every "command -flag" pair named in the text (e.g. `rfbatch
#      -ndjson`, `rfserved -store`) is a flag the command actually
#      defines;
#   4. every Go test or benchmark name mentioned (TestFoo/BenchmarkBar/
#      FuzzBaz) exists in some _test.go file.
#
# Run from the repository root: bash scripts/check_docs.sh
set -u
cd "$(dirname "$0")/.."

DOCS="README.md docs/ARCHITECTURE.md"
fail=0

err() {
  echo "check_docs: $*" >&2
  fail=1
}

for doc in $DOCS; do
  [ -f "$doc" ] || { err "$doc does not exist"; continue; }

  # 1. Relative markdown links: [text](target) that are not URLs or
  # in-page anchors must resolve relative to the doc's directory.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$(dirname "$doc")/$path" ] && [ ! -e "$path" ]; then
      err "$doc links to missing file: $target"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

  # 2. Package paths named in the text must exist as directories (or
  # files, for direct file references like internal/sweep/fuzz_test.go).
  while IFS= read -r pkg; do
    pkg="${pkg%/}"
    if [ ! -e "$pkg" ]; then
      err "$doc names nonexistent path: $pkg"
    fi
  done < <(grep -oE '\b(internal|cmd|examples|scripts|rf|docs)/[A-Za-z0-9_./-]+' "$doc" \
             | sed -E 's/[.,;:]+$//; s/\.[A-Z][A-Za-z0-9]*$//' | sort -u)

  # 3. "command -flag" pairs: the flag must be defined in the command's
  # source (flag.Type("name", ...)). Covers prose and code blocks alike.
  while IFS= read -r pair; do
    cmdname="${pair%% *}"
    flagname="${pair##* -}"
    dir="cmd/$cmdname"
    [ -d "$dir" ] || continue # path existence handled above
    # Strip a trailing = or value remnants, keep the bare flag word.
    flagname="${flagname%%=*}"
    if ! grep -qE "\"$flagname\"" "$dir"/*.go; then
      err "$doc says '$pair' but cmd/$cmdname defines no -$flagname flag"
    fi
  done < <(grep -oE '\b(rfbatch|rfserved|rfsim|rfexp|rftrace|benchgate) -[a-z][a-z0-9-]*' $doc \
             | sed -E 's/.*(rfbatch|rfserved|rfsim|rfexp|rftrace|benchgate) -/\1 -/' | sort -u)

  # 4. Test/benchmark/fuzz names must exist somewhere in _test.go files.
  while IFS= read -r name; do
    if ! grep -rqE "func $name\(" --include='*_test.go' .; then
      err "$doc mentions $name but no _test.go defines it"
    fi
  done < <(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9]+' "$doc" | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: documentation references are stale (see above)" >&2
  exit 1
fi
echo "check_docs: all references in $DOCS resolve"
