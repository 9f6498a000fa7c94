#!/usr/bin/env bash
# Documentation lint, run as a CTest (see tools/CMakeLists.txt):
#
#   1. Every relative markdown link target in the repo's *.md files must
#      exist on disk (anchors stripped; http(s)/mailto/# links skipped).
#   2. README.md and DESIGN.md must each mention every src/vsim/*
#      subdirectory, so the architecture inventory can't silently rot
#      when a module is added.
#   3. Every metric-name literal ("vsim_...") in src/vsim must appear
#      in docs/OBSERVABILITY.md, so the metric reference stays the
#      complete dashboard inventory -- a new series (e.g. a reactor
#      vsim_net_* gauge) that ships undocumented fails CI here.
#   4. The reverse: every vsim_* name docs/OBSERVABILITY.md mentions
#      must still exist as a literal in src/vsim, so the reference
#      can't keep advertising series a refactor renamed or removed.
#
# Exits nonzero with one line per problem.
set -u

cd "$(dirname "$0")/.."
fail=0

# --- 1. dead relative links ------------------------------------------
# Markdown files under version-controlled directories (skip build trees
# -- including relocated ones under the shared $VSIM_BUILD_ROOT
# convention used by tools/ci.sh -- and third-party checkouts).
BUILD_ROOT="${VSIM_BUILD_ROOT:-.}"
md_files=$(find . -name '*.md' \
    -not -path './build*' -not -path './.git/*' \
    -not -path "$BUILD_ROOT/build*" | sort)

for file in $md_files; do
  dir=$(dirname "$file")
  # Pull out (target) of every [text](target); tolerate several links
  # per line. grep -o keeps it dependency-free. Inline code spans are
  # dropped first: markdown renders no link inside backticks, and code
  # such as a C++ lambda `[](int id, IoStats*)` has the same shape.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*|'') continue ;;
    esac
    path="${target%%#*}"            # strip in-page anchor
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "DEAD LINK: $file -> $target"
      fail=1
    fi
  done < <(sed 's/`[^`]*`//g' "$file" 2>/dev/null \
           | grep -o '\[[^]]*\]([^)]*)' \
           | sed 's/^\[[^]]*\](//; s/)$//')
done

# --- 2. module coverage in README.md and DESIGN.md -------------------
for doc in README.md DESIGN.md; do
  for module in src/vsim/*/; do
    name=$(basename "$module")
    if ! grep -q "$name" "$doc"; then
      echo "MISSING MODULE: $doc does not mention src/vsim/$name"
      fail=1
    fi
  done
done

# --- 3. metric-name coverage in docs/OBSERVABILITY.md ----------------
# Registered instruments and collector samples use quoted string
# literals for their names; any such literal missing from the metric
# reference means an undocumented series on the dashboard.
metric_names=$(grep -rhoE '"vsim_[a-z0-9_]+"' src/vsim | tr -d '"' | sort -u)
for name in $metric_names; do
  if ! grep -q "$name" docs/OBSERVABILITY.md; then
    echo "UNDOCUMENTED METRIC: $name missing from docs/OBSERVABILITY.md"
    fail=1
  fi
done

# --- 4. no phantom metrics in docs/OBSERVABILITY.md ------------------
# Every vsim_* token the reference mentions must correspond to a
# registered name in the code: exactly, via a histogram's exported
# _bucket/_sum/_count suffix, or as a family prefix ("the
# vsim_cache_pool_* series") of at least one real literal.
doc_names=$(grep -ohE 'vsim_[a-z0-9_]+' docs/OBSERVABILITY.md | sort -u)
for name in $doc_names; do
  base="${name%_bucket}"; base="${base%_sum}"; base="${base%_count}"
  if ! printf '%s\n' "$metric_names" | grep -qx -e "$name" -e "$base" &&
     ! printf '%s\n' "$metric_names" | grep -q "^$name"; then
    echo "PHANTOM METRIC: docs/OBSERVABILITY.md mentions $name but no such literal exists in src/vsim"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: all relative links resolve; README.md and DESIGN.md cover every src/vsim module; every vsim_* metric is documented"
