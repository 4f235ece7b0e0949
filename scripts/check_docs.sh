#!/usr/bin/env bash
# Docs consistency check, run by scripts/check.sh:
#
#  1. every `src/<dir>` named in docs/ARCHITECTURE.md must exist as a
#     directory (the layer map must not drift from the tree);
#  2. every intra-repo markdown link in the tracked *.md files must
#     resolve (relative to the file containing it);
#  3. every backticked `Type::member` reference in docs/*.md and
#     README.md must still name identifiers of the code (deleted API
#     must not live on in the docs).
#
# Exits non-zero listing every violation.
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# --- 1. src/ subdirectories named in the architecture doc exist ------
while IFS= read -r dir; do
    if [ ! -d "$dir" ]; then
        echo "check_docs: docs/ARCHITECTURE.md names missing directory: $dir"
        fail=1
    fi
done < <(grep -oE 'src/[a-z_0-9]+' docs/ARCHITECTURE.md | sort -u)

# --- 2. intra-repo markdown links resolve ----------------------------
# Inline links: [text](target). External schemes and pure-anchor links
# are skipped; a target's own "#fragment" suffix is stripped before the
# existence check (fragments are not validated).
for md in README.md ROADMAP.md PAPER.md PAPERS.md docs/*.md; do
    [ -f "$md" ] || continue
    base=$(dirname "$md")
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
            echo "check_docs: broken link in $md: $target"
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done

# --- 3. backticked Type::member references name live identifiers ----
# Fenced code blocks are dropped first so their ``` cannot misalign
# the backtick pairing; a span may wrap across lines. Standard-library
# names (std::...) are skipped. Every other component of the scoped
# name must appear as a whole word under src/ (bench/ for the
# pce::bench runner helpers).
while read -r md ref; do
    case "$ref" in std::*) continue ;; esac
    for part in $(echo "$ref" | sed 's/::/ /g'); do
        if ! grep -rqw -- "$part" src bench; then
            echo "check_docs: $md names \`$ref\`, but no identifier" \
                 "\`$part\` exists under src/ or bench/"
            fail=1
        fi
    done
done < <(perl -0777 -ne '
    s/^```.*?^```//gms;
    while (/`([^`]+)`/g) {
        my $span = $1;
        print "$ARGV $1\n"
            while $span =~ /([A-Za-z_]\w*(?:::[A-Za-z_~]\w*)+)/g;
    }' README.md docs/*.md | sort -u)

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED"
    exit 1
fi
echo "check_docs: OK"
