#!/bin/sh
# Rebuild the frozen check corpus: src/repro/, check-baseline.json and
# README.md as of the commit the benchmark was defined at (PR 10's tree).
# The archive is byte-reproducible; SHA256 pins it and the check driver
# refuses a tarball whose hash differs.
#
#   sh benchmarks/perf/corpus/build_corpus.sh [COMMIT]
set -eu
commit=${1:-ec1a55916e65a3a203733680d400fe0fab8d4aa9}
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$commit" src/repro check-baseline.json README.md \
    | tar -x -C "$tmp"
tar --sort=name --mtime=@0 --owner=0 --group=0 --numeric-owner \
    --mode='u=rwX,go=rX' -C "$tmp" -cf - README.md check-baseline.json src \
    | gzip -n > "$here/repro-pr10.tar.gz"
(cd "$here" && sha256sum repro-pr10.tar.gz > SHA256)
cat "$here/SHA256"
