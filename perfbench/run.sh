#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root with the benchmark's own flags, for example
#
#   bash perfbench/run.sh --workload table2-lower --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, temporary files)
# and a traced run's spans go under $CARGO_TARGET_DIR, or .bench_build
# when it is unset, inside the repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench/tmp" "$out/perfbench/config"

export GOCACHE=$out/perfbench/gocache
export GOPATH=$out/perfbench/gopath
export GOTMPDIR=$out/perfbench/tmp
export TMPDIR=$out/perfbench/tmp
export XDG_CONFIG_HOME=$out/perfbench/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

bin=$out/perfbench/perfbench
(cd "$root/perfbench" && go build -o "$bin" .) >&2
exec "$bin" -spans-dir "$out/perfbench/spans" "$@"
