#!/usr/bin/env bash
# Builds symbench and the symphony-serve binary it drives, then runs
# symbench with the arguments given. This is BENCHMARK.json's command;
# run it from the repository root:
#
#   bash benchmark/run.sh --workload agent_loop --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --all        # every workload, untraced then traced
#   bash benchmark/run.sh --aa         # the suite twice, compared
#   bash benchmark/run.sh --smoke      # 2 epochs per workload, names checked
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark builds the program it measures from source: without the
# repository around it there is nothing to run.
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "benchmark/run.sh: no repository around benchmark/ (need ./Cargo.toml and ./crates)" >&2
    exit 2
fi

# One target directory for both builds: the driver's, else the root
# workspace's (benchmark/target would build every crate a second time
# for nothing the root build does not already have to build).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The server under test comes from the root workspace, built as shipped.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p symphony-serve --bin symphony-serve
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "$CARGO_TARGET_DIR/release/symbench" "$@"
