#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# The binary is built from a staged Cargo workspace under
# .bench_build/perfbench-ws. Its root manifest is the repository's workspace
# manifest with perfbench added as a member (Cargo writes its lock file).
# Its crates/, vendor/ and perfbench/src are symlinks into the checkout.
# Every package then sits inside the workspace root, so Cargo hashes their
# paths relative to it and rustc sees relative source paths. Two checkouts
# of the same commit at different paths therefore build the same binary.
# Built from perfbench/Cargo.toml alone, the library crates lie outside the
# workspace. Their absolute paths then enter the symbol hashes and shift the
# code layout, which moved the served workload by 1.6x between two
# checkouts.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -d vendor || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a specstab checkout (Cargo.toml, crates/, vendor/ and perfbench/ are needed)" >&2
    exit 2
fi

root=$(pwd)
ws=.bench_build/perfbench-ws
mkdir -p "$ws/perfbench"

# Writes stdin to $1 only when it differs, so unchanged inputs keep their
# modification times and Cargo does not rebuild.
update() {
    local tmp="$1.tmp"
    cat >"$tmp"
    if cmp -s "$tmp" "$1"; then rm -f "$tmp"; else mv -f "$tmp" "$1"; fi
}

sed 's/^members = \[/members = [\n    "perfbench",/' Cargo.toml | update "$ws/Cargo.toml"
grep -q '"perfbench",' "$ws/Cargo.toml" || {
    echo "perfbench: could not add perfbench to the workspace members of Cargo.toml" >&2
    exit 2
}
# The package manifest without its own [workspace] table and profile: the
# staged root carries the repository's release profile.
sed '/^\[workspace\]/,$d' perfbench/Cargo.toml | update "$ws/perfbench/Cargo.toml"
ln -sfn "$root/crates" "$ws/crates"
ln -sfn "$root/vendor" "$ws/vendor"
ln -sfn "$root/perfbench/src" "$ws/perfbench/src"

exec cargo run --quiet --release --offline --manifest-path "$ws/perfbench/Cargo.toml" -- "$@"
