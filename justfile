# Offline mirror of .github/workflows/ci.yml. `just ci` is the full gate.

# Run the complete CI gate locally.
ci: fmt-check clippy verify test

# Check formatting without rewriting.
fmt-check:
    cargo fmt --all --check

# Rewrite formatting in place.
fmt:
    cargo fmt --all

# Workspace lints, warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# The disco-verify analysis suite: bounded protocol model checking,
# credit-conservation proof, CDG deadlock freedom, MOESI exhaustiveness,
# message-class composition, AST-grade lints.
verify:
    cargo xtask verify

# Same analyses, plus the machine-readable report CI uploads as the
# VERIFY_REPORT artifact (schema disco-verify/1).
verify-json:
    cargo xtask verify --json VERIFY_REPORT.json

# Workspace tests, plus the NoC suite with per-cycle invariant validation
# and the tracing determinism/golden legs.
test:
    cargo test --workspace -q
    cargo test -q -p disco-noc --features validate
    cargo test -q -p disco -p disco-noc -p disco-core --features trace

# Regenerate the EXPERIMENTS.md provenance tables and the sample trace
# exports (results/trace_disco_4x4.json / .jsonl, untracked).
provenance:
    cargo run --release -p disco-bench --features trace --bin provenance

# Measure tracing overhead and cross-check feature-off/on stats identity.
trace-overhead:
    cargo run --release -p disco-bench --bin trace_overhead -- --out BENCH_pr4_off.json
    cargo run --release -p disco-bench --features trace --bin trace_overhead -- \
        --out BENCH_pr4.json --baseline BENCH_pr4_off.json

# Regenerate tests/golden_stats.txt after report.rs changes.
update-golden:
    UPDATE_GOLDEN=1 cargo test -q --test golden
