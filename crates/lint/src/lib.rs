//! `samurai-lint` — the workspace invariant analyzer.
//!
//! SAMURAI's two load-bearing guarantees — bit-identical parallel
//! Monte-Carlo ensembles and an allocation-free compiled
//! Newton/timestep hot loop — are contracts that a single stray
//! `thread_rng()`, `HashMap` iteration or `clone()` can silently
//! destroy. This crate checks them mechanically on every commit: a
//! from-scratch, dependency-free static analyzer (hand-rolled lexer +
//! rule engine, no `syn` — the vendor tree is offline) that walks
//! every first-party crate and reports violations as deny-by-default
//! diagnostics with `file:line` spans and stable rule ids.
//!
//! Analysis is two-pass since v2. Pass 1 runs the token-level rules
//! and parses every file into an item index ([`parser`]); pass 2
//! builds a name-resolution-approximate call graph over the whole
//! workspace ([`callgraph`]) and checks the transitive contracts.
//!
//! The rule catalog ([`rules::RULES`]) covers six families:
//!
//! * `DET…` — determinism: no wall clocks, ambient randomness or
//!   environment reads in library code; no unordered collections in
//!   numeric crates.
//! * `HOT…` — hot-loop purity: no allocation, cloning, growth or
//!   collection inside declared `// lint: hot-loop` regions; the
//!   `HOT1xx` call-graph rules extend the same contract to every
//!   function reachable from a hot region or a `// lint: hot-fn`
//!   annotation, with the witness call chain in the diagnostic.
//! * `DRW…` — fixed draw order: in the sampling modules, no RNG draw
//!   under a conditional guard (unless annotated
//!   `// lint: fixed-draw: reason`), and public sampling fns consume
//!   a threaded job-indexed RNG.
//! * `CG…` — layering: numeric code on the `run_ensemble*` path never
//!   calls tool crates.
//! * `HYG…` — numeric hygiene: no `unwrap`/`expect`/`panic!` outside
//!   tests, no float-literal equality, `total_cmp` over `partial_cmp`.
//! * `UNS…` — unsafe audit: every `unsafe` carries a `SAFETY:`
//!   comment.
//!
//! Reviewed exceptions are recorded in-source with
//! `// lint: allow(RULE): reason`. See DESIGN.md §"Invariants & lint
//! catalog" and §"Workspace analysis" for the full policy, and
//! `samurai-lint --explain <RULE>` for any single rule.

pub mod callgraph;
pub mod context;
pub mod engine;
pub mod parser;
pub mod report;
pub mod rules;
pub mod tokenizer;

pub use engine::{
    analyze_source, analyze_source_full, analyze_workspace, analyze_workspace_full, classify_crate,
    WorkspaceAnalysis,
};
pub use rules::{FileClass, Finding, Rule, RULES};
