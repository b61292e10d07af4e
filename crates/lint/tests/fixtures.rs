//! Fixture-driven rule tests: every rule has a positive fixture (must
//! fire), a negative fixture (must stay clean), and a waived fixture
//! (reasoned waiver suppresses the violation and lands in the
//! ledger). The fixture files live under `crates/lint/fixtures/` and
//! are linted under *virtual* workspace paths, since path scoping is
//! what routes each rule.

use ca_lint::{lint_source, Config, Report};

fn fixture(rule_dir: &str, name: &str) -> String {
    let path = format!(
        "{}/fixtures/{rule_dir}/{name}.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"))
}

fn lint_fixture(rule_dir: &str, name: &str, virtual_path: &str) -> Report {
    lint_source(virtual_path, &fixture(rule_dir, name), &Config::default())
}

/// Asserts the positive fixture fires `rule` (and only rules we
/// planted), the negative fixture is clean, and the waived fixture is
/// clean with exactly one ledger entry for `rule`.
fn check_rule_triple(rule_dir: &str, rule: &str, virtual_path: &str) {
    let pos = lint_fixture(rule_dir, "positive", virtual_path);
    assert!(
        pos.diagnostics.iter().any(|d| d.rule == rule),
        "{rule_dir}/positive.rs must trigger `{rule}`:\n{}",
        pos.render()
    );
    assert!(
        pos.diagnostics.iter().all(|d| d.rule == rule),
        "{rule_dir}/positive.rs triggered rules besides `{rule}`:\n{}",
        pos.render()
    );

    let neg = lint_fixture(rule_dir, "negative", virtual_path);
    assert!(
        neg.is_clean(),
        "{rule_dir}/negative.rs must be clean:\n{}",
        neg.render()
    );

    let waived = lint_fixture(rule_dir, "waived", virtual_path);
    assert!(
        waived.is_clean(),
        "{rule_dir}/waived.rs must be clean (waiver applied):\n{}",
        waived.render()
    );
    assert_eq!(
        waived.waivers.len(),
        1,
        "{rule_dir}/waived.rs must land exactly one waiver in the ledger"
    );
    assert_eq!(waived.waivers[0].rules, vec![rule.to_string()]);
    assert!(!waived.waivers[0].reason.is_empty());
}

#[test]
fn panic_rule_fixtures() {
    check_rule_triple("panic", "panic", "crates/sim/src/fixture.rs");
    // All six panicking forms are caught.
    let pos = lint_fixture("panic", "positive", "crates/sim/src/fixture.rs");
    assert!(pos.diagnostics.len() >= 6, "{}", pos.render());
}

#[test]
fn hash_iter_rule_fixtures() {
    check_rule_triple("hash-iter", "hash-iter", "crates/sim/src/fixture.rs");
    // Outside the result-producing crates the same source is fine.
    let elsewhere = lint_fixture("hash-iter", "positive", "crates/device/src/fixture.rs");
    assert!(elsewhere.is_clean(), "{}", elsewhere.render());
}

#[test]
fn wall_clock_rule_fixtures() {
    check_rule_triple("wall-clock", "wall-clock", "crates/core/src/fixture.rs");
    // The clock crates may read clocks freely.
    let in_obs = lint_fixture("wall-clock", "positive", "crates/obs/src/fixture.rs");
    assert!(in_obs.is_clean(), "{}", in_obs.render());
}

#[test]
fn env_read_rule_fixtures() {
    check_rule_triple("env-read", "env-read", "crates/core/src/fixture.rs");
    // The sanctioned env module is the one place allowed to read.
    let in_env = lint_fixture("env-read", "positive", "crates/obs/src/env.rs");
    assert!(in_env.is_clean(), "{}", in_env.render());
}

#[test]
fn thread_id_rule_fixtures() {
    check_rule_triple("thread-id", "thread-id", "crates/sim/src/fixture.rs");
}

#[test]
fn obs_no_rng_rule_fixtures() {
    check_rule_triple("obs-no-rng", "obs-no-rng", "crates/obs/src/fixture.rs");
    // The same source outside ca-obs does not trip obs-no-rng (the
    // sim containment rule has its own fixtures).
    let elsewhere = lint_fixture("obs-no-rng", "positive", "crates/core/src/fixture.rs");
    assert!(elsewhere.diagnostics.iter().all(|d| d.rule != "obs-no-rng"));
}

#[test]
fn rng_containment_rule_fixtures() {
    let pos = lint_fixture("rng-containment", "positive", "crates/sim/src/fixture.rs");
    assert!(
        pos.diagnostics.iter().any(|d| d.rule == "rng-containment"),
        "{}",
        pos.render()
    );
    // The identical source in a sanctioned module is the blessed
    // seeded-stream pattern.
    let neg = lint_fixture("rng-containment", "negative", "crates/sim/src/noise.rs");
    assert!(neg.is_clean(), "{}", neg.render());

    let waived = lint_fixture("rng-containment", "waived", "crates/sim/src/fixture.rs");
    assert!(waived.is_clean(), "{}", waived.render());
    assert_eq!(waived.waivers.len(), 1);
}

#[test]
fn forbid_unsafe_rule_fixtures() {
    check_rule_triple("forbid-unsafe", "forbid-unsafe", "crates/sim/src/lib.rs");
    // Non-root files do not need the attribute.
    let non_root = lint_fixture("forbid-unsafe", "positive", "crates/sim/src/fixture.rs");
    assert!(non_root.is_clean(), "{}", non_root.render());
}

#[test]
fn reasonless_waiver_is_rejected_and_suppresses_nothing() {
    let r = lint_fixture("waiver", "noreason", "crates/sim/src/fixture.rs");
    let rules: Vec<_> = r.diagnostics.iter().map(|d| d.rule).collect();
    assert!(
        rules.contains(&"panic"),
        "original violation kept: {rules:?}"
    );
    assert!(
        rules.contains(&"waiver"),
        "reasonless waiver flagged: {rules:?}"
    );
    assert!(r.waivers.is_empty(), "nothing lands in the ledger");
}

#[test]
fn unused_waiver_is_flagged_as_stale() {
    let r = lint_fixture("waiver", "unused", "crates/sim/src/fixture.rs");
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render());
    assert_eq!(r.diagnostics[0].rule, "unused-waiver");
    assert!(r.waivers.is_empty());
}
