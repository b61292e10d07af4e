//! The rule set. Every rule scans the blanked code view of one file,
//! is scoped by path (crate, src-vs-test tree), skips test/debug
//! regions, and can be waived per line with
//! `// ca-lint: allow(<rule>) -- <reason>`.
//!
//! | id                | invariant                                              |
//! |-------------------|--------------------------------------------------------|
//! | `panic`           | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/  |
//! |                   | `unimplemented!` outside tests & debug assertions      |
//! | `hash-iter`       | no `HashMap`/`HashSet` iteration in result-producing   |
//! |                   | crates (ca-sim, ca-core, ca-circuit, ca-mitigation)    |
//! | `wall-clock`      | no `Instant::now`/`SystemTime::now` outside `ca-obs`   |
//! |                   | (and `ca-bench`, whose purpose is timing)              |
//! | `env-read`        | no `std::env::var*` outside `ca_obs::env`              |
//! | `thread-id`       | no `thread::current()`/`ThreadId`-derived logic        |
//! | `obs-no-rng`      | no `rand` anywhere in `ca-obs` (instrumentation must   |
//! |                   | never perturb or read randomness)                      |
//! | `rng-containment` | `rand` in `ca-sim` only in sanctioned modules          |
//! |                   | (`plan::shot_site_seed` / `plan::chunk_seed` seeding)  |
//! | `forbid-unsafe`   | every non-shim crate root carries                      |
//! |                   | `#![forbid(unsafe_code)]`                              |

use crate::config::Config;
use crate::lexer::Scan;
use crate::regions::Regions;
use crate::report::Diagnostic;

/// Path-derived scope facts for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    pub config: &'a Config,
}

impl FileCtx<'_> {
    /// `crates/<name>/…` → `crates/<name>`; root `src/…` → "".
    fn crate_dir(&self) -> &str {
        let p = self.rel_path;
        if let Some(rest) = p.strip_prefix("crates/") {
            let end = rest.find('/').map(|i| 7 + i).unwrap_or(p.len());
            &p[..end]
        } else {
            ""
        }
    }

    fn is_shim(&self) -> bool {
        self.rel_path.starts_with("crates/shims/")
    }

    /// Library source (as opposed to tests/, benches/, examples/,
    /// fixtures/ — which are test-grade code for every rule).
    fn is_library_src(&self) -> bool {
        let p = self.rel_path;
        !p.contains("/tests/")
            && !p.starts_with("tests/")
            && !p.contains("/benches/")
            && !p.starts_with("benches/")
            && !p.contains("/examples/")
            && !p.starts_with("examples/")
            && !p.contains("/fixtures/")
            && (p.contains("/src/") || p.starts_with("src/"))
    }

    fn is_crate_root(&self) -> bool {
        self.rel_path == "src/lib.rs"
            || self.rel_path == "src/main.rs"
            || (self.rel_path.starts_with("crates/")
                && (self.rel_path.ends_with("/src/lib.rs")
                    || self.rel_path.ends_with("/src/main.rs")))
    }
}

/// Finds `pat` as a token: identifier characters at the pattern's
/// edges must not extend (so `env::var` does not match `env::var_os`
/// or `var_parsed`, and `rand` does not match `random_walk`). Returns
/// byte offsets.
fn find_token(code: &str, pat: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let cb = code.as_bytes();
    let pb = pat.as_bytes();
    let first_is_ident = pb.first().is_some_and(|&b| is_ident(b));
    let last_is_ident = pb.last().is_some_and(|&b| is_ident(b));
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(pat) {
        let at = start + pos;
        let before_ok = !first_is_ident || at == 0 || !is_ident(cb[at - 1]);
        let after_ok = !last_is_ident || at + pb.len() >= cb.len() || !is_ident(cb[at + pb.len()]);
        if before_ok && after_ok {
            hits.push(at);
        }
        start = at + pb.len();
    }
    hits
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Runs every rule over one blanked file, yielding raw diagnostics
/// (waivers are applied by the caller).
pub fn run_all(ctx: &FileCtx<'_>, scan: &Scan, regions: &Regions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if ctx.is_shim() || ctx.rel_path.contains("/fixtures/") {
        return diags;
    }
    panic_rule(ctx, scan, regions, &mut diags);
    hash_iter_rule(ctx, scan, regions, &mut diags);
    wall_clock_rule(ctx, scan, regions, &mut diags);
    env_read_rule(ctx, scan, regions, &mut diags);
    thread_id_rule(ctx, scan, regions, &mut diags);
    obs_no_rng_rule(ctx, scan, &mut diags);
    rng_containment_rule(ctx, scan, regions, &mut diags);
    forbid_unsafe_rule(ctx, scan, &mut diags);
    diags
}

fn push(
    diags: &mut Vec<Diagnostic>,
    ctx: &FileCtx<'_>,
    line: usize,
    rule: &'static str,
    msg: String,
) {
    diags.push(Diagnostic {
        path: ctx.rel_path.to_string(),
        line,
        rule,
        message: msg,
    });
}

/// (P) panic-freedom.
fn panic_rule(ctx: &FileCtx<'_>, scan: &Scan, regions: &Regions, diags: &mut Vec<Diagnostic>) {
    if !ctx.is_library_src() {
        return;
    }
    const PATTERNS: &[&str] = &[
        ".unwrap(",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    for pat in PATTERNS {
        for off in find_token(&scan.code, pat) {
            let line = scan.line_of(off);
            if regions.is_test(line) || regions.is_debug(line) {
                continue;
            }
            push(
                diags,
                ctx,
                line,
                "panic",
                format!(
                    "`{}` in non-test library code — propagate a structured error, move \
                     it under a debug assertion, or waive with \
                     `// ca-lint: allow(panic) -- <why this cannot fire>`",
                    pat.trim_start_matches('.').trim_end_matches('('),
                ),
            );
        }
    }
}

/// (D) HashMap/HashSet iteration in result-producing crates.
fn hash_iter_rule(ctx: &FileCtx<'_>, scan: &Scan, regions: &Regions, diags: &mut Vec<Diagnostic>) {
    if !ctx.is_library_src() || !ctx.config.result_crates.contains(&ctx.crate_dir()) {
        return;
    }
    let names = collect_hash_names(&scan.code);
    if names.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
    ];
    let cb = scan.code.as_bytes();
    for name in &names {
        for off in find_token(&scan.code, name) {
            let line = scan.line_of(off);
            if regions.is_test(line) {
                continue;
            }
            let after = &scan.code[off + name.len()..];
            let method = ITER_METHODS.iter().find(|m| after.starts_with(**m));
            let looped = token_before_is_in(cb, off);
            if let Some(m) = method {
                push(
                    diags,
                    ctx,
                    line,
                    "hash-iter",
                    format!(
                        "`{name}{m}` iterates a hash collection in a result-producing \
                         crate; hash order is nondeterministic across processes — use \
                         `BTreeMap`/`BTreeSet`, sort before iterating, or waive with \
                         `// ca-lint: allow(hash-iter) -- <why order cannot reach results>`"
                    ),
                );
            } else if looped {
                push(
                    diags,
                    ctx,
                    line,
                    "hash-iter",
                    format!(
                        "`for … in {name}` iterates a hash collection in a \
                         result-producing crate; hash order is nondeterministic — use \
                         `BTreeMap`/`BTreeSet`, sort first, or waive with \
                         `// ca-lint: allow(hash-iter) -- <reason>`"
                    ),
                );
            }
        }
    }
}

/// Identifiers in this file declared (or assigned) as HashMap/HashSet.
fn collect_hash_names(code: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let cb = code.as_bytes();
    for ty in ["HashMap", "HashSet"] {
        for off in find_token(code, ty) {
            // Walk left over any `path::prefix::`, possibly through one
            // generic wrapper (`OnceLock<HashMap<…>>`), to the binding.
            let mut p = off;
            for _ in 0..4 {
                p = skip_path_prefix_left(cb, p);
                let q = skip_ws_left(cb, p);
                match cb.get(q.wrapping_sub(1)) {
                    Some(&b':') if q >= 2 && cb[q - 2] != b':' => {
                        // `name: [std::collections::]HashMap<…>`
                        if let Some(n) = ident_left(cb, q - 1) {
                            names.push(n);
                        }
                        break;
                    }
                    Some(&b'=') => {
                        // `let [mut] name = HashMap::new()` / reassignment
                        if let Some(n) = ident_left(cb, q - 1) {
                            names.push(n);
                        }
                        break;
                    }
                    Some(&b'<') => {
                        // Generic argument: hop out one level and retry.
                        p = q - 1;
                        continue;
                    }
                    _ => break,
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Skips a trailing `segment::segment::` chain left of `pos`.
fn skip_path_prefix_left(cb: &[u8], mut pos: usize) -> usize {
    loop {
        let q = skip_ws_left(cb, pos);
        if q >= 2 && cb[q - 1] == b':' && cb[q - 2] == b':' {
            let mut r = q - 2;
            while r > 0 && is_ident(cb[r - 1]) {
                r -= 1;
            }
            if r == q - 2 {
                return q; // `::HashMap` with no segment — stop
            }
            pos = r;
        } else {
            return q;
        }
    }
}

fn skip_ws_left(cb: &[u8], mut pos: usize) -> usize {
    while pos > 0 && cb[pos - 1].is_ascii_whitespace() {
        pos -= 1;
    }
    pos
}

/// Reads the identifier ending just left of `pos` (skipping
/// whitespace); `None` if there isn't one.
fn ident_left(cb: &[u8], pos: usize) -> Option<String> {
    let end = skip_ws_left(cb, pos);
    let mut start = end;
    while start > 0 && is_ident(cb[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let name = String::from_utf8_lossy(&cb[start..end]).into_owned();
    if name == "mut" || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name)
}

/// True when the token before `offset` (skipping `&`, `mut`, ws) is
/// the keyword `in` — i.e. `for … in [&[mut ]]name`.
fn token_before_is_in(cb: &[u8], offset: usize) -> bool {
    let mut p = skip_ws_left(cb, offset);
    // skip `mut`
    if p >= 3 && &cb[p - 3..p] == b"mut" && (p == 3 || !is_ident(cb[p - 4])) {
        p = skip_ws_left(cb, p - 3);
    }
    while p > 0 && cb[p - 1] == b'&' {
        p = skip_ws_left(cb, p - 1);
    }
    p >= 2
        && &cb[p - 2..p] == b"in"
        && (p == 2 || !is_ident(cb[p - 3]))
        && (p == cb.len() || !is_ident(cb[p]))
}

/// (D) wall-clock reads outside obs/bench.
fn wall_clock_rule(ctx: &FileCtx<'_>, scan: &Scan, regions: &Regions, diags: &mut Vec<Diagnostic>) {
    if !ctx.is_library_src() || ctx.config.clock_crates.contains(&ctx.crate_dir()) {
        return;
    }
    for pat in ["Instant::now", "SystemTime::now"] {
        for off in find_token(&scan.code, pat) {
            let line = scan.line_of(off);
            if regions.is_test(line) {
                continue;
            }
            push(
                diags,
                ctx,
                line,
                "wall-clock",
                format!(
                    "`{pat}` outside `ca-obs`/`ca-bench`; wall-clock reads in result \
                     paths undermine run-to-run reproducibility — route timing through \
                     `ca-obs` spans, or waive with \
                     `// ca-lint: allow(wall-clock) -- <why this never feeds results>`"
                ),
            );
        }
    }
}

/// (D) environment reads outside `ca_obs::env`.
fn env_read_rule(ctx: &FileCtx<'_>, scan: &Scan, regions: &Regions, diags: &mut Vec<Diagnostic>) {
    if !ctx.is_library_src() || ctx.rel_path == ctx.config.env_module {
        return;
    }
    for pat in ["env::var", "env::var_os", "env::vars", "env::vars_os"] {
        for off in find_token(&scan.code, pat) {
            let line = scan.line_of(off);
            if regions.is_test(line) {
                continue;
            }
            push(
                diags,
                ctx,
                line,
                "env-read",
                format!(
                    "`{pat}` outside `ca_obs::env`; ad-hoc environment reads bypass the \
                     warn-once/invalid-counting discipline — use `ca_obs::var_parsed[_with]`, \
                     or waive with `// ca-lint: allow(env-read) -- <reason>`"
                ),
            );
        }
    }
}

/// (D) thread-identity reads.
fn thread_id_rule(ctx: &FileCtx<'_>, scan: &Scan, regions: &Regions, diags: &mut Vec<Diagnostic>) {
    if !ctx.is_library_src() {
        return;
    }
    for pat in ["thread::current", "ThreadId"] {
        for off in find_token(&scan.code, pat) {
            let line = scan.line_of(off);
            if regions.is_test(line) {
                continue;
            }
            push(
                diags,
                ctx,
                line,
                "thread-id",
                format!(
                    "`{pat}` — thread-identity-derived logic breaks the \
                     any-worker-count bit-identity contract; key work off shot/job \
                     indices instead, or waive with \
                     `// ca-lint: allow(thread-id) -- <reason>`"
                ),
            );
        }
    }
}

/// (R) no RNG anywhere in the observability crate — including its
/// tests: instrumentation must be provably incapable of perturbing a
/// seeded run.
fn obs_no_rng_rule(ctx: &FileCtx<'_>, scan: &Scan, diags: &mut Vec<Diagnostic>) {
    if ctx.crate_dir() != "crates/obs" {
        return;
    }
    for off in find_token(&scan.code, "rand") {
        let line = scan.line_of(off);
        push(
            diags,
            ctx,
            line,
            "obs-no-rng",
            "`rand` referenced inside `ca-obs` — instrumentation must never import or \
             touch RNG (the no-RNG invariant behind `CA_OBS`-level bit-identity)"
                .to_string(),
        );
    }
}

/// (R) RNG draws in `ca-sim` only in sanctioned modules.
fn rng_containment_rule(
    ctx: &FileCtx<'_>,
    scan: &Scan,
    regions: &Regions,
    diags: &mut Vec<Diagnostic>,
) {
    if !ctx.is_library_src() || ctx.crate_dir() != "crates/sim" {
        return;
    }
    if ctx
        .config
        .sim_rng_modules
        .iter()
        .any(|m| ctx.rel_path.ends_with(m))
    {
        return;
    }
    for off in find_token(&scan.code, "rand") {
        let line = scan.line_of(off);
        if regions.is_test(line) {
            continue;
        }
        push(
            diags,
            ctx,
            line,
            "rng-containment",
            "`rand` referenced outside ca-sim's sanctioned RNG modules — frame-engine \
             draws must be pure hashes from `plan::shot_site_seed`, dense draws must \
             come from `plan::chunk_seed` streams; route randomness through an \
             existing sanctioned module or waive with \
             `// ca-lint: allow(rng-containment) -- <reason>`"
                .to_string(),
        );
    }
}

/// (Satellite) every non-shim crate root forbids `unsafe`.
fn forbid_unsafe_rule(ctx: &FileCtx<'_>, scan: &Scan, diags: &mut Vec<Diagnostic>) {
    if !ctx.is_crate_root() {
        return;
    }
    let normalized: String = scan.code.split_whitespace().collect();
    if !normalized.contains("#![forbid(unsafe_code)]") {
        push(
            diags,
            ctx,
            1,
            "forbid-unsafe",
            "crate root is missing `#![forbid(unsafe_code)]` — the workspace is \
             unsafe-free by policy; add the attribute at the top of the file"
                .to_string(),
        );
    }
}
