//! The parser's nesting budget keeps every recursive walker on the
//! stack.
//!
//! `lang::parser::MAX_NESTING` bounds how deep the recursive-descent
//! productions may nest, counting every node of a left-deep operator
//! or postfix chain (`1 + 1 + …`, `v[0][0]…`) as a level; past it
//! `parse` returns "nesting too deep" instead of handing the walkers a
//! tree that overflows the stack (which aborts the process without
//! unwinding). This suite checks both halves of the contract: input
//! nested *just under* the bound goes through the whole frontend —
//! parse, lint, fingerprint, structural hash, featurize and render — on
//! a 2 MiB thread, the std default the server's workers run on, and
//! chains far past it are refused on that thread.

use synthattr::analysis::{fingerprint, Analyzer};
use synthattr::features::{FeatureConfig, FeatureExtractor};
use synthattr::lang::hash::unit_hash;
use synthattr::lang::parser::MAX_NESTING;
use synthattr::lang::render::{render, RenderStyle};
use synthattr::lang::{parse, ParseError};

/// Runs `f` on a thread with a 2 MiB stack.
fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

/// One program per nesting shape, `k` levels deep.
fn shapes(k: usize) -> Vec<(&'static str, String)> {
    vec![
        (
            "parens",
            format!(
                "int main() {{ int x = {}1{}; return x; }}",
                "(".repeat(k),
                ")".repeat(k)
            ),
        ),
        (
            "blocks",
            format!(
                "int main() {{ int x = 0; {}x = 1;{} return x; }}",
                "{".repeat(k),
                "}".repeat(k)
            ),
        ),
        (
            "unary",
            format!("int main() {{ int x = {}1; return x; }}", "- ".repeat(k)),
        ),
        (
            "casts",
            format!("int main() {{ int x = {}1; return x; }}", "(int)".repeat(k)),
        ),
        (
            "assignments",
            format!("int main() {{ int x; {}1; return x; }}", "x = ".repeat(k)),
        ),
        (
            "else-if ladder",
            format!(
                "int main() {{ int x = 0; {}x = 1; return x; }}",
                "if (x > 1) x = 0; else ".repeat(k)
            ),
        ),
        (
            "template types",
            format!(
                "{}int{} v; int main() {{ return 0; }}",
                "vector<".repeat(k),
                ">".repeat(k)
            ),
        ),
        (
            "loops",
            format!(
                "int main() {{ int x = 0; {}x++; return x; }}",
                "while (x < 1) ".repeat(k)
            ),
        ),
        (
            "+ chain",
            format!("int main() {{ int x = 1{}; return x; }}", " + 1".repeat(k)),
        ),
        (
            "<< chain",
            format!("int main() {{ cout << 1{}; return 0; }}", " << 1".repeat(k)),
        ),
        (
            "index chain",
            format!("int main() {{ int v[1]; return v{}; }}", "[0]".repeat(k)),
        ),
        (
            "call chain",
            format!("int main() {{ return f{}; }}", "(1)".repeat(k)),
        ),
        (
            "parenthesized chains",
            format!(
                "int main() {{ int x = {}1{}; return x; }}",
                "(1 + ".repeat(k),
                " + 1)".repeat(k)
            ),
        ),
    ]
}

fn is_too_deep<T>(r: &Result<T, ParseError>) -> bool {
    matches!(r, Err(e) if e.message() == "nesting too deep")
}

#[test]
fn nesting_just_under_the_budget_runs_the_whole_frontend_on_a_worker_stack() {
    let names: Vec<&str> = shapes(0).into_iter().map(|(name, _)| name).collect();
    for (i, name) in names.into_iter().enumerate() {
        let shape = move |k: usize| shapes(k).swap_remove(i).1;
        // The deepest instance of this shape the budget admits: one
        // level more is refused for being too deep, not for any other
        // reason.
        let k = (1..=MAX_NESTING)
            .rev()
            .find(|&k| parse(&shape(k)).is_ok())
            .unwrap_or_else(|| panic!("{name}: no depth parses"));
        assert!(is_too_deep(&parse(&shape(k + 1))), "{name}: k={k}");

        let src = shape(k);
        let products = on_worker_stack(move || {
            let unit = parse(&src).expect("parses under the budget");
            let diags = Analyzer::new().analyze(&unit);
            let text = render(&unit, &RenderStyle::default());
            let features = FeatureExtractor::new(FeatureConfig::default())
                .extract(&src)
                .expect("featurizes");
            (
                diags.len(),
                fingerprint(&unit),
                unit_hash(&unit),
                text.len(),
                features.len(),
            )
        });
        assert!(products.3 > 0 && products.4 > 0, "{name}");
    }
}

/// Every shape 20 000 levels deep is refused on a worker stack. The
/// chains among them (`1 + 1 + …`, `cout << 1 << …`, `v[0][0]…`) are
/// 80–100 KB, far under the server's 1 MiB body limit, and used to
/// parse into left-deep trees that overflowed the stack downstream.
#[test]
fn every_shape_twenty_thousand_deep_is_refused_on_a_worker_stack() {
    for (name, src) in shapes(20_000) {
        let parsed = on_worker_stack(move || parse(&src).map(|unit| unit_hash(&unit)));
        assert!(is_too_deep(&parsed), "{name}: {parsed:?}");
    }
}

/// Chains nested inside chains. Each chain and the parentheses around
/// it fit the budget on their own, but the tree is as tall as all the
/// chains stacked: a bound charged per chain rather than at the tree's
/// true height would admit thousands of levels.
#[test]
fn chains_nested_in_chains_are_charged_at_their_true_height() {
    let (levels, terms) = (40, 120);
    let mut expr = "1".to_string();
    for _ in 0..levels {
        expr = format!("({expr}{})", " + 1".repeat(terms - 1));
    }
    assert!(levels * 3 + terms < MAX_NESTING);
    let src = format!("int main() {{ return {expr}; }}");
    let parsed = on_worker_stack(move || parse(&src).map(|unit| unit_hash(&unit)));
    assert!(is_too_deep(&parsed), "{parsed:?}");
}
