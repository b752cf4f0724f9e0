//! The parser's nesting budget keeps every recursive walker on the
//! stack.
//!
//! `lang::parser::MAX_NESTING` bounds how deep the recursive-descent
//! productions may nest; past it `parse` returns "nesting too deep"
//! instead of overflowing the stack (which aborts the process without
//! unwinding). This suite checks the other half of the contract: input
//! nested *just under* the bound goes through the whole frontend —
//! parse, lint, fingerprint, structural hash, featurize and render — on
//! a 2 MiB thread, the std default the server's workers run on.

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
    ]
}

fn is_too_deep(r: &Result<synthattr::lang::TranslationUnit, ParseError>) -> bool {
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
