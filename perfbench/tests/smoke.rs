//! Tiny-size runs of every workload through the benchmark's own code,
//! the replay-equals-pipeline check, and the pins' tie to the paper
//! tables in `repro_output.txt`.

use synthattr_core::pipeline::YearPipeline;
use synthattr_perfbench::offline::{
    chain_configs, paper_year_config, pinned, replay_build, replay_mismatch, PAPER_YEAR,
};
use synthattr_perfbench::trace::Tracer;
use synthattr_perfbench::{run, Options, Size, Workload, END_TO_END, PER_LAYER};

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    // One test, so the serve runs never share the CPUs with an offline
    // build running in a sibling test thread.
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (outcome, errors) = run(&Options {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                size: Size::Tiny,
            });
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{what}: {errors:?}");
            assert_eq!(outcome.failed, 0, "{what}");
            let wanted = if trace { PER_LAYER } else { END_TO_END };
            let mut names: Vec<&str> = wanted.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            assert_eq!(outcome.metrics.names(), names, "{what}");
            if !trace {
                for (name, _) in END_TO_END {
                    let v = outcome.metrics.get(name).unwrap();
                    // The allocator counter is not installed in tests.
                    assert!(v > 0.0 || *name == "peak_heap_mib", "{what}: {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn replay_counts_equal_the_pipeline_counts() {
    let (clean, chaos) = chain_configs(5, Size::Tiny);
    let configs = [paper_year_config(Size::Tiny), clean, chaos];
    for config in configs {
        let production = YearPipeline::try_build(PAPER_YEAR, &config).unwrap();
        let mut t = Tracer::default();
        let mut replay = replay_build(PAPER_YEAR, &config, &mut t).unwrap();
        assert_eq!(replay_mismatch(&replay, &production), None);
        assert!(t.calls("lang.parse") > 0.0 && t.calls("ml.fit") == 1.0);
        if config.faults.is_some() {
            assert!(t.calls("faults.run") > 0.0 && t.calls("gpt.transform") == 0.0);
            assert!(replay.resilience.recovered > 0);
        } else {
            assert!(t.calls("gpt.transform") > 0.0);
        }
        // The check notices a count that drifts.
        replay.frontend.cache_hits += 1;
        assert!(replay_mismatch(&replay, &production).is_some());
    }
}

/// The 2018 columns of one rendered table in `repro_output.txt`.
fn table_2018(text: &str, title: &str, columns: &[&str]) -> Vec<Vec<String>> {
    let lines: Vec<&str> = text.lines().skip_while(|l| !l.starts_with(title)).collect();
    let cells = |l: &str| -> Vec<String> {
        l.trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let header = cells(lines[2]);
    let idx: Vec<usize> = columns
        .iter()
        .map(|c| header.iter().position(|h| h == c).unwrap())
        .collect();
    lines[4..12]
        .iter()
        .map(|l| {
            let row = cells(l);
            idx.iter().map(|&i| row[i].clone()).collect()
        })
        .collect()
}

#[test]
fn default_seed_pins_match_the_paper_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../repro_output.txt"))
        .expect("repro_output.txt at the repository root");
    let pin = pinned(Size::Full).expect("the full size is pinned");
    let field = |key: &str| -> &str {
        pin.split(' ')
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap()
    };
    let pct = |accs: &str| -> Vec<String> {
        accs.split(',')
            .map(|a| format!("{:.1}", a.parse::<f64>().unwrap() * 100.0))
            .collect()
    };
    let marks = |m: &str| -> Vec<String> { m.chars().map(|c| c.to_string()).collect() };
    let naive = table_2018(&text, "Table VIII", &["2018 205", "2018 N"]);
    let feature = table_2018(&text, "Table IX", &["2018 205", "2018 T", "2018 F"]);
    let col = |t: &Vec<Vec<String>>, i: usize| -> Vec<String> {
        t.iter().map(|r| r[i].clone()).collect()
    };
    assert_eq!(pct(field("naive")), col(&naive, 0));
    assert_eq!(marks(field("N")), col(&naive, 1));
    assert_eq!(pct(field("feature")), col(&feature, 0));
    assert_eq!(marks(field("T")), col(&feature, 1));
    assert_eq!(marks(field("F")), col(&feature, 2));
}

#[test]
fn both_sizes_are_pinned() {
    for size in [Size::Full, Size::Tiny] {
        assert!(pinned(size).is_some(), "{}", size.name());
    }
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = |section: &str, next: &str| -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).unwrap();
        let end = json[start..]
            .find(&format!("\"{next}\""))
            .map_or(json.len(), |e| start + e);
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed("end_to_end", "per_layer"), e2e);
    assert_eq!(listed("per_layer", "end of file"), layer);
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}
