//! CPU time from `/proc`: the whole process, or the calling thread.

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, fixed at
/// 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, threads that have
/// already exited included.
pub fn process_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// CPU seconds the calling thread has run, at nanosecond resolution
/// (first field of `/proc/thread-self/schedstat`).
pub fn thread_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// The calling thread's id (from the `/proc/thread-self` link).
pub fn current_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU nanoseconds of every live thread of this process, by thread id.
pub fn threads_ns() -> std::collections::BTreeMap<u64, u64> {
    let mut out = std::collections::BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let ns = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        if let Some(ns) = ns {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU seconds that threads alive at both snapshots spent between
/// them, leaving out `exclude`. Threads started after `before` or gone
/// by `after` (the load generator's readers) do not count.
pub fn threads_delta_s(
    before: &std::collections::BTreeMap<u64, u64>,
    after: &std::collections::BTreeMap<u64, u64>,
    exclude: &[u64],
) -> f64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .filter_map(|(tid, ns)| Some(ns.saturating_sub(*before.get(tid)?)))
        .sum::<u64>() as f64
        / 1e9
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// may contain spaces, so fields are counted after its closing paren.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the paren: state is field 3 of the full line, so utime
    // (field 14) and stime (field 15) sit at offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_lines_with_spaces_in_the_name() {
        let line = "42 (my (odd) proc) R 1 42 42 0 -1 4194304 100 0 0 0 250 37 0 0 20 0 3 0 1000";
        assert_eq!(stat_cpu_ticks(line), Some(287));
        assert_eq!(stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn thread_deltas_skip_new_and_excluded_threads() {
        let before = [(1, 100), (2, 500)].into_iter().collect();
        let after = [(1, 1_100), (2, 900), (3, 7_000)].into_iter().collect();
        assert_eq!(threads_delta_s(&before, &after, &[]), 1.4e-6);
        assert_eq!(threads_delta_s(&before, &after, &[2]), 1e-6);
    }

    #[test]
    fn this_thread_is_listed() {
        let tid = current_tid().expect("thread id");
        assert!(threads_ns().contains_key(&tid));
    }

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(thread_s() > t0);
        assert!(process_s() >= p0);
    }
}
