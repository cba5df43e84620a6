//! Process and thread accounting read from `/proc`: CPU time and the
//! resident-set high-water mark. Values are 0 where `/proc` is missing.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 per second on
/// every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// user + system CPU seconds out of a `/proc/.../stat` line.
fn cpu_seconds_of(stat: &str) -> f64 {
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields 14 and 15 are the 12th and 13th after the closing paren.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut it = rest.split_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(it.next());
    let stime = ticks(it.next());
    (utime + stime) / TICKS_PER_S
}

/// CPU seconds (user + system) of the whole process, threads that have
/// already exited included.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .map(|s| cpu_seconds_of(&s))
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) of the calling thread.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .map(|s| cpu_seconds_of(&s))
        .unwrap_or(0.0)
}

/// `VmHWM`: the largest resident set the process has had, in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm_parses() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert!((cpu_seconds_of(line) - 3.0).abs() < 1e-9);
    }
}
