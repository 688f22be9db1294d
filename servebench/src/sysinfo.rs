//! `/proc` readers and the machine fingerprint stamped on every result.

use std::process::Command;

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of a `/proc/<pid>/status` text.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Reads a `kB` field of a live process's status.
pub fn process_kib(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kib(&text, key)
}

/// Steal ticks of the aggregate `cpu` line of a `/proc/stat` text (the
/// eighth value: user nice system idle iowait irq softirq steal).
pub fn steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Current steal ticks of this machine, 0 when unreadable.
pub fn steal_now() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| steal_ticks(&s))
        .unwrap_or(0)
}

/// The first `model name` of a `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// Worker threads this machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Milliseconds one core takes for a fixed integer workload: taken at
/// the start and the end of a run, it shows whether the machine itself
/// was slower while a noisy result was measured.
pub fn cpu_probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The machine and build a result was measured on, as one JSON object.
/// `steal` is the steal ticks accumulated over the run; `probe_ms` the
/// [`cpu_probe_ms`] readings at its start and end.
pub fn fingerprint_json(steal: u64, probe_ms: (f64, f64)) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| cpu_model(&s))
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // The benchmark may run from a plain source tree with no git data.
    let head = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"head\": {}, \"dirty\": {}, \"steal_ticks\": {steal}, \"cpu_probe_ms\": [{:.1}, {:.1}]}}",
        nproc(),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&head),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        probe_ms.0,
        probe_ms.1,
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_in_kib() {
        let status = "Name:\tclr-served\nVmPeak:\t  123456 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30720 kB\nThreads:\t3\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(40_960));
        assert_eq!(status_kib(status, "VmRSS"), Some(30_720));
        assert_eq!(status_kib(status, "VmSwap"), None);
        // A key must match whole, not as a prefix of another.
        assert_eq!(status_kib("VmHWMX:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  100 2 30 4000 5 0 6 77 0 0\ncpu0 50 1 15 2000 2 0 3 40 0 0\nintr 1\n";
        assert_eq!(steal_ticks(stat), Some(77));
        assert_eq!(steal_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn cpu_model_takes_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(cpu_model(info).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
