//! Host fingerprint, the thread-budget check, and peak resident memory.

/// What a result depends on about the machine it ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPU model name (`unknown` when the kernel does not say).
    pub cpu_model: String,
    /// Whether the CPU has AVX-512F.
    pub avx512f: bool,
    /// Whether the CPU has FMA.
    pub fma: bool,
    /// Threads this process may run in parallel.
    pub nproc: usize,
    /// The cgroup CPU quota as `<quota|max> <period>` (v2 `cpu.max`, or
    /// v1's two files), `unknown` when unreadable.
    pub cpu_quota: String,
}

impl Host {
    /// Reads the fingerprint of the machine this process runs on. Every
    /// field is best effort: an unreadable source becomes `unknown`.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let read = |path: &str| std::fs::read_to_string(path).map(|s| s.trim().to_string());
        // cgroup v2 writes `<quota|max> <period>`; v1 splits the pair
        // over two files and spells "no quota" as -1.
        let cpu_quota = read("/sys/fs/cgroup/cpu.max")
            .or_else(|_| {
                let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
                let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
                let quota = if quota == "-1" { "max".into() } else { quota };
                Ok::<_, std::io::Error>(format!("{quota} {period}"))
            })
            .unwrap_or_else(|_| "unknown".into());
        #[cfg(target_arch = "x86_64")]
        let (avx512f, fma) = (
            std::arch::is_x86_feature_detected!("avx512f"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx512f, fma) = (false, false);
        Host {
            cpu_model,
            avx512f,
            fma,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_quota,
        }
    }

    /// The fingerprint as a one-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"cpu_model\": \"{}\", \"avx512f\": {}, \"fma\": {}, \"nproc\": {}, \"cpu_quota\": \"{}\"}}}}",
            json_text(&self.cpu_model),
            self.avx512f,
            self.fma,
            self.nproc,
            json_text(&self.cpu_quota)
        )
    }
}

/// `text` as the body of a JSON string: quotes and backslashes escaped,
/// control characters dropped.
fn json_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars().filter(|c| !c.is_control()) {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Refuses a workload that would run more compute threads than the host
/// runs in parallel: its timings would measure oversubscription.
///
/// # Errors
///
/// Returns a message naming both counts when `needed > nproc`.
pub fn check_threads(workload: &str, needed: usize, nproc: usize) -> Result<(), String> {
    if needed > nproc {
        return Err(format!(
            "workload {workload} runs {needed} compute threads but this host runs {nproc} in parallel"
        ));
    }
    Ok(())
}

/// Peak resident memory of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_is_enforced() {
        assert!(check_threads("w", 2, 2).is_ok());
        let err = check_threads("w", 3, 2).unwrap_err();
        assert!(err.contains("3 compute threads") && err.contains("2 in parallel"));
    }

    #[test]
    fn fingerprint_is_json_with_every_field() {
        let host = Host {
            cpu_model: "Xeon \"X\"".into(),
            avx512f: true,
            fma: true,
            nproc: 2,
            cpu_quota: "max 100000".into(),
        };
        assert_eq!(
            host.to_json(),
            "{\"host\": {\"cpu_model\": \"Xeon \\\"X\\\"\", \"avx512f\": true, \"fma\": true, \
             \"nproc\": 2, \"cpu_quota\": \"max 100000\"}}"
        );
        assert!(Host::detect().nproc >= 1);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
