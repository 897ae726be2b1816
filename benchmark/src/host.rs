//! The host shape recorded with every result: two result sets are
//! comparable only when their shapes match.

use pdftsp_cluster::{configured_threads, hardware_threads};
use pdftsp_core::kernel::{simd_compiled, simd_isa};

/// Renders the host shape as one JSON object.
pub fn shape_json(shards: usize) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        concat!(
            "{{\"hardware_threads\": {}, \"configured_threads\": {}, \"shards\": {}, ",
            "\"arch\": \"{}\", \"isa\": \"{}\", \"simd_compiled\": {}, \"simd_isa\": \"{}\", ",
            "\"os\": \"{}\", \"kernel\": \"{}\", \"profile\": \"{}\", \"rustc\": \"{}\"}}"
        ),
        hardware_threads(),
        configured_threads(),
        shards,
        std::env::consts::ARCH,
        host_isa(),
        simd_compiled(),
        simd_isa(),
        std::env::consts::OS,
        kernel,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("BENCH_RUSTC_VERSION"),
    )
}

/// The widest vector ISA the CPU offers, whether or not the build uses it.
fn host_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            "avx512f"
        } else if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH
    }
}

/// Peak resident memory of this process so far, megabytes (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Total and stolen CPU time of the whole host so far, clock ticks: the
/// first line of `/proc/stat`. Steal is time the hypervisor ran other
/// guests while this one wanted the CPU.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some((fields.iter().sum(), steal))
}
