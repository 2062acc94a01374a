//! What the kernel charged this process: CPU time, context switches
//! and peak resident memory, all from one `getrusage(RUSAGE_SELF)`.
//! `/proc/self/status` would do for memory, but it counts context
//! switches per thread and the program under test spawns threads per
//! query that are gone before anyone could read theirs.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is that of 64-bit Linux");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    unused_a: [i64; 10],
    unused_signals: i64,
    voluntary_switches: i64,
    involuntary_switches: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub ctx_switches: f64,
    pub rss_peak_mb: f64,
}

pub fn usage() -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable value with the size and layout
    // the kernel fills for RUSAGE_SELF (0) on 64-bit Linux, which the
    // `compile_error!` above pins; the call keeps no pointer.
    let rc = unsafe { getrusage(0, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    Usage {
        cpu_s: secs(raw.utime) + secs(raw.stime),
        ctx_switches: (raw.voluntary_switches + raw.involuntary_switches) as f64,
        rss_peak_mb: raw.maxrss_kb as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_monotone_readings() {
        assert_eq!(std::mem::size_of::<RawUsage>(), 144);
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.ctx_switches >= before.ctx_switches);
        assert!(after.rss_peak_mb >= before.rss_peak_mb && before.rss_peak_mb > 1.0);
    }
}
