//! Host-speed calibration: timings scaled to the share of the core the
//! benchmark was getting while it ran.
//!
//! On a shared host another tenant on the same physical core slows the
//! simulator by up to 2× for minutes at a time. A fixed, register-only
//! probe read on both sides of a timed section tells how fast the core
//! was running for us at that moment, and the section's host time is
//! scaled by `PROBE_REF_NS / probe`. The probe is a dependent chain of
//! add-immediates: it touches no memory, and its speed follows the
//! core's front-end throughput, the resource an SMT sibling takes. On a
//! 2-vCPU Xeon VM, 40-second runs of `campus_trace` at one seed, with the
//! core at 56 % and at 94–96 % of the reference, gave scaled times of
//! 1.93 s and 1.93–1.95 s; the median raw times were 3.52 s and
//! 2.07–2.09 s.

use std::time::Instant;

/// Probe reading, in ns per add, that a timing is scaled to: about an
/// uncontended core of the host the benchmark was tuned on. The scaled
/// time is that host's uncontended time only roughly; what matters is
/// that it is fixed, so two builds compare on any one host.
pub const PROBE_REF_NS: f64 = 0.1;

/// Adds per probe reading: a few microseconds.
const PROBE_ADDS: u64 = 40_000;

/// Host time of one section, raw and scaled to [`PROBE_REF_NS`].
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Host seconds as measured.
    pub raw_s: f64,
    /// Host seconds × `PROBE_REF_NS` / the mean probe reading on both sides.
    pub scaled_s: f64,
    /// That mean probe reading, ns per add.
    pub probe_ns: f64,
}

/// Run `f`, timing it between two probe readings.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = probe_ns();
    let t0 = Instant::now();
    let out = f();
    let raw_s = t0.elapsed().as_secs_f64();
    let probe = (before + probe_ns()) / 2.0;
    let timing = Timing {
        raw_s,
        scaled_s: raw_s * PROBE_REF_NS / probe,
        probe_ns: probe,
    };
    (out, timing)
}

/// Host ns per add of a fixed chain of dependent add-immediates.
#[cfg(target_arch = "x86_64")]
pub fn probe_ns() -> f64 {
    let t0 = Instant::now();
    let mut x = 0u64;
    for _ in 0..PROBE_ADDS / 8 {
        // SAFETY: register-only arithmetic on `x`; no memory, stack or flags
        // the compiler relies on are touched.
        unsafe {
            std::arch::asm!(
                "add {0}, 1", "add {0}, 1", "add {0}, 1", "add {0}, 1",
                "add {0}, 1", "add {0}, 1", "add {0}, 1", "add {0}, 1",
                inout(reg) x,
                options(nomem, nostack),
            );
        }
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as f64 / PROBE_ADDS as f64
}

/// Elsewhere there is no calibrated probe: timings are left unscaled.
#[cfg(not(target_arch = "x86_64"))]
pub fn probe_ns() -> f64 {
    PROBE_REF_NS
}
