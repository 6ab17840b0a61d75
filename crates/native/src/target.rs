//! The `cc` *target line*: the fixed flags plus the widest vector ISA of
//! the host whose code cannot contain a fused multiply-add.
//!
//! `cc -O2` already vectorises every unit-stride `⊗ I_m` loop of the
//! generated C; with no ISA named it does so at x86-64's 2003 baseline,
//! 16-byte SSE2, on a host whose VM back end runs 32-byte AVX. The line
//! is derived, never configured: probe the CPU once, name `-mavx2` or
//! `-mavx`, and always pair it with `-mno-fma`. `-march=native` is
//! never used — on an FMA host gcc's SLP pass forms
//! `vfmaddsub`/`vfmsubadd` even under `-ffp-contract=off`, which rounds
//! once where the VM rounds twice and demotes every kernel at the
//! bitwise promotion gate — and neither is AVX-512 (`-mno-fma` does not
//! cover its fused forms).
//!
//! A `cc` that rejects the ISA tokens costs nothing until it does: no
//! probe compile; the first build that fails with them is retried once
//! at baseline, and when that succeeds the process stays at baseline
//! ([`CcTarget::fallbacks`], reported as `native.isa.fallback`).
//!
//! The *effective* line ([`cc_command_line`]) is part of every
//! [`KernelCache`](crate::KernelCache) key and of the wisdom store's
//! compiler fingerprint, so an object built for AVX2 is never loaded on
//! a host that selects something else, and costs measured under another
//! line are not trusted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use spl_telemetry::Telemetry;

use crate::cache::cc_version;

/// The fixed `cc` flags (before the ISA tokens, `-o` and the file
/// paths).
///
/// `-ffp-contract=off` is necessary but not sufficient for bit-identity
/// with the VM. It stops `cc` from contracting the scalar `a*b+c` into
/// one rounding on a target with FMA in its baseline; it does not stop
/// gcc's SLP vectoriser from forming `vfmaddsub`/`vfmsubadd` once the
/// target has FMA at all. That is why `-mno-fma` rides with every
/// `-mavx*` in [`isa_tokens`]: the only way to keep fused forms out of
/// vector code is a target that has none.
pub(crate) const CC_FLAGS: &[&str] = &["-O2", "-ffp-contract=off", "-shared", "-fPIC"];

/// The ISA tokens for a host of architecture `arch` (as in
/// [`std::env::consts::ARCH`]) with the given CPU features: the widest
/// FMA-free vector level on x86-64, nothing anywhere else. Pure and
/// total; every list naming `-mavx*` also names `-mno-fma`.
pub fn isa_tokens(arch: &str, avx: bool, avx2: bool) -> &'static [&'static str] {
    match (arch, avx2, avx) {
        ("x86_64", true, _) => &["-mavx2", "-mno-fma"],
        ("x86_64", false, true) => &["-mavx", "-mno-fma"],
        _ => &[],
    }
}

fn host_isa_tokens() -> &'static [&'static str] {
    #[cfg(target_arch = "x86_64")]
    let (avx, avx2) = (
        std::arch::is_x86_feature_detected!("avx"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx, avx2) = (false, false);
    isa_tokens(std::env::consts::ARCH, avx, avx2)
}

/// `-mavx2 …` → `avx2`; no tokens → `baseline`.
fn isa_name(tokens: &[&'static str]) -> &'static str {
    tokens
        .first()
        .map_or("baseline", |t| t.trim_start_matches("-m"))
}

/// One target line and whether `cc` turned out to reject it. The
/// process builds everything for [`CcTarget::host`]; tests make their
/// own to drive the fallback without touching the host's state.
#[derive(Debug)]
pub struct CcTarget {
    isa: &'static [&'static str],
    selected_line: String,
    baseline_line: String,
    /// Builds that failed with the ISA tokens and succeeded without.
    /// Nonzero means downgraded. `Relaxed` throughout: the count guards
    /// no other data, and a build racing the downgrade merely pays the
    /// retry itself.
    fallbacks: AtomicU64,
}

impl CcTarget {
    /// A target with the given ISA tokens (tests; [`CcTarget::host`]
    /// derives them).
    #[doc(hidden)]
    pub fn with_isa_tokens(isa: &'static [&'static str]) -> CcTarget {
        let line = |isa: &[&str]| {
            let flags = [CC_FLAGS, isa].concat().join(" ");
            format!("cc {flags} [{}]", cc_version())
        };
        CcTarget {
            isa,
            selected_line: line(isa),
            baseline_line: line(&[]),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The host's target, probed once per process.
    pub fn host() -> &'static CcTarget {
        static HOST: OnceLock<CcTarget> = OnceLock::new();
        HOST.get_or_init(|| CcTarget::with_isa_tokens(host_isa_tokens()))
    }

    /// How many builds fell back to baseline (see the module header).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// The ISA tokens builds currently use: none once downgraded.
    pub(crate) fn isa(&self) -> &'static [&'static str] {
        if self.fallbacks() > 0 {
            &[]
        } else {
            self.isa
        }
    }

    /// Records that a build needed the baseline retry.
    pub(crate) fn downgrade(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// The effective command line: flags, ISA tokens in use, and the
    /// `cc` version banner — everything that decides what object a
    /// given C text becomes.
    pub fn command_line(&self) -> &str {
        if self.fallbacks() > 0 {
            &self.baseline_line
        } else {
            &self.selected_line
        }
    }

    /// `avx2`, `avx` or `baseline`; `baseline (fallback from avx2)`
    /// once downgraded.
    pub fn isa_label(&self) -> String {
        match self.fallbacks() {
            0 => isa_name(self.isa).to_string(),
            _ => format!("baseline (fallback from {})", isa_name(self.isa)),
        }
    }

    /// Notes which ISA native kernels are built for (`native.isa`) and
    /// the whole line (`native.cc_line`), and counts the downgrade if
    /// there was one (`native.isa.fallback`). Idempotent: callers may
    /// report repeatedly into one collector.
    pub fn report(&self, tel: &mut Telemetry) {
        tel.note("native.isa", &self.isa_label());
        tel.note("native.cc_line", self.command_line());
        if self.fallbacks() > 0 {
            tel.set("native.isa.fallback", self.fallbacks());
        }
    }
}

/// [`CcTarget::command_line`] of the host: what
/// [`KernelCache::key`](crate::KernelCache::key) and the wisdom store's
/// `cc_fingerprint` hash.
pub fn cc_command_line() -> &'static str {
    CcTarget::host().command_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_line_names_flags_isa_and_compiler() {
        let host = CcTarget::host();
        let line = host.command_line();
        assert!(line.starts_with("cc -O2 -ffp-contract=off -shared -fPIC"));
        assert!(line.ends_with(&format!("[{}]", cc_version())));
        for t in host.isa() {
            assert!(line.contains(t), "{line} lacks {t}");
        }
        assert_eq!(cc_command_line(), line);
    }

    #[test]
    fn downgrade_switches_line_tokens_and_label() {
        let t = CcTarget::with_isa_tokens(isa_tokens("x86_64", true, true));
        assert_eq!(t.isa_label(), "avx2");
        assert!(t.command_line().contains("-mavx2 -mno-fma"));
        t.downgrade();
        assert_eq!(t.isa(), &[] as &[&str]);
        assert!(!t.command_line().contains("-mavx"));
        assert_eq!(t.isa_label(), "baseline (fallback from avx2)");
        assert_eq!(
            CcTarget::with_isa_tokens(&[]).isa_label(),
            "baseline",
            "no tokens is the baseline, not a fallback"
        );
    }
}
