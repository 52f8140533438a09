//! Host fingerprint stamped on every result. Absolute numbers compare
//! only between runs with equal fingerprints.

/// What produced a result: CPU, core count, kernel dispatch, feature
/// leg and compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPU brand string (from CPUID on x86-64).
    pub cpu: String,
    /// Logical cores available to the process.
    pub cores: usize,
    /// `gqa_simd::matmul_path()`: the blocked-matmul kernel in use.
    pub matmul_path: &'static str,
    /// `gqa_simd::simd_active()`: whether the AVX2 element kernels run.
    pub simd_active: bool,
    /// Cargo feature leg the benchmark was built with.
    pub features: &'static str,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Fingerprint {
    /// Fingerprint of the running host and build.
    #[must_use]
    pub fn detect() -> Self {
        Self {
            cpu: cpu_brand(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            matmul_path: gqa_simd::matmul_path(),
            simd_active: gqa_simd::simd_active(),
            features: feature_leg(),
            rustc: env!("E2EBENCH_RUSTC_VERSION"),
        }
    }

    /// One `key=value` line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "cpu=\"{}\" cores={} matmul_path={} simd_active={} features={} rustc=\"{}\"",
            self.cpu, self.cores, self.matmul_path, self.simd_active, self.features, self.rustc
        )
    }
}

fn feature_leg() -> &'static str {
    match (cfg!(feature = "simd"), cfg!(feature = "parallel")) {
        (true, true) => "simd+parallel",
        (true, false) => "simd",
        (false, true) => "parallel",
        (false, false) => "scalar",
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // `__cpuid` is a safe fn on newer toolchains
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID is available on every x86-64 processor; leaves
    // 0x8000_0002..=0x8000_0004 are read only after leaf 0x8000_0000
    // reports them.
    let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_ext < 0x8000_0004 {
        return "unknown x86-64".to_owned();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: as above.
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    std::env::consts::ARCH.to_owned()
}
