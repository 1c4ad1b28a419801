//! Records the compiler version and build profile for the benchmark's
//! environment block. Either may come out empty; the binary then reports
//! `null` for it.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let profile = std::env::var("PROFILE").unwrap_or_default();
    println!("cargo:rustc-env=RMBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=RMBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
