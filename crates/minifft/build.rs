//! Builds the codelets: `codelets/codelets.c`, which `splc` generated from
//! the committed `codelets/fft*.spl`, compiled by the host `cc` on
//! `spl-native`'s line without `-shared` and without ISA tokens (a static
//! object cannot probe the CPU it will run on), then archived for Rust to
//! link. Building here rather than at run time keeps `cc` out of every
//! process that plans.

use std::path::PathBuf;
use std::process::Command;

const SOURCE: &str = "codelets/codelets.c";

fn run(cmd: &mut Command) {
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot start {cmd:?}: {e}"));
    if !out.status.success() {
        panic!(
            "{cmd:?} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

fn main() {
    println!("cargo:rerun-if-changed={SOURCE}");
    println!("cargo:rerun-if-changed=build.rs");
    let out_dir = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let object = out_dir.join("codelets.o");
    let archive = out_dir.join("libminifft_codelets.a");
    run(Command::new("cc")
        .args(["-O2", "-ffp-contract=off", "-fPIC", "-c", SOURCE, "-o"])
        .arg(&object));
    // `ar` adds to an existing archive; start from an empty one.
    let _ = std::fs::remove_file(&archive);
    run(Command::new("ar").arg("crs").arg(&archive).arg(&object));
    println!("cargo:rustc-link-search=native={}", out_dir.display());
    println!("cargo:rustc-link-lib=static=minifft_codelets");
}
