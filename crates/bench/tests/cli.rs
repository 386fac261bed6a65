//! End-to-end checks of the `fmsa_opt` command line.

use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use std::process::Command;

#[test]
fn unknown_or_unparsable_flag_values_exit_2() {
    let input = std::env::temp_dir().join(format!("fmsa-opt-cli-{}.wasm", std::process::id()));
    std::fs::write(&input, wasm_fixture_bytes(&WasmFixtureConfig::with_functions(8))).unwrap();
    let run = |flags: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fmsa_opt")).arg(&input).args(flags).output().unwrap()
    };
    let ok = run(&["--threshold", "2", "--arch", "arm-thumb", "--search", "lsh"]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    for flags in [["--threshold", "abc"], ["--arch", "arm"], ["--search", "lsj"]] {
        let out = run(&flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?} must be rejected");
        assert!(out.stdout.is_empty(), "{flags:?} must not produce a module");
    }
    std::fs::remove_file(&input).ok();
}
