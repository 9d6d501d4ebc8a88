//! `repro --help` / `-h` print the usage of every subcommand to stdout
//! and exit 0 without running anything.

use std::process::Command;

#[test]
fn help_prints_subcommand_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(flag)
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        for sub in [
            "repro <experiment>",
            "repro bench",
            "repro sweep",
            "repro trace ls",
        ] {
            assert!(stdout.contains(sub), "{flag}: no {sub:?} in\n{stdout}");
        }
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!stderr.contains("unknown experiment"), "{flag}: {stderr}");
    }
}
