//! Command-line behaviour of the `reproduce` binary.

use std::process::Command;

/// `--help` and `-h` print the usage block and exit 0 instead of running
/// the smoke suite.
#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg(flag)
            .output()
            .expect("reproduce binary runs");
        assert!(output.status.success(), "{flag}: {:?}", output.status);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("Usage"), "{flag} printed: {stdout}");
    }
}
