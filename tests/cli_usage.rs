//! Pins the CLI's error contract: unknown flags and subcommands exit
//! with status 2 and print the USAGE block on stderr.

use std::process::Command;

fn cookiepicker(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cookiepicker")).args(args).output().expect("spawn binary")
}

#[test]
fn unknown_flag_exits_2_with_usage_on_stderr() {
    for args in [
        &["classify", "a.html", "b.html", "--bogus"][..],
        &["serve", "--not-a-flag"][..],
        &["loadgen", "--wat", "3"][..],
        &["simulate", "--nope"][..],
    ] {
        let out = cookiepicker(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?} must print usage, got: {stderr}");
        assert!(stderr.contains("cookiepicker serve"), "usage lists serve");
        assert!(stderr.contains("cookiepicker loadgen"), "usage lists loadgen");
        assert!(out.stdout.is_empty(), "errors go to stderr only");
    }
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = cookiepicker(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

/// USAGE, byte for byte: `help` prints exactly the fixture on stdout, and a
/// parse error prints the error, a blank line and the fixture on stderr.
#[test]
fn usage_matches_the_fixture_byte_for_byte() {
    let fixture = include_str!("fixtures/usage.txt");
    let help = cookiepicker(&["help"]);
    assert_eq!(String::from_utf8_lossy(&help.stdout), fixture);
    let bad = cookiepicker(&["serve", "--not-a-flag"]);
    assert_eq!(bad.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&bad.stderr),
        format!("error: unknown flag --not-a-flag\n\n{fixture}\n")
    );
}

#[test]
fn help_exits_0_and_prints_usage_on_stdout() {
    let out = cookiepicker(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE:"));
    assert!(stdout.contains("cookiepicker serve"));
    assert!(stdout.contains("cookiepicker loadgen"));
}
