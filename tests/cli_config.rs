//! A misconfigured `mobieyes` run is an error, never a silent default:
//! an unknown value for a flag or an unparseable environment override
//! exits with status 2 and a message naming the flag or variable, before
//! any simulation starts.

use std::process::{Command, Output};

fn mobieyes(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mobieyes"))
        // Small enough to finish instantly should validation ever let it run.
        .args([
            "--objects",
            "50",
            "--queries",
            "5",
            "--nmo",
            "5",
            "--area",
            "400",
        ])
        .args(["--ticks", "1", "--warmup", "0"])
        .args(args)
        .env_remove("MOBIEYES_THREADS")
        .env_remove("MOBIEYES_TRANSPORT")
        .envs(env.iter().copied())
        .output()
        .expect("run mobieyes")
}

fn assert_rejected(out: &Output, names: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for name in names {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
    assert!(!stderr.contains("running "), "a simulation ran: {stderr}");
    assert!(out.stdout.is_empty(), "metrics were printed");
}

#[test]
fn unknown_engine_is_rejected() {
    assert_rejected(&mobieyes(&["--engine", "sao"], &[]), &["--engine", "sao"]);
}

#[test]
fn unparseable_thread_env_is_rejected() {
    assert_rejected(
        &mobieyes(&[], &[("MOBIEYES_THREADS", "abc")]),
        &["MOBIEYES_THREADS", "abc"],
    );
}

#[test]
fn unparseable_transport_env_is_rejected() {
    assert_rejected(
        &mobieyes(&["--partitions", "2"], &[("MOBIEYES_TRANSPORT", "carrier")]),
        &["MOBIEYES_TRANSPORT", "carrier"],
    );
}

#[test]
fn unknown_flag_and_out_of_range_value_are_rejected() {
    assert_rejected(&mobieyes(&["--crash-tick", "3"], &[]), &["--crash-tick"]);
    assert_rejected(&mobieyes(&["--dup-rate", "1.5"], &[]), &["--dup-rate"]);
}

#[test]
fn valid_run_succeeds() {
    let out = mobieyes(&["--engine", "seed"], &[("MOBIEYES_THREADS", "2")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("measured ticks:"));
}
