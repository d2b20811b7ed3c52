//! Integration tests for `pde serve`, driving the real binary over pipes:
//! durable acknowledgments survive `kill -9`, a corrupted journal tail
//! degrades to a rewind warning instead of a crash, and a request that is
//! rejected in-band keeps the loop alive.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pde")
}

const BUNDLE: &str = "
%schema
source E/2; target H/2
%st
E(x, z), E(z, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%instance
E(a, a).
";

struct Serve {
    child: Child,
    out: BufReader<ChildStdout>,
}

impl Serve {
    fn start(bundle: &std::path::Path, store: &std::path::Path) -> Serve {
        let mut child = Command::new(bin())
            .args(["serve", bundle.to_str().unwrap(), store.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve starts");
        let out = BufReader::new(child.stdout.take().expect("stdout piped"));
        Serve { child, out }
    }

    /// Read one JSONL response line.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.out.read_line(&mut line).expect("serve responds");
        assert!(!line.is_empty(), "serve closed its stdout unexpectedly");
        line
    }

    /// Send one request line and read its response.
    fn request(&mut self, req: &str) -> String {
        let stdin = self.child.stdin.as_mut().expect("stdin piped");
        writeln!(stdin, "{req}").expect("request written");
        stdin.flush().expect("request flushed");
        self.read_line()
    }

    fn kill9(mut self) {
        self.child.kill().expect("kill -9 delivered");
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        let _ = self.request("{\"op\":\"shutdown\"}");
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "clean shutdown exits 0");
    }
}

fn fixture(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pde-serve-tests-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = dir.join("setting.pde");
    std::fs::write(&bundle, BUNDLE).unwrap();
    (bundle, dir.join("store"))
}

#[test]
fn acknowledged_inserts_survive_kill_minus_nine() {
    let (bundle, store) = fixture("kill9");

    let mut serve = Serve::start(&bundle, &store);
    let hello = serve.read_line();
    assert!(hello.contains("\"kind\":\"pde-serve-hello\""), "{hello}");
    assert!(hello.contains("\"seeded\":1"), "{hello}");
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    // Commit-before-acknowledge: once this response is on the pipe, the
    // facts are durable no matter how the process dies.
    let ack = serve.request("{\"op\":\"insert\",\"facts\":\"E(a, b). E(b, c).\"}");
    assert!(
        ack.contains("\"ok\":true") && ack.contains("\"inserted\":2"),
        "{ack}"
    );
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"no\""));
    serve.kill9();

    // Restart on the same store: recovery replays the journal — same
    // epoch, same facts, same answer as before the crash.
    let mut serve = Serve::start(&bundle, &store);
    let hello = serve.read_line();
    assert!(
        hello.contains("\"seeded\":0"),
        "restart must not re-seed: {hello}"
    );
    assert!(hello.contains("\"facts\":3"), "{hello}");
    assert!(hello.contains("\"epoch\":2"), "{hello}");
    assert!(hello.contains("\"rewound\":false"), "{hello}");
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"no\""));
    // And the store still accepts new work after recovery.
    assert!(serve
        .request("{\"op\":\"retract\",\"facts\":\"E(a, b).\"}")
        .contains("\"retracted\":1"));
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}

#[test]
fn a_corrupt_journal_tail_degrades_to_a_rewind() {
    let (bundle, store) = fixture("corrupt");

    let mut serve = Serve::start(&bundle, &store);
    let _ = serve.read_line();
    assert!(serve
        .request("{\"op\":\"insert\",\"facts\":\"E(a, b). E(b, c).\"}")
        .contains("\"ok\":true"));
    serve.shutdown();

    // Flip a bit inside the last journal frame: the damaged commit is
    // rolled back, everything before it survives, and serve comes up
    // answering from the last good epoch instead of dying.
    let journal = store.join("base.pdej");
    let mut bytes = std::fs::read(&journal).unwrap();
    let last = bytes.len() - 5;
    bytes[last] ^= 0x20;
    std::fs::write(&journal, &bytes).unwrap();

    let mut serve = Serve::start(&bundle, &store);
    let hello = serve.read_line();
    assert!(hello.contains("\"rewound\":true"), "{hello}");
    assert!(hello.contains("\"epoch\":1"), "{hello}");
    assert!(hello.contains("\"facts\":1"), "{hello}");
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}

#[test]
fn bad_requests_are_answered_in_band_and_do_not_kill_the_loop() {
    let (bundle, store) = fixture("badreq");

    let mut serve = Serve::start(&bundle, &store);
    let _ = serve.read_line();
    let err = serve.request("{\"op\":\"frobnicate\"}");
    assert!(err.contains("\"ok\":false"), "{err}");
    let err = serve.request("this is not json");
    assert!(err.contains("\"ok\":false"), "{err}");
    let err = serve.request("{\"op\":\"retract\",\"facts\":\"E(a, ?0).\"}");
    assert!(err.contains("\"ok\":false"), "{err}");
    // The loop is still alive and correct after all three.
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}

#[test]
fn an_oversized_null_id_is_answered_in_band() {
    let (bundle, store) = fixture("bignull");

    let mut serve = Serve::start(&bundle, &store);
    let _ = serve.read_line();
    let err = serve.request("{\"op\":\"insert\",\"facts\":\"E(?3000000000, a).\"}");
    assert!(err.contains("\"ok\":false"), "{err}");
    assert!(err.contains("null id too large"), "{err}");
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}

#[test]
fn a_repeated_field_is_a_bad_request_not_a_shutdown() {
    let (bundle, store) = fixture("dupkey");

    let mut serve = Serve::start(&bundle, &store);
    let _ = serve.read_line();
    // Were the last "op" to win, this line would end the session.
    let err = serve.request("{\"op\":\"solve\",\"op\":\"shutdown\"}");
    assert_eq!(
        err.trim_end(),
        "{\"ok\":false,\"id\":1,\"error\":\"bad request: duplicate key 'op' at byte 14\",\
         \"epoch\":1}"
    );
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}

#[test]
fn hostile_json_is_answered_in_band_and_in_linear_time() {
    let (bundle, store) = fixture("hostile");

    let mut serve = Serve::start(&bundle, &store);
    let _ = serve.read_line();
    // 100k nested arrays: an in-band error, not a stack overflow.
    let err = serve.request(&format!("{{\"op\":{}", "[".repeat(100_000)));
    assert!(err.contains("\"ok\":false"), "{err}");
    assert!(err.contains("nesting deeper than 128"), "{err}");
    // A 1 MiB string field is read in one linear pass; the fact parser
    // then rejects it in band.
    let started = std::time::Instant::now();
    let err = serve.request(&format!(
        "{{\"op\":\"insert\",\"facts\":\"{}\"}}",
        "x".repeat(1 << 20)
    ));
    assert!(err.starts_with("{\"ok\":false"), "{}", &err[..80]);
    // 200k distinct keys: the repeated-key check is a set lookup per
    // key, not a pairwise scan.
    let keys: Vec<String> = (0..200_000).map(|i| format!("\"k{i}\":0")).collect();
    let err = serve.request(&format!("{{{}}}", keys.join(",")));
    assert!(err.contains("unexpected field 'k0'"), "{err}");
    assert!(started.elapsed() < std::time::Duration::from_secs(10));
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}

#[test]
fn snapshot_truncates_the_journal_and_recovery_uses_it() {
    let (bundle, store) = fixture("snapshot");

    let mut serve = Serve::start(&bundle, &store);
    let _ = serve.read_line();
    assert!(serve
        .request("{\"op\":\"insert\",\"facts\":\"E(b, b).\"}")
        .contains("\"ok\":true"));
    let snap = serve.request("{\"op\":\"snapshot\"}");
    assert!(
        snap.contains("\"ok\":true") && snap.contains("\"journal_bytes\":8"),
        "{snap}"
    );
    serve.kill9();

    let mut serve = Serve::start(&bundle, &store);
    let hello = serve.read_line();
    assert!(hello.contains("\"frames_replayed\":0"), "{hello}");
    assert!(hello.contains("\"snapshot_epoch\":2"), "{hello}");
    assert!(hello.contains("\"facts\":2"), "{hello}");
    assert!(serve
        .request("{\"op\":\"solve\"}")
        .contains("\"result\":\"yes\""));
    serve.shutdown();
}
