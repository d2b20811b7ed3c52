//! The serve workload: `pde serve` sessions, each over a fresh store, driven
//! closed-loop over stdin/stdout by one client. A session ends with
//! `shutdown`, a restart on the same store, and a check that every
//! acknowledged insert survived. The traced run replays each session's
//! request stream in-process through the layer functions serve calls.

use crate::gen::{self, Request};
use crate::layers::Counts;
use crate::stats::{median, middle_mean, ms, timed};
use crate::{affinity, calib, peak_rss_mb, Args, Run};
use pde_chase::{
    chase_governed_with, chase_incremental_governed, null_gen_for, ChaseEngine, ChaseLimits,
    WitnessMode,
};
use pde_constraints::Dependency;
use pde_core::{certain_answers, decide, Bundle, GenericLimits};
use pde_relational::{parse_instance, parse_query, Instance, UnionQuery};
use pde_runtime::{Governor, GovernorConfig};
use pde_store::{InstanceStore, Op, JOURNAL_FILE, SNAPSHOT_FILE};
use std::io::{BufRead, BufReader, Write};
use std::ops::ControlFlow;
use std::os::fd::{AsRawFd, RawFd};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up rounds; a round spawns once on each CPU.
const SETUP_ROUNDS: usize = 11;
/// The reference loop for serve: the base is a few thousand facts.
const REACH: calib::Reach = calib::Reach::Cache;
/// A session runs the reference loop before every this many requests.
const REFERENCE_EVERY: usize = 10;
/// How long any one response may take before the server counts as hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One `pde serve` child process and its pipes. The client reads replies
/// on its own thread: a reader thread would add a second wake-up to every
/// request's latency.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// Wait until `fd` can be read (data, end of file or an error) or
/// `timeout` passes. False on timeout.
fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut p = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `p` is one valid, writable `pollfd` and the count passed is 1.
    unsafe { poll(&mut p, 1, ms) != 0 }
}

impl Server {
    /// Spawn `pde serve <bundle> <store>` pinned to the `turn`-th CPU and
    /// wait for its hello line, then allow it every CPU.
    fn start(
        pde: &str,
        bundle: &Path,
        store: &Path,
        turn: usize,
    ) -> Result<(Server, String), String> {
        affinity::pin(0, turn);
        let spawned = Command::new(pde)
            .arg("serve")
            .arg(bundle)
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        affinity::release(0);
        let mut child = spawned.map_err(|e| format!("spawn {pde}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
        };
        let hello = server.recv()?;
        affinity::release(server.child.id());
        if !hello.contains("\"kind\":\"pde-serve-hello\"") {
            return Err(format!("expected the hello line, got: {hello}"));
        }
        Ok((server, hello))
    }

    /// The next response line; an error if the server exits or stays
    /// silent for `REPLY_TIMEOUT`.
    fn recv(&mut self) -> Result<String, String> {
        let fd = self.stdout.get_ref().as_raw_fd();
        if self.stdout.buffer().is_empty() && !wait_readable(fd, REPLY_TIMEOUT) {
            return Err(format!(
                "no response from pde serve in {REPLY_TIMEOUT:?}: hung"
            ));
        }
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("pde serve closed its output: crashed".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("read from pde serve: {e}")),
        }
    }

    /// Send one request line and wait for its response line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("stdin already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to pde serve: {e}"))?;
        self.recv()
    }

    /// Send `shutdown` and wait for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request("{\"op\":\"shutdown\"}")?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("pde serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A no-op after a clean shutdown; otherwise stop a crashed or hung
        // server so the run never waits on it.
        self.stdin = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The integer value of `"key":N` in a flat JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Check one response against what the request must produce.
fn check_response(req: &Request, id: usize, reply: &str) -> Result<(), String> {
    if !reply.starts_with(&format!("{{\"ok\":true,\"id\":{id},")) {
        return Err(format!("request {id} ({}): {reply}", req.kind()));
    }
    let ok = match req {
        Request::Insert { count, .. } => json_u64(reply, "inserted") == Some(*count as u64),
        Request::Solve => reply.contains("\"result\":\"yes\""),
        Request::Certain { org, .. } => reply.contains(&format!("\"answers\":[[\"{org}\"]]")),
        Request::Snapshot => reply.contains("\"op\":\"snapshot\""),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "request {id} ({}): wrong response {reply}",
            req.kind()
        ))
    }
}

/// Run the workload: set-up spawns, then sessions until the window closes.
pub fn run(args: &Args) -> Result<Run, String> {
    let pde = args
        .pde
        .as_deref()
        .ok_or("the serve workload needs --pde <path of the pde binary>")?;
    let dir = Path::new(&args.work_dir).join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(args, pde, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// What every session of a run serves: one base and one request stream.
struct Stream {
    bundle: Bundle,
    path: PathBuf,
    requests: Vec<Request>,
}

fn run_in(args: &Args, pde: &str, dir: &Path) -> Result<Run, String> {
    let mut run = Run::default();
    let text = gen::serve_bundle(args.seed);
    let stream = Stream {
        bundle: Bundle::parse(&text).map_err(|e| format!("generated bundle: {e}"))?,
        path: dir.join("base.pde"),
        requests: gen::serve_requests(args.seed),
    };
    write(&stream.path, &text)?;
    let mut setup_refs = Vec::new();
    for r in 0..SETUP_ROUNDS {
        for turn in 0..affinity::cpus() {
            let store = dir.join(format!("setup-{r}-{turn}"));
            affinity::nudge(0, turn);
            setup_refs.push(calib::reference_ms(REACH));
            let t = Instant::now();
            let (server, _) = Server::start(pde, &stream.path, &store, turn)?;
            run.setup_raw_s.push(t.elapsed().as_secs_f64());
            server.shutdown()?;
        }
    }
    for (i, took) in run.setup_raw_s.values.iter().enumerate() {
        run.setup_s
            .push(calib::normalize(*took, calib::around(&setup_refs, i)));
    }
    run.reference_ms.values.extend(setup_refs);
    let mut rss = Vec::new();
    let mut by_position = vec![Vec::new(); stream.requests.len()];
    let start = Instant::now();
    let mut session = 0usize;
    let mut longest = Duration::ZERO;
    // Every CPU starts at least one session; start another only if it
    // should end inside the window.
    while session < affinity::cpus() || start.elapsed() + longest < args.seconds {
        let t = Instant::now();
        match one_session(args, pde, dir, session, &stream, &mut run, &mut rss) {
            Ok(norm) => {
                for (all, took) in by_position.iter_mut().zip(norm) {
                    all.push(took);
                }
            }
            Err(e) => run.fail(format!("session {session}: {e}")),
        }
        longest = longest.max(t.elapsed());
        session += 1;
    }
    run.norm_ms.values = by_position.iter().map(|v| middle_mean(v)).collect();
    // Latency quantiles rank the reads. An insert or snapshot is mostly an
    // fdatasync and two pipe wake-ups, whose time swings by half between
    // runs here; with 40% reads, the median of all requests would sit in
    // that tail.
    run.ranked_ms.values = stream
        .requests
        .iter()
        .zip(&run.norm_ms.values)
        .filter(|(r, _)| matches!(r, Request::Solve | Request::Certain { .. }))
        .map(|(_, v)| *v)
        .collect();
    run.peak_rss_mb = median(&rss);
    run.sizes.push(("sessions", session));
    run.sizes.push(("base_facts", gen::SERVE_BASE_FACTS));
    run.sizes
        .push(("requests_per_session", gen::SERVE_REQUESTS as usize));
    Ok(run)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One session on a fresh store, started on the `session`-th CPU in turn:
/// serve the request stream, shut down, restart, verify. Returns each
/// request's latency at reference speed, ms.
fn one_session(
    args: &Args,
    pde: &str,
    dir: &Path,
    session: usize,
    stream: &Stream,
    run: &mut Run,
    rss: &mut Vec<f64>,
) -> Result<Vec<f64>, String> {
    let (bundle, bundle_path, requests) = (&stream.bundle, &stream.path, &stream.requests);
    let store: PathBuf = dir.join(format!("store-{session}"));
    affinity::nudge(0, session);
    let (mut server, _) = Server::start(pde, bundle_path, &store, session)?;
    let mut latencies = Vec::with_capacity(requests.len());
    let mut refs = Vec::new();
    let mut acked = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        if i % REFERENCE_EVERY == 0 {
            refs.push(calib::reference_ms(REACH));
        }
        run.attempted += 1;
        let t = Instant::now();
        let reply = server.request(&req.line())?;
        let took = ms(t.elapsed());
        latencies.push(took);
        run.latency_ms.push(took);
        match req {
            Request::Insert { .. } => run.serve.insert_ms.push(took),
            Request::Solve => run.serve.solve_ms.push(took),
            Request::Certain { .. } => run.serve.certain_ms.push(took),
            Request::Snapshot => {}
        }
        match check_response(req, i + 1, &reply) {
            Ok(()) => {
                if let Request::Insert { facts, .. } = req {
                    acked.push(facts.as_str());
                }
            }
            Err(e) => run.fail(e),
        }
    }
    rss.push(peak_rss_mb(&server.child.id().to_string()));
    server.shutdown()?;
    let norm: Vec<f64> = latencies
        .iter()
        .enumerate()
        .map(|(i, took)| calib::normalize(*took, calib::around(&refs, i / REFERENCE_EVERY)))
        .collect();
    run.reference_ms.values.extend(refs);

    // Durability: restart on the same store, then check the recovered
    // base holds every acknowledged insert and still answers "yes".
    run.attempted += 1;
    let base_facts = bundle.input.fact_count() + inserted_facts(requests);
    let disk: u64 = [SNAPSHOT_FILE, JOURNAL_FILE]
        .iter()
        .filter_map(|f| std::fs::metadata(store.join(f)).ok())
        .map(|m| m.len())
        .sum();
    run.serve
        .disk_bytes_per_fact
        .push(disk as f64 / base_facts as f64);
    let (mut server, hello) = Server::start(pde, bundle_path, &store, session)?;
    let final_solve = server.request("{\"op\":\"solve\"}")?;
    server.shutdown()?;
    let schema = bundle.setting.schema().clone();
    let t = Instant::now();
    let (_, recovered, _) =
        InstanceStore::open(&store, schema.clone()).map_err(|e| format!("reopen: {e}"))?;
    run.serve.recover_ms.push(ms(t.elapsed()));
    let mut lost = 0usize;
    for facts in &acked {
        let inst = parse_instance(&schema, facts).map_err(|e| e.to_string())?;
        lost += inst
            .facts()
            .filter(|(rel, t)| !recovered.contains(*rel, t))
            .count();
    }
    let batch = decide(&bundle.setting, &recovered).map_err(|e| e.to_string())?;
    let served_yes = final_solve.contains("\"result\":\"yes\"");
    if lost > 0
        || json_u64(&hello, "facts") != Some(base_facts as u64)
        || recovered.fact_count() != base_facts
        || batch.exists != Some(served_yes)
        || !served_yes
    {
        run.fail(format!(
            "restart: {lost} acknowledged fact(s) lost; hello {hello}; final solve {final_solve}; \
             batch decide {:?}; expected {base_facts} facts",
            batch.exists
        ));
    }

    if args.trace {
        let mut counts = Counts::default();
        let scratch = dir.join(format!("replay-{session}"));
        let layer_ms = replay(bundle, requests, &scratch, run, &mut counts)?;
        for (total, layer) in latencies.iter().zip(&layer_ms) {
            run.serve.framing_us.push((total - layer) * 1e3);
        }
        run.untraced += Duration::from_secs_f64(latencies.iter().sum::<f64>() / 1e3);
        run.units += requests.len();
        if session == 0 {
            run.counts.absorb(&counts);
        }
    }
    Ok(norm)
}

/// Facts the inserts of a request stream add to the base.
fn inserted_facts(requests: &[Request]) -> usize {
    requests
        .iter()
        .map(|r| match r {
            Request::Insert { count, .. } => *count,
            _ => 0,
        })
        .sum()
}

/// The journal ops of an instance's facts (all inserts), as serve builds
/// them.
fn ops_of(instance: &Instance) -> Vec<Op> {
    let schema = instance.schema();
    let mut ops = Vec::new();
    let _ = instance.for_each_fact(|rel, ids| {
        ops.push(Op::Insert {
            rel: schema.name(rel),
            values: ids.iter().map(|id| id.value()).collect(),
        });
        ControlFlow::Continue(())
    });
    ops
}

/// Replay a session in-process through the functions serve calls, timing
/// each layer into `run.layers`. Returns each request's layer time, ms.
fn replay(
    bundle: &Bundle,
    requests: &[Request],
    dir: &Path,
    run: &mut Run,
    counts: &mut Counts,
) -> Result<Vec<f64>, String> {
    let setting = &bundle.setting;
    let schema = setting.schema().clone();
    let st_deps: Vec<Dependency> = setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .collect();
    let (mut store, mut base, _) =
        InstanceStore::open(dir, schema.clone()).map_err(|e| format!("replay store: {e}"))?;
    let epoch = base.bump_epoch();
    let _ = bundle.input.for_each_fact(|rel, ids| {
        base.insert_ids(rel, ids);
        ControlFlow::Continue(())
    });
    store
        .commit(epoch, &ops_of(&bundle.input))
        .map_err(|e| e.to_string())?;
    let mut chased: Option<(Instance, u64)> = None;
    let governor = Governor::new(GovernorConfig::default());
    let mut out = Vec::with_capacity(requests.len());
    for req in requests {
        let before = run.layers.total();
        let l = &mut run.layers;
        match req {
            Request::Insert { facts, .. } => {
                let parsed = timed(&mut l.parse, || parse_instance(&schema, facts))
                    .map_err(|e| e.to_string())?;
                let epoch = base.bump_epoch();
                let _ = parsed.for_each_fact(|rel, ids| {
                    base.insert_ids(rel, ids);
                    ControlFlow::Continue(())
                });
                let ops = ops_of(&parsed);
                let t = Instant::now();
                store.commit(epoch, &ops).map_err(|e| e.to_string())?;
                let took = t.elapsed();
                l.commit += took;
                run.serve.commit_us.push(took.as_secs_f64() * 1e6);
                counts.commits += 1;
            }
            Request::Solve => {
                let fixpoint = timed(&mut l.chase_refresh, || {
                    refresh(&mut chased, &base, &st_deps, &governor, counts)
                })?;
                let yes = crate::batch::steps_2_3(setting, &base, fixpoint, l, counts, &governor);
                if yes != Some(true) {
                    run.fail("replayed solve answered no".to_owned());
                }
            }
            Request::Certain { query, org } => {
                let q: UnionQuery = timed(&mut l.parse, || parse_query(&schema, query))
                    .map_err(|e| e.to_string())?
                    .into();
                let res = timed(&mut l.certain, || {
                    certain_answers(setting, &base, &q, GenericLimits::default())
                })
                .map_err(|e| e.to_string())?;
                counts.solutions_examined += res.solutions_examined;
                let answers: Vec<String> = res
                    .answers
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect();
                if answers != [org.as_str()] {
                    run.fail(format!(
                        "replayed certain answered {answers:?}, expected {org}"
                    ));
                }
            }
            Request::Snapshot => {
                let t = Instant::now();
                store.checkpoint(&base).map_err(|e| e.to_string())?;
                let took = t.elapsed();
                l.checkpoint += took;
                run.serve.checkpoint_ms.push(ms(took));
            }
        }
        out.push(ms(run.layers.total() - before));
    }
    counts.journal_bytes = store.journal_bytes();
    Ok(out)
}

/// Bring the Σst fixpoint up to the base's epoch as serve does: extend it
/// incrementally off the epoch delta, or chase from scratch when there is
/// none yet.
fn refresh<'a>(
    chased: &'a mut Option<(Instance, u64)>,
    base: &Instance,
    st_deps: &[Dependency],
    governor: &Governor,
    counts: &mut Counts,
) -> Result<&'a Instance, String> {
    let covered = base.current_epoch();
    let limits = ChaseLimits::default();
    let res = match chased.take() {
        Some((instance, at)) if at == covered => {
            return Ok(&chased.insert((instance, at)).0);
        }
        Some((mut instance, from)) => {
            counts.incremental_rechases += 1;
            let watermark = instance.bump_epoch();
            for rel in base.schema().rel_ids() {
                let _ =
                    base.relation(rel)
                        .for_each_row_in_window(from + 1, u64::MAX, &mut |_, ids| {
                            instance.insert_ids(rel, ids);
                            ControlFlow::Continue(())
                        });
            }
            let gen = null_gen_for(&instance);
            chase_incremental_governed(
                instance,
                st_deps,
                WitnessMode::FreshNulls(&gen),
                limits,
                governor,
                None,
                watermark,
            )
        }
        None => {
            counts.full_rechases += 1;
            let gen = null_gen_for(base);
            chase_governed_with(
                base.clone(),
                st_deps,
                WitnessMode::FreshNulls(&gen),
                limits,
                ChaseEngine::Seminaive,
                governor,
            )
        }
    };
    counts.chase(&res.stats);
    if !res.is_success() {
        return Err(format!("replayed Σst chase stopped: {:?}", res.outcome));
    }
    Ok(&chased.insert((res.instance, covered)).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_checked_against_the_request() {
        let solve = Request::Solve;
        let yes = "{\"ok\":true,\"id\":3,\"op\":\"solve\",\"result\":\"yes\",\"epoch\":5}";
        assert!(check_response(&solve, 3, yes).is_ok());
        assert!(check_response(&solve, 4, yes).is_err(), "wrong request id");
        let flipped = yes.replace("\"yes\"", "\"no\"");
        assert!(
            check_response(&solve, 3, &flipped).is_err(),
            "a flipped answer fails"
        );
        let error = "{\"ok\":false,\"id\":3,\"error\":\"boom\",\"epoch\":5}";
        assert!(check_response(&solve, 3, error).is_err());
        let insert = Request::Insert {
            facts: "sp_protein(P1, n1, org1).".to_owned(),
            count: 2,
        };
        let reply = "{\"ok\":true,\"id\":1,\"op\":\"insert\",\"inserted\":2,\"epoch\":2}";
        assert!(check_response(&insert, 1, reply).is_ok());
        assert!(check_response(&insert, 1, &reply.replace(":2,", ":1,")).is_err());
        let certain = Request::Certain {
            query: "q(o) :- u_protein(\"P1\", o)".to_owned(),
            org: "org1".to_owned(),
        };
        let reply = "{\"ok\":true,\"id\":2,\"op\":\"certain\",\"solution_exists\":true,\
                     \"solutions_examined\":1,\"answers\":[[\"org1\"]],\"epoch\":2}";
        assert!(check_response(&certain, 2, reply).is_ok());
        assert!(check_response(&certain, 2, &reply.replace("org1", "org2")).is_err());
        assert_eq!(json_u64(reply, "solutions_examined"), Some(1));
        assert_eq!(json_u64(reply, "missing"), None);
    }
}
