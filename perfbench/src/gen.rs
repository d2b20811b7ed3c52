//! Seeded input generators.
//!
//! Every input is a pure function of the run seed and a job index, so the
//! same seed gives byte-identical bundles and request streams. The program
//! under test only ever sees the generated text; the generator also returns
//! the ground truth each answer is checked against.

use pde_core::Bundle;
use pde_workloads::graphs::Graph;
use pde_workloads::{boundary, clique, has_k_clique};
use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully specified, so inputs never depend on
/// a library's generator choice.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which solver route a job is built to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Fig. 3 on a `C_tract` setting.
    Tractable,
    /// The data-exchange chase (Σts = ∅).
    DataExchange,
    /// Thm. 3 clique reduction: null-assignment search.
    Assignment,
    /// §4 egd boundary: witness-chase search.
    Generic,
    /// Certain answers of ∃x P(x,x,x,x) over the clique reduction.
    Certain,
}

/// One batch job: a bundle in the `pde` file format plus its ground truth.
pub struct Job {
    /// The bundle text handed to the pipeline.
    pub text: String,
    /// The route the job is built for.
    pub route: Route,
    /// The ground-truth answer: `SOL(P)` is non-empty, or (certain jobs)
    /// the query is certain.
    pub expect: bool,
    /// Facts in the bundle's instance.
    pub facts: usize,
}

/// Batch workload sizes (the workload definitions of README.md).
pub const SYNC_PROTEINS: u32 = 100_000;
/// Preloaded `u_protein` rows per sync job (~10%).
pub const SYNC_PRELOADED: u32 = 10_000;
/// `sp_annotation` facts per sync job: far below the ~10⁴ ground facts at
/// which the all-ground block check overflows its thread stack.
pub const SYNC_ANNOTATIONS: u32 = 2_000;
/// `sp_protein` facts per keys job.
pub const KEYS_PROTEINS: u32 = 70_000;
/// `sp_annotation` facts per keys job.
pub const KEYS_ANNOTATIONS: u32 = 30_000;
/// Every `ROGUE_EVERY`-th sync or keys job carries one rogue fact.
pub const ROGUE_EVERY: u64 = 4;
const ORGANISMS: u64 = 64;
const GO_TERMS: u64 = 5_000;

/// The §1 genomics setting (LAV Σts, so in `C_tract`).
pub const GENOMICS_SETTING: &str = "%schema
source sp_protein/3; source sp_annotation/2; target u_protein/2; target u_annotation/2
%st
sp_protein(a, n, o) -> u_protein(a, o);
sp_protein(a, n, o), sp_annotation(a, g) -> u_annotation(a, g)
%ts
u_protein(a, o) -> exists n . sp_protein(a, n, o);
u_annotation(a, g) -> sp_annotation(a, g)
%instance
";

/// The keyed data-exchange setting over the genomics source shape.
pub const KEYS_SETTING: &str = "%schema
source sp_protein/3; source sp_annotation/2; target u_entry/3; target u_go/2
%st
sp_protein(a, n, o) -> exists i . u_entry(a, i, o);
sp_annotation(a, g) -> exists i, o . u_entry(a, i, o), u_go(i, g)
%t
u_entry(a, i, o), u_entry(a, i2, o2) -> i = i2;
u_entry(a, i, o), u_entry(a, i2, o2) -> o = o2
%instance
";

/// Accession of protein `p`.
pub fn accession(p: u32) -> String {
    format!("P{p:06}")
}

/// The organism of protein `p` in a stream: a pure function of both, so
/// preloads, inserts and checks agree without shared state.
fn organism(seed: u64, p: u32) -> u64 {
    Rng::new(seed, u64::from(p) | 1 << 40).below(ORGANISMS)
}

/// Append `count` protein records starting at `first`.
fn push_proteins(out: &mut String, seed: u64, first: u32, count: u32) {
    for p in first..first + count {
        let o = organism(seed, p);
        let _ = writeln!(out, "sp_protein({}, n{p}, org{o}).", accession(p));
    }
}

/// Append `count` annotations on random proteins below `proteins`.
fn push_annotations(out: &mut String, rng: &mut Rng, proteins: u32, count: u32) {
    for _ in 0..count {
        let p = u32::try_from(rng.below(u64::from(proteins))).expect("below a u32");
        let g = rng.below(GO_TERMS);
        let _ = writeln!(out, "sp_annotation({}, GO{g:07}).", accession(p));
    }
}

/// Sync job `index`: one genomics round of ~10⁵ facts. Every
/// [`ROGUE_EVERY`]-th job holds one `u_protein` fact the source never
/// backs, so its answer is "no".
pub fn sync_job(seed: u64, index: u64) -> Job {
    let s = seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d);
    let mut rng = Rng::new(s, 1);
    let mut text = String::with_capacity(4 << 20);
    text.push_str(GENOMICS_SETTING);
    push_proteins(&mut text, s, 0, SYNC_PROTEINS);
    push_annotations(&mut text, &mut rng, SYNC_PROTEINS, SYNC_ANNOTATIONS);
    // Preload every tenth protein into the target with its true organism.
    let stride = SYNC_PROTEINS / SYNC_PRELOADED;
    for p in (0..SYNC_PROTEINS).step_by(stride as usize) {
        let _ = writeln!(text, "u_protein({}, org{}).", accession(p), organism(s, p));
    }
    let rogue = index % ROGUE_EVERY == ROGUE_EVERY - 1;
    if rogue {
        let _ = writeln!(text, "u_protein(ROGUE{index}, orgx).");
    }
    Job {
        text,
        route: Route::Tractable,
        expect: !rogue,
        facts: (SYNC_PROTEINS + SYNC_ANNOTATIONS + SYNC_PRELOADED) as usize + usize::from(rogue),
    }
}

/// Keys job `index`: a keyed data exchange of ~10⁵ source facts. Every
/// [`ROGUE_EVERY`]-th job repeats one accession with a second organism, so
/// the key egd meets two constants and the answer is "no".
pub fn keys_job(seed: u64, index: u64) -> Job {
    let s = seed ^ index.wrapping_mul(0x9e6c_63d0_676a_9a99);
    let mut rng = Rng::new(s, 2);
    let mut text = String::with_capacity(4 << 20);
    text.push_str(KEYS_SETTING);
    push_proteins(&mut text, s, 0, KEYS_PROTEINS);
    push_annotations(&mut text, &mut rng, KEYS_PROTEINS, KEYS_ANNOTATIONS);
    let rogue = index % ROGUE_EVERY == ROGUE_EVERY - 1;
    if rogue {
        let p = u32::try_from(rng.below(u64::from(KEYS_PROTEINS))).expect("below a u32");
        let o = (organism(s, p) + 1) % ORGANISMS;
        let _ = writeln!(text, "sp_protein({}, rogue, org{o}).", accession(p));
    }
    Job {
        text,
        route: Route::DataExchange,
        expect: !rogue,
        facts: (KEYS_PROTEINS + KEYS_ANNOTATIONS) as usize + usize::from(rogue),
    }
}

/// The Boolean query of Theorem 3's coNP-hardness argument, asked by every
/// [`Route::Certain`] job.
pub const CLIQUE_CERTAIN_QUERY: &str = "P(x, x, x, x)";

/// The fixed shape of a search job's graph. The seed only renames the
/// vertices, so every seed asks for the same amount of search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The Turán graph T(n, k-1): the densest graph without a k-clique.
    Turan,
    /// A path with this many edges (triangle-free).
    Path(u32),
}

/// One search cycle: (route, shape, plus one edge that closes a k-clique,
/// n, k). An odd cycle length keeps the median inside one kind's times.
pub const SEARCH_CYCLE: [(Route, Shape, bool, u32, u32); 7] = [
    (Route::Assignment, Shape::Turan, true, 8, 3),
    (Route::Certain, Shape::Turan, true, 8, 3),
    (Route::Generic, Shape::Path(3), true, 6, 3),
    (Route::Certain, Shape::Turan, false, 8, 3),
    (Route::Assignment, Shape::Turan, false, 8, 3),
    (Route::Assignment, Shape::Path(7), false, 8, 4),
    // k = 4 egd-boundary instances would hit the default branch cap.
    (Route::Generic, Shape::Path(3), false, 6, 3),
];

/// The graph of a search job: `shape` on `n` vertices under a seeded
/// renaming, plus (`close`) one edge that closes a `k`-clique.
fn search_graph(rng: &mut Rng, shape: Shape, close: bool, n: u32, k: u32) -> Graph {
    let mut name: Vec<u32> = (0..n).collect();
    for i in (1..name.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        name.swap(i, j);
    }
    let mut g = Graph::empty(n);
    match shape {
        Shape::Turan => {
            let part = |v: u32| v % (k - 1);
            for u in 0..n {
                for v in u + 1..n {
                    if part(u) != part(v) {
                        g.add_edge(name[u as usize], name[v as usize]);
                    }
                }
            }
            if close {
                // Two vertices of one part plus one of each other part.
                g.add_edge(name[0], name[(k - 1) as usize]);
            }
        }
        Shape::Path(edges) => {
            for v in 0..edges {
                g.add_edge(name[v as usize], name[v as usize + 1]);
            }
            if close {
                g.add_edge(name[0], name[2]);
            }
        }
    }
    g
}

/// Search job `index`: a small clique-reduction instance whose kind and
/// size follow [`SEARCH_CYCLE`]. The ground truth is the direct clique
/// search on the generated graph.
pub fn search_job(seed: u64, index: u64) -> Job {
    let mut rng = Rng::new(seed, 3 ^ index << 8);
    let (route, shape, close, n, k) = SEARCH_CYCLE[(index % SEARCH_CYCLE.len() as u64) as usize];
    let g = search_graph(&mut rng, shape, close, n, k);
    let clique = has_k_clique(&g, k);
    let (setting, input, expect) = match route {
        Route::Generic => {
            let setting = boundary::egd_boundary_setting();
            let input = boundary::egd_boundary_instance(&setting, &g, k);
            (setting, input, clique)
        }
        Route::Certain => {
            let setting = clique::clique_setting();
            let input = clique::clique_instance_elements_from_v(&setting, &g, k);
            // certain(∃x P(x,x,x,x)) is false iff G has a k-clique.
            (setting, input, !clique)
        }
        _ => {
            let setting = clique::clique_setting();
            let input = clique::clique_instance(&setting, &g, k);
            (setting, input, clique)
        }
    };
    let facts = input.fact_count();
    let text = Bundle { setting, input }.render();
    Job {
        text,
        route,
        expect,
        facts,
    }
}

/// Serve base sizes.
pub const SERVE_PROTEINS: u32 = 5_000;
/// Annotation facts in the serve base.
pub const SERVE_ANNOTATIONS: u32 = 1_000;
/// Preloaded `u_protein` rows in the serve base.
pub const SERVE_PRELOADED: u32 = 500;
/// Requests in one serve session, before `shutdown`.
pub const SERVE_REQUESTS: u32 = 200;
/// A `snapshot` request every this many requests.
pub const SNAPSHOT_EVERY: u32 = 100;

/// One serve request and what its response must say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert a new protein, optionally with one annotation; the response
    /// must report every fact inserted.
    Insert {
        /// Instance text of the new facts.
        facts: String,
        /// How many facts `facts` holds.
        count: usize,
    },
    /// `solve`: the base stays consistent, so the answer is always "yes".
    Solve,
    /// `certain q(o) :- u_protein("acc", o)`: the one answer is `org`.
    Certain {
        /// The query text.
        query: String,
        /// The accession's organism constant.
        org: String,
    },
    /// Checkpoint the base and reset the journal.
    Snapshot,
}

impl Request {
    /// The request kind, as serve names it.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Insert { .. } => "insert",
            Request::Solve => "solve",
            Request::Certain { .. } => "certain",
            Request::Snapshot => "snapshot",
        }
    }

    /// The JSONL request line.
    pub fn line(&self) -> String {
        match self {
            Request::Insert { facts, .. } => format!("{{\"op\":\"insert\",\"facts\":\"{facts}\"}}"),
            Request::Certain { query, .. } => {
                format!("{{\"op\":\"certain\",\"query\":{}}}", json_string(query))
            }
            other => format!("{{\"op\":\"{}\"}}", other.kind()),
        }
    }
}

/// A JSON string literal (the generated text needs only `"` and `\`
/// escaped).
fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The seed bundle every serve session of a run starts from: the genomics
/// setting over a ~5k-protein base.
pub fn serve_bundle(seed: u64) -> String {
    let s = serve_stream(seed);
    let mut rng = Rng::new(s, 4);
    let mut text = String::from(GENOMICS_SETTING);
    push_proteins(&mut text, s, 0, SERVE_PROTEINS);
    push_annotations(&mut text, &mut rng, SERVE_PROTEINS, SERVE_ANNOTATIONS);
    let stride = SERVE_PROTEINS / SERVE_PRELOADED;
    for p in (0..SERVE_PROTEINS).step_by(stride as usize) {
        let _ = writeln!(text, "u_protein({}, org{}).", accession(p), organism(s, p));
    }
    text
}

/// Facts in [`serve_bundle`]'s base.
pub const SERVE_BASE_FACTS: usize = (SERVE_PROTEINS + SERVE_ANNOTATIONS + SERVE_PRELOADED) as usize;

fn serve_stream(seed: u64) -> u64 {
    seed ^ 0x5851_f42d_4c95_7f2d
}

/// The request stream every serve session of a run sends: 60% inserts
/// (about half with an annotation), 30% solves, 10% certain queries on
/// existing accessions, and a snapshot every [`SNAPSHOT_EVERY`] requests
/// in place of the request due there.
pub fn serve_requests(seed: u64) -> Vec<Request> {
    let s = serve_stream(seed);
    let mut rng = Rng::new(s, 5);
    let mut next = SERVE_PROTEINS;
    let mut out = Vec::with_capacity(SERVE_REQUESTS as usize);
    // Each run of ten requests holds 6 inserts, 3 solves and 1 certain
    // query in a seeded order, so every seed asks for the same work.
    let mut kinds = [0u64, 0, 0, 0, 0, 0, 1, 1, 1, 2];
    for i in 1..=SERVE_REQUESTS {
        let slot = (i as usize - 1) % kinds.len();
        if slot == 0 {
            for j in (1..kinds.len()).rev() {
                kinds.swap(j, rng.below(j as u64 + 1) as usize);
            }
        }
        if i % SNAPSHOT_EVERY == 0 {
            out.push(Request::Snapshot);
            continue;
        }
        out.push(if kinds[slot] == 0 {
            let p = next;
            next += 1;
            let mut facts = format!("sp_protein({}, n{p}, org{}).", accession(p), organism(s, p));
            let mut count = 1;
            if rng.below(2) == 0 {
                let g = rng.below(GO_TERMS);
                let _ = write!(facts, " sp_annotation({}, GO{g:07}).", accession(p));
                count += 1;
            }
            Request::Insert { facts, count }
        } else if kinds[slot] == 1 {
            Request::Solve
        } else {
            let p = u32::try_from(rng.below(u64::from(next))).expect("below a u32");
            Request::Certain {
                query: format!("q(o) :- u_protein(\"{}\", o)", accession(p)),
                org: format!("org{}", organism(s, p)),
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for make in [sync_job, keys_job, search_job] {
            assert_eq!(make(5, 3).text, make(5, 3).text);
            assert_ne!(
                make(5, 3).text,
                make(6, 3).text,
                "the seed changes the input"
            );
        }
        assert_eq!(serve_bundle(5), serve_bundle(5));
        assert_ne!(serve_bundle(5), serve_bundle(6));
        let lines = |s| {
            serve_requests(s)
                .iter()
                .map(Request::line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(1), lines(1));
        assert_ne!(lines(1), lines(2));
    }

    #[test]
    fn every_fourth_batch_job_is_rogue() {
        for i in 0..8 {
            let yes = i % ROGUE_EVERY != ROGUE_EVERY - 1;
            assert_eq!(sync_job(1, i).expect, yes);
            assert_eq!(keys_job(1, i).expect, yes);
        }
        let job = sync_job(1, 0);
        assert!(job.facts > 100_000 && job.facts < 120_000, "{}", job.facts);
    }

    #[test]
    fn the_serve_stream_has_the_stated_mix() {
        let reqs = serve_requests(1);
        assert_eq!(reqs.len(), SERVE_REQUESTS as usize);
        let share =
            |kind| reqs.iter().filter(|r| r.kind() == kind).count() as f64 / reqs.len() as f64;
        assert!(
            (0.55..0.65).contains(&share("insert")),
            "{}",
            share("insert")
        );
        assert!((0.25..0.35).contains(&share("solve")), "{}", share("solve"));
        assert!(
            (0.07..0.13).contains(&share("certain")),
            "{}",
            share("certain")
        );
        assert_eq!(reqs[SNAPSHOT_EVERY as usize - 1], Request::Snapshot);
        // Every certain query names an accession that exists by then.
        let mut known = SERVE_PROTEINS;
        for r in &reqs {
            match r {
                Request::Insert { .. } => known += 1,
                Request::Certain { query, .. } => {
                    let p: u32 = query[query.find("\"P").unwrap() + 2..][..6]
                        .parse()
                        .unwrap();
                    assert!(p < known, "{query}");
                }
                _ => {}
            }
        }
    }
}
