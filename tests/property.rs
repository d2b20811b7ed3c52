//! Property-based tests (proptest) over the core invariants:
//!
//! * chase postconditions (result satisfies the chased tgds; inputs are
//!   preserved);
//! * solution-aware chase stays inside the supplied solution and within
//!   the polynomial bound of Lemma 1;
//! * block decomposition is a partition and Prop. 1 agrees with the direct
//!   homomorphism test;
//! * the homomorphism search, full and semi-naive, counts what a
//!   brute-force enumeration over the active domain counts;
//! * the CLIQUE and 3-COL reductions agree with the direct graph
//!   algorithms on random graphs;
//! * `ExistsSolution` agrees with the complete assignment search on random
//!   instances of `C_tract` settings;
//! * certain answers hold in every enumerated solution;
//! * `pde plan` certificates pass the independent checker and their
//!   static chase bounds dominate actual chase runs on random
//!   weakly-acyclic settings.

use pde_relational::{NullId, Tuple};
use peer_data_exchange::core::{
    assignment, blocks, certain_answers, solution::is_solution, tractable, GenericLimits,
};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::{clique, graphs, paper, threecol};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// A coarse "never worse" order over predicted complexity classes:
/// tractable < bounded-but-intractable < unbounded. The optimizer must
/// never move a setting rightward in this order.
fn complexity_cost(c: pde_analysis::ComplexityClass) -> u8 {
    use pde_analysis::ComplexityClass as C;
    match c {
        C::PTime => 0,
        C::NpComplete | C::InNp | C::ConpComplete | C::InConp => 1,
        C::Decidable => 2,
        C::NoBound => 3,
    }
}

/// A random ground instance over `E/2` with vertices `v0..vn`.
fn arb_edge_instance(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..=max_edges)
}

fn edges_to_instance(setting: &PdeSetting, rel: &str, edges: &[(u32, u32)]) -> Instance {
    let mut src = String::new();
    for (a, b) in edges {
        src.push_str(&format!("{rel}(v{a}, v{b}). "));
    }
    parse_instance(setting.schema(), &src).unwrap()
}

/// Conjunctions over `E/2` for the homomorphism-count property: a
/// triangle, a path, a self-loop, a constant, and a disconnected pair.
const HOM_PATTERNS: [&str; 5] = [
    "E(x, y), E(y, z), E(z, x)",
    "E(x, y), E(y, z)",
    "E(x, x)",
    "E(x, 'v0'), E('v0', y)",
    "E(x, y), E(z, z)",
];

/// Count the homomorphisms of the non-empty conjunction `atoms` into
/// `facts` (each fact with its insertion epoch) that map some atom to a
/// fact stamped in `[lo, hi)`, by trying every assignment of the variables
/// over the active domain. Facts stamped `hi` or later are invisible. With
/// `lo = 0` and every fact below `hi`, that is every homomorphism.
fn brute_force_homs(
    atoms: &[pde_relational::Atom],
    facts: &[(Tuple, u64)],
    lo: u64,
    hi: u64,
) -> usize {
    use pde_relational::Term;
    let mut domain: Vec<Value> = facts
        .iter()
        .flat_map(|(t, _)| t.values().to_vec())
        .collect();
    domain.sort();
    domain.dedup();
    let mut vars = Vec::new();
    for t in atoms.iter().flat_map(|a| &a.terms) {
        if let Term::Var(v) = t {
            if !vars.contains(v) {
                vars.push(*v);
            }
        }
    }
    if domain.is_empty() && !vars.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut choice = vec![0usize; vars.len()];
    'assignments: loop {
        let eval = |t: &Term| match t {
            Term::Const(c) => Value::Const(*c),
            Term::Var(v) => domain[choice[vars.iter().position(|w| w == v).unwrap()]],
        };
        let mut touches_delta = false;
        let all_match = atoms.iter().all(|a| {
            let t = Tuple::new(a.terms.iter().map(eval).collect::<Vec<_>>());
            facts.iter().any(|(f, epoch)| {
                let hit = *f == t && *epoch < hi;
                touches_delta |= hit && *epoch >= lo;
                hit
            })
        });
        if all_match && touches_delta {
            n += 1;
        }
        // Advance the odometer; stop after the last assignment.
        for d in &mut choice {
            *d += 1;
            if *d < domain.len() {
                continue 'assignments;
            }
            *d = 0;
        }
        return n;
    }
}

/// A random graph from edge pairs (self-pairs dropped).
fn pairs_to_graph(n: u32, pairs: &[(u32, u32)]) -> graphs::Graph {
    let mut g = graphs::Graph::empty(n);
    for (a, b) in pairs {
        if a != b {
            g.add_edge(*a, *b);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chase_result_satisfies_chased_tgds(edges in arb_edge_instance(4, 8)) {
        let p = paper::exact_view_setting();
        let input = edges_to_instance(&p, "E", &edges);
        let gen = pde_relational::NullGen::new();
        let res = pde_chase::chase_tgds(input.clone(), p.sigma_st(), &gen);
        prop_assert!(res.is_success());
        let out = res.instance;
        prop_assert!(input.contained_in(&out));
        for t in p.sigma_st() {
            prop_assert!(pde_chase::satisfies_tgd(&out, t));
        }
    }

    #[test]
    fn solution_aware_chase_stays_inside_and_small(edges in arb_edge_instance(4, 6)) {
        // Build a known solution first (if one exists), then chase with it.
        let p = paper::exact_view_setting();
        let input = edges_to_instance(&p, "E", &edges);
        let out = assignment::solve(&p, &input).unwrap();
        if let Some(solution) = out.witness {
            let deps: Vec<Dependency> = p
                .sigma_st()
                .iter()
                .cloned()
                .map(Dependency::Tgd)
                .collect();
            let res = pde_chase::solution_aware_chase(
                input.clone(),
                &deps,
                &solution,
                ChaseLimits::default(),
            );
            prop_assert!(res.is_success());
            let sub = res.instance;
            prop_assert!(sub.contained_in(&solution), "chase stays inside K'");
            // Lemma 1: the chase length is polynomially bounded; for this
            // single full-premise Σst, each trigger fires at most once.
            let triggers = input.fact_count() * input.fact_count();
            prop_assert!(res.steps <= triggers + 1);
        }
    }

    #[test]
    fn blocks_partition_and_prop1(edges in arb_edge_instance(4, 6), nulls in 0u32..4) {
        // An instance with some nulls sprinkled in.
        let p = paper::example1_setting();
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("E(v{a}, v{b}). "));
        }
        for i in 0..nulls {
            src.push_str(&format!("E(?{i}, v0). "));
        }
        let inst = parse_instance(p.schema(), &src).unwrap();
        let bs = blocks::blocks(&inst);
        let total: usize = bs.iter().map(pde_core::Block::len).sum();
        prop_assert_eq!(total, inst.fact_count(), "blocks partition the facts");
        // Prop. 1 agreement.
        let ground = edges_to_instance(&p, "E", &edges);
        prop_assert_eq!(
            blocks::blockwise_hom_exists(&inst, &ground),
            pde_relational::instance_hom_exists(&inst, &ground)
        );
    }

    #[test]
    fn hom_search_counts_match_brute_force(
        rounds in prop::collection::vec(prop::collection::vec((0u32..4, 0u32..4), 0..=5), 1..=3),
        pattern in 0usize..HOM_PATTERNS.len(),
    ) {
        // Each round's edges land under a fresh epoch; value 3 is a null.
        let p = paper::example1_setting();
        let e = p.schema().rel_id("E").unwrap();
        let value = |v: u32| match v {
            3 => Value::Null(NullId(0)),
            _ => Value::constant(format!("v{v}")),
        };
        let mut inst = Instance::new(p.schema().clone());
        let mut epochs = Vec::new();
        for round in &rounds {
            let epoch = inst.current_epoch();
            for &(a, b) in round {
                let t = Tuple::new(vec![value(a), value(b)]);
                if inst.insert(e, t.clone()) {
                    epochs.push((t, epoch));
                }
            }
            inst.bump_epoch();
        }
        let top = inst.current_epoch();
        let atoms = pde_relational::parse_atoms(p.schema(), HOM_PATTERNS[pattern]).unwrap();
        let none = pde_relational::Assignment::new();
        let mut full = 0usize;
        let _ = pde_relational::for_each_hom(&atoms, &inst, &none, |_| {
            full += 1;
            ControlFlow::Continue(())
        });
        prop_assert_eq!(full, brute_force_homs(&atoms, &epochs, 0, top));
        for lo in 0..=top {
            for hi in lo..=top {
                let mut delta = 0usize;
                let _ = pde_relational::for_each_hom_seminaive(&atoms, &inst, &none, lo, hi, |_| {
                    delta += 1;
                    ControlFlow::Continue(())
                });
                let want = brute_force_homs(&atoms, &epochs, lo, hi);
                prop_assert_eq!(delta, want, "window [{}, {})", lo, hi);
            }
        }
    }

    #[test]
    fn clique_reduction_matches_baseline(pairs in arb_edge_instance(4, 6)) {
        let g = pairs_to_graph(4, &pairs);
        let k = 3;
        let p = clique::clique_setting();
        let input = clique::clique_instance(&p, &g, k);
        let out = assignment::solve(&p, &input).unwrap();
        prop_assert_eq!(out.exists, graphs::has_k_clique(&g, k));
    }

    #[test]
    fn threecol_reduction_matches_baseline(pairs in arb_edge_instance(5, 7)) {
        let g = pairs_to_graph(5, &pairs);
        let p = threecol::threecol_problem();
        let input = threecol::threecol_instance(&p, &g);
        let out = assignment::solve_disjunctive(&p, &input).unwrap();
        prop_assert_eq!(out.exists, graphs::is_three_colorable(&g));
    }

    #[test]
    fn tractable_agrees_with_assignment_on_random_instances(
        edges in arb_edge_instance(4, 7)
    ) {
        for p in [paper::example1_setting(), paper::exact_view_setting()] {
            let input = edges_to_instance(&p, "E", &edges);
            let fast = tractable::exists_solution(&p, &input).unwrap();
            let slow = assignment::solve(&p, &input).unwrap();
            prop_assert_eq!(fast.exists, slow.exists);
            if let Some(w) = fast.witness {
                prop_assert!(is_solution(&p, &input, &w));
            }
            if let Some(w) = slow.witness {
                prop_assert!(is_solution(&p, &input, &w));
            }
        }
    }

    #[test]
    fn certain_answers_hold_in_every_enumerated_solution(
        edges in arb_edge_instance(3, 5)
    ) {
        let p = paper::example1_setting();
        let input = edges_to_instance(&p, "E", &edges);
        let q: UnionQuery = parse_query(p.schema(), "q(x, y) :- H(x, y)").unwrap().into();
        let out = certain_answers(&p, &input, &q, GenericLimits::default()).unwrap();
        if out.solution_exists {
            // Re-enumerate and verify each certain answer in each solution.
            let problem =
                assignment::DisjunctiveProblem::from_setting(&p).unwrap();
            assignment::for_each_solution(&problem, &input, |sol| {
                for ans in &out.answers {
                    assert!(
                        q.contains_answer(sol, ans),
                        "certain answer {ans:?} missing from a solution"
                    );
                }
                ControlFlow::Continue(())
            })
            .unwrap();
        }
    }

    #[test]
    fn weak_acyclicity_of_random_full_tgd_sets(
        arities in prop::collection::vec(0u8..3, 1..4)
    ) {
        // Full tgds never create special edges, so any set of them is
        // weakly acyclic.
        let schema = parse_schema("target A/2; target B/2; target C/2;").unwrap();
        let names = ["A", "B", "C"];
        let mut tgds = Vec::new();
        for (i, a) in arities.iter().enumerate() {
            let from = names[i % 3];
            let to = names[(*a as usize) % 3];
            tgds.push(
                parse_tgd(&schema, &format!("{from}(x, y) -> {to}(y, x)")).unwrap(),
            );
        }
        prop_assert!(pde_constraints::is_weakly_acyclic(&schema, &tgds));
    }

    #[test]
    fn chase_respects_the_constructive_lemma1_bound(
        edges in arb_edge_instance(4, 6)
    ) {
        // The explicit chase_bound must dominate actual chase behavior on
        // random inputs for a weakly acyclic mixed set.
        let schema = std::sync::Arc::new(
            parse_schema("target A/2; target B/2; target C/2;").unwrap(),
        );
        let tgds = parse_tgds(
            &schema,
            "A(x, y) -> exists z . B(y, z); B(x, y) -> C(x, y)",
        )
        .unwrap();
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("A(v{a}, v{b}). "));
        }
        let inst = parse_instance(&schema, &src).unwrap();
        let bound = pde_constraints::chase_bound(
            &schema,
            &tgds,
            inst.active_domain().len().max(1),
        )
        .expect("weakly acyclic");
        let gen = pde_relational::NullGen::new();
        let res = pde_chase::chase_tgds(inst, &tgds, &gen);
        prop_assert!(res.is_success());
        prop_assert!(res.steps <= bound.step_bound);
        prop_assert!(res.instance.fact_count() <= bound.fact_bound);
        prop_assert!(res.instance.active_domain().len() <= bound.value_bound);
    }

    #[test]
    fn certificate_bound_dominates_the_actual_chase(seed in 0u64..512, n_t in 0u32..3) {
        // The planner's certificate is *static*: it sees only the setting,
        // never the instance beyond its active-domain size. Its Lemma 1
        // step/fact bounds must therefore dominate any actual chase of the
        // forward tgds — on settings the planner was never written for.
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams::default();
        let setting = match random_weakly_acyclic_setting(&params, n_t, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()), // rare degenerate draw (e.g. unsafe Σts)
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0x5eed);
        let cert = pde_analysis::plan_setting(&setting, input.active_domain().len());
        prop_assert!(pde_analysis::verify_certificate(&setting, &cert).is_ok());
        prop_assert!(cert.chase.weakly_acyclic, "generator guarantees weak acyclicity");
        let forward: Vec<Tgd> = setting
            .sigma_st()
            .iter()
            .cloned()
            .chain(setting.target_tgds().cloned())
            .collect();
        let gen = pde_relational::NullGen::new();
        let res = pde_chase::chase_tgds(input, &forward, &gen);
        prop_assert!(res.is_success());
        prop_assert!(
            res.steps <= cert.chase.step_bound,
            "chase took {} steps, certificate promised <= {}",
            res.steps,
            cert.chase.step_bound
        );
        prop_assert!(res.instance.fact_count() <= cert.chase.fact_bound);
        prop_assert!(res.instance.active_domain().len() <= cert.chase.value_bound);
    }

    #[test]
    fn certified_termination_budget_suffices_for_governed_chase(
        seed in 0u64..256, n_t in 0u32..3
    ) {
        // Any setting the termination hierarchy certifies must run
        // `chase_governed_with` to a fixpoint within the certificate's
        // derived budgets — never a `ResourceExceeded` or governor stop —
        // on both engines. Random weakly acyclic settings exercise the
        // weak-acyclicity criterion; two fixed non-WA shapes (the spiral
        // and swap-rule bundles) exercise joint acyclicity and the
        // critical-instance check.
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let mut cases: Vec<(PdeSetting, Instance)> = Vec::new();
        let params = RandomSettingParams::default();
        if let Ok(setting) = random_weakly_acyclic_setting(&params, n_t, seed) {
            let input = random_instance(&setting, 4, 0, 3, seed ^ 0xb0d6);
            cases.push((setting, input));
        }
        // Jointly acyclic but not weakly acyclic (examples/spiral.pde).
        let spiral = PdeSetting::parse(
            "source SA/1; source SB/1; target A/1; target B/1; target C/2",
            "SA(x) -> A(x); SB(x) -> B(x)",
            "",
            "A(x), B(x) -> exists z . C(x, z); C(x, y) -> A(y)",
        )
        .unwrap();
        let spiral_input =
            parse_instance(spiral.schema(), "SA(a). SB(a). SB(b).").unwrap();
        cases.push((spiral, spiral_input));
        // Certified only by the critical-instance check
        // (examples/critical_only.pde).
        let swap = PdeSetting::parse(
            "source S/1; target A/1; target R/2",
            "S(x) -> A(x)",
            "A(x) -> S(x)",
            "A(x) -> exists y . R(x, y); R(x, y) -> R(y, x); R(w, w) -> A(w)",
        )
        .unwrap();
        let swap_input = parse_instance(swap.schema(), "S(a).").unwrap();
        cases.push((swap, swap_input));

        let gov = Governor::unlimited();
        for (setting, input) in &cases {
            let cert = pde_analysis::plan_setting(setting, input.active_domain().len());
            if !cert.chase.termination.certified() {
                continue; // only certified settings carry the budget promise
            }
            prop_assert!(pde_analysis::verify_certificate(setting, &cert).is_ok());
            let deps = pde_analysis::forward_dependencies(setting);
            let limits = ChaseLimits {
                max_steps: cert.budgets.chase_steps,
                max_facts: cert.budgets.chase_facts,
            };
            for engine in [pde_chase::ChaseEngine::Naive, pde_chase::ChaseEngine::Seminaive] {
                let res = pde_chase::chase_governed_with(
                    input.clone(),
                    &deps,
                    pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
                    limits,
                    engine,
                    &gov,
                );
                // An egd conflict (`Failure`) is a legitimate chase
                // verdict; what the certificate rules out is running out
                // of budget before reaching one.
                prop_assert!(
                    !matches!(
                        res.outcome,
                        ChaseOutcome::ResourceExceeded | ChaseOutcome::Stopped { .. }
                    ),
                    "{:?} chase exhausted the derived budget (steps {} / {}, facts {} / {}): {:?}",
                    engine,
                    res.steps,
                    limits.max_steps,
                    res.instance.fact_count(),
                    limits.max_facts,
                    res.outcome
                );
                if res.is_success() {
                    prop_assert!(res.steps <= cert.budgets.chase_steps);
                    prop_assert!(res.instance.fact_count() <= cert.budgets.chase_facts);
                }
            }
        }
    }

    #[test]
    fn naive_and_seminaive_chase_agree(seed in 0u64..512, n_t in 0u32..3) {
        // The delta-driven engine must be indistinguishable from the naive
        // oracle on random weakly acyclic settings: same outcome kind, and
        // on success homomorphically equivalent results that satisfy the
        // chased dependencies (restricted-chase results are only unique up
        // to hom-equivalence, so we do not demand isomorphism here).
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams::default();
        let setting = match random_weakly_acyclic_setting(&params, n_t, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0xd1ff);
        let deps: Vec<Dependency> = setting
            .sigma_st()
            .iter()
            .cloned()
            .map(Dependency::Tgd)
            .chain(setting.sigma_t().iter().cloned())
            .collect();
        let naive = pde_chase::chase_governed_with(
            input.clone(),
            &deps,
            pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
            ChaseLimits::default(), pde_chase::ChaseEngine::Naive, &Governor::unlimited()
        );
        let semi = pde_chase::chase_governed_with(
            input,
            &deps,
            pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
            ChaseLimits::default(), pde_chase::ChaseEngine::Seminaive, &Governor::unlimited()
        );
        prop_assert_eq!(naive.is_success(), semi.is_success());
        prop_assert_eq!(naive.is_failure(), semi.is_failure());
        if naive.is_success() {
            prop_assert!(pde_chase::satisfies_all(&naive.instance, &deps));
            prop_assert!(pde_chase::satisfies_all(&semi.instance, &deps));
            prop_assert!(
                pde_relational::instance_hom_exists(&naive.instance, &semi.instance),
                "naive result maps into semi-naive result"
            );
            prop_assert!(
                pde_relational::instance_hom_exists(&semi.instance, &naive.instance),
                "semi-naive result maps into naive result"
            );
        }
    }

    #[test]
    fn naive_and_seminaive_agree_on_egd_heavy_chases(edges in arb_edge_instance(4, 7)) {
        // Egd-focused differential: merge-heavy and failure-prone dep sets
        // over random edge instances. Here both engines run the same merge
        // discipline, so successful results must be isomorphic, not merely
        // hom-equivalent.
        let schema = std::sync::Arc::new(
            parse_schema("source E/2; target H/2; target K/2;").unwrap(),
        );
        let dep_sets = [
            // Two existentials forced together per source node.
            "E(x, y) -> exists z . H(x, z); E(x, y) -> exists w . K(x, w); \
             H(x, y), K(x, z) -> y = z",
            // Key constraint on copied edges: fails when a node has two
            // distinct successors.
            "E(x, y) -> H(x, y); H(x, y), H(x, z) -> y = z",
        ];
        for src_deps in dep_sets {
            let deps = parse_dependencies(&schema, src_deps).unwrap();
            let mut src = String::new();
            for (a, b) in &edges {
                src.push_str(&format!("E(v{a}, v{b}). "));
            }
            let input = parse_instance(&schema, &src).unwrap();
            let naive = pde_chase::chase_governed_with(
                input.clone(),
                &deps,
                pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
                ChaseLimits::default(), pde_chase::ChaseEngine::Naive, &Governor::unlimited()
            );
            let semi = pde_chase::chase_governed_with(
                input,
                &deps,
                pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
                ChaseLimits::default(), pde_chase::ChaseEngine::Seminaive, &Governor::unlimited()
            );
            prop_assert_eq!(naive.is_success(), semi.is_success(), "{}", src_deps);
            if naive.is_success() {
                prop_assert!(pde_chase::satisfies_all(&semi.instance, &deps));
                prop_assert!(
                    pde_relational::instances_isomorphic(&naive.instance, &semi.instance),
                    "{src_deps}"
                );
            }
        }
    }

    #[test]
    fn naive_and_seminaive_agree_on_keyed_data_exchange(
        facts in prop::collection::vec((0u32..4, 0u32..3, 0u32..3, 0u32..4), 0..=12),
        layout in (0usize..24, 0u32..2, 0u32..16),
    ) {
        // Keyed data exchange: Σst fills T(a, b, i, o) with nulls for `i`
        // (and for `o` on annotation-only keys), and Σt holds the key egds
        // `key → i` and `key → o` — the shape the semi-naive engine
        // discovers by key-column probes. The columns are permuted, the
        // key has one or two columns, and every egd picks its own atom
        // order and orientation. About one source fact in four gives its
        // key a second organism, so some chases fail.
        let (perm, two_keys, orient) = layout;
        let mut roles: Vec<usize> = (0..4).collect();
        let mut code = perm;
        let mut order = Vec::new();
        for n in (1..=4).rev() {
            order.push(roles.remove(code % n));
            code /= n;
        }
        // `order[p]` is the role (a, b, i, o) at column `p` of T.
        let atom = |names: [&str; 4]| {
            let terms: Vec<&str> = order.iter().map(|&role| names[role]).collect();
            format!("T({})", terms.join(", "))
        };
        let b2 = if two_keys == 1 { "b" } else { "b2" };
        let (t1, t2) = (atom(["a", "b", "i", "o"]), atom(["a", b2, "i2", "o2"]));
        let egd = |bits: u32, v1: &str, v2: &str| {
            let (first, second) = if bits & 1 == 0 { (&t1, &t2) } else { (&t2, &t1) };
            let (lhs, rhs) = if bits & 2 == 0 { (v1, v2) } else { (v2, v1) };
            format!("{first}, {second} -> {lhs} = {rhs}")
        };
        let src_deps = format!(
            "S(a, b, o) -> exists i . {}; Q(a, b, g) -> exists i, o . {}, G(i, g); {}; {}",
            atom(["a", "b", "i", "o"]),
            atom(["a", "b", "i", "o"]),
            egd(orient, "i", "i2"),
            egd(orient >> 2, "o", "o2"),
        );
        let schema = std::sync::Arc::new(
            parse_schema("source S/3; source Q/3; target T/4; target G/2;").unwrap(),
        );
        let deps = parse_dependencies(&schema, &src_deps).unwrap();
        prop_assert!(
            deps.iter().filter_map(Dependency::as_egd).all(|e| e.key_shape().is_some()),
            "{src_deps}"
        );
        let mut src = String::new();
        for (kind, a, b, v) in &facts {
            let key = if two_keys == 1 { a + b } else { *a };
            if *kind < 2 {
                let o = key % 3 + u32::from(*v == 0);
                src.push_str(&format!("S(k{a}, k{b}, o{o}). "));
            } else {
                src.push_str(&format!("Q(k{a}, k{b}, g{v}). "));
            }
        }
        let input = parse_instance(&schema, &src).unwrap();
        let naive = pde_chase::chase_governed_with(
            input.clone(),
            &deps,
            pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
            ChaseLimits::default(), pde_chase::ChaseEngine::Naive, &Governor::unlimited()
        );
        let semi = pde_chase::chase_governed_with(
            input,
            &deps,
            pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
            ChaseLimits::default(), pde_chase::ChaseEngine::Seminaive, &Governor::unlimited()
        );
        prop_assert_eq!(&naive.outcome, &semi.outcome, "{} / {}", src_deps, src);
        if naive.is_success() {
            prop_assert!(pde_chase::satisfies_all(&semi.instance, &deps));
            prop_assert!(
                pde_relational::instance_hom_exists(&naive.instance, &semi.instance),
                "naive result maps into semi-naive result: {src_deps} / {src}"
            );
            prop_assert!(
                pde_relational::instance_hom_exists(&semi.instance, &naive.instance),
                "semi-naive result maps into naive result: {src_deps} / {src}"
            );
        }
    }

    #[test]
    fn heap_accounting_never_drifts_under_random_ops(
        ops in prop::collection::vec((0u8..5, 0u32..6, 0u32..6), 1..80),
    ) {
        // Columnar-storage invariant: the incremental heap-byte counter
        // must equal a from-scratch recount after every mutation —
        // inserts (including duplicates), removes of present and absent
        // rows, egd-style value rewrites, epoch bumps, and the
        // compactions those trigger. `recount_heap_bytes` also
        // cross-checks the liveness / null / index-entry counters via
        // debug assertions, so drift in any of them fails here too.
        use pde_relational::{NullId, Relation, Tuple, Value};
        let val = |k: u32| {
            if k < 4 {
                Value::constant(format!("c{k}"))
            } else {
                Value::Null(NullId(k - 4))
            }
        };
        let mut r = Relation::new(2);
        let mut epoch = 0u64;
        for (op, a, b) in ops {
            let t = Tuple::new(vec![val(a), val(b)]);
            match op {
                0 | 1 => {
                    r.insert_at(t, epoch);
                }
                2 => {
                    r.remove(&t);
                }
                3 => {
                    r.substitute_at(val(a), val(b), epoch);
                }
                _ => epoch += 1,
            }
            prop_assert_eq!(r.heap_bytes(), r.recount_heap_bytes());
        }
    }

    #[test]
    fn heap_accounting_never_drifts_across_chase_engines(edges in arb_edge_instance(4, 7)) {
        // End-to-end twin of the op-sequence drift test: both engines'
        // real mutation mix — trigger inserts, union-find merge
        // application, tombstone compaction — must leave every chased
        // instance's incremental byte counter equal to a recount.
        let schema = std::sync::Arc::new(
            parse_schema("source E/2; target H/2; target K/2;").unwrap(),
        );
        let deps = parse_dependencies(
            &schema,
            "E(x, y) -> exists z . H(x, z); E(x, y) -> exists w . K(x, w); \
             H(x, y), K(x, z) -> y = z",
        )
        .unwrap();
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("E(v{a}, v{b}). "));
        }
        let input = parse_instance(&schema, &src).unwrap();
        prop_assert_eq!(input.heap_bytes(), input.recount_heap_bytes());
        for result in [
            pde_chase::chase_governed_with(
                input.clone(),
                &deps,
                pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
                ChaseLimits::default(), pde_chase::ChaseEngine::Naive, &Governor::unlimited()
            ),
            pde_chase::chase_governed_with(
                input.clone(),
                &deps,
                pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
                ChaseLimits::default(), pde_chase::ChaseEngine::Seminaive, &Governor::unlimited()
            ),
        ] {
            prop_assert_eq!(
                result.instance.heap_bytes(),
                result.instance.recount_heap_bytes()
            );
        }
    }

    #[test]
    fn shrink_solution_yields_contained_solutions(edges in arb_edge_instance(4, 6)) {
        let p = paper::example1_setting();
        let input = edges_to_instance(&p, "E", &edges);
        if let Some(w) = assignment::solve(&p, &input).unwrap().witness {
            let small = pde_core::shrink_solution(&p, &input, &w).unwrap();
            prop_assert!(small.contained_in(&w));
            prop_assert!(is_solution(&p, &input, &small));
        }
    }

    #[test]
    fn core_of_solution_is_solution(edges in arb_edge_instance(4, 6)) {
        let p = paper::exact_view_setting();
        let input = edges_to_instance(&p, "E", &edges);
        if let Some(w) = assignment::solve(&p, &input).unwrap().witness {
            let cored = pde_core::core_solution(&p, &input, &w).unwrap();
            prop_assert!(is_solution(&p, &input, &cored));
            prop_assert!(cored.fact_count() <= w.fact_count());
        }
    }

    #[test]
    fn isomorphism_is_reflexive_and_rename_invariant(
        edges in arb_edge_instance(3, 5), shift in 0u32..50
    ) {
        let p = paper::example1_setting();
        let mut src = String::new();
        for (i, (a, _)) in edges.iter().enumerate() {
            src.push_str(&format!("E(v{a}, ?{i}). "));
        }
        let x = parse_instance(p.schema(), &src).unwrap();
        let mut src2 = String::new();
        for (i, (a, _)) in edges.iter().enumerate() {
            src2.push_str(&format!("E(v{a}, ?{}). ", u32::try_from(i).unwrap() + shift));
        }
        let y = parse_instance(p.schema(), &src2).unwrap();
        prop_assert!(pde_relational::instances_isomorphic(&x, &x));
        prop_assert!(pde_relational::instances_isomorphic(&x, &y));
    }

    #[test]
    fn parser_roundtrips_random_dependencies(
        n_prem in 1usize..3, n_conc in 1usize..3, n_ex in 0usize..2
    ) {
        let schema = parse_schema("source E/2; target H/2;").unwrap();
        let prem: Vec<String> = (0..n_prem)
            .map(|i| format!("E(x{i}, x{})", i + 1))
            .collect();
        let exvars: Vec<String> = (0..n_ex).map(|i| format!("z{i}")).collect();
        let conc: Vec<String> = (0..n_conc)
            .map(|i| {
                if i < n_ex {
                    format!("H(x0, z{i})")
                } else {
                    "H(x0, x1)".to_string()
                }
            })
            .collect();
        let mut src = prem.join(", ");
        src.push_str(" -> ");
        if !exvars.is_empty() {
            src.push_str(&format!("exists {} . ", exvars.join(", ")));
        }
        src.push_str(&conc.join(", "));
        let parsed = parse_tgd(&schema, &src).unwrap();
        let rendered = format!("{}", parsed.display(&schema));
        let reparsed = parse_tgd(&schema, &rendered).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}

/// The semi-naive engine's `StepRecord` log stays within the Lemma 1 step
/// bound of a verified `pde plan` certificate: delta-driven trigger
/// discovery changes *when* triggers are found, never how many steps the
/// chase applies.
#[test]
fn seminaive_step_log_respects_verified_certificate_bound() {
    let setting = PdeSetting::parse(
        "source E/2; target H/2; target K/2;",
        "E(x, y) -> exists z . H(x, z), H(z, y)",
        "",
        "H(x, y) -> K(x, y)",
    )
    .unwrap();
    let input = parse_instance(setting.schema(), "E(a, b). E(b, c). E(c, a).").unwrap();
    let cert = pde_analysis::plan_setting(&setting, input.active_domain().len());
    pde_analysis::verify_certificate(&setting, &cert).expect("certificate verifies");
    let deps: Vec<Dependency> = setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect();
    let res = pde_chase::chase_governed_with(
        input,
        &deps,
        pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
        ChaseLimits::from_bound(pde_constraints::ChaseBound {
            step_bound: cert.chase.step_bound,
            fact_bound: cert.chase.fact_bound,
            value_bound: cert.chase.value_bound,
        }),
        pde_chase::ChaseEngine::Seminaive,
        &Governor::unlimited(),
    );
    assert!(res.is_success(), "chase completes within certified budgets");
    assert_eq!(res.log.len(), res.steps, "one record per applied step");
    assert!(
        res.log.len() <= cert.chase.step_bound,
        "log length {} exceeds certified Lemma 1 bound {}",
        res.log.len(),
        cert.chase.step_bound
    );
    assert!(res.instance.fact_count() <= cert.chase.fact_bound);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_plan_never_certifies_worse_bounds(seed in 0u64..512, n_t in 0u32..3) {
        // Bound dominance: rewriting only deletes dependencies, so the
        // planner's Lemma 1 bounds on the optimized setting must dominate
        // (be no larger than) the original's, weak acyclicity must be
        // preserved, and the predicted complexity class must never move
        // toward intractability.
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams::default();
        let setting = match random_weakly_acyclic_setting(&params, n_t, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0x5eed);
        let opt = pde_analysis::optimize_setting(&setting, &input);
        prop_assert!(
            pde_analysis::verify_rewrite(&setting, &input, &opt.certificate).is_ok(),
            "the rewrite certificate must re-verify against its own inputs"
        );
        let adom = input.active_domain().len();
        let orig = pde_analysis::plan_setting(&setting, adom);
        let better = pde_analysis::plan_setting(&opt.optimized, adom);
        prop_assert!(pde_analysis::verify_certificate(&opt.optimized, &better).is_ok());
        if orig.chase.weakly_acyclic {
            prop_assert!(better.chase.weakly_acyclic, "deletion preserves weak acyclicity");
            prop_assert!(better.chase.step_bound <= orig.chase.step_bound);
            prop_assert!(better.chase.fact_bound <= orig.chase.fact_bound);
            prop_assert!(better.chase.value_bound <= orig.chase.value_bound);
        }
        prop_assert!(
            complexity_cost(better.sol_complexity) <= complexity_cost(orig.sol_complexity),
            "SOL(P) moved from {:?} to {:?}", orig.sol_complexity, better.sol_complexity
        );
        prop_assert!(
            complexity_cost(better.certain_complexity)
                <= complexity_cost(orig.certain_complexity),
            "certain answers moved from {:?} to {:?}",
            orig.certain_complexity, better.certain_complexity
        );
    }

    #[test]
    fn optimizer_preserves_data_exchange_answers_on_both_engines(
        seed in 0u64..256, n_t in 0u32..3
    ) {
        // Differential, data-exchange route (Σts = ∅): solving the
        // optimized setting under its stratified schedule gives the same
        // yes/no answer as solving the original unscheduled — on both
        // chase engines (the naive engine deliberately ignores schedules).
        use peer_data_exchange::core::data_exchange::solve_data_exchange_governed_scheduled;
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams {
            n_ts: 0,
            ..RandomSettingParams::default()
        };
        let setting = match random_weakly_acyclic_setting(&params, n_t, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0x09f7);
        let opt = pde_analysis::optimize_setting(&setting, &input);
        prop_assert!(pde_analysis::verify_rewrite(&setting, &input, &opt.certificate).is_ok());
        let schedule = pde_analysis::forward_schedule(&opt.optimized);
        let gov = Governor::unlimited();
        let mut answers = Vec::new();
        for engine in [pde_chase::ChaseEngine::Naive, pde_chase::ChaseEngine::Seminaive] {
            let base = solve_data_exchange_governed_scheduled(
                &setting, &input, ChaseLimits::default(), engine, &gov, None,
            )
            .unwrap();
            let rewritten = solve_data_exchange_governed_scheduled(
                &opt.optimized, &input, ChaseLimits::default(), engine, &gov, Some(&schedule),
            )
            .unwrap();
            answers.push(base.exists);
            answers.push(rewritten.exists);
        }
        prop_assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "optimized/original × naive/semi-naive disagree: {answers:?}"
        );
    }

    #[test]
    fn optimizer_preserves_assignment_and_certain_answers(seed in 0u64..256) {
        // Differential, peer route (Σts ≠ ∅, Σt = ∅): the complete
        // assignment search returns the same yes/no answer on the
        // optimized setting, on both chase engines; certain answers over a
        // target relation are identical as sets.
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams::default();
        let setting = match random_weakly_acyclic_setting(&params, 0, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0xd1ce);
        let opt = pde_analysis::optimize_setting(&setting, &input);
        prop_assert!(pde_analysis::verify_rewrite(&setting, &input, &opt.certificate).is_ok());
        let gov = Governor::unlimited();
        for engine in [pde_chase::ChaseEngine::Naive, pde_chase::ChaseEngine::Seminaive] {
            let base = assignment::solve_governed(&setting, &input, engine, &gov).unwrap();
            let rewritten =
                assignment::solve_governed(&opt.optimized, &input, engine, &gov).unwrap();
            prop_assert_eq!(
                base.exists, rewritten.exists,
                "assignment search disagrees on {:?}", engine
            );
        }
        // Certain answers over the first target relation.
        let schema = setting.schema();
        let rel = schema.rels_of(pde_relational::Peer::Target).next().unwrap();
        let vars: Vec<String> = (0..schema.arity(rel)).map(|i| format!("x{i}")).collect();
        let q_src = format!("q({}) :- {}({})", vars.join(", "), schema.name(rel), vars.join(", "));
        let q: UnionQuery = parse_query(schema, &q_src).unwrap().into();
        let base = certain_answers(&setting, &input, &q, GenericLimits::default()).unwrap();
        let rewritten =
            certain_answers(&opt.optimized, &input, &q, GenericLimits::default()).unwrap();
        prop_assert_eq!(base.solution_exists, rewritten.solution_exists);
        prop_assert_eq!(base.answers, rewritten.answers);
    }

    #[test]
    fn scheduled_chase_agrees_with_unscheduled(seed in 0u64..512, n_t in 0u32..3) {
        // The stratified semi-naive chase must be indistinguishable from
        // the unscheduled one: same outcome kind, and on success
        // hom-equivalent results satisfying the chased dependencies.
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams::default();
        let setting = match random_weakly_acyclic_setting(&params, n_t, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0x57a7);
        let deps = pde_analysis::forward_dependencies(&setting);
        let schedule = pde_analysis::forward_schedule(&setting);
        prop_assert!(schedule.is_partition_of(deps.len()));
        let gov = Governor::unlimited();
        let run = |sched: Option<&pde_chase::DepSchedule>| {
            pde_chase::chase_governed_scheduled(
                input.clone(),
                &deps,
                pde_chase::WitnessMode::FreshNulls(&pde_relational::NullGen::new()),
                ChaseLimits::default(),
                pde_chase::ChaseEngine::Seminaive,
                &gov,
                sched,
            )
        };
        let flat = run(None);
        let strat = run(Some(&schedule));
        prop_assert_eq!(flat.is_success(), strat.is_success());
        prop_assert_eq!(flat.is_failure(), strat.is_failure());
        if flat.is_success() {
            prop_assert!(pde_chase::satisfies_all(&flat.instance, &deps));
            prop_assert!(pde_chase::satisfies_all(&strat.instance, &deps));
            prop_assert!(
                pde_relational::instance_hom_exists(&flat.instance, &strat.instance),
                "unscheduled result maps into the stratified result"
            );
            prop_assert!(
                pde_relational::instance_hom_exists(&strat.instance, &flat.instance),
                "stratified result maps into the unscheduled result"
            );
        }
    }
}

/// A scalar from one of four classes: controls, ASCII (quotes and
/// backslashes included), non-BMP, or anything (surrogates map to U+FFFD).
fn scalar((class, n): (u8, u32)) -> char {
    let code = match class {
        0 => n % 0x20,
        1 => n % 0x80,
        2 => 0x1_0000 + n % 0x10_0000,
        _ => n % 0x11_0000,
    };
    char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
}

/// `s` as a JSON literal with every non-ASCII scalar written as `\uXXXX`
/// escapes, surrogate pairs included (Python's `json.dumps` default).
fn ascii_only_json(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// The golden plan certificate of `plan_golden.rs` (Example 1 at an
/// active domain of 4).
fn golden_plan_json() -> String {
    pde_analysis::plan_setting(&paper::example1_setting(), 4).to_json()
}

/// Feed `src` to the reader and all three certificate loaders; each must
/// return (`Ok` or `Err`) instead of panicking.
fn load_everywhere(src: &str) {
    let _ = pde_trace::json::parse(src);
    let _ = pde_analysis::Certificate::from_json(src);
    let _ = pde_analysis::RewriteCertificate::from_json(src);
    let _ = pde_analysis::TerminationCertificate::from_json(src);
}

#[test]
fn every_truncation_of_a_golden_certificate_loads_without_panicking() {
    let json = golden_plan_json();
    assert!(pde_analysis::Certificate::from_json(&json).is_ok());
    for end in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
        load_everywhere(&json[..end]);
        assert!(
            pde_trace::json::parse(&json[..end]).is_err(),
            "prefix {end}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn escaped_strings_parse_back_to_themselves(
        picks in prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..24)
    ) {
        use pde_trace::json::{parse, Json};
        let s: String = picks.into_iter().map(scalar).collect();
        let escaped = pde_trace::json_escape(&s);
        prop_assert_eq!(parse(&escaped), Ok(Json::Str(s.clone())), "{}", escaped);
        let ascii = ascii_only_json(&s);
        prop_assert_eq!(parse(&ascii), Ok(Json::Str(s.clone())), "{}", ascii);
    }

    #[test]
    fn byte_flipped_certificates_load_without_panicking(
        flips in prop::collection::vec((0u32..1 << 16, 0u8..255), 1..6)
    ) {
        let mut bytes = golden_plan_json().into_bytes();
        let len = bytes.len();
        for (at, xor) in flips {
            bytes[at as usize % len] ^= xor + 1;
        }
        load_everywhere(&String::from_utf8_lossy(&bytes));
    }
}
