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
//!   weakly-acyclic settings;
//! * plan, termination and rewrite certificates round-trip through print
//!   and parse and still verify;
//! * the witness-chase search decides CLIQUE on both §4 boundary
//!   settings, and its witnesses and enumerated leaves are solutions.

use pde_relational::{NullId, RelId, Tuple};
use peer_data_exchange::core::{
    assignment, blocks, certain_answers, generic,
    solution::{check_solution, is_solution},
    tractable, GenericLimits,
};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::{boundary, clique, graphs, paper, threecol};
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

/// One- and two-atom conjunctions over `E/2` and `H/2` for the scan-order
/// and row-pair properties: key, join, reversed-join and cartesian shapes,
/// two relations, and three shapes that are not row-pair joins (a repeated
/// variable, a constant, a single atom).
const PAIR_PATTERNS: [&str; 8] = [
    "E(x, y), E(x, z)",
    "E(x, y), E(y, z)",
    "H(x, y), E(z, x)",
    "E(x, y), H(z, w)",
    "H(x, y), H(y, x)",
    "E(x, x), E(x, y)",
    "E(x, 'v0'), H('v0', y)",
    "H(x, y)",
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

/// A random graph on `n` vertices from edge pairs, each endpoint taken
/// modulo `n` (self-pairs dropped).
fn pairs_to_graph(n: u32, pairs: &[(u32, u32)]) -> graphs::Graph {
    let mut g = graphs::Graph::empty(n);
    for (a, b) in pairs {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.add_edge(a, b);
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
    fn scan_order_keys_follow_enumeration_and_pairs_match_the_delta_search(
        rounds in prop::collection::vec(
            prop::collection::vec((0u32..2, 0u32..4, 0u32..4), 0..=6),
            1..=3,
        ),
        removals in prop::collection::vec((0u32..2, 0u32..4, 0u32..4), 0..=3),
        pattern in 0usize..PAIR_PATTERNS.len(),
    ) {
        // Facts of E and H land under one epoch per round, some are then
        // removed (leaving tombstones); value 3 is a null.
        let p = paper::example1_setting();
        let rels = [p.schema().rel_id("E").unwrap(), p.schema().rel_id("H").unwrap()];
        let value = |v: u32| match v {
            3 => Value::Null(NullId(0)),
            _ => Value::constant(format!("v{v}")),
        };
        let fact = |&(r, a, b): &(u32, u32, u32)| {
            (rels[r as usize], Tuple::new(vec![value(a), value(b)]))
        };
        let mut inst = Instance::new(p.schema().clone());
        for round in &rounds {
            for f in round {
                let (rel, t) = fact(f);
                inst.insert(rel, t);
            }
            inst.bump_epoch();
        }
        for f in &removals {
            let (rel, t) = fact(f);
            inst.remove(rel, &t);
        }
        let atoms = pde_relational::parse_atoms(p.schema(), PAIR_PATTERNS[pattern]).unwrap();
        let none = pde_relational::Assignment::new();
        // for_each_hom yields homomorphisms in strictly increasing key order.
        let mut keys = Vec::new();
        let _ = pde_relational::for_each_hom(&atoms, &inst, &none, |h| {
            keys.push(pde_relational::scan_order_key(&atoms, &inst, h).unwrap());
            ControlFlow::Continue(())
        });
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
        // The row-pair probe yields the delta search's matches, in its
        // order.
        let Some(shape) = pde_relational::PairShape::of(&atoms) else {
            return Ok(());
        };
        let swap = pde_relational::first_expanded_atom(&atoms, &inst) == Some(1);
        for since in 0..=inst.current_epoch() {
            let mut want = Vec::new();
            let all = u64::MAX;
            let _ = pde_relational::for_each_hom_seminaive(&atoms, &inst, &none, since, all, |h| {
                let (a, b) = pde_relational::scan_order_key(&atoms, &inst, h).unwrap();
                want.push(if swap { (b, a) } else { (a, b) });
                ControlFlow::Continue(())
            });
            let mut got = Vec::new();
            let _ = pde_relational::for_each_pair_seminaive(&inst, &shape, since, all, |r0, r1| {
                got.push((r0, r1));
                ControlFlow::Continue(())
            });
            prop_assert_eq!(got, want, "since {}", since);
        }
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
    fn clique_reduction_matches_baseline(
        n in 4u32..7,
        k in 3u32..5,
        pairs in arb_edge_instance(6, 12)
    ) {
        let g = pairs_to_graph(n, &pairs);
        let p = clique::clique_setting();
        let input = clique::clique_instance(&p, &g, k);
        let out = assignment::solve(&p, &input).unwrap();
        prop_assert_eq!(out.exists, graphs::has_k_clique(&g, k));
        if let Some(w) = out.witness {
            prop_assert!(is_solution(&p, &input, &w));
        }
    }

    #[test]
    fn clique_certain_route_matches_baseline(
        n in 4u32..7,
        k in 3u32..5,
        pairs in arb_edge_instance(6, 12)
    ) {
        // certain(∃x P(x, x, x, x)) is false iff G has a k-clique.
        let g = pairs_to_graph(n, &pairs);
        let p = clique::clique_setting();
        let input = clique::clique_instance_elements_from_v(&p, &g, k);
        let q = clique::certain_query(&p);
        let out = certain_answers(&p, &input, &q, GenericLimits::default()).unwrap();
        prop_assert_eq!(out.certain_bool(), !graphs::has_k_clique(&g, k));
    }

    #[test]
    fn threecol_reduction_matches_baseline(n in 2u32..7, pairs in arb_edge_instance(6, 10)) {
        let g = pairs_to_graph(n, &pairs);
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
        prop_assert!(cert.verify(&setting, &input).is_ok());
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
            prop_assert!(cert.verify(setting, input).is_ok());
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
        facts in prop::collection::vec((0u32..7, 0u32..3, 0u32..3, 0u32..4), 0..=12),
        layout in (0usize..24, 0u32..2, 0u32..16),
        variant in (0u32..2, 0u32..8, 0u32..3),
    ) {
        // Keyed data exchange: Σst fills T(a, b, i, o) with nulls for `i`
        // (and for `o` on annotation-only keys), and Σt holds the key egds
        // `key → i` and `key → o` — keys, which the semi-naive engine
        // discovers by row-pair probes and uses to take `i` and `o` from
        // the row that already holds the key (keyed witnesses). The
        // columns are permuted, the key has one or two columns, every egd
        // picks its own atom order and orientation, and the two main Σst
        // tgds come in either order. Extra tgds put an existential in a
        // key column (`X`, which must mint), one existential at the
        // determined positions of two keyed atoms with different keys
        // (`W`), and a constant in a key column (`C`). One of the two key
        // egds may be left out, so that an existential sits at a position
        // no egd determines. About one source fact in four gives its key
        // a second organism, so some chases fail.
        let (perm, two_keys, orient) = layout;
        let (swap, extras, keys) = variant;
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
        let mut rules = vec![
            format!("S(a, b, o) -> exists i . {}", atom(["a", "b", "i", "o"])),
            format!("Q(a, b, g) -> exists i, o . {}, G(i, g)", atom(["a", "b", "i", "o"])),
        ];
        if swap == 1 {
            rules.reverse();
        }
        if extras & 1 != 0 {
            rules.push(format!("X(b, o) -> exists e, i . {}", atom(["e", "b", "i", "o"])));
        }
        if extras & 2 != 0 {
            rules.push(format!(
                "W(a, c, b) -> exists i, o . {}, {}",
                atom(["a", "b", "i", "o"]),
                atom(["c", "b", "i", "o"])
            ));
        }
        if extras & 4 != 0 {
            rules.push(format!("C(b, o) -> exists i . {}", atom(["'k0'", "b", "i", "o"])));
        }
        // `keys`: 0 keeps both key egds, 1 only `key → i`, 2 only
        // `key → o`.
        if keys != 2 {
            rules.push(egd(orient, "i", "i2"));
        }
        if keys != 1 {
            rules.push(egd(orient >> 2, "o", "o2"));
        }
        let src_deps = rules.join("; ");
        let schema = std::sync::Arc::new(
            parse_schema(
                "source S/3; source Q/3; source X/2; source W/3; source C/2; \
                 target T/4; target G/2;",
            )
            .unwrap(),
        );
        let deps = parse_dependencies(&schema, &src_deps).unwrap();
        prop_assert!(
            deps.iter().filter_map(Dependency::as_egd).all(|e| e.pair_shape().is_some()),
            "{src_deps}"
        );
        let mut src = String::new();
        for (kind, a, b, v) in &facts {
            let key = if two_keys == 1 { a + b } else { *a };
            let o = key % 3 + u32::from(*v == 0);
            match kind {
                0 | 1 => src.push_str(&format!("S(k{a}, k{b}, o{o}). ")),
                2 | 3 => src.push_str(&format!("Q(k{a}, k{b}, g{v}). ")),
                4 => src.push_str(&format!("X(k{b}, o{o}). ")),
                5 => src.push_str(&format!("W(k{a}, k{v}, k{b}). ")),
                _ => {
                    let key = if two_keys == 1 { *b } else { 0 };
                    let o = key % 3 + u32::from(*v == 0);
                    src.push_str(&format!("C(k{b}, o{o}). "));
                }
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
    fn naive_and_seminaive_agree_on_pair_egds(
        facts in prop::collection::vec((0u32..2, 0u32..3, 0u32..3), 0..=10),
        orient in 0u32..64,
    ) {
        // Two-atom egds that are not keys take the same row-pair probe as
        // keys: the §4 boundary's consistency egd, whose shared variable
        // sits at different positions, and a join of P with a second
        // relation L that copies source constants, so a node with two
        // C-values fails the chase. Every egd picks its own atom order and
        // orientation.
        let egd = |bits: u32, t1: &str, t2: &str, v1: &str, v2: &str| {
            let (first, second) = if bits & 1 == 0 { (t1, t2) } else { (t2, t1) };
            let (lhs, rhs) = if bits & 2 == 0 { (v1, v2) } else { (v2, v1) };
            format!("{first}, {second} -> {lhs} = {rhs}")
        };
        let src_deps = format!(
            "D(x, y) -> exists z, w . P(x, z, y, w); C(x, v) -> L(x, v); {}; {}; {}",
            egd(orient, "P(x, z, y, w)", "P(x, z2, y2, w2)", "z", "z2"),
            egd(orient >> 2, "P(x, z, y, w)", "P(y, z2, y2, w2)", "w", "z2"),
            egd(orient >> 4, "P(x, z, y, w)", "L(y, v)", "w", "v"),
        );
        let schema = std::sync::Arc::new(
            parse_schema("source D/2; source C/2; target P/4; target L/2;").unwrap(),
        );
        let deps = parse_dependencies(&schema, &src_deps).unwrap();
        prop_assert!(
            deps.iter().filter_map(Dependency::as_egd).all(|e| e.pair_shape().is_some()),
            "{src_deps}"
        );
        let mut src = String::new();
        for (kind, a, b) in &facts {
            if *kind == 0 {
                src.push_str(&format!("D(k{a}, k{b}). "));
            } else {
                src.push_str(&format!("C(k{a}, c{b}). "));
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
    cert.verify(&setting, &input).expect("certificate verifies");
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

/// The Fig. 3 bounds on random `C_tract` settings with Σt = ∅: the ground
/// answers over `J_can` and over the witness `J_img` bracket the
/// intersection over the whole assignment family, equal it whenever they
/// meet, and `certain_answers` (which stops once its running intersection
/// reaches the lower bound) equals it too. Runs over every target
/// relation with a full and a one-column head, and requires both meeting
/// and differing bounds to occur.
#[test]
fn certain_bounds_bracket_the_uncut_enumeration() {
    use peer_data_exchange::core::{certain_bounds, ground_answers, DemandState};
    use peer_data_exchange::workloads::random::{
        random_instance, random_setting, RandomSettingParams,
    };
    use std::collections::BTreeSet;
    let gov = Governor::unlimited();
    let (mut met, mut apart) = (0, 0);
    for seed in 0u64..160 {
        let Ok(setting) = random_setting(&RandomSettingParams::default(), seed) else {
            continue;
        };
        if !setting.classification().ctract.in_ctract() {
            continue;
        }
        let input = random_instance(&setting, 5, 1, 3, seed ^ 0xb0d5);
        // The Σst fixpoint and the Fig. 3 state, as `pde serve` keeps them.
        let gen = pde_chase::null_gen_for(&input);
        let chased = pde_chase::chase_tgds_governed(
            input.clone(),
            setting.sigma_st(),
            &gen,
            pde_chase::default_chase_engine(),
            &gov,
        )
        .instance;
        let demand = DemandState::new(&setting)
            .unwrap()
            .extend(&input, &chased, &gen, &gov)
            .unwrap();
        let problem = assignment::DisjunctiveProblem::from_setting(&setting).unwrap();
        let schema = setting.schema();
        for rel in schema.rels_of(pde_relational::Peer::Target) {
            let vars: Vec<String> = (0..schema.arity(rel)).map(|i| format!("x{i}")).collect();
            let body = format!("{}({})", schema.name(rel), vars.join(", "));
            for head in [vars.join(", "), vars[0].clone()] {
                let q: UnionQuery = parse_query(schema, &format!("q({head}) :- {body}"))
                    .unwrap()
                    .into();
                let mut full: Option<BTreeSet<Vec<Value>>> = None;
                assignment::for_each_solution(&problem, &input, |sol| {
                    let ground = ground_answers(&q, sol);
                    full = Some(match full.take() {
                        None => ground,
                        Some(prev) => prev.intersection(&ground).cloned().collect(),
                    });
                    ControlFlow::Continue(())
                })
                .unwrap();
                let out = certain_answers(&setting, &input, &q, GenericLimits::default()).unwrap();
                let case = format!("seed {seed}, {q:?}");
                assert_eq!(out.solution_exists, full.is_some(), "{case}");
                let Some(full) = full else {
                    assert!(
                        certain_bounds(&setting, &q, &chased, &demand)
                            .unwrap()
                            .is_none(),
                        "{case}"
                    );
                    continue;
                };
                assert_eq!(out.answers, full, "{case}");
                let bounds = certain_bounds(&setting, &q, &chased, &demand)
                    .unwrap()
                    .expect("a solution exists");
                assert!(bounds.lower.is_subset(&full), "{case}");
                assert!(full.is_subset(&bounds.upper), "{case}");
                if bounds.lower == bounds.upper {
                    assert_eq!(bounds.lower, full, "{case}");
                    met += 1;
                } else {
                    apart += 1;
                }
            }
        }
    }
    assert!(met > 0 && apart > 0, "met {met}, apart {apart}");
}

/// An instance as its sorted rendered facts: equal fact sets, equal
/// strings.
fn fact_set(inst: &Instance) -> String {
    let text = peer_data_exchange::relational::render_instance(inst);
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// The solution family by brute force: every map of `J_can`'s nulls to
/// `Keep` or a constant of `adom(I)`, keeping the images `is_solution`
/// accepts, as sorted [`fact_set`]s. `None` when there are more than `cap`
/// maps.
fn brute_force_family(
    input: &Instance,
    jcan: &Instance,
    cap: usize,
    is_solution: impl Fn(&Instance) -> bool,
) -> Option<Vec<String>> {
    let nulls: Vec<NullId> = jcan.nulls().into_iter().collect();
    let consts: Vec<Value> = input
        .active_domain_of(pde_relational::Peer::Source)
        .into_iter()
        .filter(Value::is_const)
        .collect();
    let choices = consts.len() + 1;
    let maps = u32::try_from(nulls.len())
        .ok()
        .and_then(|e| choices.checked_pow(e))
        .filter(|&m| m <= cap)?;
    let mut family = Vec::new();
    for code in 0..maps {
        let mut rest = code;
        let mut image: std::collections::HashMap<NullId, Value> = Default::default();
        for &n in &nulls {
            let c = rest % choices;
            rest /= choices;
            let v = match c {
                0 => Value::Null(n),
                c => consts[c - 1],
            };
            image.insert(n, v);
        }
        let candidate = jcan.map_values(|v| match v {
            Value::Null(n) => image[&n],
            c => c,
        });
        if is_solution(&candidate) {
            family.push(fact_set(&candidate));
        }
    }
    family.sort_unstable();
    Some(family)
}

/// The random setting's Σts with its first two tgds joined into one
/// disjunctive dependency (the first one's premise, both conclusions as
/// disjuncts), or `None` when the second conclusion reads a variable the
/// first premise lacks.
fn with_disjunction(setting: &PdeSetting) -> Option<assignment::DisjunctiveProblem> {
    use peer_data_exchange::constraints::{Disjunct, DisjunctiveTgd};
    let [t0, t1, rest @ ..] = setting.sigma_ts() else {
        return None;
    };
    let disjunct = |t: &Tgd| Disjunct {
        existentials: t.existentials.clone(),
        conjunction: t.conclusion.clone(),
    };
    let joined = DisjunctiveTgd::new(t0.premise.clone(), vec![disjunct(t0), disjunct(t1)]);
    let ts = std::iter::once(joined)
        .chain(rest.iter().map(DisjunctiveTgd::from_tgd))
        .collect();
    assignment::DisjunctiveProblem::new(setting.schema().clone(), setting.sigma_st().to_vec(), ts)
        .ok()
}

/// `for_each_solution` enumerates exactly the images of `J_can` that are
/// solutions, each once per assignment: the propagation of the search
/// (permanent violations, forward checking, fewest options first) may
/// change the order of the family but never its members. Null ids are
/// `J_can`'s on both sides, so the families compare as they are. Each
/// random setting is checked as it is and with two Σts tgds joined into
/// one disjunctive dependency.
#[test]
fn assignment_family_matches_brute_force() {
    use peer_data_exchange::workloads::random::{
        random_instance, random_setting, RandomSettingParams,
    };
    let gov = Governor::unlimited();
    let (mut compared, mut with_nulls, mut several, mut dropped) = (0, 0, 0, 0);
    for seed in 0u64..400 {
        let Ok(setting) = random_setting(&RandomSettingParams::default(), seed) else {
            continue;
        };
        let input = random_instance(&setting, 4, u32::from(seed % 2 == 1), 3, seed ^ 0xfa11);
        let gen = pde_chase::null_gen_for(&input);
        let chased = pde_chase::chase_tgds_governed(
            input.clone(),
            setting.sigma_st(),
            &gen,
            pde_chase::default_chase_engine(),
            &gov,
        );
        if !chased.is_success() {
            continue;
        }
        let plain = assignment::DisjunctiveProblem::from_setting(&setting).unwrap();
        let cases = std::iter::once((plain, true))
            .chain(with_disjunction(&setting).map(|problem| (problem, false)));
        for (problem, is_plain) in cases {
            let Some(want) = brute_force_family(&input, &chased.instance, 1 << 10, |c| {
                if is_plain {
                    return is_solution(&setting, &input, c);
                }
                problem
                    .sigma_st()
                    .iter()
                    .all(|t| pde_chase::satisfies_tgd(c, t))
                    && problem
                        .sigma_ts()
                        .iter()
                        .all(|d| pde_chase::satisfies_disjunctive(c, d))
            }) else {
                continue;
            };
            let mut got = Vec::new();
            let stats = assignment::for_each_solution(&problem, &input, |sol| {
                got.push(fact_set(sol));
                ControlFlow::Continue(())
            })
            .unwrap();
            got.sort_unstable();
            assert_eq!(got, want, "seed {seed}, {} Σts", problem.sigma_ts().len());
            compared += 1;
            with_nulls += usize::from(stats.null_count > 0);
            several += usize::from(want.len() > 1);
            dropped += usize::from(stats.forward_drops > 0);
        }
    }
    assert!(
        compared > 100 && with_nulls > 50 && several > 20 && dropped > 20,
        "compared {compared}, with nulls {with_nulls}, several {several}, dropped {dropped}"
    );
}

/// Print `cert`, parse it back through [`Verifiable::from_json`], and
/// require an equal value that still verifies against its own setting and
/// input.
fn round_trips<C: Verifiable + PartialEq + std::fmt::Debug>(
    cert: &C,
    setting: &PdeSetting,
    input: &Instance,
) -> Result<(), String> {
    let back = C::from_json(&cert.to_json().to_string())
        .map_err(|e| format!("{} certificate does not parse back: {e}", C::KIND))?;
    prop_assert_eq!(
        &back,
        cert,
        "{} certificate changed in print -> parse",
        C::KIND
    );
    prop_assert!(
        back.verify(setting, input).is_ok(),
        "parsed {} certificate no longer verifies",
        C::KIND
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certificates_round_trip_through_print_and_parse(seed in 0u64..512, n_t in 0u32..3) {
        // All three certificate kinds, on settings no fixture was written
        // for: print -> parse gives back an equal value, and the parsed
        // copy passes the independent checker.
        use peer_data_exchange::workloads::random::{
            random_instance, random_weakly_acyclic_setting, RandomSettingParams,
        };
        let params = RandomSettingParams::default();
        let setting = match random_weakly_acyclic_setting(&params, n_t, seed) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let input = random_instance(&setting, 4, 0, 3, seed ^ 0x7219);
        let adom = input.active_domain().len();
        round_trips(&pde_analysis::plan_setting(&setting, adom), &setting, &input)?;
        round_trips(&pde_analysis::analyze_termination(&setting, adom), &setting, &input)?;
        let rewrite = pde_analysis::optimize_setting(&setting, &input).certificate;
        round_trips(&rewrite, &setting, &input)?;
    }

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
            opt.certificate.verify(&setting, &input).is_ok(),
            "the rewrite certificate must re-verify against its own inputs"
        );
        let adom = input.active_domain().len();
        let orig = pde_analysis::plan_setting(&setting, adom);
        let better = pde_analysis::plan_setting(&opt.optimized, adom);
        prop_assert!(better.verify(&opt.optimized, &input).is_ok());
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
        prop_assert!(opt.certificate.verify(&setting, &input).is_ok());
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
        prop_assert!(opt.certificate.verify(&setting, &input).is_ok());
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

/// Container nesting of `v` (a scalar is 0, `[]` is 1).
fn depth_of(v: &pde_trace::json::Json) -> usize {
    use pde_trace::json::Json;
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A random `Json` tree. `nodes` drive a stack machine: `(op, n, len)`
/// pushes a null, a boolean, a number (0, `u128::MAX` or `n`) or a string
/// of up to 7 scalars drawn from `picks`, or pops up to three values into
/// an array or into an object under distinct string keys. What is left on
/// the stack becomes one array, wrapped in up to `wrap` further levels of
/// alternating arrays and objects, never past `MAX_DEPTH` in total.
fn json_tree(nodes: &[(u8, u32, u8)], picks: &[(u8, u32)], wrap: usize) -> pde_trace::json::Json {
    use pde_trace::json::{Json, MAX_DEPTH};
    let string = |n: u32, len: u8| -> String {
        let start = n as usize % (picks.len() + 1);
        picks[start..]
            .iter()
            .take(usize::from(len % 8))
            .copied()
            .map(scalar)
            .collect()
    };
    let mut stack: Vec<Json> = Vec::new();
    for &(op, n, len) in nodes {
        let popped = stack.len().saturating_sub(usize::from(len % 4));
        let value = match op {
            0 => Json::Null,
            1 => Json::Bool(n % 2 == 0),
            2 => Json::Num(match n % 3 {
                0 => 0,
                1 => u128::MAX,
                _ => u128::from(n),
            }),
            3 => Json::Str(string(n, len)),
            4 => Json::Arr(stack.split_off(popped)),
            _ => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                for (i, v) in (0u32..).zip(stack.split_off(popped)) {
                    let key = string(n.wrapping_add(i), len / 8);
                    if fields.iter().all(|(k, _)| *k != key) {
                        fields.push((key, v));
                    }
                }
                Json::Obj(fields)
            }
        };
        stack.push(value);
    }
    let mut tree = Json::Arr(stack);
    for level in 0..wrap.min(MAX_DEPTH - depth_of(&tree)) {
        tree = if level % 2 == 0 {
            Json::Arr(vec![tree])
        } else {
            Json::Obj(vec![(String::new(), tree)])
        };
    }
    tree
}

/// The golden plan certificate of `plan_golden.rs` (Example 1 at an
/// active domain of 4).
fn golden_plan_json() -> String {
    pde_analysis::plan_setting(&paper::example1_setting(), 4)
        .to_json()
        .to_string()
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
        let ascii = ascii_only_json(&s);
        prop_assert_eq!(parse(&ascii), Ok(Json::Str(s.clone())), "{}", ascii);
    }

    #[test]
    fn printed_json_parses_back_to_itself(
        nodes in prop::collection::vec((0u8..6, 0u32..0x11_0000, 0u8..64), 0..48),
        picks in prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..24),
        wrap in 0usize..160,
    ) {
        use pde_trace::json::{parse, Json, MAX_DEPTH};
        let v = json_tree(&nodes, &picks, wrap);
        let printed = v.to_string();
        prop_assert_eq!(parse(&printed), Ok(v.clone()), "{}", printed);
        if depth_of(&v) == MAX_DEPTH {
            // One level more and the reader refuses it.
            let deeper = Json::Arr(vec![v]).to_string();
            prop_assert!(parse(&deeper).is_err(), "{}", deeper);
        }
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

/// Constants in every spelling the instance syntax has: bare identifiers,
/// and quoted ones holding a comma, a space, one kind of quote, or nothing.
const SPELLINGS: [&str; 8] = [
    "a",
    "b2",
    "P000123",
    "a, b",
    "",
    "it's",
    "say \"hi\"",
    "x y",
];

/// Number of distinct values [`random_instance`] draws from.
const VALUES: u32 = 160;

/// A random instance over `E/2` (source), `H/3` (target) and `U/1`
/// (source). Each pick `(op, a, b, c)` inserts, removes or substitutes on
/// relation `op % 3` with the values numbered `a`, `b`, `c` below
/// [`VALUES`]: a constant from [`SPELLINGS`], one of 120 bare constants
/// (enough to spread symbol indices over several 64-bit words), or one of
/// 32 nulls. Repeated inserts and removals leave duplicate facts in the op
/// stream and tombstoned rows in the storage.
fn random_instance(picks: &[(u8, u32, u32, u32)]) -> Instance {
    let schema = std::sync::Arc::new(
        pde_relational::parse_schema("source E/2; target H/3; source U/1").unwrap(),
    );
    let val = |k: u32| match k {
        0..=7 => Value::constant(SPELLINGS[k as usize]),
        8..=127 => Value::constant(format!("c{k}")),
        _ => Value::Null(NullId(k - 128)),
    };
    let mut inst = Instance::new(schema.clone());
    for &(op, a, b, c) in picks {
        let rel = RelId(u32::from(op % 3));
        let values: Vec<Value> = [a, b, c]
            .into_iter()
            .take(schema.arity(rel) as usize)
            .map(val)
            .collect();
        match op / 3 {
            0..=2 => {
                inst.insert(rel, Tuple::new(values));
            }
            3 => {
                inst.remove(rel, &Tuple::new(values));
            }
            _ => inst.substitute(val(a), val(b)),
        }
    }
    inst
}

/// The live rows of `rel` as packed ids, in storage order.
fn packed_rows(inst: &Instance, rel: RelId) -> Vec<Vec<pde_relational::ValueId>> {
    let mut rows = Vec::new();
    let _ = inst.relation(rel).for_each_row(|_, ids| {
        rows.push(ids.to_vec());
        ControlFlow::Continue(())
    });
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_instances_load_back_row_for_row(
        picks in prop::collection::vec((0u8..15, 0..VALUES, 0..VALUES, 0..VALUES), 0..40)
    ) {
        let inst = random_instance(&picks);
        let text = pde_relational::render_instance(&inst);
        // Loading the text twice over drops the repeated facts and keeps
        // the first appearance's order.
        for src in [text.clone(), format!("{text}{text}")] {
            let back = match parse_instance(inst.schema(), &src) {
                Ok(back) => back,
                Err(e) => return Err(format!("{e} in {src:?}")),
            };
            for rel in inst.schema().rel_ids() {
                prop_assert_eq!(packed_rows(&back, rel), packed_rows(&inst, rel), "{}", src);
            }
        }
    }

    #[test]
    fn active_domain_and_nulls_match_a_set_of_every_live_value(
        picks in prop::collection::vec((0u8..15, 0..VALUES, 0..VALUES, 0..VALUES), 0..40)
    ) {
        use std::collections::BTreeSet;
        let inst = random_instance(&picks);
        let live = |peers: &[Peer]| -> BTreeSet<Value> {
            inst.facts()
                .filter(|(rel, _)| peers.contains(&inst.schema().peer(*rel)))
                .flat_map(|(_, t)| t.values().to_vec())
                .collect()
        };
        let everything = live(&[Peer::Source, Peer::Target]);
        prop_assert_eq!(inst.active_domain(), everything.clone());
        prop_assert_eq!(inst.active_domain_of(Peer::Source), live(&[Peer::Source]));
        prop_assert_eq!(inst.active_domain_of(Peer::Target), live(&[Peer::Target]));
        let nulls: BTreeSet<NullId> = everything.into_iter().filter_map(|v| v.as_null()).collect();
        prop_assert_eq!(inst.max_null_id(), nulls.iter().map(|n| n.0).max());
        prop_assert_eq!(inst.nulls(), nulls);
    }
}

proptest! {
    // Each case runs up to four complete searches; k = 3 "no" graphs on
    // five vertices expand ~10^5 nodes.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn witness_search_decides_clique_on_boundary_settings(
        n in 2u32..6,
        k in 2u32..4,
        pairs in arb_edge_instance(5, 6),
    ) {
        let pairs: Vec<(u32, u32)> = pairs.iter().map(|(a, b)| (a % n, b % n)).collect();
        let g = pairs_to_graph(n, &pairs);
        let expect = graphs::has_k_clique(&g, k);
        let egd = boundary::egd_boundary_setting();
        let ftgd = boundary::full_tgd_boundary_setting();
        let egd_input = boundary::egd_boundary_instance(&egd, &g, k);
        let ftgd_input = boundary::full_tgd_boundary_instance(&ftgd, &g, k);
        for (p, input) in [(&egd, &egd_input), (&ftgd, &ftgd_input)] {
            let out = generic::solve(p, input, GenericLimits::default()).unwrap();
            prop_assert_eq!(out.decided(), Some(expect), "n={} k={} {:?}", n, k, pairs);
            if let Some(w) = out.witness() {
                let checked = check_solution(p, input, w);
                prop_assert!(checked.is_ok(), "{:?}", checked);
            }
            // The first leaves of a bounded enumeration: every one is a
            // solution, "yes" or not.
            let mut leaves = 0;
            let mut all_solutions = true;
            let budget = GenericLimits {
                max_nodes: 2_000,
                ..GenericLimits::default()
            };
            generic::for_each_solution(p, input, budget, &Governor::unlimited(), |leaf| {
                all_solutions &= is_solution(p, input, leaf);
                leaves += 1;
                if leaves == 8 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
            prop_assert!(all_solutions, "n={} k={} {:?}", n, k, pairs);
        }
    }
}
