//! Phase 2 lock analyses over the workspace call graph:
//!
//! * **lock-order** — a directed graph over lock identities where `A → B`
//!   means "B is acquired while A is held", either directly in one function
//!   or through a call made with A held into a function that (transitively)
//!   acquires B.  Cycles in this graph are potential deadlocks.  The same
//!   rule also flags blocking operations (channel recv, `join()`, `poll`,
//!   condvar waits, …) performed while a lock is held — a lock-shaped
//!   stall even when no cycle exists.
//! * **pool-blocking** — functions reachable from `parallel_for` job bodies
//!   must not block: pool workers are a fixed-size resource, and a parked
//!   worker is indistinguishable from a lost one.  The pool's own machinery
//!   (`tensor/src/pool.rs`) is exempt — its completion hand-off is the one
//!   place allowed to park.
//!
//! Both rules are soft (ratcheted + waivable); findings carry call-chain
//! provenance for `--explain`.

use crate::callgraph::{fn_digraph, CallGraph};
use crate::graph::Digraph;
use crate::rules::{FileClass, Finding, Hop, RULE_LOCK_ORDER, RULE_POOL_BLOCK};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Runs both lock analyses and appends findings.
pub fn analyze(cg: &CallGraph, out: &mut Vec<Finding>) {
    lock_order(cg, out);
    pool_blocking(cg, out);
}

fn hop(cg: &CallGraph, f: u32, line: u32) -> Hop {
    Hop {
        file: cg.file_of(f as usize).rel.clone(),
        line,
        func: cg.fns[f as usize].name.clone(),
    }
}

/// The root→`f` call chain of a [`Digraph::bfs_parents`] map, one hop per
/// function at its definition line.
pub(crate) fn fn_chain(cg: &CallGraph, parents: &[Option<u32>], f: u32) -> Vec<Hop> {
    Digraph::path_to(parents, f)
        .into_iter()
        .map(|v| hop(cg, v, cg.fns[v as usize].line))
        .collect()
}

/// True for functions the lock analyses consider: non-test library code.
fn analyzed(cg: &CallGraph, f: usize) -> bool {
    !cg.fns[f].is_test && cg.file_of(f).class == FileClass::Lib
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// Where a lock-order edge was observed, for provenance chains.
struct EdgeProv {
    func: u32,
    line: u32,
    note: String,
}

fn lock_order(cg: &CallGraph, out: &mut Vec<Finding>) {
    // 1. Intern lock identities.
    let mut lock_ids: BTreeMap<&str, u32> = BTreeMap::new();
    for f in &cg.fns {
        for a in &f.acquires {
            let next = lock_ids.len() as u32;
            lock_ids.entry(a.lock.as_str()).or_insert(next);
        }
    }
    let names: Vec<&str> = {
        let mut v = vec![""; lock_ids.len()];
        for (name, &id) in &lock_ids {
            v[id as usize] = name;
        }
        v
    };

    // 2. Transitive acquired-set per function (worklist fixpoint over the
    //    call graph: a function "acquires" everything its callees do).
    let n = cg.fns.len();
    let mut acq: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for (i, f) in cg.fns.iter().enumerate() {
        for a in &f.acquires {
            acq[i].insert(lock_ids[a.lock.as_str()]);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for &(t, _) in &cg.callees[i] {
                let add: Vec<u32> = acq[t as usize].difference(&acq[i]).copied().collect();
                if !add.is_empty() {
                    acq[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    // 3. Build the lock-order graph with edge provenance (first sighting, in
    //    deterministic file order, wins).
    let mut g = Digraph::new(names.len());
    let mut prov: HashMap<(u32, u32), EdgeProv> = HashMap::new();
    for (i, f) in cg.fns.iter().enumerate() {
        if !analyzed(cg, i) {
            continue;
        }
        for a in &f.acquires {
            let to = lock_ids[a.lock.as_str()];
            for h in &a.held {
                let from = lock_ids[h.as_str()];
                if from == to {
                    continue; // re-acquisition is a different bug class
                }
                g.add_edge(from, to);
                prov.entry((from, to)).or_insert_with(|| EdgeProv {
                    func: i as u32,
                    line: a.line,
                    note: format!("{} acquires {} while holding {}", f.name, a.lock, h),
                });
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for &(t, line) in cg.callees[i].iter().filter(|&&(_, l)| l == call.line) {
                for &to in &acq[t as usize] {
                    for h in &call.held {
                        let from = lock_ids[h.as_str()];
                        if from == to {
                            continue;
                        }
                        g.add_edge(from, to);
                        prov.entry((from, to)).or_insert_with(|| EdgeProv {
                            func: i as u32,
                            line,
                            note: format!(
                                "{} calls {} (which acquires {}) while holding {}",
                                f.name, cg.fns[t as usize].name, names[to as usize], h
                            ),
                        });
                    }
                }
            }
        }
    }

    // 4. One finding per cycle, anchored at the first edge's provenance.
    for cycle in g.cycles() {
        let in_cycle = |v: u32| cycle.contains(&v);
        let mut edges: Vec<(&EdgeProv, (u32, u32))> = prov
            .iter()
            .filter(|&(&(a, b), _)| in_cycle(a) && in_cycle(b) && g.has_edge(a, b))
            .map(|(&e, p)| (p, e))
            .collect();
        edges.sort_by_key(|(p, _)| {
            (
                cg.file_of(p.func as usize).rel.clone(),
                p.line,
                p.note.clone(),
            )
        });
        let Some(&(anchor, _)) = edges.first() else {
            continue;
        };
        let locks: Vec<&str> = cycle.iter().map(|&v| names[v as usize]).collect();
        let chain: Vec<Hop> = edges
            .iter()
            .map(|(p, _)| {
                let mut h = hop(cg, p.func, p.line);
                h.func = p.note.clone();
                h
            })
            .collect();
        let file = cg.file_of(anchor.func as usize).rel.clone();
        out.push(Finding {
            rule: RULE_LOCK_ORDER,
            waived: cg.waived(anchor.func as usize, RULE_LOCK_ORDER, anchor.line),
            file,
            line: anchor.line,
            message: format!(
                "lock-order cycle between {{{}}} — inconsistent acquisition order can deadlock",
                locks.join(", ")
            ),
            chain,
        });
    }

    // 5. Blocking operations while a lock is held (intra-function), plus
    //    calls made with a lock held into functions that transitively block.
    let mut blocks_transitively = vec![false; n];
    for (i, f) in cg.fns.iter().enumerate() {
        blocks_transitively[i] = f.blocks.iter().any(|b| !b.lock_only);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if blocks_transitively[i] {
                continue;
            }
            if cg.callees[i]
                .iter()
                .any(|&(t, _)| blocks_transitively[t as usize])
            {
                blocks_transitively[i] = true;
                changed = true;
            }
        }
    }
    for (i, f) in cg.fns.iter().enumerate() {
        if !analyzed(cg, i) {
            continue;
        }
        for b in &f.blocks {
            if b.held.is_empty() {
                continue;
            }
            out.push(Finding {
                rule: RULE_LOCK_ORDER,
                file: cg.file_of(i).rel.clone(),
                line: b.line,
                message: format!(
                    "`{}` while holding {{{}}} — blocking with a lock held stalls every contender",
                    b.what,
                    b.held.join(", ")
                ),
                waived: cg.waived(i, RULE_LOCK_ORDER, b.line),
                chain: vec![hop(cg, i as u32, b.line)],
            });
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for &(t, line) in cg.callees[i].iter().filter(|&&(_, l)| l == call.line) {
                if !blocks_transitively[t as usize] {
                    continue;
                }
                out.push(Finding {
                    rule: RULE_LOCK_ORDER,
                    file: cg.file_of(i).rel.clone(),
                    line,
                    message: format!(
                        "call to `{}` (which can block) while holding {{{}}}",
                        cg.fns[t as usize].name,
                        call.held.join(", ")
                    ),
                    waived: cg.waived(i, RULE_LOCK_ORDER, line),
                    chain: vec![hop(cg, i as u32, line), hop(cg, t, cg.fns[t as usize].line)],
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pool-blocking
// ---------------------------------------------------------------------------

fn pool_blocking(cg: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<u32> = (0..cg.fns.len())
        .filter(|&i| cg.fns[i].job_root)
        .map(|i| i as u32)
        .collect();
    if roots.is_empty() {
        return;
    }
    // Reachability that refuses to traverse into the pool's own machinery:
    // `parallel_for`'s completion hand-off is the sanctioned parking spot.
    let mut g = fn_digraph(cg);
    let exempt = |f: u32| cg.file_of(f as usize).rel.ends_with("tensor/src/pool.rs");
    let mut filtered = Digraph::new(g.len());
    for v in 0..g.len() as u32 {
        if exempt(v) {
            continue;
        }
        for &w in g.successors(v) {
            if !exempt(w) {
                filtered.add_edge(v, w);
            }
        }
    }
    g = filtered;
    let parents = g.bfs_parents(&roots);
    for (i, f) in cg.fns.iter().enumerate() {
        if parents[i].is_none() || !analyzed(cg, i) {
            continue;
        }
        for b in &f.blocks {
            if b.lock_only {
                continue; // `send` only matters with a lock held (lock-order)
            }
            out.push(Finding {
                rule: RULE_POOL_BLOCK,
                file: cg.file_of(i).rel.clone(),
                line: b.line,
                message: format!(
                    "`{}` on a pool worker path — job bodies reachable from parallel_for must not block",
                    b.what
                ),
                waived: cg.waived(i, RULE_POOL_BLOCK, b.line),
                chain: fn_chain(cg, &parents, i as u32),
            });
        }
    }
}
