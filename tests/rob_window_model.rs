//! Model check of the ROB-ordered in-flight window against a `BTreeMap`.
//!
//! Random traces drive the window the way the engine does: dispatch
//! allocates ascending ids (with gaps, as when the engine skips
//! instructions), execute writes land out of order, commit frees the
//! oldest entry and a squash the youngest few. Inserts of fresh ids in
//! the middle (a module latching state at execute) and lookups of ids
//! the window never held (an engine attached mid-run) are mixed in, and
//! so are squash gaps of 2^40 ids, which leave the small ids of the
//! other ops far below the live ones.
//! After every step the window must agree with the reference map on
//! length, every lookup, and in-order iteration; a new id offered to a
//! full window must be refused and leave it unchanged.

use rse::core::RobWindow;
use rse::pipeline::RobId;
use rse_support::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum Op {
    Dispatch { gap: u64, value: u32 },
    Execute { pick: usize, value: u32 },
    InsertAnywhere { id: u64, value: u32 },
    CommitOldest,
    SquashYoungest { count: usize },
    Lookup { id: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..7, 0u64..64, any::<u32>()).prop_map(|(kind, arg, value)| match kind {
        0 => Op::Dispatch {
            gap: arg % 3,
            value,
        },
        1 => Op::Execute {
            pick: arg as usize,
            value,
        },
        2 => Op::InsertAnywhere { id: arg, value },
        3 => Op::CommitOldest,
        4 => Op::SquashYoungest {
            count: 1 + arg as usize % 4,
        },
        5 => Op::Lookup { id: arg },
        _ => Op::Dispatch {
            gap: 1 << 40,
            value,
        },
    })
}

fn assert_agrees(w: &RobWindow<u32>, model: &BTreeMap<u64, u32>, probe: u64) {
    assert_eq!(w.len(), model.len());
    assert_eq!(w.is_empty(), model.is_empty());
    let got: Vec<(u64, u32)> = w.iter().map(|(r, v)| (r.0, *v)).collect();
    let want: Vec<(u64, u32)> = model.iter().map(|(r, v)| (*r, *v)).collect();
    assert_eq!(got, want, "iteration is not in ROB order");
    for (&rob, v) in model {
        assert_eq!(w.get(RobId(rob)), Some(v));
    }
    assert_eq!(w.get(RobId(probe)), model.get(&probe));
    assert_eq!(w.contains(RobId(probe)), model.contains_key(&probe));
}

proptest! {
    #[test]
    fn window_matches_btreemap_reference(
        limit in 1usize..17,
        ops in rse_support::collection::vec(op_strategy(), 1..200),
    ) {
        let mut w: RobWindow<u32> = RobWindow::new(limit);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut next_id = 0u64;
        for op in ops {
            let mut probe = next_id + 1;
            match op {
                Op::Dispatch { gap, value } => {
                    // Dispatch ids ascend past every live id.
                    let youngest = model.last_key_value().map_or(0, |(&r, _)| r + 1);
                    let rob = next_id.max(youngest) + gap;
                    next_id = rob + 1;
                    if model.len() < limit {
                        prop_assert_eq!(w.try_insert(RobId(rob), value), Ok(None));
                        model.insert(rob, value);
                    } else {
                        prop_assert_eq!(w.try_insert(RobId(rob), value), Err(value));
                    }
                    probe = rob;
                }
                Op::Execute { pick, value } => {
                    if let Some(&rob) = model.keys().nth(pick % model.len().max(1)) {
                        let old = model.insert(rob, value);
                        prop_assert_eq!(w.insert(RobId(rob), value), old);
                        probe = rob;
                    }
                }
                Op::InsertAnywhere { id, value } => {
                    if model.contains_key(&id) || model.len() < limit {
                        let old = model.insert(id, value);
                        prop_assert_eq!(w.try_insert(RobId(id), value), Ok(old));
                    } else {
                        prop_assert_eq!(w.try_insert(RobId(id), value), Err(value));
                    }
                    probe = id;
                }
                Op::CommitOldest => {
                    if let Some((rob, v)) = model.pop_first() {
                        prop_assert_eq!(w.remove(RobId(rob)), Some(v));
                        probe = rob;
                    }
                }
                Op::SquashYoungest { count } => {
                    for _ in 0..count {
                        if let Some((rob, v)) = model.pop_last() {
                            prop_assert_eq!(w.remove(RobId(rob)), Some(v));
                            probe = rob;
                        }
                    }
                }
                Op::Lookup { id } => {
                    // Removing an id the window never held is a miss too.
                    if !model.contains_key(&id) {
                        prop_assert_eq!(w.remove(RobId(id)), None);
                    }
                    probe = id;
                }
            }
            assert_agrees(&w, &model, probe);
        }
    }
}

#[test]
fn unbounded_window_never_refuses() {
    let mut w = RobWindow::unbounded(2);
    for i in (0..100).rev() {
        assert_eq!(w.try_insert(RobId(i), i), Ok(None));
    }
    assert_eq!(w.len(), 100);
    assert!(w.iter().map(|(r, _)| r.0).eq(0..100));
}

#[test]
#[should_panic(expected = "RobWindow overflow")]
fn insert_into_a_full_window_panics() {
    let mut w = RobWindow::new(16);
    for i in 0..17 {
        w.insert(RobId(i), ());
    }
}

/// Drives `w` and `model` with the same insert.
fn insert_both(w: &mut RobWindow<u32>, model: &mut BTreeMap<u64, u32>, id: u64, value: u32) {
    assert_eq!(w.insert(RobId(id), value), model.insert(id, value));
}

/// Drives `w` and `model` with the same remove.
fn remove_both(w: &mut RobWindow<u32>, model: &mut BTreeMap<u64, u32>, id: u64) {
    assert_eq!(w.remove(RobId(id)), model.remove(&id));
}

/// A reused engine: the stale entries of an earlier run stay near id
/// 10^6, never freed, while the new pipeline's ids restart at 0. The new
/// run commits, squashes and writes out of order far below the oldest
/// live id, and then grows into the stale ids.
#[test]
fn restarted_ids_far_below_stale_entries() {
    let mut w = RobWindow::unbounded(16);
    let mut model = BTreeMap::new();
    for id in 1_000_000..1_000_012 {
        insert_both(&mut w, &mut model, id, id as u32);
    }
    // Then the new run jumps to just below the stale ids and grows into
    // them, leaving its own last entries behind near 2,000.
    for id in (0..2_000).chain(999_990..1_000_030) {
        if model.contains_key(&id) {
            // A stale id: the new run overwrites it.
            insert_both(&mut w, &mut model, id, 7);
            continue;
        }
        insert_both(&mut w, &mut model, id, id as u32 ^ 1);
        if id % 7 == 3 {
            // Squash the youngest.
            remove_both(&mut w, &mut model, id);
        }
        if id >= 5 {
            // An out-of-order write to an older id, then commit the oldest.
            insert_both(&mut w, &mut model, id - 2, 9);
            remove_both(&mut w, &mut model, id - 5);
        }
        assert_agrees(&w, &model, id + 1);
    }
    assert_agrees(&w, &model, 0);
}

/// A squash gap of 2^40 ids between two live runs of entries: commit at
/// the old end, dispatch and squash at the young end, execute writes to
/// both. The window neither walks nor stores the gap.
#[test]
fn squash_gap_of_two_to_the_fortieth() {
    const GAP: u64 = 1 << 40;
    let mut w = RobWindow::new(16);
    let mut model = BTreeMap::new();
    for id in 100..108 {
        insert_both(&mut w, &mut model, id, id as u32);
    }
    for id in GAP..GAP + 6 {
        insert_both(&mut w, &mut model, id, id as u32);
    }
    assert_agrees(&w, &model, GAP / 2);
    for round in 0..8u64 {
        let old = 100 + round;
        insert_both(&mut w, &mut model, old, 1);
        remove_both(&mut w, &mut model, old);
        let young = GAP + 6 + round;
        insert_both(&mut w, &mut model, young, 2);
        insert_both(&mut w, &mut model, young - 3, 3);
        assert_agrees(&w, &model, young + 1);
    }
    // A second gap below the first: an execute write into a fresh id.
    insert_both(&mut w, &mut model, 50, 4);
    assert_agrees(&w, &model, 51);
    for id in [GAP + 13, GAP + 12, 50] {
        remove_both(&mut w, &mut model, id);
        assert_agrees(&w, &model, id);
    }
}
