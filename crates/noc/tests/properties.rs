//! Property tests for the interconnect substrate, driven by a seeded PRNG
//! so every case is deterministic and replayable from its iteration index.

use mempool_noc::{ElasticBuffer, Fabric, Offer, RegFile};
use mempool_rng::{Rng, SeedableRng, StdRng};

/// An elastic buffer is a FIFO: any interleaving of pushes/pops/commits
/// preserves order and never loses or duplicates items.
#[test]
fn elastic_buffer_is_fifo() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xe1a5_7100 ^ case);
        let mut buf = ElasticBuffer::new(2);
        let mut reference: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut popped = Vec::new();
        let mut ref_popped = Vec::new();
        for _ in 0..rng.gen_range(1usize..200) {
            match rng.gen_range(0u8..3) {
                0 => {
                    if buf.can_push() {
                        buf.push(next);
                        reference.push(next);
                        next += 1;
                    }
                }
                1 => {
                    if let Some(v) = buf.pop() {
                        popped.push(v);
                        ref_popped.push(reference.remove(0));
                    }
                }
                _ => buf.commit(),
            }
        }
        assert_eq!(popped, ref_popped, "case {case}");
    }
}

/// A register file that commits only its dirty registers behaves exactly
/// like a plain row of elastic buffers that commits every register, under
/// any interleaving of pushes, pops, commits and out-of-band edits (stall
/// gates, fault drops, clears and checkpoint loads with staged arrivals).
/// After every step its occupancy counter equals the summed lengths.
#[test]
fn reg_file_matches_a_fully_committed_row() {
    const REGS: usize = 8;
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x4e6f_11e0 ^ case);
        let capacity = rng.gen_range(1usize..4);
        let mut file: RegFile<u32> = RegFile::new(REGS, capacity);
        let mut model: Vec<ElasticBuffer<u32>> =
            (0..REGS).map(|_| ElasticBuffer::new(capacity)).collect();
        let mut next = 0u32;
        for step in 0..rng.gen_range(1usize..400) {
            let i = rng.gen_range(0..REGS);
            match rng.gen_range(0u8..8) {
                0 | 1 => {
                    assert_eq!(file[i].can_push(), model[i].can_push(), "case {case} step {step}");
                    if model[i].can_push() {
                        file.push(i, next);
                        model[i].push(next);
                        next += 1;
                    }
                }
                2 | 3 => assert_eq!(file.pop(i), model[i].pop(), "case {case} step {step}"),
                4 => {
                    file.commit();
                    model.iter_mut().for_each(ElasticBuffer::commit);
                }
                5 => {
                    let stalled = rng.gen::<bool>();
                    file.edit(|regs| regs[i].set_stalled(stalled));
                    model[i].set_stalled(stalled);
                }
                6 => {
                    if rng.gen::<bool>() {
                        let dropped = file.edit(|regs| regs[i].drop_head());
                        assert_eq!(dropped, model[i].drop_head(), "case {case} step {step}");
                    } else {
                        file.edit(|regs| regs[i].clear());
                        model[i].clear();
                    }
                }
                _ => {
                    let stored_n = rng.gen_range(0..capacity + 1);
                    let arrivals_n = rng.gen_range(0..capacity - stored_n + 1);
                    let stored: Vec<u32> = (next..next + stored_n as u32).collect();
                    next += stored_n as u32;
                    let arrivals: Vec<u32> = (next..next + arrivals_n as u32).collect();
                    next += arrivals_n as u32;
                    let stalled = rng.gen::<bool>();
                    file.edit(|regs| regs[i].load(stored.clone(), arrivals.clone(), stalled));
                    model[i].load(stored, arrivals, stalled);
                }
            }
            let lens: usize = file.regs().iter().map(ElasticBuffer::len).sum();
            assert_eq!(file.occupied(), lens, "case {case} step {step}: counter drifted");
            assert_eq!(file.is_idle(), lens == 0, "case {case} step {step}");
            assert_eq!(file.slots(), REGS * capacity);
            for (r, (got, want)) in file.regs().iter().zip(&model).enumerate() {
                let at = format!("case {case} step {step} reg {r}");
                assert_eq!(got.head(), want.head(), "{at}: head");
                assert_eq!(got.is_stalled(), want.is_stalled(), "{at}: stall gate");
                assert_eq!(got.pushes(), want.pushes(), "{at}: push counter");
                assert!(got.iter().eq(want.iter()), "{at}: stored items");
                assert!(
                    got.iter_arrivals().eq(want.iter_arrivals()),
                    "{at}: staged arrivals"
                );
            }
        }
    }
}

/// Fabric conservation: over any random offered pattern, each committed
/// packet lands on its own output port and no two committed packets share
/// an output.
#[test]
fn fabric_grants_are_conflict_free() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xfab1_c000 ^ case);
        let mut net = Fabric::butterfly(64, 4).unwrap();
        let mut offers: Vec<Offer> = Vec::new();
        for input in 0..64 {
            if rng.gen::<bool>() {
                offers.push(Offer {
                    input,
                    dest: rng.gen_range(0usize..64),
                });
            }
        }
        net.resolve(&offers, &mut |_| true);
        let mut used = [false; 64];
        for (offer, &g) in offers.iter().zip(net.granted()) {
            if g {
                let port = net.output_port(offer.input, offer.dest);
                assert_eq!(port, offer.dest, "case {case}");
                assert!(!used[port], "case {case}: two grants on output {port}");
                used[port] = true;
            }
        }
    }
}

/// Work conservation on a crossbar: if all offered destinations are
/// distinct and ready, every offer commits (full crossbars are
/// non-blocking).
#[test]
fn crossbar_is_non_blocking() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xc105_5ba2 ^ case);
        // Random subsequence of the destinations 0..16, offered in order
        // from consecutive inputs: all distinct by construction.
        let perm: Vec<usize> = (0..16usize).filter(|_| rng.gen::<bool>()).collect();
        if perm.is_empty() {
            continue;
        }
        let mut xbar = Fabric::crossbar(16, 16).unwrap();
        let offers: Vec<Offer> = perm
            .iter()
            .enumerate()
            .map(|(input, &dest)| Offer { input, dest })
            .collect();
        let granted = xbar.resolve(&offers, &mut |_| true);
        assert!(granted.iter().all(|&g| g), "case {case}");
    }
}

/// At most one packet per contended destination commits per cycle, and at
/// least one does when terminals are ready (the fabric never deadlocks an
/// uncontended resource).
#[test]
fn contended_output_progress() {
    for n in 2usize..16 {
        let mut net = Fabric::butterfly(16, 4).unwrap();
        let offers: Vec<Offer> = (0..n).map(|input| Offer { input, dest: 7 }).collect();
        let granted = net.resolve(&offers, &mut |_| true);
        assert_eq!(granted.iter().filter(|&&g| g).count(), 1, "{n} contenders");
    }
}

/// Butterfly segments compose to the full network for random splits.
#[test]
fn butterfly_split_composes() {
    let mut rng = StdRng::seed_from_u64(0x5e99_9e57);
    for case in 0..128 {
        let split = rng.gen_range(1usize..3);
        let src = rng.gen_range(0usize..64);
        let dest = rng.gen_range(0usize..64);
        let seg_a = Fabric::butterfly_segment(64, 4, 0, split).unwrap();
        let seg_b = Fabric::butterfly_segment(64, 4, split, 3).unwrap();
        let full = Fabric::butterfly(64, 4).unwrap();
        let mid = seg_a.output_port(src, dest);
        assert_eq!(seg_b.output_port(mid, dest), dest, "case {case}");
        assert_eq!(full.output_port(src, dest), dest, "case {case}");
    }
}

/// Long-run fairness: every input contending for one hot output gets served
/// within a bounded number of cycles (round-robin, non-starving).
#[test]
fn hot_spot_fairness() {
    let mut net = Fabric::butterfly(16, 4).unwrap();
    let mut wins = [0u32; 16];
    // All inputs contend for output 3 every cycle.
    let offers: Vec<Offer> = (0..16).map(|input| Offer { input, dest: 3 }).collect();
    for _ in 0..160 {
        let granted = net.resolve(&offers, &mut |_| true);
        for (o, g) in offers.iter().zip(granted) {
            if *g {
                wins[o.input] += 1;
            }
        }
    }
    // 160 grants over 16 inputs: round-robin at each layer gives each input
    // a bounded share; nobody is starved and nobody hogs.
    assert_eq!(wins.iter().sum::<u32>(), 160);
    for (input, &w) in wins.iter().enumerate() {
        assert!(w >= 5, "input {input} starved: {wins:?}");
        assert!(w <= 20, "input {input} hogged: {wins:?}");
    }
}

/// Bounded wait: an input that keeps requesting the same destination is
/// served within (number of contenders) grants of that output, no matter
/// what the other inputs do — round-robin starvation freedom.
#[test]
fn fabric_bounded_wait() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xb0b0_0000 ^ case);
        let mut net = Fabric::butterfly(16, 4).unwrap();
        // Input 0 persistently wants destination 5; others are random.
        let mut offers: Vec<Offer> = vec![Offer { input: 0, dest: 5 }];
        for input in 1..16 {
            offers.push(Offer {
                input,
                dest: rng.gen_range(0usize..16),
            });
        }
        let mut waited = 0;
        loop {
            let granted = net.resolve(&offers, &mut |_| true);
            if granted[0] {
                break;
            }
            waited += 1;
            assert!(
                waited <= 32,
                "case {case}: input 0 starved for {waited} cycles"
            );
        }
    }
}
