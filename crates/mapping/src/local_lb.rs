//! Local load balancing: pick servers within the chosen cluster.
//!
//! §2.2: "Next, it assigns server(s) within the chosen cluster, a process
//! called local load balancing." Following the companion paper's
//! algorithmic account, the implementation is *consistent hashing with
//! bounded loads*: content is hashed onto a ring of server virtual nodes
//! so that the same domain lands on the same few servers (maximizing cache
//! hit rate, which the paper lists as a mapping goal — "is likely to
//! contain the requested content"), while a load cap diverts overflow to
//! the next servers on the ring.

use eum_cdn::ServerId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// SplitMix64, used as the ring hash.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One virtual node on the ring.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Vnode {
    /// Ring position.
    pos: u64,
    server: ServerId,
    /// Steps back (counter-clockwise, wrapping) to the same server's
    /// previous vnode; the ring's length when this is its only one. A
    /// walk that has taken `i` steps has already met this vnode's server
    /// exactly when `back <= i` — which is how [`ConsistentRing::pick_into`]
    /// visits each server once without a seen-set.
    back: u32,
}

/// A consistent-hash ring over one cluster's servers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistentRing {
    /// Virtual nodes sorted by (position, server).
    ring: Vec<Vnode>,
    /// Distinct servers on the ring.
    n_servers: usize,
}

impl ConsistentRing {
    /// Builds a ring with `vnodes` virtual nodes per server.
    pub fn new(servers: &[ServerId], vnodes: usize) -> ConsistentRing {
        assert!(vnodes > 0, "need at least one vnode per server");
        let mut nodes = Vec::with_capacity(servers.len() * vnodes);
        for s in servers {
            for v in 0..vnodes {
                nodes.push((hash64((s.0 as u64) << 20 | v as u64), *s));
            }
        }
        nodes.sort_unstable();
        // Two laps: the first leaves every server's last vnode in `last`,
        // so the second measures each vnode's wrapped distance back.
        let len = nodes.len();
        let mut last: HashMap<ServerId, usize> = HashMap::new();
        for (j, (_, s)) in nodes.iter().enumerate() {
            last.insert(*s, j);
        }
        let mut ring = Vec::with_capacity(len);
        for (j, (pos, server)) in nodes.into_iter().enumerate() {
            let prev = last.insert(server, j).unwrap_or(j);
            // 1..=len: a lone vnode is a full lap behind itself.
            let back = (j + len - prev - 1) % len + 1;
            ring.push(Vnode {
                pos,
                server,
                back: back as u32,
            });
        }
        ConsistentRing {
            ring,
            n_servers: servers.len(),
        }
    }

    /// Number of distinct servers.
    pub fn servers(&self) -> usize {
        self.n_servers
    }

    /// Picks up to `n` distinct servers for a content key, walking
    /// clockwise from the key's ring position.
    ///
    /// `admit` filters candidates (liveness, bounded load): a server
    /// rejected by `admit` is skipped; if every server is rejected the
    /// walk falls back to ignoring the filter so requests are never
    /// dropped (overload beats outage).
    pub fn pick(&self, key: u64, n: usize, admit: impl FnMut(ServerId) -> bool) -> Vec<ServerId> {
        let mut out = vec![ServerId(0); n.min(self.n_servers)];
        let picked = self.pick_into(key, &mut out, admit);
        out.truncate(picked);
        out
    }

    /// [`ConsistentRing::pick`] into a caller-owned slice: fills `out`
    /// from the front with up to `out.len()` servers and returns how
    /// many. Allocation-free — the serve path picks into a stack array.
    pub fn pick_into(
        &self,
        key: u64,
        out: &mut [ServerId],
        mut admit: impl FnMut(ServerId) -> bool,
    ) -> usize {
        if out.is_empty() {
            return 0;
        }
        let h = hash64(key);
        let (before, from) = self.ring.split_at(self.ring.partition_point(|v| v.pos < h));
        // Each server once, in ring order from the key's position.
        let ring_order = || {
            from.iter()
                .chain(before)
                .enumerate()
                .filter(|(i, v)| v.back as usize > *i)
                .map(|(_, v)| v.server)
                .take(self.n_servers)
        };
        let mut n = 0;
        for s in ring_order().filter(|s| admit(*s)) {
            if let Some(slot) = out.get_mut(n) {
                *slot = s;
                n += 1;
            }
            if n == out.len() {
                return n;
            }
        }
        // Not enough admitted servers: top up from the skipped ones in
        // ring order rather than returning fewer.
        let admitted = n;
        for s in ring_order() {
            if out.iter().take(admitted).any(|a| *a == s) {
                continue;
            }
            let Some(slot) = out.get_mut(n) else {
                break;
            };
            *slot = s;
            n += 1;
        }
        n
    }

    /// The primary server for a key with no filtering.
    pub fn primary(&self, key: u64) -> Option<ServerId> {
        self.pick(key, 1, |_| true).first().copied()
    }
}

/// Hash key for a domain's content within a cluster: all objects of a
/// domain co-locate, so a domain's working set stays on its two servers.
pub fn domain_key(domain_idx: u32) -> u64 {
    hash64(0xD0_4A17 ^ (domain_idx as u64) << 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn picks_are_deterministic_and_distinct() {
        let ring = ConsistentRing::new(&servers(8), 64);
        let a = ring.pick(42, 3, |_| true);
        let b = ring.pick(42, 3, |_| true);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let set: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn single_server_ring() {
        let ring = ConsistentRing::new(&servers(1), 16);
        assert_eq!(ring.pick(7, 2, |_| true), vec![ServerId(0)]);
        assert_eq!(ring.primary(7), Some(ServerId(0)));
    }

    #[test]
    fn requesting_more_than_available_returns_all() {
        let ring = ConsistentRing::new(&servers(3), 16);
        let picked = ring.pick(1, 10, |_| true);
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn filter_skips_but_never_starves() {
        let ring = ConsistentRing::new(&servers(4), 32);
        let only_even = ring.pick(9, 2, |s| s.0 % 2 == 0);
        assert_eq!(only_even.len(), 2);
        assert!(only_even.iter().all(|s| s.0 % 2 == 0));
        // All rejected: fallback still returns servers.
        let none_admitted = ring.pick(9, 2, |_| false);
        assert_eq!(none_admitted.len(), 2);
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let ring = ConsistentRing::new(&servers(8), 128);
        let mut counts = [0usize; 8];
        for key in 0..8000u64 {
            let s = ring.primary(key).unwrap();
            counts[s.0 as usize] += 1;
        }
        let expect = 1000.0;
        for (i, c) in counts.iter().enumerate() {
            let dev = (*c as f64 - expect).abs() / expect;
            assert!(dev < 0.35, "server {i} got {c} keys ({dev:.2} deviation)");
        }
    }

    #[test]
    fn adding_a_server_moves_few_keys() {
        // The consistent-hashing property: going from 8 to 9 servers
        // should move roughly 1/9 of keys, not reshuffle everything.
        let r8 = ConsistentRing::new(&servers(8), 128);
        let r9 = ConsistentRing::new(&servers(9), 128);
        let moved = (0..4000u64)
            .filter(|k| {
                let a = r8.primary(*k).unwrap();
                let b = r9.primary(*k).unwrap();
                a != b
            })
            .count();
        let frac = moved as f64 / 4000.0;
        assert!(frac < 0.25, "moved {frac:.2} of keys");
        // And every moved key must have moved *to* the new server.
        for k in 0..4000u64 {
            let a = r8.primary(k).unwrap();
            let b = r9.primary(k).unwrap();
            if a != b {
                assert_eq!(b, ServerId(8), "key {k} moved to an old server");
            }
        }
    }

    #[test]
    fn bounded_load_diverts_overflow() {
        let ring = ConsistentRing::new(&servers(4), 64);
        // Simulate a load cap of 30 keys per server.
        let mut load = [0usize; 4];
        for key in 0..100u64 {
            let picked = ring.pick(key, 1, |s| load[s.0 as usize] < 30);
            let s = picked[0];
            load[s.0 as usize] += 1;
        }
        assert!(load.iter().all(|l| *l <= 30), "loads {load:?}");
        assert_eq!(load.iter().sum::<usize>(), 100);
    }

    #[test]
    fn domain_keys_spread() {
        let ring = ConsistentRing::new(&servers(6), 64);
        let set: std::collections::BTreeSet<_> = (0..50)
            .map(|d| ring.primary(domain_key(d)).unwrap())
            .collect();
        assert!(
            set.len() >= 4,
            "50 domains landed on only {} servers",
            set.len()
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// pick returns min(n, servers) distinct servers for any key.
        #[test]
        fn pick_count_and_distinctness(
            n_servers in 1u32..12,
            vnodes in 1usize..64,
            key in any::<u64>(),
            n in 0usize..15,
        ) {
            let ids: Vec<ServerId> = (0..n_servers).map(ServerId).collect();
            let ring = ConsistentRing::new(&ids, vnodes);
            let picked = ring.pick(key, n, |_| true);
            prop_assert_eq!(picked.len(), n.min(n_servers as usize));
            let set: std::collections::BTreeSet<_> = picked.iter().collect();
            prop_assert_eq!(set.len(), picked.len());
        }

        /// `pick_into` (each server once via the vnodes' back-distances)
        /// agrees with a plain seen-set walk under any admit mask, the
        /// all-rejected fallback included.
        #[test]
        fn pick_into_matches_seen_set_walk(
            n_servers in 1u32..12,
            vnodes in 1usize..32,
            key in any::<u64>(),
            n in 0usize..6,
            mask in any::<u16>(),
        ) {
            let ids: Vec<ServerId> = (0..n_servers).map(|i| ServerId(i * 7 + 3)).collect();
            let ring = ConsistentRing::new(&ids, vnodes);
            let admit = |s: ServerId| mask >> (s.0 % 16) & 1 == 1;
            let start = ring.ring.partition_point(|v| v.pos < hash64(key));
            let mut seen: Vec<ServerId> = Vec::new();
            for i in 0..ring.ring.len() {
                let s = ring.ring[(start + i) % ring.ring.len()].server;
                if !seen.contains(&s) {
                    seen.push(s);
                }
            }
            let mut want: Vec<ServerId> = seen.iter().copied().filter(|s| admit(*s)).collect();
            want.extend(seen.iter().copied().filter(|s| !admit(*s)));
            want.truncate(n);
            let mut out = [ServerId(0); 6];
            let picked = ring.pick_into(key, &mut out[..n], admit);
            prop_assert_eq!(&out[..picked], &want[..]);
        }

        /// The admit filter is honored whenever enough admitted servers exist.
        #[test]
        fn admit_filter_honored(key in any::<u64>()) {
            let ids: Vec<ServerId> = (0..10).map(ServerId).collect();
            let ring = ConsistentRing::new(&ids, 32);
            let picked = ring.pick(key, 3, |s| s.0 >= 5);
            prop_assert!(picked.iter().all(|s| s.0 >= 5));
        }
    }
}
