//! A hierarchical timer wheel for TTL expiry.
//!
//! A recursive resolver holds entries whose TTLs span four orders of
//! magnitude — seconds for end-user A records, hours for delegations —
//! and must expire them without scanning the whole cache. The classic
//! answer (Varghese & Lauck) is a hierarchy of circular slot arrays:
//!
//! * **Level 0**: [`SLOTS0`] slots of 1 s each — entries due within the
//!   next ~4 minutes sit in the exact second they expire.
//! * **Level 1**: [`SLOTS1`] slots of [`SLOTS0`] s each — entries due
//!   within ~4.5 h wait here and *cascade* down to level 0 when the
//!   cursor enters their window.
//! * **Overflow**: everything further out, re-distributed each time the
//!   cursor wraps a full level-1 revolution.
//!
//! [`TimerWheel::advance`] moves the cursor from the last processed
//! second to `now`, draining due slots into a caller-owned scratch
//! vector. Occupancy bitmaps (one bit per slot: four words for level 0,
//! one for level 1) let it jump straight to the next armed level-0 slot,
//! the next level-1 window holding entries, or the next revolution when
//! the overflow list is non-empty — whichever comes first — instead of
//! visiting every second. Cost is O(occupied slots and cascades passed +
//! expired entries), independent of both idle time and live entry count,
//! and the entries fire in exactly the order a second-by-second walk
//! fires them. Deadlines round *up* to the next tick, so the wheel
//! never reports an entry expired before its deadline — the cache
//! double-checks real expiry anyway (stale answers must never leave the
//! resolver, RFC 2308 §2).

use std::time::{Duration, Instant};

/// Level-0 slot count (1 s granularity).
pub const SLOTS0: u64 = 256;
/// Level-1 slot count (each [`SLOTS0`] s wide).
pub const SLOTS1: u64 = 64;
/// One full level-1 revolution, seconds.
const REVOLUTION: u64 = SLOTS0 * SLOTS1;

/// A two-level hierarchical timer wheel over an [`Instant`] epoch.
#[derive(Debug)]
pub struct TimerWheel<T> {
    epoch: Instant,
    /// The next tick (second since `epoch`) not yet processed.
    cursor: u64,
    l0: Vec<Vec<T>>,
    l1: Vec<Vec<(u64, T)>>,
    /// Bit `s` set iff `l0[s]` is non-empty.
    occ0: [u64; 4],
    /// Bit `s` set iff `l1[s]` is non-empty.
    occ1: u64,
    overflow: Vec<(u64, T)>,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel whose tick 0 is `epoch`.
    pub fn new(epoch: Instant) -> TimerWheel<T> {
        TimerWheel {
            epoch,
            cursor: 0,
            l0: (0..SLOTS0).map(|_| Vec::new()).collect(),
            l1: (0..SLOTS1).map(|_| Vec::new()).collect(),
            occ0: [0; 4],
            occ1: 0,
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Entries currently armed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the wheel holds, from its slot vectors' capacities. Not
    /// for the serve path: it visits all 320 slots.
    pub fn footprint_bytes(&self) -> usize {
        let l0: usize = self.l0.iter().map(|s| s.capacity() * size_of::<T>()).sum();
        let l1: usize = self.l1.iter().map(|s| s.capacity()).sum();
        (self.l0.capacity() + self.l1.capacity()) * size_of::<Vec<T>>()
            + l0
            + (l1 + self.overflow.capacity()) * size_of::<(u64, T)>()
    }

    /// The tick a deadline lands on: seconds since epoch, rounded up so
    /// the wheel fires at or after the deadline, never before.
    fn tick_of(&self, deadline: Instant) -> u64 {
        let since = deadline.saturating_duration_since(self.epoch);
        let mut tick = since.as_secs();
        if since > Duration::from_secs(tick) {
            tick += 1;
        }
        tick
    }

    /// Arms `item` to fire at `deadline` (clamped to the next advance
    /// when already past).
    pub fn insert(&mut self, deadline: Instant, item: T) {
        let tick = self.tick_of(deadline).max(self.cursor);
        self.place(tick, item);
        self.len += 1;
    }

    /// Files an item into the level holding its tick. `tick` must be
    /// `>= self.cursor`.
    fn place(&mut self, tick: u64, item: T) {
        let horizon = tick - self.cursor;
        if horizon < SLOTS0 {
            let slot = (tick % SLOTS0) as usize;
            // lint: allow(serve-index) — slot index is modulo the vec length fixed at construction
            self.l0[slot].push(item);
            // lint: allow(serve-index) — slot / 64 < 4 because SLOTS0 = 256
            self.occ0[slot / 64] |= 1 << (slot % 64);
        } else if horizon < REVOLUTION {
            let slot = ((tick / SLOTS0) % SLOTS1) as usize;
            // lint: allow(serve-index) — slot index is modulo the vec length fixed at construction
            self.l1[slot].push((tick, item));
            self.occ1 |= 1 << slot;
        } else {
            self.overflow.push((tick, item));
        }
    }

    /// Moves the cursor up to `now`, draining every due entry into
    /// `expired` (a caller-owned scratch vector, reused across calls so
    /// steady-state advances allocate nothing). Returns how many entries
    /// fired.
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<T>) -> usize {
        let before = expired.len();
        let now_tick = now.saturating_duration_since(self.epoch).as_secs();
        while self.cursor <= now_tick {
            let tick = self.next_event();
            if tick > now_tick {
                break;
            }
            self.cursor = tick;
            if tick.is_multiple_of(SLOTS0) {
                // Entering a new level-1 window: cascade its slot down.
                let slot = ((tick / SLOTS0) % SLOTS1) as usize;
                if self.occ1 & 1 << slot != 0 {
                    self.occ1 &= !(1 << slot);
                    // lint: allow(serve-index) — slot index is modulo the vec length fixed at construction
                    let pending = std::mem::take(&mut self.l1[slot]);
                    for (t, item) in pending {
                        self.place(t.max(tick), item);
                    }
                }
                if tick.is_multiple_of(REVOLUTION) && !self.overflow.is_empty() {
                    let far = std::mem::take(&mut self.overflow);
                    for (t, item) in far {
                        self.place(t.max(tick), item);
                    }
                }
            }
            let slot = (tick % SLOTS0) as usize;
            // lint: allow(serve-index) — slot / 64 < 4 because SLOTS0 = 256
            self.occ0[slot / 64] &= !(1 << (slot % 64));
            // lint: allow(serve-index) — slot index is modulo the vec length fixed at construction
            expired.append(&mut self.l0[slot]);
            self.cursor = tick + 1;
        }
        self.cursor = self.cursor.max(now_tick.saturating_add(1));
        let fired = expired.len() - before;
        self.len -= fired;
        fired
    }

    /// The next tick `>= cursor` to visit: the first at which a
    /// second-by-second walk would drain an armed level-0 slot, cascade a
    /// non-empty level-1 slot or redistribute a non-empty overflow list,
    /// or the cursor itself when it sits on a boundary (visiting a tick
    /// with nothing due is a no-op). `u64::MAX` when nothing is armed.
    fn next_event(&self) -> u64 {
        // Level 0 holds ticks in [cursor, cursor + SLOTS0), one per slot:
        // the first armed slot at or after the cursor's, circularly. The
        // cursor's own slot, or a boundary (where visiting an empty
        // level-1 slot is a no-op), is the common short step.
        let c0 = (self.cursor % SLOTS0) as usize;
        let (w, b) = (c0 / 64, c0 % 64);
        // lint: allow(serve-index) — w < 4 because SLOTS0 = 256
        if c0 == 0 || self.occ0[w] >> b & 1 == 1 {
            return self.cursor;
        }
        let mut next = u64::MAX;
        for i in 0..=4 {
            // lint: allow(serve-index) — the word index is taken modulo 4
            let mut bits = self.occ0[(w + i) % 4];
            if i == 0 {
                bits &= !0 << b;
            } else if i == 4 {
                bits &= !(!0 << b);
            }
            if bits != 0 {
                let slot = ((w + i) % 4) * 64 + bits.trailing_zeros() as usize;
                next = self.cursor + ((slot + SLOTS0 as usize - c0) % SLOTS0 as usize) as u64;
                break;
            }
        }
        // Level 1 holds the SLOTS1 windows starting at the next boundary,
        // one per slot: the first non-empty one, circularly.
        let boundary = self.cursor.next_multiple_of(SLOTS0);
        let rotated = self
            .occ1
            .rotate_right(((boundary / SLOTS0) % SLOTS1) as u32);
        if rotated != 0 {
            next = next.min(boundary + SLOTS0 * u64::from(rotated.trailing_zeros()));
        }
        if !self.overflow.is_empty() {
            next = next.min(self.cursor.next_multiple_of(REVOLUTION));
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> (TimerWheel<u32>, Instant) {
        let epoch = Instant::now();
        (TimerWheel::new(epoch), epoch)
    }

    fn at(epoch: Instant, s: u64) -> Instant {
        epoch + Duration::from_secs(s)
    }

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let (mut w, t0) = wheel();
        w.insert(at(t0, 10), 1);
        let mut out = Vec::new();
        assert_eq!(w.advance(at(t0, 9), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(w.advance(at(t0, 10), &mut out), 1);
        assert_eq!(out, vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn subsecond_deadlines_round_up() {
        let (mut w, t0) = wheel();
        w.insert(t0 + Duration::from_millis(1500), 7);
        let mut out = Vec::new();
        // 1.5 s rounds up to tick 2: not due at t=1.
        w.advance(at(t0, 1), &mut out);
        assert!(out.is_empty());
        w.advance(at(t0, 2), &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn level1_entries_cascade_to_the_right_second() {
        let (mut w, t0) = wheel();
        // Past level 0's horizon: lands in level 1, then cascades.
        w.insert(at(t0, 300), 42);
        w.insert(at(t0, 301), 43);
        let mut out = Vec::new();
        w.advance(at(t0, 299), &mut out);
        assert!(out.is_empty());
        w.advance(at(t0, 300), &mut out);
        assert_eq!(out, vec![42]);
        w.advance(at(t0, 301), &mut out);
        assert_eq!(out, vec![42, 43]);
    }

    #[test]
    fn overflow_entries_survive_revolutions() {
        let (mut w, t0) = wheel();
        let far = REVOLUTION + 77; // ~4.5 h out
        w.insert(at(t0, far), 9);
        let mut out = Vec::new();
        w.advance(at(t0, far - 1), &mut out);
        assert!(out.is_empty());
        w.advance(at(t0, far), &mut out);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let (mut w, t0) = wheel();
        let mut out = Vec::new();
        w.advance(at(t0, 50), &mut out);
        // Deadline in the already-processed past: clamped to the next
        // unprocessed tick, so it fires as soon as time moves again.
        w.insert(at(t0, 10), 5);
        w.advance(at(t0, 51), &mut out);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn dense_spread_all_fire_exactly_once() {
        let (mut w, t0) = wheel();
        for i in 0..2_000u32 {
            // Deadlines spread over ~33 min, crossing many cascades.
            w.insert(at(t0, (i as u64 * 7919) % 2_000), i);
        }
        assert_eq!(w.len(), 2_000);
        let mut out = Vec::new();
        let mut fired = 0;
        for step in (0..=2_000u64).step_by(13) {
            fired += w.advance(at(t0, step), &mut out);
        }
        fired += w.advance(at(t0, 2_000), &mut out);
        assert_eq!(fired, 2_000);
        let mut seen = out.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2_000, "every entry fires exactly once");
        assert!(w.is_empty());
    }

    /// The second-by-second walk the occupancy bitmaps replaced: the
    /// firing-order oracle.
    fn advance_every_tick(w: &mut TimerWheel<u32>, now: Instant, expired: &mut Vec<u32>) {
        let now_tick = now.saturating_duration_since(w.epoch).as_secs();
        while w.cursor <= now_tick {
            let tick = w.cursor;
            if tick.is_multiple_of(SLOTS0) {
                let pending = std::mem::take(&mut w.l1[((tick / SLOTS0) % SLOTS1) as usize]);
                for (t, item) in pending {
                    w.place(t.max(tick), item);
                }
                if tick.is_multiple_of(REVOLUTION) && !w.overflow.is_empty() {
                    let far = std::mem::take(&mut w.overflow);
                    for (t, item) in far {
                        w.place(t.max(tick), item);
                    }
                }
            }
            expired.append(&mut w.l0[(tick % SLOTS0) as usize]);
            w.cursor += 1;
        }
    }

    proptest::proptest! {
        /// Against a `BTreeMap` of due ticks and the tick-by-tick walk:
        /// random deadlines up to two days out, sub-second offsets and
        /// idle jumps of up to three days. Every entry fires at the first
        /// advance at or past its (rounded-up) deadline, and in the walk's
        /// order.
        #[test]
        fn jumps_fire_as_a_model_and_in_tick_walk_order(
            ops in proptest::collection::vec(
                (0u8..3, 0u64..2 * 86_400, 0u64..1000, 1u64..4),
                1..120,
            ),
        ) {
            let epoch = Instant::now();
            let mut wheel = TimerWheel::new(epoch);
            let mut oracle = TimerWheel::new(epoch);
            let mut model: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
            let (mut now, mut processed) = (Duration::ZERO, 0u64);
            let (mut out, mut want) = (Vec::new(), Vec::new());
            for (i, (kind, secs, millis, scale)) in ops.into_iter().enumerate() {
                let step = Duration::from_secs(secs) + Duration::from_millis(millis);
                if kind == 0 {
                    // Idle for up to three days.
                    now += Duration::from_secs(secs % 86_400 * scale);
                    let tick = now.as_secs();
                    out.clear();
                    want.clear();
                    let fired = wheel.advance(epoch + now, &mut out);
                    advance_every_tick(&mut oracle, epoch + now, &mut want);
                    proptest::prop_assert_eq!(fired, out.len());
                    proptest::prop_assert_eq!(&out, &want);
                    let mut due: Vec<u32> = Vec::new();
                    while model.first_key_value().is_some_and(|(t, _)| *t <= tick) {
                        due.extend(model.pop_first().unwrap().1);
                    }
                    let mut got = out.clone();
                    got.sort_unstable();
                    due.sort_unstable();
                    proptest::prop_assert_eq!(got, due);
                    processed = processed.max(tick + 1);
                } else {
                    let deadline = (now + step / scale as u32).saturating_sub(Duration::from_secs(60));
                    wheel.insert(epoch + deadline, i as u32);
                    oracle.insert(epoch + deadline, i as u32);
                    let tick = wheel.tick_of(epoch + deadline).max(processed);
                    model.entry(tick).or_default().push(i as u32);
                }
                proptest::prop_assert_eq!(wheel.len(), model.values().map(Vec::len).sum::<usize>());
            }
        }
    }
}
