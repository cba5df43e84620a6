//! Seeded query streams. `--seed` decides every shape the program under
//! test sees and the order it sees them in; nothing else about a run
//! depends on it.
//!
//! A *shape* is what makes two queries different to the server: the
//! catalog name asked for and the client /24 carried in ECS (or no ECS).
//! Wire bytes come from per-name templates with the DNS id and the three
//! ECS address bytes patched in, so generating a query never allocates
//! and never touches `eum-dns`'s encoder on the timed path.

use eum_cdn::ContentCatalog;
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{encode_message, Message, Question};
use eum_mapping::MappingSystem;
use eum_netmodel::{BlockId, Internet, QueryPopulation, ResolverId};
use rand::RngCore;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// SplitMix64: a tiny, fast, seedable generator — enough for choosing
/// shapes, and cheap enough to run inside a 120-ns operation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from other uses of the same seed
    /// by `salt`.
    pub fn new(seed: u64, salt: u64) -> SplitMix64 {
        let mut s = SplitMix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// Uniform in `0..n` (`n > 0`).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One query shape: catalog name index and the client /24 sent in ECS
/// (`None`: a query without ECS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    pub name: u16,
    pub block: Option<[u8; 3]>,
}

impl Shape {
    pub fn ecs(name: u16, client: Ipv4Addr) -> Shape {
        let o = client.octets();
        Shape {
            name,
            block: Some([o[0], o[1], o[2]]),
        }
    }

    /// The /24's network address, when the shape carries ECS.
    pub fn client(&self) -> Option<Ipv4Addr> {
        self.block.map(|b| Ipv4Addr::new(b[0], b[1], b[2], 0))
    }
}

/// Largest query any template produces; send slots are this wide.
pub const MAX_QUERY: usize = 128;

/// Per-name wire templates.
pub struct Templates {
    plain: Vec<Vec<u8>>,
    ecs: Vec<Vec<u8>>,
    /// Offset of the three ECS address bytes in each `ecs` template.
    ecs_off: Vec<usize>,
}

impl Templates {
    /// Encodes every catalog name once, with and without a /24 ECS
    /// option. The address offset is found by encoding two addresses and
    /// diffing, so it follows whatever layout `eum-dns` emits.
    pub fn build(catalog: &ContentCatalog) -> Templates {
        let mut t = Templates {
            plain: Vec::new(),
            ecs: Vec::new(),
            ecs_off: Vec::new(),
        };
        for d in &catalog.domains {
            let with = |addr: Ipv4Addr| {
                encode_message(&Message::query(
                    0,
                    Question::a(d.cdn_name.clone()),
                    Some(OptData::with_ecs(EcsOption::query(addr, 24))),
                ))
            };
            let a = with(Ipv4Addr::new(1, 2, 3, 0));
            let b = with(Ipv4Addr::new(254, 253, 252, 0));
            let off = a
                .iter()
                .zip(&b)
                .position(|(x, y)| x != y)
                .expect("ECS address is on the wire");
            assert_eq!(a.len(), b.len());
            assert_eq!(&a[off..off + 3], &[1, 2, 3]);
            assert!(a.len() <= MAX_QUERY, "template longer than a send slot");
            t.ecs.push(a);
            t.ecs_off.push(off);
            t.plain.push(encode_message(&Message::query(
                0,
                Question::a(d.cdn_name.clone()),
                None,
            )));
        }
        t
    }

    /// Number of names.
    pub fn names(&self) -> usize {
        self.plain.len()
    }

    /// Writes `shape`'s query with DNS id `id` into `out` (at least
    /// [`MAX_QUERY`] bytes) and returns its length.
    #[inline]
    pub fn write(&self, shape: Shape, id: u16, out: &mut [u8]) -> usize {
        let n = shape.name as usize;
        let len = match shape.block {
            Some(b) => {
                let t = &self.ecs[n];
                out[..t.len()].copy_from_slice(t);
                let off = self.ecs_off[n];
                out[off..off + 3].copy_from_slice(&b);
                t.len()
            }
            None => {
                let t = &self.plain[n];
                out[..t.len()].copy_from_slice(t);
                t.len()
            }
        };
        out[0] = (id >> 8) as u8;
        out[1] = id as u8;
        len
    }

    /// [`Templates::write`] into a fresh vector.
    pub fn to_vec(&self, shape: Shape, id: u16) -> Vec<u8> {
        let mut buf = [0u8; MAX_QUERY];
        let n = self.write(shape, id, &mut buf);
        buf[..n].to_vec()
    }
}

/// A source of shapes, one per operation.
pub trait ShapeStream {
    fn next_shape(&mut self) -> Shape;
}

/// `auth_hot`/`map_churn`: a fixed set of distinct shapes drawn
/// uniformly, every `plain_every`-th of them without ECS.
pub struct FixedSetStream {
    shapes: Vec<Shape>,
    rng: SplitMix64,
}

impl FixedSetStream {
    /// `count` distinct shapes over the world's names and client blocks
    /// (fewer when the world is too small to hold that many).
    pub fn new(
        net: &Internet,
        names: usize,
        count: usize,
        plain_every: Option<usize>,
        seed: u64,
    ) -> FixedSetStream {
        let mut rng = SplitMix64::new(seed, 0x5E7);
        let mut seen = HashSet::new();
        let mut shapes = Vec::with_capacity(count);
        let plain_cap = names;
        let mut plains = 0;
        let mut tries = 0;
        while shapes.len() < count && tries < count * 64 {
            tries += 1;
            let name = rng.below(names) as u16;
            let want_plain =
                plain_every.is_some_and(|e| shapes.len() % e == 0) && plains < plain_cap;
            let shape = if want_plain {
                Shape { name, block: None }
            } else {
                Shape::ecs(name, net.blocks[rng.below(net.blocks.len())].client_ip())
            };
            if seen.insert(shape) {
                plains += usize::from(shape.block.is_none());
                shapes.push(shape);
            }
        }
        assert!(!shapes.is_empty(), "world has no shapes");
        FixedSetStream { shapes, rng }
    }

    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Index into [`FixedSetStream::shapes`] of the next shape, for
    /// callers that keep per-shape data alongside.
    #[inline]
    pub fn next_index(&mut self) -> usize {
        self.rng.below(self.shapes.len())
    }
}

impl ShapeStream for FixedSetStream {
    #[inline]
    fn next_shape(&mut self) -> Shape {
        let i = self.next_index();
        self.shapes[i]
    }
}

/// `auth_miss`: one client block per end-user mapping unit × every name,
/// walked so that a (name, unit) pair comes round again only after
/// `units × names` queries — far beyond the answer cache's 65 536
/// entries at paper scale, so (nearly) every query takes the compute
/// path. Position `k` asks unit `perm[k mod U]` for name
/// `(k div U + offset[k mod U]) mod N`: consecutive queries differ in
/// unit *and* name, and the pair period is exactly `U·N`.
pub struct MissStream {
    blocks: Vec<[u8; 3]>,
    offsets: Vec<u16>,
    names: usize,
    k: u64,
}

impl MissStream {
    pub fn new(net: &Internet, map: &MappingSystem, names: usize, seed: u64) -> MissStream {
        let mut rng = SplitMix64::new(seed, 0x3155);
        let units = map.eu_units().expect("end-user policy builds EU units");
        let mut blocks: Vec<[u8; 3]> = units
            .units
            .iter()
            .filter(|u| !u.members.is_empty())
            .map(|u| {
                let b = u.members[rng.below(u.members.len())];
                let o = net.block(b).client_ip().octets();
                [o[0], o[1], o[2]]
            })
            .collect();
        rng.shuffle(&mut blocks);
        let offsets = (0..blocks.len()).map(|_| rng.below(names) as u16).collect();
        MissStream {
            blocks,
            offsets,
            names,
            k: 0,
        }
    }

    /// Queries before any (name, unit) pair repeats.
    pub fn period(&self) -> u64 {
        self.blocks.len() as u64 * self.names as u64
    }
}

impl ShapeStream for MissStream {
    #[inline]
    fn next_shape(&mut self) -> Shape {
        let u = self.blocks.len() as u64;
        let slot = (self.k % u) as usize;
        let name = ((self.k / u) as usize + self.offsets[slot] as usize) % self.names;
        self.k += 1;
        Shape {
            name: name as u16,
            block: Some(self.blocks[slot]),
        }
    }
}

/// One downstream lookup of `fleet_e2e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOp {
    pub resolver: ResolverId,
    pub block: BlockId,
    pub name: u16,
}

/// `fleet_e2e`: origins drawn demand-weighted from the block→LDNS usage
/// table ([`QueryPopulation`]), names by catalog popularity (Zipf 0.9) —
/// generated on the fly, one draw each per operation.
pub struct FleetStream {
    pop: QueryPopulation,
    name_cdf: Vec<f64>,
    rng: SplitMix64,
}

impl FleetStream {
    pub fn new(net: &Internet, catalog: &ContentCatalog, seed: u64) -> FleetStream {
        let mut acc = 0.0;
        let name_cdf = catalog
            .popularity_weights()
            .iter()
            .map(|w| {
                acc += w.max(0.0);
                acc
            })
            .collect();
        FleetStream {
            pop: QueryPopulation::build(net),
            name_cdf,
            rng: SplitMix64::new(seed, 0xF1EE7),
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> FleetOp {
        let origin = self.pop.sample(&mut self.rng);
        let total = *self.name_cdf.last().expect("catalog has names");
        let needle = self.rng.unit() * total;
        let name = self
            .name_cdf
            .partition_point(|&c| c <= needle)
            .min(self.name_cdf.len() - 1);
        FleetOp {
            resolver: origin.resolver,
            block: origin.block,
            name: name as u16,
        }
    }
}
