#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! DNS for the end-user-mapping reproduction.
//!
//! A from-scratch implementation of the protocol machinery the paper's
//! mapping system rides on:
//!
//! * [`name`] — domain names with RFC 1035 limits;
//! * [`message`] — header/flags/question/record model (A, AAAA, NS,
//!   CNAME, SOA, TXT, OPT);
//! * [`wire`] — the binary codec with name compression;
//! * [`edns`] — EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871),
//!   the enabler of end-user mapping (paper §2.1);
//! * [`authority`] — the authoritative-server trait the mapping system
//!   implements, plus a static-zone authority.
//!
//! The recursive resolver that speaks this protocol, and the ECS-scoped
//! cache behind the paper's §5.2 query amplification, live in `eum-ldns`.
//!
//! ## Example: a resolution with ECS
//!
//! ```
//! use eum_dns::{EcsOption, Message, OptData, Question};
//! use eum_dns::name::name;
//! use eum_dns::wire::{decode_message, encode_message};
//!
//! // An LDNS forwards a /24 of the client with its query (paper Fig 4).
//! let ecs = EcsOption::query("203.0.113.99".parse().unwrap(), 24);
//! let query = Message::query(1, Question::a(name("foo.net")), Some(OptData::with_ecs(ecs)));
//! let bytes = encode_message(&query);
//! let back = decode_message(&bytes).unwrap();
//! assert_eq!(back.ecs().unwrap().source_prefix, 24);
//! assert_eq!(back.ecs().unwrap().addr.octets(), [203, 0, 113, 0]);
//! ```

pub mod authority;
pub mod edns;
pub mod message;
pub mod name;
pub mod wire;

pub use authority::{Authority, QueryContext, StaticAuthority};
pub use edns::{EcsOption, EdnsOption, EdnsOptions, OptData};
pub use message::{Flags, Message, Question, RData, Rcode, Record, RrType, SoaData};
pub use name::{DnsName, NameError};
pub use wire::{
    decode_message, decode_message_into, encode_message, encode_message_into, WireError,
};
