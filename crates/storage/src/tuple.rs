//! Fixed-width tuple codecs for the edge relation `S` and node relation `R`.
//!
//! Table 4A fixes the physical layout this crate honours exactly:
//!
//! * `T_s = 32` bytes per `S` tuple → `Bf_s = 4096 / 32 = 128` tuples/block;
//! * `T_r = 16` bytes per `R` tuple → `Bf_r = 4096 / 16 = 256` tuples/block;
//! * `Bf_rs = 4096 / (16 + 32) = 85` joined tuples/block (the paper rounds
//!   to 86; we follow the byte arithmetic and document the off-by-one).
//!
//! `R`'s logical schema is (node-id, x, y, status, path, path-cost). The
//! node-id is the ISAM key; ids are dense, so the tuple's *slot position*
//! encodes it and the 16 payload bytes carry the remaining attributes at
//! full `f32` precision. `path` is the predecessor pointer ("The complete
//! path to the source node can be constructed by traversing this pointer",
//! Section 4); [`NO_PRED`] marks null.
//!
//! # Node-id width
//!
//! The paper's largest network has 1089 nodes, so the original layout kept
//! 16-bit ids. Metro-scale networks (100k–1M nodes, see `atis-graph`'s
//! `metro` module and `SCALING.md`) need wider ids *without* changing the
//! tuple sizes the whole cost model is calibrated on. Ids are therefore
//! stored as **24-bit** integers: the low 16 bits stay where the original
//! layout put them and the high 8 bits occupy a previously-zero pad byte,
//! so pre-widening images decode unchanged. [`MAX_NODE_ID`] is the largest
//! encodable id; [`NO_PRED`] is the all-ones 24-bit sentinel.

use crate::relations::NodeStatus;

/// Largest node id the 24-bit on-disk encoding can carry (the all-ones
/// value is reserved for [`NO_PRED`]).
pub const MAX_NODE_ID: u32 = 0x00FF_FFFE;

/// Sentinel for a null `path` pointer in a node tuple (all ones in the
/// 24-bit id encoding).
pub const NO_PRED: u32 = 0x00FF_FFFF;

/// A fixed-width tuple that can be stored in a heap file.
pub trait FixedTuple: Clone {
    /// Encoded size in bytes; must divide evenly into useful block space.
    const SIZE: usize;
    /// Writes the tuple into `buf` (`buf.len() == SIZE`).
    fn encode(&self, buf: &mut [u8]);
    /// Reads a tuple back from `buf` (`buf.len() == SIZE`).
    fn decode(buf: &[u8]) -> Self;
}

/// A tuple of the edge relation `S = (Begin-node, End-node, Edge-cost)`
/// plus the segment attributes of the Minneapolis data (Section 5.2: "The
/// data about each segment includes x and y position of the two nodes,
/// average speed for the segment, average occupancy, and road type"). The
/// end-node position lets A\* version 1 discover coordinates for nodes it
/// has not yet appended to its resultant relation.
///
/// Layout (32 bytes): begin-lo `u16`, end-lo `u16`, cost `f64`, class
/// `u8`, begin-hi `u8`, end-hi `u8`, 1 pad, occupancy `f32`, end_x `f32`,
/// end_y `f32`, 4 reserved. (`begin`/`end` are 24-bit ids; see the module
/// docs.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeTuple {
    /// `Begin-node` — the hash-clustering key (≤ [`MAX_NODE_ID`]).
    pub begin: u32,
    /// `End-node` (≤ [`MAX_NODE_ID`]).
    pub end: u32,
    /// `Edge-cost`.
    pub cost: f64,
    /// Road class discriminant (0 street, 1 highway, 2 freeway).
    pub class: u8,
    /// Average occupancy in `[0, 1]`.
    pub occupancy: f32,
    /// x position of the end node.
    pub end_x: f32,
    /// y position of the end node.
    pub end_y: f32,
}

impl FixedTuple for EdgeTuple {
    const SIZE: usize = 32;

    fn encode(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::SIZE);
        debug_assert!(self.begin <= NO_PRED && self.end <= NO_PRED);
        buf[0..2].copy_from_slice(&(self.begin as u16).to_le_bytes());
        buf[2..4].copy_from_slice(&(self.end as u16).to_le_bytes());
        buf[4..12].copy_from_slice(&self.cost.to_le_bytes());
        buf[12] = self.class;
        buf[13] = (self.begin >> 16) as u8;
        buf[14] = (self.end >> 16) as u8;
        buf[15] = 0;
        buf[16..20].copy_from_slice(&self.occupancy.to_le_bytes());
        buf[20..24].copy_from_slice(&self.end_x.to_le_bytes());
        buf[24..28].copy_from_slice(&self.end_y.to_le_bytes());
        buf[28..32].fill(0);
    }

    fn decode(buf: &[u8]) -> Self {
        debug_assert_eq!(buf.len(), Self::SIZE);
        EdgeTuple {
            begin: u16::from_le_bytes([buf[0], buf[1]]) as u32 | ((buf[13] as u32) << 16),
            end: u16::from_le_bytes([buf[2], buf[3]]) as u32 | ((buf[14] as u32) << 16),
            cost: f64::from_le_bytes(field(buf, 4)),
            class: buf[12],
            occupancy: f32::from_le_bytes(field(buf, 16)),
            end_x: f32::from_le_bytes(field(buf, 20)),
            end_y: f32::from_le_bytes(field(buf, 24)),
        }
    }
}

/// A tuple of the node relation `R` (16 payload bytes; the node-id is the
/// slot position).
///
/// Layout: x `f32`, y `f32`, status `u8`, path-hi `u8`, path-lo `u16`,
/// path-cost `f32`. (`path` is a 24-bit id; see the module docs.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTuple {
    /// `x-coordinate` (for estimator functions).
    pub x: f32,
    /// `y-coordinate`.
    pub y: f32,
    /// frontier/explored membership: the paper's four-valued `status`
    /// attribute (Section 4).
    pub status: NodeStatus,
    /// Predecessor pointer on the best known path to the source
    /// ([`NO_PRED`] = null).
    pub path: u32,
    /// `path-cost` — cost of the best known path from the source.
    /// `f32::INFINITY` until the node is reached.
    pub path_cost: f32,
}

impl NodeTuple {
    /// A fresh, unreached node at `(x, y)`.
    pub fn unreached(x: f32, y: f32) -> Self {
        NodeTuple {
            x,
            y,
            status: NodeStatus::Null,
            path: NO_PRED,
            path_cost: f32::INFINITY,
        }
    }
}

impl FixedTuple for NodeTuple {
    const SIZE: usize = 16;

    fn encode(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::SIZE);
        debug_assert!(self.path <= NO_PRED);
        buf[0..4].copy_from_slice(&self.x.to_le_bytes());
        buf[4..8].copy_from_slice(&self.y.to_le_bytes());
        buf[8] = self.status as u8;
        buf[9] = (self.path >> 16) as u8;
        buf[10..12].copy_from_slice(&(self.path as u16).to_le_bytes());
        buf[12..16].copy_from_slice(&self.path_cost.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        debug_assert_eq!(buf.len(), Self::SIZE);
        NodeTuple {
            x: f32::from_le_bytes(field(buf, 0)),
            y: f32::from_le_bytes(field(buf, 4)),
            status: NodeStatus::from_u8(buf[8]),
            path: u16::from_le_bytes([buf[10], buf[11]]) as u32 | ((buf[9] as u32) << 16),
            path_cost: f32::from_le_bytes(field(buf, 12)),
        }
    }
}

/// The `N` bytes of `buf` from `at`, as an array for `from_le_bytes`.
#[inline]
fn field<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&buf[at..at + N]);
    out
}

/// Blocking factor for a tuple type — `Bf = B / T` (Table 4A).
pub const fn blocking_factor<T: FixedTuple>() -> usize {
    crate::block::BLOCK_SIZE / T::SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_factors_match_table_4a() {
        assert_eq!(blocking_factor::<EdgeTuple>(), 128); // Bf_s
        assert_eq!(blocking_factor::<NodeTuple>(), 256); // Bf_r
    }

    #[test]
    fn edge_tuple_roundtrip() {
        let t = EdgeTuple {
            begin: 17,
            end: 900,
            cost: 1.125,
            class: 2,
            occupancy: 0.75,
            end_x: 3.5,
            end_y: -8.25,
        };
        let mut buf = [0u8; 32];
        t.encode(&mut buf);
        assert_eq!(EdgeTuple::decode(&buf), t);
    }

    #[test]
    fn edge_tuple_roundtrips_metro_scale_ids() {
        // Ids above u16::MAX exercise the high byte of the 24-bit encoding.
        let t = EdgeTuple {
            begin: 734_003,
            end: MAX_NODE_ID,
            cost: 0.5,
            class: 2,
            occupancy: 0.0,
            end_x: 1.0,
            end_y: 2.0,
        };
        let mut buf = [0u8; 32];
        t.encode(&mut buf);
        let back = EdgeTuple::decode(&buf);
        assert_eq!(back.begin, 734_003);
        assert_eq!(back.end, MAX_NODE_ID);
    }

    #[test]
    fn node_tuple_roundtrip() {
        let t = NodeTuple {
            x: 12.5,
            y: -3.25,
            status: NodeStatus::Open,
            path: 42,
            path_cost: 7.5,
        };
        let mut buf = [0u8; 16];
        t.encode(&mut buf);
        assert_eq!(NodeTuple::decode(&buf), t);
    }

    #[test]
    fn node_tuple_roundtrips_metro_scale_path() {
        let t = NodeTuple {
            x: 0.0,
            y: 0.0,
            status: NodeStatus::Closed,
            path: 1_000_000,
            path_cost: 3.0,
        };
        let mut buf = [0u8; 16];
        t.encode(&mut buf);
        assert_eq!(NodeTuple::decode(&buf).path, 1_000_000);
    }

    #[test]
    fn small_ids_keep_the_legacy_byte_image() {
        // Ids ≤ u16::MAX must leave the former pad bytes zero, so the
        // widened codec is byte-identical to the original on the paper's
        // networks.
        let t = EdgeTuple {
            begin: 17,
            end: 900,
            cost: 1.0,
            class: 0,
            occupancy: 0.0,
            end_x: 0.0,
            end_y: 0.0,
        };
        let mut buf = [0u8; 32];
        t.encode(&mut buf);
        assert_eq!((buf[13], buf[14], buf[15]), (0, 0, 0));
    }

    #[test]
    fn unreached_node_is_null_with_infinite_cost() {
        let t = NodeTuple::unreached(1.0, 2.0);
        assert_eq!(t.status, NodeStatus::Null);
        assert_eq!(t.path, NO_PRED);
        assert!(t.path_cost.is_infinite());
        // Infinity survives the codec.
        let mut buf = [0u8; 16];
        t.encode(&mut buf);
        assert!(NodeTuple::decode(&buf).path_cost.is_infinite());
    }

    #[test]
    fn all_statuses_roundtrip() {
        for s in [
            NodeStatus::Null,
            NodeStatus::Open,
            NodeStatus::Closed,
            NodeStatus::Current,
        ] {
            let t = NodeTuple {
                x: 0.0,
                y: 0.0,
                status: s,
                path: 0,
                path_cost: 0.0,
            };
            let mut buf = [0u8; 16];
            t.encode(&mut buf);
            assert_eq!(NodeTuple::decode(&buf).status, s);
        }
    }
}
