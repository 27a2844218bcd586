//! Typed trace events and their cycle-stamped records.
//!
//! Every field is an integer (or bool) derived from simulation state, so
//! serialized records are bit-reproducible across hosts and reruns.
//! Identifier widths follow the simulator: packet ids are `u64`
//! ([`PacketId`](../../noc/src/packet.rs) indices), node ids fit `u16`
//! (meshes are at most 256×256), ports/VCs/directions fit `u8`.

use std::fmt::Write as _;

/// VC stall reason codes carried by [`Event::VcStall`].
pub mod stall {
    /// The winning VC had no downstream credit this cycle.
    pub const NO_CREDIT: u8 = 0;
    /// Lost switch allocation to a higher-priority or round-robin rival.
    pub const LOST_ARBITRATION: u8 = 1;
    /// VC allocation failed: no free output VC of the packet's class.
    pub const NO_FREE_VC: u8 = 2;
    /// The output port is fault-stalled (injected port stall or flaky
    /// link window; `faults` feature).
    pub const FAULT_STALL: u8 = 3;
}

/// Codec operation and outcome codes carried by the codec events.
pub mod codec {
    /// Operation: compression (whole-packet, streaming, or NI-queued).
    pub const COMPRESS: u8 = 0;
    /// Operation: decompression.
    pub const DECOMPRESS: u8 = 1;

    /// Outcome: the operation committed its result.
    pub const DONE: u8 = 0;
    /// Outcome: aborted (packet departed, backlog emptied, engine idle).
    pub const ABORTED: u8 = 1;
    /// Outcome: finished but the payload was incompressible.
    pub const INCOMPRESSIBLE: u8 = 2;
    /// Outcome: decompression result did not fit the input buffer.
    pub const GROWTH_STALL: u8 = 3;
}

/// Endpoint (non-in-network) codec site codes for [`Event::EndpointCodec`].
pub mod site {
    /// Bank responding to a read (CC decompress, CNC decompress+compress).
    pub const BANK_SEND: u8 = 0;
    /// Core/NI sending a line into the network (CNC compress).
    pub const ENDPOINT_SEND: u8 = 1;
    /// Preparing a line for compressed L2 storage.
    pub const STORE_PREP: u8 = 2;
    /// Core receiving a compressed response (decompress before use).
    pub const CORE_RECEIVE: u8 = 3;
    /// Bank eviction path (decompress before writeback payload built).
    pub const BANK_EVICT: u8 = 4;
    /// Memory writeback decompress at the memory controller.
    pub const WRITEBACK: u8 = 5;
}

/// One simulation event. See module docs for field width conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet entered the source NI injection queue.
    Inject {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Packet class index (request/response/writeback).
        class: u8,
        /// Packet size in flits at injection time.
        flits: u8,
    },
    /// The NI popped the packet from its queue and began injecting flits.
    NiStart {
        /// Packet id.
        packet: u64,
        /// Injecting node.
        node: u16,
    },
    /// The NI accepted the packet's last flit into the local input VC.
    NiDone {
        /// Packet id.
        packet: u64,
        /// Injecting node.
        node: u16,
    },
    /// Route computation picked an output direction for a head flit.
    Route {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
        /// Input port index.
        in_port: u8,
        /// Input VC index.
        in_vc: u8,
        /// Chosen output direction index.
        out_dir: u8,
    },
    /// VC allocation granted an output VC to a routed head flit.
    VcAlloc {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
        /// Input port index.
        in_port: u8,
        /// Input VC index.
        in_vc: u8,
        /// Output direction index.
        out_dir: u8,
        /// Granted output VC index.
        out_vc: u8,
    },
    /// A flit won switch allocation and traversed the crossbar (ST).
    ///
    /// Emitted only for head and tail flits (body flits add volume but
    /// no analytical information; the tail carries the hop's departure
    /// time, the head its start).
    Traverse {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
        /// Output direction index.
        out_dir: u8,
        /// True when this is the packet's head flit.
        head: bool,
        /// True when this is the packet's tail flit.
        tail: bool,
    },
    /// The packet's tail flit left through the Local port: delivered.
    Eject {
        /// Packet id.
        packet: u64,
        /// Delivering node.
        node: u16,
    },
    /// A ready VC failed to move a flit this cycle.
    VcStall {
        /// Packet id at the head of the stalled VC.
        packet: u64,
        /// Router node.
        node: u16,
        /// Input port index.
        port: u8,
        /// Input VC index.
        vc: u8,
        /// Reason code from [`stall`].
        reason: u8,
    },
    /// An in-network codec engine started working on a resident packet.
    CodecStart {
        /// Packet id.
        packet: u64,
        /// Router node hosting the engine.
        node: u16,
        /// Operation code from [`codec`].
        op: u8,
        /// True when the engine locks the VC (blocking decompression).
        blocking: bool,
    },
    /// An in-network codec engine finished (or abandoned) its packet.
    CodecEnd {
        /// Packet id.
        packet: u64,
        /// Router node hosting the engine.
        node: u16,
        /// Operation code from [`codec`].
        op: u8,
        /// Outcome code from [`codec`].
        outcome: u8,
    },
    /// An endpoint codec charged latency outside the network (CC/CNC
    /// placements and fallback paths); never overlapped with queuing.
    EndpointCodec {
        /// Site code from [`site`].
        site: u8,
        /// Cycles charged. 64-bit: long fault-retry runs overflow a u32
        /// accumulator upstream, so the event carries full width.
        cycles: u64,
    },
    /// A NUCA L2 bank lookup crossed the cache boundary.
    L2Access {
        /// Bank node/index.
        node: u16,
        /// Line address.
        line: u64,
        /// True on hit.
        hit: bool,
    },
    /// A NUCA L2 bank insert/update wrote the cache arrays.
    L2Insert {
        /// Bank node/index.
        node: u16,
        /// Line address.
        line: u64,
    },
    /// A DRAM access left the chip.
    DramAccess {
        /// Line address.
        line: u64,
        /// True for writes.
        write: bool,
        /// True when the open-row buffer hit.
        row_hit: bool,
    },
    /// A fault was injected (`faults` feature).
    FaultInject {
        /// Fault kind code (`disco_faults::FaultKind::code`).
        kind: u8,
        /// Affected packet id (0 for packet-less sites).
        packet: u64,
        /// Node at which the fault struck.
        node: u16,
    },
    /// A fault was detected (checksum mismatch, loss timeout, or
    /// decompress-and-verify failure).
    FaultDetect {
        /// Fault kind code of the detected fault.
        kind: u8,
        /// Affected packet id.
        packet: u64,
        /// Node at which detection happened.
        node: u16,
    },
    /// The NI retransmitted a lost or corrupted transfer.
    Retransmit {
        /// The replacement packet's id.
        packet: u64,
        /// Retry attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// A corrupted compression was abandoned and the line delivered
    /// uncompressed instead.
    FaultFallback {
        /// Affected packet id.
        packet: u64,
        /// Node hosting the compressor that failed verification.
        node: u16,
    },
}

impl Event {
    /// Short stable name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Inject { .. } => "inject",
            Event::NiStart { .. } => "ni_start",
            Event::NiDone { .. } => "ni_done",
            Event::Route { .. } => "route",
            Event::VcAlloc { .. } => "vc_alloc",
            Event::Traverse { .. } => "traverse",
            Event::Eject { .. } => "eject",
            Event::VcStall { .. } => "vc_stall",
            Event::CodecStart { .. } => "codec_start",
            Event::CodecEnd { .. } => "codec_end",
            Event::EndpointCodec { .. } => "endpoint_codec",
            Event::L2Access { .. } => "l2_access",
            Event::L2Insert { .. } => "l2_insert",
            Event::DramAccess { .. } => "dram_access",
            Event::FaultInject { .. } => "fault_inject",
            Event::FaultDetect { .. } => "fault_detect",
            Event::Retransmit { .. } => "retransmit",
            Event::FaultFallback { .. } => "fault_fallback",
        }
    }
}

/// A cycle-stamped event, as stored in the ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Simulated cycle at which the event was committed.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

impl Record {
    /// Appends this record as one compact JSON object (no newline).
    ///
    /// All values are integers or booleans, keys are emitted in a fixed
    /// order, and there is no whitespace — the output is a deterministic
    /// function of the record.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"cycle\":{},\"event\":\"{}\"",
            self.cycle,
            self.event.name()
        );
        match self.event {
            Event::Inject {
                packet,
                src,
                dst,
                class,
                flits,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"src\":{src},\"dst\":{dst},\"class\":{class},\"flits\":{flits}"
                );
            }
            Event::NiStart { packet, node } | Event::NiDone { packet, node } => {
                let _ = write!(out, ",\"packet\":{packet},\"node\":{node}");
            }
            Event::Route {
                packet,
                node,
                in_port,
                in_vc,
                out_dir,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"node\":{node},\"in_port\":{in_port},\"in_vc\":{in_vc},\"out_dir\":{out_dir}"
                );
            }
            Event::VcAlloc {
                packet,
                node,
                in_port,
                in_vc,
                out_dir,
                out_vc,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"node\":{node},\"in_port\":{in_port},\"in_vc\":{in_vc},\"out_dir\":{out_dir},\"out_vc\":{out_vc}"
                );
            }
            Event::Traverse {
                packet,
                node,
                out_dir,
                head,
                tail,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"node\":{node},\"out_dir\":{out_dir},\"head\":{head},\"tail\":{tail}"
                );
            }
            Event::Eject { packet, node } => {
                let _ = write!(out, ",\"packet\":{packet},\"node\":{node}");
            }
            Event::VcStall {
                packet,
                node,
                port,
                vc,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"node\":{node},\"port\":{port},\"vc\":{vc},\"reason\":{reason}"
                );
            }
            Event::CodecStart {
                packet,
                node,
                op,
                blocking,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"node\":{node},\"op\":{op},\"blocking\":{blocking}"
                );
            }
            Event::CodecEnd {
                packet,
                node,
                op,
                outcome,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"node\":{node},\"op\":{op},\"outcome\":{outcome}"
                );
            }
            Event::EndpointCodec { site, cycles } => {
                let _ = write!(out, ",\"site\":{site},\"cycles\":{cycles}");
            }
            Event::L2Access { node, line, hit } => {
                let _ = write!(out, ",\"node\":{node},\"line\":{line},\"hit\":{hit}");
            }
            Event::L2Insert { node, line } => {
                let _ = write!(out, ",\"node\":{node},\"line\":{line}");
            }
            Event::DramAccess {
                line,
                write,
                row_hit,
            } => {
                let _ = write!(
                    out,
                    ",\"line\":{line},\"write\":{write},\"row_hit\":{row_hit}"
                );
            }
            Event::FaultInject { kind, packet, node }
            | Event::FaultDetect { kind, packet, node } => {
                let _ = write!(out, ",\"kind\":{kind},\"packet\":{packet},\"node\":{node}");
            }
            Event::Retransmit { packet, attempt } => {
                let _ = write!(out, ",\"packet\":{packet},\"attempt\":{attempt}");
            }
            Event::FaultFallback { packet, node } => {
                let _ = write!(out, ",\"packet\":{packet},\"node\":{node}");
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_compact_and_keyed() {
        let rec = Record {
            cycle: 7,
            event: Event::Inject {
                packet: 3,
                src: 0,
                dst: 15,
                class: 1,
                flits: 5,
            },
        };
        let mut s = String::new();
        rec.write_json(&mut s);
        assert_eq!(
            s,
            "{\"cycle\":7,\"event\":\"inject\",\"packet\":3,\"src\":0,\"dst\":15,\"class\":1,\"flits\":5}"
        );
    }

    #[test]
    fn every_variant_serializes_with_its_name() {
        let variants = [
            Event::NiStart { packet: 1, node: 2 },
            Event::NiDone { packet: 1, node: 2 },
            Event::Route {
                packet: 1,
                node: 2,
                in_port: 0,
                in_vc: 1,
                out_dir: 2,
            },
            Event::VcAlloc {
                packet: 1,
                node: 2,
                in_port: 0,
                in_vc: 1,
                out_dir: 2,
                out_vc: 0,
            },
            Event::Traverse {
                packet: 1,
                node: 2,
                out_dir: 4,
                head: true,
                tail: false,
            },
            Event::Eject { packet: 1, node: 2 },
            Event::VcStall {
                packet: 1,
                node: 2,
                port: 3,
                vc: 0,
                reason: stall::NO_CREDIT,
            },
            Event::CodecStart {
                packet: 1,
                node: 2,
                op: codec::COMPRESS,
                blocking: false,
            },
            Event::CodecEnd {
                packet: 1,
                node: 2,
                op: codec::COMPRESS,
                outcome: codec::DONE,
            },
            Event::EndpointCodec {
                site: site::BANK_SEND,
                cycles: 9,
            },
            Event::L2Access {
                node: 2,
                line: 77,
                hit: true,
            },
            Event::L2Insert { node: 2, line: 77 },
            Event::DramAccess {
                line: 77,
                write: false,
                row_hit: true,
            },
            Event::FaultInject {
                kind: 0,
                packet: 1,
                node: 2,
            },
            Event::FaultDetect {
                kind: 3,
                packet: 1,
                node: 2,
            },
            Event::Retransmit {
                packet: 1,
                attempt: 2,
            },
            Event::FaultFallback { packet: 1, node: 2 },
        ];
        for ev in variants {
            let mut s = String::new();
            Record {
                cycle: 0,
                event: ev,
            }
            .write_json(&mut s);
            assert!(s.contains(ev.name()), "{s}");
            assert!(s.starts_with('{') && s.ends_with('}'));
        }
    }

    #[test]
    fn endpoint_codec_carries_u64_cycle_sums() {
        // Regression: the accumulated endpoint-codec latency of a long
        // fault-retry run exceeds u32; the record must carry full width.
        let big = u64::from(u32::MAX) + 17;
        let mut s = String::new();
        Record {
            cycle: 1,
            event: Event::EndpointCodec {
                site: site::WRITEBACK,
                cycles: big,
            },
        }
        .write_json(&mut s);
        assert!(s.contains(&format!("\"cycles\":{big}")), "{s}");
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

impl disco_snapshot::Snap for Event {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        match *self {
            Event::Inject {
                packet,
                src,
                dst,
                class,
                flits,
            } => {
                w.put(&0u8);
                w.put(&packet);
                w.put(&src);
                w.put(&dst);
                w.put(&class);
                w.put(&flits);
            }
            Event::NiStart { packet, node } => {
                w.put(&1u8);
                w.put(&packet);
                w.put(&node);
            }
            Event::NiDone { packet, node } => {
                w.put(&2u8);
                w.put(&packet);
                w.put(&node);
            }
            Event::Route {
                packet,
                node,
                in_port,
                in_vc,
                out_dir,
            } => {
                w.put(&3u8);
                w.put(&packet);
                w.put(&node);
                w.put(&in_port);
                w.put(&in_vc);
                w.put(&out_dir);
            }
            Event::VcAlloc {
                packet,
                node,
                in_port,
                in_vc,
                out_dir,
                out_vc,
            } => {
                w.put(&4u8);
                w.put(&packet);
                w.put(&node);
                w.put(&in_port);
                w.put(&in_vc);
                w.put(&out_dir);
                w.put(&out_vc);
            }
            Event::Traverse {
                packet,
                node,
                out_dir,
                head,
                tail,
            } => {
                w.put(&5u8);
                w.put(&packet);
                w.put(&node);
                w.put(&out_dir);
                w.put(&head);
                w.put(&tail);
            }
            Event::Eject { packet, node } => {
                w.put(&6u8);
                w.put(&packet);
                w.put(&node);
            }
            Event::VcStall {
                packet,
                node,
                port,
                vc,
                reason,
            } => {
                w.put(&7u8);
                w.put(&packet);
                w.put(&node);
                w.put(&port);
                w.put(&vc);
                w.put(&reason);
            }
            Event::CodecStart {
                packet,
                node,
                op,
                blocking,
            } => {
                w.put(&8u8);
                w.put(&packet);
                w.put(&node);
                w.put(&op);
                w.put(&blocking);
            }
            Event::CodecEnd {
                packet,
                node,
                op,
                outcome,
            } => {
                w.put(&9u8);
                w.put(&packet);
                w.put(&node);
                w.put(&op);
                w.put(&outcome);
            }
            Event::EndpointCodec { site, cycles } => {
                w.put(&10u8);
                w.put(&site);
                w.put(&cycles);
            }
            Event::L2Access { node, line, hit } => {
                w.put(&11u8);
                w.put(&node);
                w.put(&line);
                w.put(&hit);
            }
            Event::L2Insert { node, line } => {
                w.put(&12u8);
                w.put(&node);
                w.put(&line);
            }
            Event::DramAccess {
                line,
                write,
                row_hit,
            } => {
                w.put(&13u8);
                w.put(&line);
                w.put(&write);
                w.put(&row_hit);
            }
            Event::FaultInject { kind, packet, node } => {
                w.put(&14u8);
                w.put(&kind);
                w.put(&packet);
                w.put(&node);
            }
            Event::FaultDetect { kind, packet, node } => {
                w.put(&15u8);
                w.put(&kind);
                w.put(&packet);
                w.put(&node);
            }
            Event::Retransmit { packet, attempt } => {
                w.put(&16u8);
                w.put(&packet);
                w.put(&attempt);
            }
            Event::FaultFallback { packet, node } => {
                w.put(&17u8);
                w.put(&packet);
                w.put(&node);
            }
        }
    }

    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(match r.take::<u8>()? {
            0 => Event::Inject {
                packet: r.take()?,
                src: r.take()?,
                dst: r.take()?,
                class: r.take()?,
                flits: r.take()?,
            },
            1 => Event::NiStart {
                packet: r.take()?,
                node: r.take()?,
            },
            2 => Event::NiDone {
                packet: r.take()?,
                node: r.take()?,
            },
            3 => Event::Route {
                packet: r.take()?,
                node: r.take()?,
                in_port: r.take()?,
                in_vc: r.take()?,
                out_dir: r.take()?,
            },
            4 => Event::VcAlloc {
                packet: r.take()?,
                node: r.take()?,
                in_port: r.take()?,
                in_vc: r.take()?,
                out_dir: r.take()?,
                out_vc: r.take()?,
            },
            5 => Event::Traverse {
                packet: r.take()?,
                node: r.take()?,
                out_dir: r.take()?,
                head: r.take()?,
                tail: r.take()?,
            },
            6 => Event::Eject {
                packet: r.take()?,
                node: r.take()?,
            },
            7 => Event::VcStall {
                packet: r.take()?,
                node: r.take()?,
                port: r.take()?,
                vc: r.take()?,
                reason: r.take()?,
            },
            8 => Event::CodecStart {
                packet: r.take()?,
                node: r.take()?,
                op: r.take()?,
                blocking: r.take()?,
            },
            9 => Event::CodecEnd {
                packet: r.take()?,
                node: r.take()?,
                op: r.take()?,
                outcome: r.take()?,
            },
            10 => Event::EndpointCodec {
                site: r.take()?,
                cycles: r.take()?,
            },
            11 => Event::L2Access {
                node: r.take()?,
                line: r.take()?,
                hit: r.take()?,
            },
            12 => Event::L2Insert {
                node: r.take()?,
                line: r.take()?,
            },
            13 => Event::DramAccess {
                line: r.take()?,
                write: r.take()?,
                row_hit: r.take()?,
            },
            14 => Event::FaultInject {
                kind: r.take()?,
                packet: r.take()?,
                node: r.take()?,
            },
            15 => Event::FaultDetect {
                kind: r.take()?,
                packet: r.take()?,
                node: r.take()?,
            },
            16 => Event::Retransmit {
                packet: r.take()?,
                attempt: r.take()?,
            },
            17 => Event::FaultFallback {
                packet: r.take()?,
                node: r.take()?,
            },
            tag => return Err(disco_snapshot::malformed(format!("Event tag {tag}"))),
        })
    }
}

disco_snapshot::snap_fields!(Record { cycle, event });
