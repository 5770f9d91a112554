//! Partial-reconfiguration regions and bitstream segmentation.
//!
//! The paper programs the fabric once at boot, but its flexibility
//! story (and the LUTstructions / time-multiplexed-CGRA follow-ons)
//! depends on reprogramming the monitor *region* while the static
//! interface — FIFO, CFGR, meta-data port — keeps its configuration.
//! This module models that split: a whole-fabric bitstream is
//! segmented into fixed-size configuration frames, each carrying its
//! own Fletcher-32 checksum, and a [`PartialRegion`] walks the
//! `Blank → Loading → Programmed` state machine one frame at a time.
//! The half-loaded window is real state: a region that has accepted
//! some frames but not all of them is `Loading`, and any framing or
//! checksum error leaves it `Faulted` until it is explicitly blanked.
//!
//! [`verify_consistent`] is the swap-time counterpart of the flexcheck
//! netlist lint: it proves a deserialized LUT mapping is byte-for-byte
//! the mapping the current tech-mapper produces for a given netlist,
//! so a hot swap can never program logic that the static toolchain
//! would not have produced.

use std::fmt;

use crate::bitstream::fletcher32;
use crate::lutmap::LutMapping;
use crate::netlist::Netlist;
use crate::{from_bitstream, map_to_luts, to_bitstream};

/// Default configuration-frame payload size in bytes. Virtex-style
/// fabrics shift configuration in fixed-width frames; the exact width
/// only scales the frame count (and thus the modeled reconfiguration
/// time), so any power of two works.
pub const FRAME_BYTES: usize = 64;

/// One configuration frame of a segmented bitstream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Frame position within the stream (0-based).
    pub index: u32,
    /// Total number of frames in the stream this frame belongs to.
    pub total: u32,
    /// Raw payload bytes (all frames but the last carry exactly the
    /// segment size).
    pub payload: Vec<u8>,
    /// Fletcher-32 over the payload.
    pub checksum: u32,
}

/// Error while loading frames into a [`PartialRegion`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReconfigError {
    /// A frame arrived while the region was not in `Loading` state.
    NotLoading,
    /// A frame arrived out of sequence.
    OutOfOrder {
        /// Frame index the region expected next.
        expected: u32,
        /// Frame index that actually arrived.
        got: u32,
    },
    /// The frame's stored checksum does not match its payload.
    FrameChecksum {
        /// Index of the damaged frame.
        index: u32,
    },
    /// A frame disagrees about the total frame count.
    TotalMismatch,
    /// `commit` was called before every frame arrived.
    Incomplete {
        /// Frames loaded so far.
        loaded: u32,
        /// Frames the stream declared.
        total: u32,
    },
    /// The assembled bytes failed whole-bitstream validation.
    Bitstream(crate::BitstreamError),
    /// The programmed mapping does not match the netlist it claims to
    /// implement.
    Inconsistent(&'static str),
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::NotLoading => f.write_str("region is not loading"),
            ReconfigError::OutOfOrder { expected, got } => {
                write!(f, "frame {got} arrived while frame {expected} was expected")
            }
            ReconfigError::FrameChecksum { index } => {
                write!(f, "frame {index} failed its checksum")
            }
            ReconfigError::TotalMismatch => f.write_str("frame disagrees about the frame count"),
            ReconfigError::Incomplete { loaded, total } => {
                write!(f, "only {loaded} of {total} frames loaded")
            }
            ReconfigError::Bitstream(e) => write!(f, "assembled bitstream invalid: {e}"),
            ReconfigError::Inconsistent(what) => {
                write!(f, "mapping inconsistent with netlist: {what}")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Where a [`PartialRegion`] is in its reprogramming lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RegionState {
    /// No configuration loaded (power-on, or after
    /// [`PartialRegion::blank`]).
    #[default]
    Blank,
    /// Some frames accepted; the region's LUTs are half-programmed and
    /// must not be clocked.
    Loading,
    /// A complete, checksum-clean configuration is active.
    Programmed,
    /// A frame was rejected mid-load; the region holds garbage until
    /// blanked.
    Faulted,
}

/// Splits a whole-fabric bitstream into checksummed configuration
/// frames of at most `frame_bytes` payload bytes each. An empty
/// bitstream yields no frames.
pub fn segment_bitstream(bytes: &[u8], frame_bytes: usize) -> Vec<Frame> {
    let frame_bytes = frame_bytes.max(1);
    let total = bytes.len().div_ceil(frame_bytes) as u32;
    bytes
        .chunks(frame_bytes)
        .enumerate()
        .map(|(i, chunk)| Frame {
            index: i as u32,
            total,
            payload: chunk.to_vec(),
            checksum: fletcher32(chunk),
        })
        .collect()
}

/// A dynamically reprogrammable region of the fabric. The static
/// interface logic around it (FIFO, CFGR decode, meta-data port) is
/// not part of the region and survives every swap.
#[derive(Clone, Debug, Default)]
pub struct PartialRegion {
    state: RegionState,
    staged: Vec<u8>,
    next_frame: u32,
    total_frames: u32,
    programmed: Option<LutMapping>,
    /// Completed loads since construction.
    loads: u64,
}

impl PartialRegion {
    /// A blank region.
    pub fn new() -> PartialRegion {
        PartialRegion::default()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RegionState {
        self.state
    }

    /// Completed (committed) loads since construction.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// The active mapping, when programmed.
    pub fn mapping(&self) -> Option<&LutMapping> {
        self.programmed.as_ref()
    }

    /// Erases the region back to `Blank`, discarding any staged or
    /// programmed configuration. Always allowed — this is how a
    /// `Faulted` region recovers.
    pub fn blank(&mut self) {
        *self = PartialRegion { loads: self.loads, ..PartialRegion::default() };
    }

    /// Begins a new load of `total` frames. The previous configuration
    /// is gone the moment loading starts (the hardware shifts frames
    /// into live configuration memory), which is exactly why the system
    /// must quiesce before calling this.
    pub fn begin_load(&mut self, total: u32) {
        self.state = RegionState::Loading;
        self.staged.clear();
        self.next_frame = 0;
        self.total_frames = total;
        self.programmed = None;
    }

    /// Accepts the next configuration frame. Any rejection moves the
    /// region to `Faulted`.
    pub fn push_frame(&mut self, frame: &Frame) -> Result<(), ReconfigError> {
        if self.state != RegionState::Loading {
            return Err(ReconfigError::NotLoading);
        }
        let fail = |region: &mut PartialRegion, e| {
            region.state = RegionState::Faulted;
            Err(e)
        };
        if frame.total != self.total_frames {
            return fail(self, ReconfigError::TotalMismatch);
        }
        if frame.index != self.next_frame {
            return fail(
                self,
                ReconfigError::OutOfOrder { expected: self.next_frame, got: frame.index },
            );
        }
        if fletcher32(&frame.payload) != frame.checksum {
            return fail(self, ReconfigError::FrameChecksum { index: frame.index });
        }
        self.staged.extend_from_slice(&frame.payload);
        self.next_frame += 1;
        Ok(())
    }

    /// Validates the fully loaded stream and activates it. On any error
    /// the region is `Faulted`.
    pub fn commit(&mut self) -> Result<&LutMapping, ReconfigError> {
        if self.state != RegionState::Loading {
            return Err(ReconfigError::NotLoading);
        }
        if self.next_frame != self.total_frames {
            self.state = RegionState::Faulted;
            return Err(ReconfigError::Incomplete {
                loaded: self.next_frame,
                total: self.total_frames,
            });
        }
        match from_bitstream(&self.staged) {
            Ok(mapping) => {
                self.programmed = Some(mapping);
                self.state = RegionState::Programmed;
                self.staged.clear();
                self.loads += 1;
                Ok(self.programmed.as_ref().expect("just programmed"))
            }
            Err(e) => {
                self.state = RegionState::Faulted;
                Err(ReconfigError::Bitstream(e))
            }
        }
    }
}

/// Proves `mapping` is exactly what the tech mapper produces for
/// `netlist` at the mapping's own LUT input width — the swap-time
/// consistency gate. Byte-level comparison through the bitstream codec
/// catches any divergence in truth tables, leaf lists, or depth.
pub fn verify_consistent(netlist: &Netlist, mapping: &LutMapping) -> Result<(), ReconfigError> {
    let reference = map_to_luts(netlist, mapping.k());
    if reference.lut_count() != mapping.lut_count() {
        return Err(ReconfigError::Inconsistent("LUT count differs from a fresh mapping"));
    }
    if reference.depth() != mapping.depth() {
        return Err(ReconfigError::Inconsistent("LUT depth differs from a fresh mapping"));
    }
    if to_bitstream(&reference) != to_bitstream(mapping) {
        return Err(ReconfigError::Inconsistent("bitstream bytes differ from a fresh mapping"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn small_mapping() -> (Netlist, LutMapping) {
        let mut b = NetlistBuilder::new("reconfig-test");
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let eq = b.eq(&x, &y);
        b.output("eq", eq);
        let n = b.finish();
        let m = map_to_luts(&n, 6);
        (n, m)
    }

    #[test]
    fn segment_and_reload_round_trips() {
        let (_, mapping) = small_mapping();
        let bytes = to_bitstream(&mapping);
        let frames = segment_bitstream(&bytes, 16);
        assert!(frames.len() > 1, "stream should span several frames");
        let mut region = PartialRegion::new();
        region.begin_load(frames.len() as u32);
        for f in &frames {
            assert_eq!(region.state(), RegionState::Loading);
            region.push_frame(f).unwrap();
        }
        let loaded = region.commit().unwrap();
        assert_eq!(to_bitstream(loaded), bytes);
        assert_eq!(region.state(), RegionState::Programmed);
        assert_eq!(region.loads(), 1);
    }

    #[test]
    fn every_frame_flip_is_rejected() {
        // The journal_crash idiom: damage every frame in turn and
        // assert the region never reaches Programmed with bad bytes.
        let (_, mapping) = small_mapping();
        let bytes = to_bitstream(&mapping);
        let frames = segment_bitstream(&bytes, 8);
        for damaged in 0..frames.len() {
            let mut region = PartialRegion::new();
            region.begin_load(frames.len() as u32);
            let mut failed = false;
            for (i, f) in frames.iter().enumerate() {
                let mut f = f.clone();
                if i == damaged {
                    f.payload[0] ^= 0x10;
                }
                if region.push_frame(&f).is_err() {
                    failed = true;
                    break;
                }
            }
            assert!(failed, "frame {damaged} damage went unnoticed");
            assert_eq!(region.state(), RegionState::Faulted);
            assert!(region.commit().is_err());
            region.blank();
            assert_eq!(region.state(), RegionState::Blank);
        }
    }

    #[test]
    fn out_of_order_and_partial_loads_fault() {
        let (_, mapping) = small_mapping();
        let bytes = to_bitstream(&mapping);
        let frames = segment_bitstream(&bytes, 8);
        assert!(frames.len() >= 3);

        let mut region = PartialRegion::new();
        region.begin_load(frames.len() as u32);
        region.push_frame(&frames[0]).unwrap();
        let err = region.push_frame(&frames[2]).unwrap_err();
        assert!(matches!(err, ReconfigError::OutOfOrder { expected: 1, got: 2 }));
        assert_eq!(region.state(), RegionState::Faulted);

        let mut region = PartialRegion::new();
        region.begin_load(frames.len() as u32);
        region.push_frame(&frames[0]).unwrap();
        let err = region.commit().unwrap_err();
        assert!(matches!(err, ReconfigError::Incomplete { loaded: 1, .. }));
    }

    #[test]
    fn consistency_gate_accepts_own_mapping_and_rejects_foreign() {
        let (netlist, mapping) = small_mapping();
        verify_consistent(&netlist, &mapping).unwrap();

        let mut b = NetlistBuilder::new("other");
        let x = b.input_bus(4);
        let r = b.reduce_or(&x);
        b.output("any", r);
        let other = b.finish();
        let other_map = map_to_luts(&other, 6);
        assert!(verify_consistent(&netlist, &other_map).is_err());
    }

    #[test]
    fn pushing_without_begin_load_is_rejected() {
        let (_, mapping) = small_mapping();
        let frames = segment_bitstream(&to_bitstream(&mapping), 8);
        let mut region = PartialRegion::new();
        assert!(matches!(region.push_frame(&frames[0]), Err(ReconfigError::NotLoading)));
    }
}
