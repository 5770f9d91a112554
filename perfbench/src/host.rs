//! Host-speed normalisation. The benchmark runs on virtual CPUs of a
//! shared host, whose speed drifts by tens of percent over minutes as
//! neighbours load the caches and cores beneath it; a whole run can sit
//! in a slow stretch, so no estimator within one run removes that drift.
//! Every host time the benchmark reports is therefore normalised by a
//! fixed reference workload timed beside it: the time measured, times
//! [`REFERENCE_NS`] over the reference workload's current duration. A
//! change to the simulator moves the measured time and not the
//! reference, so it shows in full; a slower host moves both.
//!
//! The reference is a miniature instruction-set simulator running two
//! fixed programs. The first it fetches word by word through a
//! set-associative tag model, decodes by bit fields and counts cycles
//! and instruction classes for; the second it pre-decodes and runs with
//! no timing model, around a loop-carried multiply chain. That is the
//! simulator's own kind of work, so neighbours slow it the way they slow
//! the simulator. On a 2-vCPU Xeon VM, over two minutes in which 5 s
//! windows of simulated UMC runs took 1.0-1.7x their fastest, the first
//! program slowed 1.1-1.3 times as much (in log terms) and the second
//! 0.7-0.8 times as much; their sum tracked the simulator at 0.93-1.00
//! and cut the spread of normalised window times to 0.02-0.06 from
//! 0.10-0.22 raw.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use crate::util::median;

/// About what the reference workload takes on an unloaded 2.0 GHz Xeon
/// vCPU: a normalised time is the time the measured work would take on
/// a host that runs the reference in this long.
pub const REFERENCE_NS: f64 = 280_000.0;

/// Passes of the timed program over its data per reference run.
const PASSES: u32 = 2;
/// Passes of the pre-decoded program over its data per reference run.
const CHAIN_PASSES: u32 = 4;
/// Reference runs per calibration; the fastest counts.
const RUNS: usize = 3;
/// Calibrations the current speed is the median of.
const WINDOW: usize = 7;

/// The miniature simulator's state.
struct Mini {
    regs: [u32; 32],
    mem: [u32; 4096],
    /// Two ways of tags per set, and the way each set replaces next.
    tags: [[u32; 2]; 64],
    victim: [u8; 64],
    hits: u64,
    misses: u64,
    cycles: u64,
    class: [u64; 16],
}

/// An instruction word: opcode, destination, two sources, immediate.
const fn word(op: u32, rd: u32, rs: u32, rt: u32, imm: u32) -> u32 {
    op << 28 | rd << 23 | rs << 18 | rt << 13 | (imm & 0x1fff)
}

/// The timed program: `PASSES` passes of a loop that loads, mixes,
/// stores back and reloads 2048 words.
const TIMED: [u32; 18] = [
    word(0, 1, 0, 0, 0),       // r1 = 0
    word(0, 6, 0, 0, 2048),    // r6 = 2048
    word(3, 2, 1, 0, 0),       // r2 = mem[r1]
    word(1, 3, 3, 2, 0),       // r3 += r2
    word(6, 4, 2, 0, 3),       // r4 = r2 >> 3
    word(7, 5, 5, 4, 0),       // r5 ^= r4
    word(8, 8, 1, 0, 255),     // r8 = r1 & 255
    word(4, 0, 8, 5, 2048),    // mem[r8 + 2048] = r5
    word(3, 9, 8, 0, 2048),    // r9 = mem[r8 + 2048]
    word(1, 10, 10, 9, 0),     // r10 += r9
    word(2, 12, 2, 7, 0),      // r12 = r2 * r7
    word(1, 13, 13, 12, 0),    // r13 += r12
    word(0, 1, 1, 0, 1),       // r1 += 1
    word(5, 0, 1, 6, 2),       // if r1 < r6 goto 2
    word(0, 11, 11, 0, 1),     // r11 += 1
    word(0, 14, 0, 0, PASSES), // r14 = PASSES
    word(5, 0, 11, 14, 0),     // if r11 < r14 goto 0
    word(9, 0, 0, 0, 0),       // halt
];

/// The pre-decoded program: `CHAIN_PASSES` passes of a loop that folds
/// 1024 words into a multiply chain and stores and reloads the result.
const CHAIN: [u32; 17] = [
    word(0, 1, 0, 0, 0),             // r1 = 0
    word(0, 6, 0, 0, 1024),          // r6 = 1024
    word(3, 2, 1, 0, 0),             // r2 = mem[r1]
    word(2, 3, 3, 7, 0),             // r3 *= r7
    word(1, 3, 3, 2, 0),             // r3 += r2
    word(6, 4, 3, 0, 7),             // r4 = r3 >> 7
    word(7, 5, 5, 4, 0),             // r5 ^= r4
    word(8, 8, 1, 0, 15),            // r8 = r1 & 15
    word(4, 0, 8, 5, 1024),          // mem[r8 + 1024] = r5
    word(3, 9, 8, 0, 1024),          // r9 = mem[r8 + 1024]
    word(1, 10, 10, 9, 0),           // r10 += r9
    word(0, 1, 1, 0, 1),             // r1 += 1
    word(5, 0, 1, 6, 2),             // if r1 < r6 goto 2
    word(0, 11, 11, 0, 1),           // r11 += 1
    word(0, 12, 0, 0, CHAIN_PASSES), // r12 = CHAIN_PASSES
    word(5, 0, 11, 12, 0),           // if r11 < r12 goto 0
    word(9, 0, 0, 0, 0),             // halt
];

/// A decoded instruction word.
#[derive(Clone, Copy)]
struct Op {
    op: u32,
    rd: usize,
    rs: usize,
    rt: usize,
    imm: u32,
}

fn decode(w: u32) -> Op {
    Op {
        op: w >> 28,
        rd: (w >> 23 & 31) as usize,
        rs: (w >> 18 & 31) as usize,
        rt: (w >> 13 & 31) as usize,
        imm: w & 0x1fff,
    }
}

impl Mini {
    fn new() -> Mini {
        let mut mem = [0; 4096];
        for (i, w) in mem.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(0x9e37_79b1);
        }
        let mut regs = [0; 32];
        regs[7] = 31;
        Mini {
            regs,
            mem,
            tags: [[u32::MAX; 2]; 64],
            victim: [0; 64],
            hits: 0,
            misses: 0,
            cycles: 0,
            class: [0; 16],
        }
    }

    /// The tag model: 1 cycle on a hit, 10 on a miss.
    fn access(&mut self, addr: u32) -> u64 {
        let set = (addr >> 5) as usize & 63;
        let tag = addr >> 11;
        let ways = &mut self.tags[set];
        if let Some(way) = ways.iter().position(|&t| t == tag) {
            self.victim[set] = 1 - way as u8;
            self.hits += 1;
            1
        } else {
            ways[usize::from(self.victim[set])] = tag;
            self.victim[set] ^= 1;
            self.misses += 1;
            10
        }
    }

    /// Runs [`TIMED`] to its halt, fetching and decoding every word.
    fn run_timed(&mut self) {
        let program = black_box(&TIMED);
        let mut pc = 0u32;
        loop {
            self.cycles += self.access(0x4000_0000 + pc * 4);
            let Op { op, rd, rs, rt, imm } = decode(program[pc as usize]);
            pc += 1;
            self.class[op as usize] += 1;
            let (a, b) = (self.regs[rs], self.regs[rt]);
            match op {
                3 | 4 => {
                    let addr = a.wrapping_add(imm) & 4095;
                    self.cycles += self.access(addr * 4);
                    if op == 3 {
                        self.regs[rd] = self.mem[addr as usize];
                    } else {
                        self.mem[addr as usize] = b;
                    }
                }
                5 => {
                    if a < b {
                        pc = imm;
                        self.cycles += 2;
                    }
                }
                9 => break,
                _ => self.regs[rd] = alu(op, a, b, imm),
            }
            self.regs[0] = 0;
            self.cycles += 1;
        }
    }

    /// Runs [`CHAIN`] to its halt from its pre-decoded form.
    fn run_decoded(&mut self) {
        let program: Vec<Op> = black_box(&CHAIN).iter().map(|&w| decode(w)).collect();
        let mut pc = 0;
        loop {
            let Op { op, rd, rs, rt, imm } = program[pc];
            pc += 1;
            let (a, b) = (self.regs[rs], self.regs[rt]);
            match op {
                3 => self.regs[rd] = self.mem[a.wrapping_add(imm) as usize & 4095],
                4 => self.mem[a.wrapping_add(imm) as usize & 4095] = b,
                5 => {
                    if a < b {
                        pc = imm as usize;
                    }
                }
                9 => break,
                _ => self.regs[rd] = alu(op, a, b, imm),
            }
        }
    }

    /// A fold of the final state, so the work cannot be optimised away.
    fn fold(&self) -> u64 {
        let regs = self.regs.iter().fold(0, |x, r| x ^ r);
        self.cycles ^ self.hits ^ self.misses ^ self.class.iter().sum::<u64>() ^ u64::from(regs)
    }
}

fn alu(op: u32, a: u32, b: u32, imm: u32) -> u32 {
    match op {
        0 => a.wrapping_add(imm),
        1 => a.wrapping_add(b),
        2 => a.wrapping_mul(b),
        6 => a >> imm,
        7 => a ^ b,
        _ => a & imm,
    }
}

/// One run of the reference workload: both programs, each on a fresh
/// miniature.
fn reference_run() -> u64 {
    let (mut timed, mut decoded) = (Mini::new(), Mini::new());
    timed.run_timed();
    decoded.run_decoded();
    timed.fold() ^ decoded.fold()
}

struct Reference {
    /// The latest calibrations, in host nanoseconds.
    recent: Vec<f64>,
    /// Every calibration of the run.
    all: Vec<f64>,
    scale: f64,
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::new(Reference::new());
}

impl Reference {
    fn new() -> Reference {
        Reference { recent: Vec::new(), all: Vec::new(), scale: 1.0 }
    }

    fn calibrate(&mut self) {
        let ns = (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                black_box(reference_run());
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        self.all.push(ns);
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ns);
        self.scale = REFERENCE_NS / median(&self.recent);
    }
}

/// Times the reference workload once more and updates the current host
/// speed to the median of the latest calibrations. Called before every
/// timed operation, so the speed follows the host through the run.
pub fn calibrate() {
    REFERENCE.with(|r| r.borrow_mut().calibrate());
}

/// `ns` measured on the host now, in reference nanoseconds.
pub fn normalise(ns: u64) -> u64 {
    REFERENCE.with(|r| (ns as f64 * r.borrow().scale).round() as u64)
}

/// Median duration of the reference workload over the run, in host
/// nanoseconds: how fast the host was (lower is faster).
pub fn reference_median_ns() -> f64 {
    REFERENCE.with(|r| median(&r.borrow().all))
}
