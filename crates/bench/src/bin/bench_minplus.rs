//! Emits `BENCH_minplus.json` in the working directory: raw throughput of the
//! min-plus row primitive ([`kernel::apply_candidate`]) alone, scalar vs
//! SIMD, across row widths chosen to cover full-lane rows, sub-lane rows,
//! and non-lane-multiple tails.
//!
//! The scheduler-level figure (`bench_sched`) measures the kernel buried
//! under grid builds, pruning, and pricing; this bin isolates the inner
//! loop so a kernel regression cannot hide behind the rest of the
//! pipeline.
//!
//! Build with `--features simd` on nightly to bench the vector path; on
//! stable the SIMD column reports the scalar fallback (and says so via
//! the `kernel` field).

use pdftsp_core::kernel::{self, KernelKind};
use pdftsp_core::KernelChoice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Row widths (cells per DP row). 7 is a sub-lane row, 8 one exact lane,
/// 31/36/100/1001 exercise the scalar tail after the vector body, 256 is
/// an exact multiple of the 8-wide lane.
const WIDTHS: &[usize] = &[7, 8, 31, 36, 100, 256, 1001];
/// Candidates applied per row — a realistic pruned Pareto front.
const CANDIDATES: usize = 12;
/// Timed repetitions per (width, kernel) measurement.
const REPS: usize = 2000;

/// One synthetic row workload: a previous DP row (with a sprinkling of
/// `+∞` frontier cells, as real rows have), plus per-candidate
/// (gain, delta, tag) triples.
struct RowCase {
    prev: Vec<f64>,
    cur: Vec<f64>,
    crow: Vec<u16>,
    cands: Vec<(usize, f64, u16)>,
    w_hi: usize,
}

impl RowCase {
    fn new(width: usize, rng: &mut StdRng) -> Self {
        let stride = width.next_multiple_of(kernel::LANES);
        let prev = (0..stride)
            .map(|_| {
                if rng.gen_range(0u32..6) == 0 {
                    f64::INFINITY
                } else {
                    rng.gen_range(0.0f64..100.0)
                }
            })
            .collect();
        let cands = (0..CANDIDATES)
            .map(|i| {
                (
                    rng.gen_range(1usize..=(width / 2).max(1)),
                    rng.gen_range(0.1f64..10.0),
                    i as u16 + 1,
                )
            })
            .collect();
        RowCase {
            prev,
            cur: vec![f64::INFINITY; stride],
            crow: vec![0u16; stride],
            cands,
            w_hi: width - 1,
        }
    }

    /// Applies every candidate to a reset row; returns a value to keep
    /// the optimizer honest.
    fn run(&mut self, kind: KernelKind) -> f64 {
        self.cur.fill(f64::INFINITY);
        self.crow.fill(0);
        for &(gain, delta, tag) in &self.cands {
            kernel::apply_candidate(
                kind,
                &self.prev,
                &mut self.cur,
                &mut self.crow,
                0,
                self.w_hi,
                gain,
                delta,
                tag,
            );
        }
        self.cur[self.w_hi]
    }
}

/// Median-of-reps cells/s for one (width, kernel) pair.
fn throughput(case: &mut RowCase, kind: KernelKind) -> f64 {
    let cells = (CANDIDATES * (case.w_hi + 1)) as f64;
    black_box(case.run(kind)); // warm-up
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(case.run(kind));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    cells / samples[samples.len() / 2].max(1e-12)
}

fn main() {
    let simd = KernelChoice::Simd.resolve().kind;
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let mut rows = Vec::new();
    for &width in WIDTHS {
        let mut case = RowCase::new(width, &mut rng);

        // Sanity: both kernels must produce the same bits before either
        // throughput number means anything.
        let scalar_out = case.run(KernelKind::Scalar).to_bits();
        let simd_out = case.run(simd).to_bits();
        assert_eq!(scalar_out, simd_out, "width {width}: kernels diverged");

        let scalar_cps = throughput(&mut case, KernelKind::Scalar);
        let simd_cps = throughput(&mut case, simd);
        let speedup = simd_cps / scalar_cps.max(1e-12);
        println!(
            "width {width:>4}: scalar {scalar_cps:>12.0} cells/s | {} {simd_cps:>12.0} cells/s | {speedup:.2}x",
            simd.name()
        );
        rows.push(format!(
            concat!(
                "    {{\"width\": {}, \"stride\": {}, \"candidates\": {}, ",
                "\"scalar_cells_per_s\": {:.0}, \"simd_cells_per_s\": {:.0}, ",
                "\"speedup\": {:.3}}}"
            ),
            width,
            width.next_multiple_of(kernel::LANES),
            CANDIDATES,
            scalar_cps,
            simd_cps,
            speedup
        ));
    }
    let body = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"minplus_kernel\",\n",
            "  \"emitter\": \"bench_minplus\",\n",
            "  \"reps\": {},\n",
            "  \"kernel\": \"{}\",\n",
            "  \"simd_compiled\": {},\n",
            "  \"simd_isa\": \"{}\",\n",
            "  \"lanes\": {},\n",
            "  \"rows\": [\n",
            "{}\n",
            "  ]\n",
            "}}\n"
        ),
        REPS,
        simd.name(),
        kernel::simd_compiled(),
        kernel::simd_isa(),
        kernel::LANES,
        rows.join(",\n")
    );
    let path = "BENCH_minplus.json";
    std::fs::write(path, &body).expect("write BENCH_minplus.json");
    println!("wrote {path}");
}
