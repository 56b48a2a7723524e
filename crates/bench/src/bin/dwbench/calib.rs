//! The speed reference: a fixed piece of work, timed all through a run, that
//! every reported time is divided by.
//!
//! The machines this benchmark runs on change speed. The 2-core VM it was
//! written on has stretches, from under a second to over ten minutes, in
//! which memory latency doubles and every program slows down, with nothing
//! else running in the VM: this reference by up to a quarter, the workloads
//! by 15 to 40 %. Medians of whole ten-run sets taken minutes apart differed
//! by up to 35 %. No bound below that could tell a change of the code from a
//! change of the weather. So the reference is read right before and right
//! after every set-up and every repetition; the mean of the two readings over
//! [`NOMINAL_S`] is that repetition's speed factor. Its times are divided by
//! it and its rates multiplied, so a reported time reads "at the speed at
//! which the reference takes `NOMINAL_S`". (Each repetition has its own
//! factor because the short stretches are shorter than a run: within one
//! 20-second run, readings half a second apart ranged from 20.6 to 26.7 ms.
//! Against one factor per run, the run's median, ten-seed interquartile
//! spreads were typically 40 % wider.) The factors are in the detail line of
//! every run (raw = reported × factor for a time); their median is the
//! per-layer metric `gen.speed_factor`.
//!
//! The reference must not change when the product does, so it is plain `std`
//! code kept here: a fill, block copies, dependent random reads and a sort
//! over 4 MiB — memory bandwidth, cache misses and branchy compute — and a
//! chain of dependent reads across 32 MiB, which no cache holds. That last
//! part is there because memory latency is what the slow stretches change
//! most (the same chain took 7.6 ms in a fast stretch and 22 ms in the worst
//! one seen, while cache-resident work lost 8 %), and a storage engine chases
//! pointers through more memory than the caches hold. Its length is set so
//! that the reference loses about as much in a slow stretch as the
//! workloads do: over 16 runs of each workload, interleaved across several
//! stretches, `op_bulk`'s throughput had an interquartile spread of 12 % raw,
//! 7 % against the 4 MiB part alone and 4 % against this mix; `value_stream`
//! 5 %, 3 % and 3 %; `snapshot_audit`, which such stretches barely touch,
//! 2.5 %, 2 % and 2.5 %.

use std::hint::black_box;
use std::time::Instant;

/// What the reference takes on the machine this was written on, in its most
/// common state. Only fixes the scale of the reported times.
pub const NOMINAL_S: f64 = 0.020;

/// The 4 MiB of the near part and the 32 MiB of the far part, in words.
const WORDS: usize = 1 << 19;
const FAR_WORDS: usize = 1 << 22;
/// Dependent reads across the far part per execution.
const FAR_READS: usize = 20_000;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn work(buf: &mut [u64], copy: &mut [u64], far: &[u64]) -> u64 {
    // Fill: sequential writes of a splitmix64 stream.
    let mut x = 0;
    for slot in buf.iter_mut() {
        *slot = splitmix(&mut x);
    }
    // Block copies, as a buffer pool moves pages.
    for _ in 0..4 {
        copy.copy_from_slice(buf);
        black_box(&mut *copy);
    }
    // Dependent random reads: each index comes from the previous value.
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..WORDS / 2 {
        acc = acc.wrapping_add(copy[i]);
        i = (copy[i] as usize ^ acc as usize) % WORDS;
    }
    // The same across memory no cache holds.
    let mut j = 0usize;
    for _ in 0..FAR_READS {
        acc = acc.wrapping_add(far[j]);
        j = (far[j] as usize ^ acc as usize) % FAR_WORDS;
    }
    // Sort: compare-and-branch over the whole array.
    buf.sort_unstable();
    acc ^ buf[WORDS / 2]
}

/// The speed reference and every reading taken from it in this run.
pub struct Reference {
    buf: Vec<u64>,
    copy: Vec<u64>,
    far: Vec<u64>,
    readings: Vec<f64>,
}

impl Reference {
    /// With `on` false (a `--quick` smoke run measures nothing) no reading is
    /// ever taken and the factor is 1.
    pub fn new(on: bool) -> Reference {
        let mut x = 1;
        let words = |n: usize| if on { n } else { 0 };
        Reference {
            buf: vec![0; words(WORDS)],
            copy: vec![0; words(WORDS)],
            far: (0..words(FAR_WORDS)).map(|_| splitmix(&mut x)).collect(),
            readings: Vec::new(),
        }
    }

    /// Take a reading: the faster of two executions of the reference work,
    /// so that a neighbour's burst during one of them is not taken for the
    /// machine's speed. Returns it over [`NOMINAL_S`] (1 when switched off).
    pub fn read(&mut self) -> f64 {
        if self.far.is_empty() {
            return 1.0;
        }
        let reading = (0..2)
            .map(|_| {
                let started = Instant::now();
                black_box(work(&mut self.buf, &mut self.copy, &self.far));
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        self.readings.push(reading);
        reading / NOMINAL_S
    }

    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// The median reading of the run over [`NOMINAL_S`]: above 1 on a slow
    /// machine or in a slow spell. For the record; each repetition is scaled
    /// by the readings around it.
    pub fn factor(&self) -> f64 {
        if self.readings.is_empty() {
            return 1.0;
        }
        crate::stats::median(&self.readings) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_time() {
        let mut r = Reference::new(true);
        let a = work(&mut r.buf, &mut r.copy, &r.far);
        let b = work(&mut r.buf, &mut r.copy, &r.far);
        assert_eq!(a, b);
        for _ in 0..3 {
            assert!(r.read() > 0.0);
        }
        assert_eq!(r.readings().len(), 3);
        assert!(r.factor() > 0.0);
        r.readings = vec![NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S];
        assert_eq!(r.factor(), 2.0);
        let mut off = Reference::new(false);
        assert_eq!(off.read(), 1.0);
        assert!(off.readings().is_empty());
        assert_eq!(off.factor(), 1.0);
    }
}
