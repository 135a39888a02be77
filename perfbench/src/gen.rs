//! Seeded input generator. Everything the served program receives comes
//! from here: reference textures and augmented captures from
//! `texid_image`, and synthetic RootSIFT-shaped distractor matrices. The
//! same `(workload, scale, seed)` always yields byte-identical inputs.

use crate::{Scale, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use texid_image::{CaptureCondition, GrayImage, TextureGenerator};
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;

/// Descriptor dimension of SIFT.
pub const DIM: usize = 128;
/// First id handed to synthetic distractors; real references use small ids.
pub const DISTRACTOR_BASE: u64 = 1_000_000;

/// One step of a workload's fixed operation sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Start from an empty cluster (ingest cycles).
    Reset,
    /// `POST /textures` with gallery entry `entry`.
    Enrol { entry: usize },
    /// Extract capture `capture`, then `POST /search` (identify).
    Identify { capture: usize },
    /// `POST /search` with the pre-extracted features of capture `capture`.
    Search { capture: usize },
}

/// A gallery entry: an id plus where its features come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Extracted from `Inputs::references[k]`.
    Real(usize),
    /// `Inputs::distractors[k]`.
    Synthetic(usize),
}

/// Everything a workload run is built from.
pub struct Inputs {
    /// Real reference textures `(id, image)`.
    pub references: Vec<(u64, GrayImage)>,
    /// Augmented captures `(expected id, image)` of real references.
    pub captures: Vec<(u64, GrayImage)>,
    /// Synthetic distractors `(id, features)`.
    pub distractors: Vec<(u64, FeatureMatrix)>,
    /// Enrolment order of one gallery (one ingest cycle).
    pub gallery: Vec<(u64, Source)>,
    /// Warm-up operations; their timings are discarded.
    pub warmup: Vec<Step>,
    /// The measured operation sequence.
    pub plan: Vec<Step>,
}

/// RootSIFT-shaped random descriptors: non-negative, heavy-tailed bins,
/// L1-normalised then square-rooted, so every column has unit L2 norm.
pub fn distractor(seed: u64, cols: usize) -> FeatureMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(DIM * cols);
    for _ in 0..cols {
        let col: Vec<f32> = (0..DIM)
            .map(|_| {
                let u: f32 = rng.gen();
                u * u * u
            })
            .collect();
        let l1: f32 = col.iter().sum::<f32>().max(f32::MIN_POSITIVE);
        data.extend(col.iter().map(|v| (v / l1).sqrt()));
    }
    FeatureMatrix::from_mat(Mat::from_col_major(DIM, cols, data), true)
}

fn shuffle<T>(rng: &mut SmallRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

impl Inputs {
    /// Generate the inputs of `workload` at `scale` from `seed`;
    /// `measured_ops` sizes the measured sequence (see [`Scale::measured_ops`]).
    pub fn generate(workload: Workload, scale: &Scale, seed: u64, measured_ops: usize) -> Inputs {
        let mix = |salt: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
        let mut rng = SmallRng::seed_from_u64(mix(0x5eed));
        let factory = TextureGenerator {
            dataset_seed: mix(0xda7a),
            ..TextureGenerator::with_size(scale.image_size)
        };
        let references: Vec<(u64, GrayImage)> = (0..scale.real_refs as u64)
            .map(|id| (id, factory.generate(id)))
            .collect();
        let captures: Vec<(u64, GrayImage)> = (0..scale.captures)
            .map(|c| {
                let (id, image) = &references[c % references.len()];
                let capture = CaptureCondition::mild(&mut rng).apply(image, mix(c as u64));
                (*id, capture)
            })
            .collect();
        let distractors: Vec<(u64, FeatureMatrix)> = (0..scale.distractors)
            .map(|k| {
                (
                    DISTRACTOR_BASE + k as u64,
                    distractor(mix(0xd15 + k as u64), scale.m_ref),
                )
            })
            .collect();

        let real = (0..scale.real_refs).map(|k| (references[k].0, Source::Real(k)));
        let synth = (0..scale.distractors).map(|k| (distractors[k].0, Source::Synthetic(k)));
        let mut gallery: Vec<(u64, Source)> = real.chain(synth).collect();
        let (warmup, plan) = match workload {
            Workload::Identify | Workload::Gallery => {
                shuffle(&mut rng, &mut gallery);
                let op = |capture| match workload {
                    Workload::Identify => Step::Identify { capture },
                    _ => Step::Search { capture },
                };
                let mut order: Vec<usize> = (0..scale.captures).collect();
                shuffle(&mut rng, &mut order);
                let seq = |n: usize, skip: usize| -> Vec<Step> {
                    (0..n)
                        .map(|i| op(order[(i + skip) % order.len()]))
                        .collect()
                };
                (
                    seq(scale.warmup_ops, 0),
                    seq(measured_ops, scale.warmup_ops),
                )
            }
            Workload::Ingest => {
                // Blocks of `search_every` enrolments, each ending with a
                // search for a capture of a real reference already enrolled
                // this cycle. The first blocks each hold one real reference
                // at a seeded position.
                let block = scale.search_every;
                let mut synth: Vec<(u64, Source)> = gallery.split_off(scale.real_refs);
                shuffle(&mut rng, &mut synth);
                shuffle(&mut rng, &mut gallery);
                let blocks = (gallery.len() + synth.len()).div_ceil(block);
                let (mut real, mut synth) = (gallery.into_iter(), synth.into_iter());
                let mut cycle_gallery = Vec::new();
                let mut cycle = vec![Step::Reset];
                for _ in 0..blocks {
                    let at = rng.gen_range(0..block);
                    for slot in 0..block {
                        let entry = if slot == at {
                            real.next().or_else(|| synth.next())
                        } else {
                            synth.next().or_else(|| real.next())
                        };
                        if let Some(e) = entry {
                            cycle.push(Step::Enrol {
                                entry: cycle_gallery.len(),
                            });
                            cycle_gallery.push(e);
                        }
                    }
                    let enrolled: Vec<usize> = (0..captures.len())
                        .filter(|&c| cycle_gallery.iter().any(|(id, _)| *id == captures[c].0))
                        .collect();
                    if !enrolled.is_empty() {
                        let capture = enrolled[rng.gen_range(0..enrolled.len())];
                        cycle.push(Step::Search { capture });
                    }
                }
                gallery = cycle_gallery;
                let cycles = measured_ops.div_ceil(cycle.len() - 1).max(1);
                (cycle.clone(), cycle.repeat(cycles))
            }
        };
        Inputs {
            references,
            captures,
            distractors,
            gallery,
            warmup,
            plan,
        }
    }

    /// Every generated byte, in a fixed order: images, captures,
    /// distractor matrices, gallery order and both operation sequences.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        for (id, im) in self.references.iter().chain(&self.captures) {
            put(*id);
            im.as_slice().iter().for_each(|p| put(p.to_bits() as u64));
        }
        for (id, fm) in &self.distractors {
            put(*id);
            fm.mat
                .as_slice()
                .iter()
                .for_each(|p| put(p.to_bits() as u64));
        }
        for (id, src) in &self.gallery {
            put(*id);
            put(match src {
                Source::Real(k) => *k as u64,
                Source::Synthetic(k) => (1 << 32) | *k as u64,
            });
        }
        for step in self.warmup.iter().chain(&self.plan) {
            let (tag, arg) = match *step {
                Step::Reset => (0, 0),
                Step::Enrol { entry } => (1, entry),
                Step::Identify { capture } => (2, capture),
                Step::Search { capture } => (3, capture),
            };
            put(tag);
            put(arg as u64);
        }
        out
    }
}
