//! Seeded input generator: Dockerfiles plus build-context bytes for all
//! three workloads. The same seed always yields the same bytes.
//!
//! Context stays as raw bytes here. [`Input::options`] wraps it in
//! fresh `Blob`s on every call, as every CLI build reads its context
//! afresh: reusing one `Arc<Blob>` across repetitions would keep the
//! blobs' digest memos warm and measure a cache no real build has.

use zeroroot_core::Mode;
use zr_build::{context_file, BuildOptions};

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x05ee_d0fb_e4c4_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Eight lowercase hex digits: unique path and content tokens.
    pub fn token(&mut self) -> String {
        format!("{:08x}", self.next_u64() as u32)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The four catalog bases and the package install each one runs.
pub const BASES: [(&str, &str); 4] = [
    ("alpine:3.19", "apk add sl"),
    ("centos:7", "yum install -y openssh"),
    ("debian:12", "apt-get install -y hello"),
    ("fedora:40", "dnf install -y sl"),
];

/// One generated build: the Dockerfile and its context as bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    pub id: String,
    /// Index into [`BASES`].
    pub base: usize,
    pub dockerfile: String,
    pub context: Vec<(String, Vec<u8>)>,
}

impl Input {
    /// `--force=seccomp` options over freshly wrapped context blobs.
    pub fn options(&self) -> BuildOptions {
        BuildOptions {
            context: self
                .context
                .iter()
                .map(|(name, data)| context_file(name, data.clone()))
                .collect(),
            ..BuildOptions::new(&self.id, Mode::Seccomp)
        }
    }

    /// yum and dnf unpack RPMs whose chowns the filter must fake.
    pub fn installs_rpms(&self) -> bool {
        matches!(self.base, 1 | 3)
    }

    pub fn context_bytes(&self) -> usize {
        self.context.iter().map(|(_, d)| d.len()).sum()
    }
}

/// A syscall-heavy RUN: create `files` files under `dir`, then chown
/// (faked by the filter) and chmod every one of them.
fn run_chain(dir: &str, files: usize, mode: &str) -> String {
    let paths: Vec<String> = (0..files).map(|f| format!("{dir}/f{f}")).collect();
    let paths = paths.join(" ");
    format!("RUN mkdir -p {dir} && touch {paths} && chown 0:0 {paths} && chmod {mode} {paths}\n")
}

fn file_mode(rng: &mut Rng) -> &'static str {
    ["600", "640", "644", "755"][rng.below(4)]
}

fn copy_line(name: &str) -> String {
    format!("COPY {name} /ctx/{name}\n")
}

/// Files per RUN chain and chains per build on `cold-batch`.
const BATCH_CHAIN_FILES: usize = 50;
const BATCH_CHAINS: usize = 12;
/// Context files per build on `cold-batch`, and their size.
const BATCH_CONTEXT: usize = 4;
const BATCH_CONTEXT_BYTES: usize = 16 * 1024;

/// `cold-batch` inputs: `n` distinct builds cycling the four bases.
/// Every fourth group of four is multi-stage (a diamond or a fan-in,
/// chosen by the seed), so a quarter of the batch exercises
/// `COPY --from=`. Inputs share only their base and install layer:
/// every RUN names paths under a per-input token.
pub fn cold_batch(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let base = i % BASES.len();
            let (from, install) = BASES[base];
            let tok = rng.token();
            let context: Vec<(String, Vec<u8>)> = (0..BATCH_CONTEXT)
                .map(|k| (format!("ctx{k}.bin"), rng.bytes(BATCH_CONTEXT_BYTES)))
                .collect();
            let mut chain = |stage: &str, j: usize| {
                let mode = file_mode(&mut rng);
                run_chain(&format!("/w{tok}/{stage}/d{j}"), BATCH_CHAIN_FILES, mode)
            };
            let third = BATCH_CHAINS / 3;
            let mut df = String::new();
            if (i / BASES.len()) % 4 == 1 {
                // Multi-stage: the same chain and COPY count as the
                // single-stage shape, split over three stages.
                let diamond = i % 2 == (seed % 2) as usize;
                if diamond {
                    df.push_str(&format!("FROM {from} AS base\nRUN {install}\n"));
                } else {
                    df.push_str(&format!("FROM {from} AS a\nRUN {install}\n"));
                }
                let names = ["a", "b", "c"];
                for (s, name) in names.iter().enumerate() {
                    if s > 0 {
                        let parent = if diamond { "base" } else { from };
                        df.push_str(&format!("FROM {parent} AS {name}\n"));
                    }
                    df.push_str(&copy_line(&context[s].0));
                    for j in s * third..(s + 1) * third {
                        df.push_str(&chain(name, j));
                    }
                }
                df.push_str(&format!("FROM {}\n", if diamond { "base" } else { "a" }));
                df.push_str(&copy_line(&context[3].0));
                for name in &names[1..] {
                    df.push_str(&format!(
                        "COPY --from={name} /w{tok}/{name} /w{tok}/{name}\n"
                    ));
                }
            } else {
                df.push_str(&format!("FROM {from}\nRUN {install}\n"));
                for j in 0..BATCH_CHAINS {
                    if j % third == 0 {
                        df.push_str(&copy_line(&context[j / third].0));
                    }
                    df.push_str(&chain("s", j));
                }
                df.push_str(&copy_line(&context[3].0));
            }
            Input {
                id: format!("b{i}"),
                base,
                dockerfile: df,
                context,
            }
        })
        .collect()
}

/// Body instructions of a `dev-loop` project after `FROM` and the
/// install: RUN chains and COPYs in a seeded order.
const DEV_RUNS: usize = 10;
const DEV_COPIES: usize = 4;
const DEV_CHAIN_FILES: usize = 30;
const DEV_CONTEXT_BYTES: usize = 12 * 1024;
/// Instructions before the body (`FROM`, `RUN <install>`).
pub const DEV_HEAD: usize = 2;

#[derive(Debug, Clone)]
enum Body {
    Run { dir: String, mode: &'static str },
    Copy { file: usize },
}

/// One `dev-loop` project: its successive states. `steps[0]` is the
/// initial project; `steps[k]` is the project after edit `k`, which
/// changed the instruction at index `edits[k - 1]` (0 = `FROM`), so a
/// rebuild of `steps[k]` on a store warm with `steps[k - 1]` hits
/// exactly `edits[k - 1]` instructions.
#[derive(Debug, Clone)]
pub struct Project {
    pub steps: Vec<Input>,
    pub edits: Vec<usize>,
}

impl Project {
    pub fn instructions(&self) -> usize {
        DEV_HEAD + DEV_RUNS + DEV_COPIES
    }
}

fn render(id: &str, base: usize, body: &[Body], context: &[(String, Vec<u8>)]) -> Input {
    let (from, install) = BASES[base];
    let mut df = format!("FROM {from}\nRUN {install}\n");
    for b in body {
        match b {
            Body::Run { dir, mode } => df.push_str(&run_chain(dir, DEV_CHAIN_FILES, mode)),
            Body::Copy { file } => df.push_str(&copy_line(&context[*file].0)),
        }
    }
    Input {
        id: id.to_string(),
        base,
        dockerfile: df,
        context: context.to_vec(),
    }
}

/// `n` `dev-loop` projects. Edit positions are stratified: the body is
/// split into adjacent pairs and the seed picks one instruction of
/// each pair, in a seeded order. Every seed therefore edits the same
/// spread of depths (short and long replayed prefixes alike) while the
/// positions, order and contents differ.
pub fn dev_projects(seed: u64, n: usize) -> Vec<Project> {
    let mut rng = Rng::new(seed ^ 0xde5);
    (0..n)
        .map(|p| {
            let base = p % BASES.len();
            let ptok = rng.token();
            let mut body: Vec<Body> = (0..DEV_RUNS)
                .map(|j| Body::Run {
                    dir: format!("/p{ptok}/s{j}-{}", rng.token()),
                    mode: file_mode(&mut rng),
                })
                .chain((0..DEV_COPIES).map(|file| Body::Copy { file }))
                .collect();
            rng.shuffle(&mut body);
            let mut context: Vec<(String, Vec<u8>)> = (0..DEV_COPIES)
                .map(|k| (format!("src{k}.dat"), rng.bytes(DEV_CONTEXT_BYTES)))
                .collect();
            let mut edits: Vec<usize> = (0..body.len() / 2)
                .map(|pair| DEV_HEAD + 2 * pair + rng.below(2))
                .collect();
            rng.shuffle(&mut edits);
            let id = format!("p{p}");
            let mut steps = vec![render(&id, base, &body, &context)];
            for &pos in &edits {
                match &mut body[pos - DEV_HEAD] {
                    Body::Run { dir, .. } => {
                        *dir = format!("/p{ptok}/e-{}", rng.token());
                    }
                    Body::Copy { file } => {
                        let data = &mut context[*file].1;
                        for _ in 0..64 {
                            let at = rng.below(data.len());
                            data[at] = data[at].wrapping_add(1 + rng.below(255) as u8);
                        }
                    }
                }
                steps.push(render(&id, base, &body, &context));
            }
            Project { steps, edits }
        })
        .collect()
}

/// Target layout sizes for the `ship` pool, in KiB: a fixed ladder from
/// about 0.4 MB to a few MB. The seed chooses the bytes, not the sizes
/// or which base each size sits on: a pull fetches the base layers too,
/// so a seeded pairing would move the latency median between seeds.
///
/// The ladder has an odd length on purpose. Every pass ships each size
/// once, so with an even length the round-trip median would fall on
/// the gap between two size classes and swing with their extremes.
pub const SHIP_SIZES_KIB: [usize; 7] = [2400, 1850, 1400, 1050, 780, 560, 400];
const SHIP_FILE_KIB: usize = 384;

/// The `ship` pool: one image per ladder size, bases in turn, so three
/// of the four base layers are shared by two images.
pub fn ship_pool(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0x5419);
    SHIP_SIZES_KIB
        .iter()
        .enumerate()
        .map(|(i, &kib)| {
            let base = i % BASES.len();
            let (from, install) = BASES[base];
            let mut context = Vec::new();
            let mut left = kib * 1024;
            while left > 0 {
                let len = left.min(SHIP_FILE_KIB * 1024);
                context.push((format!("blob{}.bin", context.len()), rng.bytes(len)));
                left -= len;
            }
            let mut df = format!("FROM {from}\nRUN {install}\n");
            for (name, _) in &context {
                df.push_str(&copy_line(name));
            }
            let tok = rng.token();
            df.push_str(&run_chain(&format!("/s{tok}"), 20, file_mode(&mut rng)));
            Input {
                id: format!("img{i}"),
                base,
                dockerfile: df,
                context,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(inputs: &[Input]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in inputs {
            out.extend_from_slice(i.dockerfile.as_bytes());
            for (name, data) in &i.context {
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(data);
            }
        }
        out
    }

    fn all(seed: u64) -> Vec<u8> {
        let mut out = bytes_of(&cold_batch(seed, 16));
        for p in dev_projects(seed, 4) {
            out.extend(bytes_of(&p.steps));
            out.extend(p.edits.iter().map(|&e| e as u8));
        }
        out.extend(bytes_of(&ship_pool(seed)));
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(all(7), all(7));
        assert_ne!(all(7), all(8));
    }

    #[test]
    fn cold_batch_inputs_are_distinct_and_a_quarter_multi_stage() {
        let inputs = cold_batch(3, 16);
        let mut dfs: Vec<&str> = inputs.iter().map(|i| i.dockerfile.as_str()).collect();
        dfs.sort();
        dfs.dedup();
        assert_eq!(dfs.len(), 16);
        let multi = inputs
            .iter()
            .filter(|i| i.dockerfile.contains("--from="))
            .count();
        assert_eq!(multi, 4);
    }

    #[test]
    fn dev_edits_cover_every_pair_once() {
        for p in dev_projects(11, 4) {
            let mut pairs: Vec<usize> = p.edits.iter().map(|e| (e - DEV_HEAD) / 2).collect();
            pairs.sort();
            assert_eq!(pairs, (0..7).collect::<Vec<_>>());
            assert_eq!(p.steps.len(), p.edits.len() + 1);
            for w in p.steps.windows(2) {
                assert_ne!(w[0], w[1]);
            }
        }
    }

    #[test]
    fn ship_pool_ships_the_whole_ladder() {
        let total: usize = ship_pool(5).iter().map(Input::context_bytes).sum();
        assert_eq!(total, SHIP_SIZES_KIB.iter().sum::<usize>() * 1024);
    }
}
